// Seeded mutational inputs for the fault-spec grammar fuzzer.
//
// Spec strings taken from src/, bench/, examples/, perfbench/ and tests/
// seed the mutator; each fuzz input is one seed with 1-2 random
// edits: a flipped bit, an inserted grammar token or kind name, a deleted
// run of bytes, or a splice from another seed.  The draws come from the
// seeded common::Rng only, so input i is the same on every toolchain and
// tests/corpus/fault_specs.txt can pin the outcome of each one.
//
// Corpus lines are `input<TAB>single-job outcome<TAB>fleet outcome`, where
// an outcome is `-` (parse threw dragster::Error) or `+` followed by the
// plan's to_string().  Text is escaped byte-wise: printable ASCII other than
// space and '\' is kept, every other byte becomes `\xHH`.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace dragster::testing {

inline const std::vector<std::string>& seed_specs() {
  static const std::vector<std::string> seeds = {
      // Single-job grammar.
      "crash@20*2:shuffle;straggler@28+2*0.3:map;ckptfail@36*2;dropout@44+3:shuffle",
      "crash@5:map;straggler@8+2*0.25:map;crash@12*3:shuffle;ckptfail@15*2;dropout@20+4:map",
      "crash@20*2:shuffle_count;straggler@28+2*0.3:shuffle_count;crash@36:shuffle_count;"
      "ckptfail@36*2;dropout@44+3:shuffle_count",
      "crash@15:shuffle_count;ctrlcrash@18;straggler@22+2*0.3:map;",
      "crash@15:map;dropout@20+3:shuffle_count",
      "crash@6:shuffle_count;ctrlcrash@9;dropout@11+2:map",
      "crash@6:shuffle_count;schedfail@8+3;scheddelay@12+2*3",
      "ckptfail@28*2;dropout@34+3:shuffle_count;ctrlcrash@20",
      "dropout@3+2:worker;crash@7:worker;straggler@9+2*0.5:worker",
      "dropout@30+2:map;crash@10:map;ckptfail@20",
      "crash@3:w;ckptfail@3*2",
      "dropout@3+1:w;dropout@3+1:v",
      "ctrlcrash@10;ctrlcrash@20",
      "ctrlcrash@3;ckptfail@5*2",
      "schedfail@10+3;scheddelay@20+4*3",
      "straggler@10+2*0.1234567891:map",
      "straggler@1+100*0.5:worker",
      "scheddelay@3*1234567",
      "scheddelay@5",
      "crash@2*2:worker",
      "crash@3*1.5:w",
      "crash@3*0:w",
      "crash@3+2:w",
      "crash@99999999999999999999:w",
      "crash@1..2:w",
      "crash@-5:w",
      "ckptfail@3*2.5",
      "dropout@4+2.5:w",
      "straggler@3*0.5*0.5:w",
      "schedfail@5+0",
      // Fleet grammar.
      "budgetcut@9+4*0.3;nodecrash@5*2;nodedrain@3+2;jobcrash@7:job-1",
      "nodedrain@3+2;nodecrash@5*2;jobcrash@7:job-1;budgetcut@9+4*0.3",
      "netdelay@20+4*3;netpart@9+3;netdrop@14+6*0.4;netpart@9+3:job-2",
      "netpart@1+1;netdrop@1+1*0.5;netdelay@1+1*2",
      "nodecrash@8*18;budgetcut@16+4*0.72",
      "nodecrash@8*2;budgetcut@16+4*0.5;netpart@22+3;netdrop@28+6*0.4",
      "nodecrash@3;jobcrash@5:job-1",
      "nodecrash@4;budgetcut@6+3*0.6",
      "budgetcut@16+4*0.33333333333",
      "netdrop@2+3*0.3333333333333333",
      "netdrop@1+1*0.5:bare",
      "netpart@4+2;netpart@4+2:job-1",
      "netpart@1+1:ghost",
      "budgetcut@2+3*0.9",
      "netdelay@3+2*2.5",
      "nodedrain@3*0",
      "jobcrash@3*2:x",
      "nodecrash@4;nodecrash@4",
  };
  return seeds;
}

/// Grammar tokens the insert mutation draws from: every kind name, every
/// separator, and the numbers at the edges of the accepted ranges.
inline const std::vector<std::string>& mutation_tokens() {
  static const std::vector<std::string> tokens = {
      "crash", "straggler", "ckptfail", "dropout", "ctrlcrash", "schedfail", "scheddelay",
      "nodecrash", "nodedrain", "budgetcut", "jobcrash", "netpart", "netdrop", "netdelay",
      "@", "+", "*", ":", ";", ".", "0", "1", "2", "*0", "+0", "+1", "*1", "*2", ":w",
      "999999999", "1000000000", "0.999999999", "1.0000000001", "00", "..",
  };
  return tokens;
}

inline std::size_t draw_index(common::Rng& rng, std::size_t size) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

/// One fuzz input: a seed spec with one random edit, or two a quarter of the time.
inline std::string mutate_spec(common::Rng& rng) {
  const std::vector<std::string>& seeds = seed_specs();
  std::string text = seeds[draw_index(rng, seeds.size())];
  const int edits = rng.bernoulli(0.25) ? 2 : 1;
  for (int edit = 0; edit < edits; ++edit) {
    switch (rng.uniform_int(0, 3)) {
      case 0:  // flip one bit of one byte
        if (!text.empty()) {
          const std::size_t at = draw_index(rng, text.size());
          text[at] = static_cast<char>(text[at] ^ (1 << rng.uniform_int(0, 7)));
        }
        break;
      case 1: {  // insert a grammar token
        const std::vector<std::string>& tokens = mutation_tokens();
        const std::size_t at = draw_index(rng, text.size() + 1);
        text.insert(at, tokens[draw_index(rng, tokens.size())]);
        break;
      }
      case 2:  // delete a run of 1-3 bytes
        if (!text.empty()) {
          const std::size_t at = draw_index(rng, text.size());
          text.erase(at, static_cast<std::size_t>(rng.uniform_int(1, 3)));
        }
        break;
      default: {  // splice: our head onto another seed's tail
        const std::string& other = seeds[draw_index(rng, seeds.size())];
        const std::size_t head = draw_index(rng, text.size() + 1);
        text = text.substr(0, head) + other.substr(draw_index(rng, other.size() + 1));
        break;
      }
    }
  }
  return text;
}

inline std::string escape_bytes(const std::string& text) {
  std::string out;
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte > 0x20 && byte < 0x7f && c != '\\') {
      out += c;
    } else {
      char hex[5];
      std::snprintf(hex, sizeof(hex), "\\x%02x", byte);
      out += hex;
    }
  }
  return out;
}

}  // namespace dragster::testing
