// Random mutations of parser inputs for the fuzzing property tests: byte
// flips (any value, NUL and high bytes included), truncation, splices of
// format-specific fragments at random offsets, and long digit runs,
// applied one to four times per input.  Deterministic for a seed.

#ifndef KGQAN_TESTS_INPUT_MUTATOR_H_
#define KGQAN_TESTS_INPUT_MUTATOR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "util/rng.h"

namespace kgqan::fuzz {

class InputMutator {
 public:
  InputMutator(uint64_t seed, std::span<const char* const> splices)
      : rng_(seed), splices_(splices) {}

  std::string Mutate(std::string text) {
    const int rounds = static_cast<int>(rng_.UniformInt(1, 4));
    for (int r = 0; r < rounds; ++r) {
      switch (rng_.UniformInt(0, 3)) {
        case 0:  // Byte flip: any byte value, NUL and high bytes included.
          if (!text.empty()) {
            text[Offset(text.size() - 1)] =
                static_cast<char>(rng_.UniformInt(0, 255));
          }
          break;
        case 1:  // Truncation.
          text.resize(Offset(text.size()));
          break;
        case 2: {  // Splice.
          const char* splice = splices_[rng_.UniformInt(
              0, static_cast<int64_t>(splices_.size()) - 1)];
          text.insert(Offset(text.size()), splice);
          break;
        }
        default: {  // A long digit run, sometimes signed or decimal.
          std::string digits;
          if (rng_.UniformInt(0, 2) == 0) digits += '-';
          const int64_t length = rng_.UniformInt(15, 400);
          for (int64_t d = 0; d < length; ++d) {
            digits += static_cast<char>('0' + rng_.UniformInt(0, 9));
          }
          if (rng_.UniformInt(0, 3) == 0) digits.insert(digits.size() / 2, ".");
          text.insert(Offset(text.size()), digits);
          break;
        }
      }
    }
    return text;
  }

 private:
  size_t Offset(size_t max_inclusive) {
    return static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(max_inclusive)));
  }

  util::Rng rng_;
  std::span<const char* const> splices_;
};

}  // namespace kgqan::fuzz

#endif  // KGQAN_TESTS_INPUT_MUTATOR_H_
