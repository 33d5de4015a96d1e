#include "preference/preference.h"

namespace prefsql {

namespace {
constexpr uint64_t kFnvPrime = 1099511628211ULL;
}  // namespace

uint64_t FingerprintMix(uint64_t h, uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h = (h ^ (v & 0xffu)) * kFnvPrime;
    v >>= 8;
  }
  return h;
}

uint64_t FingerprintString(uint64_t h, std::string_view s) {
  for (unsigned char c : s) h = (h ^ c) * kFnvPrime;
  // Length terminator: "ab"+"c" must differ from "a"+"bc".
  return FingerprintMix(h, s.size());
}

const char* RelToString(Rel rel) {
  switch (rel) {
    case Rel::kBetter:
      return "better";
    case Rel::kWorse:
      return "worse";
    case Rel::kEquivalent:
      return "equivalent";
    case Rel::kIncomparable:
      return "incomparable";
  }
  return "?";
}

Rel FlipRel(Rel rel) {
  switch (rel) {
    case Rel::kBetter:
      return Rel::kWorse;
    case Rel::kWorse:
      return Rel::kBetter;
    default:
      return rel;
  }
}

}  // namespace prefsql
