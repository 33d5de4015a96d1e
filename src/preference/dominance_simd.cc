#include "preference/dominance_simd.h"

#if PREFSQL_HAVE_AVX2_BUILD

#include <immintrin.h>

#include <cstring>

namespace prefsql {
namespace simd_detail {
namespace {

#define PREFSQL_AVX2 __attribute__((target("avx2")))

// Writes the four lane bits of `mask` as marks[0..3] (one byte each) with
// one store: kSpread[m] holds bit k of m in byte k (x86 is little-endian).
inline void StoreMarks(int mask, uint8_t* marks) {
  static constexpr uint32_t kSpread[16] = {
      0x00000000, 0x00000001, 0x00000100, 0x00000101,
      0x00010000, 0x00010001, 0x00010100, 0x00010101,
      0x01000000, 0x01000001, 0x01000100, 0x01000101,
      0x01010000, 0x01010001, 0x01010100, 0x01010101};
  std::memcpy(marks, &kSpread[mask], sizeof(uint32_t));
}

// Without marks a group is decided once every lane is worse somewhere (no
// member can dominate). With marks the leaf loop runs through: stopping
// early would need every lane incomparable, and testing for that after
// each leaf costs more than it saves at the usual two to four leaves.
template <bool kMarks>
PREFSQL_AVX2 size_t ParetoWindow(const double* cols, size_t stride,
                                 size_t L, size_t count, const double* t,
                                 uint8_t* marks, bool* dominated) {
  size_t g = 0;
  for (; g + 4 <= count; g += 4) {
    __m256d better = _mm256_setzero_pd();  // member < target on some leaf
    __m256d worse = _mm256_setzero_pd();   // member > target on some leaf
    for (size_t l = 0; l < L; ++l) {
      const __m256d w = _mm256_loadu_pd(cols + l * stride + g);
      const __m256d tl = _mm256_broadcast_sd(t + l);
      better = _mm256_or_pd(better, _mm256_cmp_pd(w, tl, _CMP_LT_OQ));
      worse = _mm256_or_pd(worse, _mm256_cmp_pd(w, tl, _CMP_GT_OQ));
      if (!kMarks && _mm256_movemask_pd(worse) == 0xF) break;
    }
    const int b = _mm256_movemask_pd(better);
    const int w = _mm256_movemask_pd(worse);
    if ((b & ~w) != 0) {
      *dominated = true;
      return g + 4;
    }
    if (kMarks) StoreMarks(w & ~b, marks + g);
  }
  *dominated = false;
  return g;
}

template <bool kMarks>
PREFSQL_AVX2 size_t LexWindow(const double* cols, size_t stride, size_t L,
                              size_t count, const double* t, uint8_t* marks,
                              bool* dominated) {
  size_t g = 0;
  for (; g + 4 <= count; g += 4) {
    __m256d decided = _mm256_setzero_pd();
    __m256d better = _mm256_setzero_pd();  // first difference is member <
    for (size_t l = 0; l < L; ++l) {
      const __m256d w = _mm256_loadu_pd(cols + l * stride + g);
      const __m256d tl = _mm256_broadcast_sd(t + l);
      const __m256d lt = _mm256_cmp_pd(w, tl, _CMP_LT_OQ);
      const __m256d gt = _mm256_cmp_pd(w, tl, _CMP_GT_OQ);
      better = _mm256_or_pd(better, _mm256_andnot_pd(decided, lt));
      decided = _mm256_or_pd(decided, _mm256_or_pd(lt, gt));
      if (_mm256_movemask_pd(decided) == 0xF) break;
    }
    const int b = _mm256_movemask_pd(better);
    if (b != 0) {
      *dominated = true;
      return g + 4;
    }
    // No lane is better, so a decided lane's first difference is member >.
    if (kMarks) StoreMarks(_mm256_movemask_pd(decided), marks + g);
  }
  *dominated = false;
  return g;
}

}  // namespace

size_t ParetoWindowAvx2(const double* cols, size_t stride, size_t L,
                        size_t count, const double* t, uint8_t* marks,
                        bool* dominated) {
  return marks != nullptr
             ? ParetoWindow<true>(cols, stride, L, count, t, marks, dominated)
             : ParetoWindow<false>(cols, stride, L, count, t, marks,
                                   dominated);
}

size_t LexWindowAvx2(const double* cols, size_t stride, size_t L,
                     size_t count, const double* t, uint8_t* marks,
                     bool* dominated) {
  return marks != nullptr
             ? LexWindow<true>(cols, stride, L, count, t, marks, dominated)
             : LexWindow<false>(cols, stride, L, count, t, marks, dominated);
}

#undef PREFSQL_AVX2

}  // namespace simd_detail
}  // namespace prefsql

#endif  // PREFSQL_HAVE_AVX2_BUILD
