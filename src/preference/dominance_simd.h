// AVX2 forms of the packed window kernels (internal to preference/).
// Compiled with a per-function target("avx2") attribute so the rest of the
// library keeps the baseline ISA; DominanceWindow only calls these after
// DispatchedSimdVariant() confirmed runtime support.
//
// Each function walks the full groups of four members of a leaf-major
// window (dominance_window.h) against one broadcast target slice: one
// unaligned 256-bit load per leaf and group, better/worse lane masks
// accumulated and decided via movemask. The comparison predicates are
// ordered-quiet (_CMP_LT_OQ/_CMP_GT_OQ): NaN compares false both ways and
// -0.0 == 0.0, exactly like the scalar `<`/`>` the portable kernels use,
// so all variants agree bit-for-bit.

#pragma once

#include <cstddef>
#include <cstdint>

#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define PREFSQL_HAVE_AVX2_BUILD 1
#else
#define PREFSQL_HAVE_AVX2_BUILD 0
#endif

#if PREFSQL_HAVE_AVX2_BUILD

namespace prefsql {
namespace simd_detail {

// `cols + l * stride` is leaf l's column of `count` members; `t` is the
// target's score slice. The walk stops after the first group holding a
// member that dominates `t` (*dominated = true). With `marks` non-null,
// marks[m] = 1 iff `t` dominates member m, for every member of the groups
// walked before that. Returns the number of members walked (a multiple of
// four); the caller tests the tail members one at a time.

/// Pareto over the leaves.
size_t ParetoWindowAvx2(const double* cols, size_t stride, size_t num_leaves,
                        size_t count, const double* t, uint8_t* marks,
                        bool* dominated);

/// Lexicographic over the leaves (the first differing leaf decides).
size_t LexWindowAvx2(const double* cols, size_t stride, size_t num_leaves,
                     size_t count, const double* t, uint8_t* marks,
                     bool* dominated);

}  // namespace simd_detail
}  // namespace prefsql

#endif  // PREFSQL_HAVE_AVX2_BUILD
