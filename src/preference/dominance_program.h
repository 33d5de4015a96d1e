// Compiled dominance programs: the PrefNode constructor tree flattened into
// a small array of opcodes evaluated iteratively, so the BMO hot loop
// (O(n²) dominance tests, §3.2) runs without per-leaf virtual dispatch or
// recursion through the tree.
//
// An op is one node of the (same-kind-flattened) tree in pre-order; each op
// records `end`, the index one past its subtree, which lets the combinators
// short-circuit — a Prioritized node jumps past its remaining children on
// the first non-equivalent component, a Pareto node on the first
// incomparable one.
//
// Two packed kernels specialize the common shapes over the KeyStore's
// contiguous score rows:
//   * kPackedPareto — the preference is a Pareto accumulation of weak-order
//     leaves (the classic skyline case): compare two score slices with a
//     branch-light flag loop.
//   * kPackedLex    — a prioritization of weak-order leaves: first differing
//     score decides.
// Everything else (EXPLICIT partial orders, nested mixes, INTERSECT) runs
// the generic iterative evaluator. The recursive
// CompiledPreference::Compare stays untouched as the parity oracle.
//
// The BMO loops test one tuple against a set of tuples at a time; they do
// that through a DominanceWindow (dominance_window.h), which holds the
// set's scores leaf-major so the packed kernels load four members per
// instruction. The pairwise Compare below is the generic kernel's window
// form; Dominates is the tests' row-at-a-time oracle.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "preference/key_store.h"
#include "preference/preference.h"

namespace prefsql {

struct PrefNode;
struct PrefLeaf;

/// Which comparison kernel a compiled program dispatches to.
enum class DominanceKernel : uint8_t {
  kGeneric,       ///< iterative opcode evaluator (any preference shape)
  kPackedPareto,  ///< all-weak-order Pareto: flat score-slice comparison
  kPackedLex,     ///< all-weak-order prioritization: lexicographic scores
};

const char* DominanceKernelToString(DominanceKernel k);

/// How a DominanceWindow (dominance_window.h) walks its members. The
/// generic opcode kernel always runs member-at-a-time; the packed kernels
/// additionally support a portable 4-wide unrolled form and, on x86-64
/// hosts with AVX2, a vectorized form comparing four members per
/// instruction with movemask accumulators.
enum class SimdVariant : uint8_t {
  kScalar,     ///< member at a time (also the generic kernel's only form)
  kUnrolled4,  ///< portable 4-wide unrolled groups (any host)
  kAvx2,       ///< AVX2 256-bit groups (x86-64 only, runtime-detected)
};

const char* SimdVariantToString(SimdVariant v);

/// The widest variant this build/host supports, honoring the
/// `PREFSQL_SIMD` environment override (`scalar`/`off`, `unrolled4`,
/// `avx2`; an unsupported request clamps down). Detected once per process.
SimdVariant DispatchedSimdVariant();

/// EXPLAIN/bench name of a (kernel, variant) pair: the packed kernels get
/// a variant suffix ("packed-pareto-avx2"), the generic kernel does not.
std::string DominanceKernelVariantName(DominanceKernel k, SimdVariant v);

/// One opcode of a compiled dominance program.
struct DomOp {
  enum class Kind : uint8_t {
    kLeafWeak,     ///< weak-order leaf: compare scores directly
    kLeafGeneral,  ///< leaf with an overriding Compare (EXPLICIT DAGs)
    kPareto,
    kPrioritized,
    kIntersect,
  };
  Kind kind = Kind::kLeafWeak;
  uint32_t slot = 0;  ///< leaf slot (leaves only)
  uint32_t end = 0;   ///< one past this op's subtree in the program
  const BasePreference* pref = nullptr;  ///< kLeafGeneral only (not owned)
};

class DominanceProgram {
 public:
  DominanceProgram() = default;

  /// Flattens the constructor tree into opcodes and picks the kernel. The
  /// emitted `pref` pointers alias the BasePreference objects owned by
  /// `leaves`; the program must not outlive its CompiledPreference.
  static DominanceProgram Compile(const PrefNode& root,
                                  const std::vector<PrefLeaf>& leaves);

  DominanceKernel kernel() const { return kernel_; }
  size_t num_ops() const { return ops_.size(); }
  size_t num_leaves() const { return num_leaves_; }

  /// The variant the BMO windows run with: scalar for the generic kernel
  /// (it has no block form), DispatchedSimdVariant() otherwise.
  SimdVariant WindowVariant() const {
    return kernel_ == DominanceKernel::kGeneric ? SimdVariant::kScalar
                                                : DispatchedSimdVariant();
  }

  /// Compares tuples `a` and `b` of `keys` under the full preference.
  Rel Compare(const KeyStore& keys, size_t a, size_t b) const {
    return Compare(keys.scores(a), keys.ids(a), keys.scores(b), keys.ids(b));
  }

  /// True iff `a` strictly dominates `b`.
  bool Dominates(const KeyStore& keys, size_t a, size_t b) const {
    const double* sa = keys.scores(a);
    const double* sb = keys.scores(b);
    if (kernel_ == DominanceKernel::kPackedPareto) {
      bool strict = false;
      for (size_t i = 0; i < num_leaves_; ++i) {
        if (sa[i] > sb[i]) return false;
        strict |= sa[i] < sb[i];
      }
      return strict;
    }
    return Compare(sa, keys.ids(a), sb, keys.ids(b)) == Rel::kBetter;
  }

  /// Raw-slice comparison (slices must hold one score/id per leaf).
  Rel Compare(const double* sa, const int32_t* ia, const double* sb,
              const int32_t* ib) const;

 private:
  Rel GenericCompare(const double* sa, const int32_t* ia, const double* sb,
                     const int32_t* ib) const;

  std::vector<DomOp> ops_;
  size_t num_leaves_ = 0;
  size_t max_depth_ = 0;  ///< composite nesting depth (frame stack bound)
  DominanceKernel kernel_ = DominanceKernel::kGeneric;
};

}  // namespace prefsql
