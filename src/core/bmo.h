// Best-Matches-Only (BMO) evaluation algorithms (§2.2.5, §3.2).
//
// Four in-engine algorithms compute the maximal elements of a set of tuples
// under a compiled preference:
//   * kNaiveNestedLoop — the paper's abstract selection method (§3.2):
//     a tuple is maximal iff no other tuple is better. O(n²) always.
//   * kBlockNestedLoop — BNL of [BKS01] with a bounded self-organizing
//     window and multi-pass overflow handling.
//   * kSortFilterSkyline — SFS: presort by a linear extension of the
//     preference order, then a single filter pass against the growing
//     result (no eviction needed because a later tuple can never dominate
//     an earlier one).
//   * kLess — LESS [GSG05]: SFS with an elimination-filter window folded
//     into the presort. A small window of high-dominance tuples (lowest
//     score volume) drops most dominated tuples in the initial scan, so the
//     sort and the filter pass run over a fraction of the input.
//
// All algorithms read keys from the packed KeyStore and test each tuple
// against a DominanceWindow (preference/dominance_window.h): the BNL
// window, the SFS/top-k result and the LESS filter hold their members'
// keys leaf-major and run the preference's compiled DominanceProgram
// kernel over them in one pass per tuple. The recursive
// CompiledPreference::Compare remains the parity oracle.
//
// The fifth strategy — the rewrite to standard SQL with a NOT EXISTS
// anti-join, which the commercial product used — lives in rewriter.h.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "preference/composite.h"
#include "util/status.h"

namespace prefsql {

class QueryContext;

/// In-engine BMO algorithm selector.
enum class BmoAlgorithm {
  kNaiveNestedLoop,
  kBlockNestedLoop,
  kSortFilterSkyline,
  kLess,
};

const char* BmoAlgorithmToString(BmoAlgorithm a);

/// Parses "naive"/"bnl"/"sfs"/"less" (lower case); error otherwise.
Result<BmoAlgorithm> BmoAlgorithmFromString(const std::string& name);

/// Tuning for the BMO computation.
struct BmoOptions {
  BmoAlgorithm algorithm = BmoAlgorithm::kBlockNestedLoop;
  /// BNL window capacity in tuples; 0 = unbounded (single pass).
  size_t bnl_window = 0;
  /// LESS elimination-filter window capacity in tuples.
  size_t less_window = 32;
  /// Retired and read by nothing: the windows run the variant
  /// DominanceProgram::WindowVariant() picks, which PREFSQL_SIMD controls.
  /// Kept only so existing callers that assign it still compile.
  bool simd = true;
  /// Cooperative-interrupt context, polled every kInterruptStride tuples.
  /// On an interrupt the algorithms bail out returning a partial (garbage)
  /// result; the caller must check ctx->interrupted() and discard it. Passed
  /// explicitly (not through the thread-local) so bmo_parallel workers see
  /// the statement's context across pool threads.
  QueryContext* ctx = nullptr;
};

/// Statistics of one BMO computation (benchmarks, tests).
struct BmoStats {
  size_t comparisons = 0;  ///< dominance tests performed
  size_t passes = 1;       ///< BNL passes over the input
  /// Wall time spent building the packed keys, filled by the key-building
  /// layer (BmoOperator); the algorithms themselves never build keys.
  uint64_t key_build_ns = 0;
  /// Dominance kernel the preference's compiled program dispatched to.
  DominanceKernel kernel = DominanceKernel::kGeneric;
  /// Variant the windows ran with (DominanceProgram::WindowVariant()).
  SimdVariant simd = SimdVariant::kScalar;
};

/// Returns the indices (into `keys`, ascending) of all maximal tuples.
/// `candidates` restricts the input (e.g. one GROUPING partition); pass all
/// indices for a plain query.
std::vector<size_t> ComputeBmo(const CompiledPreference& pref,
                               const KeyStore& keys,
                               std::span<const size_t> candidates,
                               const BmoOptions& options = {},
                               BmoStats* stats = nullptr);

/// Progressive top-k BMO (cf. [TEO01]): returns up to `k` maximal tuples
/// without computing the full BMO set. The LESS elimination-filter prepass
/// drops most dominated tuples in one linear scan first (dropped tuples are
/// dominated, hence never maximal, so the result is unaffected), and only
/// the survivors are sorted; the filter pass then stops at the k-th
/// confirmed maximal tuple (a tuple surviving the SFS filter is definitely
/// maximal). Which k maximal tuples are returned is unspecified (like LIMIT
/// without ORDER BY). The query layer uses this for LIMIT pushdown in
/// sort-filter mode; `options.less_window` sizes the prepass window.
std::vector<size_t> ComputeBmoTopK(const CompiledPreference& pref,
                                   const KeyStore& keys,
                                   std::span<const size_t> candidates,
                                   size_t k, const BmoOptions& options = {},
                                   BmoStats* stats = nullptr);

}  // namespace prefsql
