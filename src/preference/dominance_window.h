// DominanceWindow: the set of tuples a BMO algorithm tests each candidate
// against (a BNL window, an SFS or top-k result, the LESS elimination
// filter, a cached skyline under maintenance), with the members' keys
// copied into one packed block.
//
// Layout: leaf-major, `scores[leaf][member]`, each leaf's column contiguous
// (stride = capacity). The packed kernels load four members of one leaf
// with one unaligned load instead of gathering them from scattered KeyStore
// rows. Beside the columns the window keeps each member's candidate index
// (into the KeyStore it was admitted from) and the BNL pass that admitted
// it. Admit appends one entry per column; eviction compacts every column in
// order, so member order is admission order minus the evicted.
//
// One pass per candidate: the two compares per leaf that decide "member
// dominates target" also decide "target dominates member" (Pareto: member
// better somewhere and never worse, or the reverse; lex: the first
// differing leaf). `Test` stops at the first member that dominates the
// target; otherwise the same pass has marked every member the target
// dominates, which `EvictMarked` then drops. `Dominated` is the same pass
// without marks, for the windows that never evict.
//
// Comparison charge (BmoStats::comparisons): the lanes visited up to and
// including the first dominating member — one per member in the scalar
// form, four per group of four and one per tail member in the 4-wide forms
// — and, from `Test`, the window size once more when no member dominates
// the target (its eviction test). Equal keys are never strict dominance,
// so a window may hold the target itself.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "preference/dominance_program.h"
#include "preference/key_store.h"

namespace prefsql {

class DominanceWindow {
 public:
  /// A window testing under `prog` (which must outlive the window) in
  /// `variant`; the generic kernel has no block form and runs scalar.
  DominanceWindow(const DominanceProgram& prog, SimdVariant variant);

  /// The same, in the variant the program dispatches to
  /// (DominanceProgram::WindowVariant()).
  explicit DominanceWindow(const DominanceProgram& prog)
      : DominanceWindow(prog, prog.WindowVariant()) {}

  size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }
  SimdVariant variant() const { return variant_; }

  /// Candidate index and admitting BNL pass of member `m`.
  size_t index(size_t m) const { return members_[m].index; }
  size_t insert_pass(size_t m) const { return members_[m].insert_pass; }

  /// Room for `members` without re-laying the columns out.
  void Reserve(size_t members);

  /// Appends row `row` of `keys` as the last member.
  void Admit(const KeyStore& keys, size_t row, size_t insert_pass = 0);

  /// Overwrites member `m` with row `row` of `keys`, in place.
  void Replace(size_t m, const KeyStore& keys, size_t row);

  /// True iff some member strictly dominates row `row` of `keys`.
  bool Dominated(const KeyStore& keys, size_t row, size_t* comparisons) {
    return Pass<false>(keys, row, comparisons);
  }

  /// The fused pass: true iff some member strictly dominates `row`; when
  /// none does, marks every member that `row` strictly dominates.
  bool Test(const KeyStore& keys, size_t row, size_t* comparisons) {
    return Pass<true>(keys, row, comparisons);
  }

  /// Whether the last `Test` that returned false marked member `m`.
  bool marked(size_t m) const { return marks_[m] != 0; }

  /// Drops the members the last `Test` marked, keeping the rest in order.
  void EvictMarked();

  /// Drops every member `drop(m)` selects, keeping the rest in order.
  /// `drop` sees the window as it was before the call.
  template <typename Drop>
  void EvictIf(Drop drop) {
    marks_.resize(size());
    for (size_t m = 0; m < size(); ++m) marks_[m] = drop(m) ? 1 : 0;
    EvictMarked();
  }

 private:
  struct Member {
    size_t index;
    size_t insert_pass;
  };

  template <bool kMarks>
  bool Pass(const KeyStore& keys, size_t row, size_t* comparisons);

  void CopyRow(size_t m, const KeyStore& keys, size_t row);
  void Grow(size_t capacity);

  const DominanceProgram* prog_;
  SimdVariant variant_;
  size_t num_leaves_;
  bool keep_ids_;  ///< generic kernel only: EXPLICIT leaves compare ids
  size_t capacity_ = 0;
  std::vector<double> scores_;   ///< num_leaves_ columns of capacity_
  std::vector<int32_t> ids_;     ///< same layout; empty unless keep_ids_
  std::vector<Member> members_;
  std::vector<uint8_t> marks_;   ///< per member, written by Test/EvictIf
  std::vector<double> row_scores_;  ///< generic kernel: one member's row
  std::vector<int32_t> row_ids_;
};

}  // namespace prefsql
