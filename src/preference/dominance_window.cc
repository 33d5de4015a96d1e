#include "preference/dominance_window.h"

#include <algorithm>
#include <cstring>

#include "preference/dominance_simd.h"

namespace prefsql {
namespace {

// Relation of one member to the target, as far as a window pass needs it.
enum class Outcome : uint8_t { kNeither, kMemberDominates, kTargetDominates };

// -- Scalar member tests (the scalar form, and the 4-wide forms' tails) ---

// Without marks a member is decided once it is worse somewhere; with marks
// once it is also better somewhere (incomparable).
inline Outcome ParetoMember(const double* cols, size_t stride, size_t L,
                            size_t m, const double* t, bool marking) {
  bool better = false, worse = false;
  for (size_t l = 0; l < L; ++l) {
    const double w = cols[l * stride + m];
    better |= w < t[l];
    worse |= w > t[l];
    if (marking ? (better & worse) : worse) break;
  }
  if (better & !worse) return Outcome::kMemberDominates;
  if (worse & !better) return Outcome::kTargetDominates;
  return Outcome::kNeither;
}

inline Outcome LexMember(const double* cols, size_t stride, size_t L,
                         size_t m, const double* t) {
  for (size_t l = 0; l < L; ++l) {
    const double w = cols[l * stride + m];
    if (w < t[l]) return Outcome::kMemberDominates;
    if (w > t[l]) return Outcome::kTargetDominates;
  }
  return Outcome::kNeither;
}

// -- Portable 4-wide forms -------------------------------------------------
// Exactly the arithmetic of the AVX2 forms (dominance_simd.cc) with four
// bool lanes, so both agree bit-for-bit (NaN compares false under < and >
// in both; -0.0 == 0.0 in both). Same contract as the AVX2 functions.

size_t ParetoWindow4(const double* cols, size_t stride, size_t L,
                     size_t count, const double* t, uint8_t* marks,
                     bool* dominated) {
  size_t g = 0;
  for (; g + 4 <= count; g += 4) {
    bool better[4] = {false, false, false, false};
    bool worse[4] = {false, false, false, false};
    for (size_t l = 0; l < L; ++l) {
      const double* w = cols + l * stride + g;
      const double tl = t[l];
      for (int k = 0; k < 4; ++k) {
        better[k] |= w[k] < tl;
        worse[k] |= w[k] > tl;
      }
      if (marks == nullptr && worse[0] & worse[1] & worse[2] & worse[3]) {
        break;
      }
    }
    bool any = false;
    for (int k = 0; k < 4; ++k) any |= better[k] & !worse[k];
    if (any) {
      *dominated = true;
      return g + 4;
    }
    if (marks != nullptr) {
      for (int k = 0; k < 4; ++k) marks[g + k] = worse[k] & !better[k];
    }
  }
  *dominated = false;
  return g;
}

size_t LexWindow4(const double* cols, size_t stride, size_t L, size_t count,
                  const double* t, uint8_t* marks, bool* dominated) {
  size_t g = 0;
  for (; g + 4 <= count; g += 4) {
    bool decided[4] = {false, false, false, false};
    bool better[4] = {false, false, false, false};
    for (size_t l = 0; l < L; ++l) {
      const double* w = cols + l * stride + g;
      const double tl = t[l];
      bool done = true;
      for (int k = 0; k < 4; ++k) {
        better[k] |= !decided[k] & (w[k] < tl);
        decided[k] |= (w[k] < tl) | (w[k] > tl);
        done &= decided[k];
      }
      if (done) break;
    }
    if (better[0] | better[1] | better[2] | better[3]) {
      *dominated = true;
      return g + 4;
    }
    if (marks != nullptr) {  // no lane is better: decided means member >
      for (int k = 0; k < 4; ++k) marks[g + k] = decided[k];
    }
  }
  *dominated = false;
  return g;
}

}  // namespace

DominanceWindow::DominanceWindow(const DominanceProgram& prog,
                                 SimdVariant variant)
    : prog_(&prog),
      variant_(prog.kernel() == DominanceKernel::kGeneric
                   ? SimdVariant::kScalar
                   : variant),
      num_leaves_(prog.num_leaves()),
      keep_ids_(prog.kernel() == DominanceKernel::kGeneric) {
  if (keep_ids_) {
    row_scores_.resize(num_leaves_);
    row_ids_.resize(num_leaves_);
  }
}

void DominanceWindow::Reserve(size_t members) {
  if (members > capacity_) Grow(members);
  members_.reserve(members);
  marks_.reserve(members);
}

void DominanceWindow::Grow(size_t capacity) {
  std::vector<double> scores(num_leaves_ * capacity);
  std::vector<int32_t> ids(keep_ids_ ? num_leaves_ * capacity : 0);
  const size_t n = size();
  for (size_t l = 0; l < num_leaves_; ++l) {
    std::copy_n(scores_.data() + l * capacity_, n,
                scores.data() + l * capacity);
    if (keep_ids_) {
      std::copy_n(ids_.data() + l * capacity_, n, ids.data() + l * capacity);
    }
  }
  scores_ = std::move(scores);
  ids_ = std::move(ids);
  capacity_ = capacity;
}

void DominanceWindow::CopyRow(size_t m, const KeyStore& keys, size_t row) {
  const double* s = keys.scores(row);
  for (size_t l = 0; l < num_leaves_; ++l) scores_[l * capacity_ + m] = s[l];
  if (keep_ids_) {
    const int32_t* id = keys.ids(row);
    for (size_t l = 0; l < num_leaves_; ++l) ids_[l * capacity_ + m] = id[l];
  }
}

void DominanceWindow::Admit(const KeyStore& keys, size_t row,
                            size_t insert_pass) {
  const size_t m = size();
  if (m == capacity_) Grow(std::max<size_t>(8, 2 * capacity_));
  CopyRow(m, keys, row);
  members_.push_back({row, insert_pass});
}

void DominanceWindow::Replace(size_t m, const KeyStore& keys, size_t row) {
  CopyRow(m, keys, row);
  members_[m] = {row, 0};
}

void DominanceWindow::EvictMarked() {
  const size_t n = size();
  if (n == 0) return;  // memchr must not see marks_'s null data()
  const void* hit = std::memchr(marks_.data(), 1, n);
  if (hit == nullptr) return;
  const size_t first = static_cast<size_t>(
      static_cast<const uint8_t*>(hit) - marks_.data());
  auto compact = [&](auto* col) {
    size_t kept = first;
    for (size_t m = first + 1; m < n; ++m) {
      if (marks_[m] == 0) col[kept++] = col[m];
    }
    return kept;
  };
  size_t kept = compact(members_.data());
  for (size_t l = 0; l < num_leaves_; ++l) {
    compact(scores_.data() + l * capacity_);
    if (keep_ids_) compact(ids_.data() + l * capacity_);
  }
  members_.resize(kept);
}

template <bool kMarks>
bool DominanceWindow::Pass(const KeyStore& keys, size_t row,
                           size_t* comparisons) {
  const size_t n = size();
  const double* t = keys.scores(row);
  const double* cols = scores_.data();
  uint8_t* marks = nullptr;
  if constexpr (kMarks) {
    marks_.resize(n);
    marks = marks_.data();
  }
  const DominanceKernel kernel = prog_->kernel();
  bool dominated = false;
  size_t m = 0;
  if (variant_ != SimdVariant::kScalar) {
    const bool pareto = kernel == DominanceKernel::kPackedPareto;
#if PREFSQL_HAVE_AVX2_BUILD
    if (variant_ == SimdVariant::kAvx2) {
      m = pareto ? simd_detail::ParetoWindowAvx2(cols, capacity_, num_leaves_,
                                                 n, t, marks, &dominated)
                 : simd_detail::LexWindowAvx2(cols, capacity_, num_leaves_, n,
                                              t, marks, &dominated);
    } else
#endif
    {
      m = pareto ? ParetoWindow4(cols, capacity_, num_leaves_, n, t, marks,
                                 &dominated)
                 : LexWindow4(cols, capacity_, num_leaves_, n, t, marks,
                              &dominated);
    }
  }
  // Member at a time from `m` on: the scalar form, or the 4-wide forms'
  // tail. One loop per kernel keeps the kernel switch out of it.
  auto walk = [&](auto outcome) {
    for (; !dominated && m < n; ++m) {
      const Outcome o = outcome(m);
      dominated = o == Outcome::kMemberDominates;
      if constexpr (kMarks) marks[m] = o == Outcome::kTargetDominates;
    }
  };
  switch (kernel) {
    case DominanceKernel::kPackedPareto:
      walk([&](size_t i) {
        return ParetoMember(cols, capacity_, num_leaves_, i, t, kMarks);
      });
      break;
    case DominanceKernel::kPackedLex:
      walk([&](size_t i) {
        return LexMember(cols, capacity_, num_leaves_, i, t);
      });
      break;
    case DominanceKernel::kGeneric:
      walk([&](size_t i) {
        for (size_t l = 0; l < num_leaves_; ++l) {
          row_scores_[l] = cols[l * capacity_ + i];
          row_ids_[l] = ids_[l * capacity_ + i];
        }
        // Compare(w, t) == kWorse iff Compare(t, w) == kBetter, so one
        // call gives both relations.
        const Rel rel = prog_->Compare(row_scores_.data(), row_ids_.data(),
                                       t, keys.ids(row));
        return rel == Rel::kBetter  ? Outcome::kMemberDominates
               : rel == Rel::kWorse ? Outcome::kTargetDominates
                                    : Outcome::kNeither;
      });
      break;
  }
  if (comparisons != nullptr) {
    *comparisons += m;
    if (kMarks && !dominated) *comparisons += n;
  }
  return dominated;
}

template bool DominanceWindow::Pass<false>(const KeyStore&, size_t, size_t*);
template bool DominanceWindow::Pass<true>(const KeyStore&, size_t, size_t*);

}  // namespace prefsql
