// EXPLICIT base preference: a finite strict partial order given by
// 'A BETTER THAN B' edges (§2.2.1: "Any preference that can be expressed by
// a finite set of 'A is better than B' relationships").

#pragma once

#include <map>
#include <vector>

#include "preference/preference.h"

namespace prefsql {

/// A finite partial order over mentioned values; unmentioned values are
/// worse than every mentioned one and equivalent to each other.
///
/// Dominance is transitive reachability in the edge DAG. Construction fails
/// on cycles (the relation would not be a strict partial order).
class ExplicitPreference : public BasePreference {
 public:
  /// Builds from (better, worse) edges; fails on cycles.
  static Result<std::unique_ptr<ExplicitPreference>> Make(
      std::vector<std::pair<Value, Value>> edges);

  const char* TypeName() const override { return "EXPLICIT"; }

  /// Mixes the mentioned values (in id order) and the transitive closure —
  /// together they determine the order completely.

  /// Layer rank + 1 (longest chain from a maximal value); a monotone linear
  /// extension of the order. Unmentioned values score max_rank + 2.
  double Score(const Value& v) const override;

  int32_t ExplicitId(const Value& v) const override;

  /// Reachability-based comparison (NOT score-based: incomparable values may
  /// share a rank).
  Rel Compare(const LeafKey& a, const LeafKey& b) const override;

  /// For a weak order the rank score is a faithful encoding (same argument
  /// as ScoreExpr), so the packed kernels may compare scores directly.
  bool CompareIsScoreOnly() const override { return is_weak_order_; }

  /// Succeeds only when the order is a weak order (then the rank is a
  /// faithful single-column encoding); otherwise NotImplemented, and the
  /// query layer falls back to in-engine BMO evaluation.
  Result<ExprPtr> ScoreExpr(const Expr& attr) const override;

  bool IsCategorical() const override { return true; }
  std::optional<double> QualityOffset() const override { return 1.0; }

  /// True iff the rank score is a faithful single-column encoding: the
  /// mentioned values form a chain (rank order == dominance AND no two
  /// distinct values share a rank). Two same-rank values are incomparable
  /// under Compare but equivalent under any numeric encoding — a difference
  /// that surfaces under Pareto composition and in the SQL rewrite.
  bool IsWeakOrder() const { return is_weak_order_; }

  size_t num_values() const { return values_.size(); }

 private:
  ExplicitPreference() = default;

  /// True iff `a` reaches `b` through better-than edges.
  bool Reaches(int32_t a, int32_t b) const {
    return reach_[static_cast<size_t>(a) * values_.size() +
                  static_cast<size_t>(b)];
  }

  struct ValueLess {
    bool operator()(const Value& a, const Value& b) const {
      return Value::Compare(a, b) < 0;
    }
  };

  std::vector<Value> values_;            // id -> value
  std::map<Value, int32_t, ValueLess> ids_;
  std::vector<bool> reach_;              // n*n transitive closure
  std::vector<int> rank_;                // id -> layer (0 = maximal)
  int max_rank_ = 0;
  bool is_weak_order_ = false;
};

}  // namespace prefsql
