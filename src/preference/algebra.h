// Preference algebra extensions (paper §5 outlook: "an even richer
// preference type system ... together with a preference algebra are being
// investigated", pointing at [Kie01] "Foundations of a Preference World").
//
// Implemented constructors:
//   * DUAL(P)        — the inverse order: x is better iff it was worse.
//                      Dual distributes over Pareto/prioritization/
//                      intersection, so compilation pushes it to the leaves
//                      and wraps each base preference in DualBasePreference.
//   * P1 INTERSECT P2 — the intersection order: x better than y iff better
//                      under *every* constituent (stricter than Pareto,
//                      which also admits better-and-equal mixes).

#pragma once

#include <memory>

#include "preference/preference.h"

namespace prefsql {

/// Inverts a base preference's order. Scores negate (which keeps Score a
/// monotone linear extension); EXPLICIT ids are preserved and compared
/// through the inner preference with flipped polarity, so duals of general
/// partial orders stay exact.
class DualBasePreference : public BasePreference {
 public:
  explicit DualBasePreference(std::unique_ptr<BasePreference> inner)
      : inner_(std::move(inner)) {}

  const char* TypeName() const override { return "DUAL"; }

  uint64_t Fingerprint() const override {
    return FingerprintMix(BasePreference::Fingerprint(),
                          inner_->Fingerprint());
  }

  double Score(const Value& v) const override { return -inner_->Score(v); }

  std::optional<NumericScore> numeric_score() const override {
    std::optional<NumericScore> s = inner_->numeric_score();
    if (s.has_value()) s->dual = !s->dual;
    return s;
  }

  int32_t ExplicitId(const Value& v) const override {
    return inner_->ExplicitId(v);
  }

  Rel Compare(const LeafKey& a, const LeafKey& b) const override {
    LeafKey ia{-a.score, a.explicit_id};
    LeafKey ib{-b.score, b.explicit_id};
    return FlipRel(inner_->Compare(ia, ib));
  }

  /// The flipped-and-negated comparison of a score-only inner preference is
  /// the plain score comparison of the (already negated) dual scores.
  bool CompareIsScoreOnly() const override {
    return inner_->CompareIsScoreOnly();
  }

  Result<ExprPtr> ScoreExpr(const Expr& attr) const override;

  /// LEVEL on a dual has no natural discrete reading; report the numeric
  /// convention (1 iff at the observed optimum).
  bool IsCategorical() const override { return false; }

  /// Distances are measured from the observed optimum of the dual order.
  std::optional<double> QualityOffset() const override { return std::nullopt; }

  const BasePreference& inner() const { return *inner_; }

 private:
  std::unique_ptr<BasePreference> inner_;
};

}  // namespace prefsql
