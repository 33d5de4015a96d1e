// The built-in weak-order base preference types of §2.2.1:
// AROUND, BETWEEN, LOWEST, HIGHEST, POS, NEG, POS/POS, POS/NEG, CONTAINS.
// (EXPLICIT lives in explicit_preference.h — it is a general partial order.)

#pragma once

#include <vector>

#include "preference/preference.h"

namespace prefsql {

/// AROUND z: values closer to the target z are better (score = |v - z|).
class AroundPreference : public BasePreference {
 public:
  explicit AroundPreference(double target)
      : score_{NumericScore::Kind::kAround, target} {}
  const char* TypeName() const override { return "AROUND"; }
  uint64_t Fingerprint() const override;
  double Score(const Value& v) const override { return score_.Of(v); }
  std::optional<NumericScore> numeric_score() const override {
    return score_;
  }
  Result<ExprPtr> ScoreExpr(const Expr& attr) const override;
  bool IsCategorical() const override { return false; }
  std::optional<double> QualityOffset() const override { return 0.0; }
  double target() const { return score_.low; }

 private:
  NumericScore score_;
};

/// BETWEEN [low, up]: values inside the interval are best; outside, closer
/// to the nearer limit is better (score = max(0, low - v, v - up)).
class BetweenPreference : public BasePreference {
 public:
  BetweenPreference(double low, double high)
      : score_{NumericScore::Kind::kBetween, low, high} {}
  const char* TypeName() const override { return "BETWEEN"; }
  uint64_t Fingerprint() const override;
  double Score(const Value& v) const override { return score_.Of(v); }
  std::optional<NumericScore> numeric_score() const override {
    return score_;
  }
  Result<ExprPtr> ScoreExpr(const Expr& attr) const override;
  bool IsCategorical() const override { return false; }
  std::optional<double> QualityOffset() const override { return 0.0; }

 private:
  NumericScore score_;
};

/// LOWEST: smaller values are better (score = v).
class LowestPreference : public BasePreference {
 public:
  const char* TypeName() const override { return "LOWEST"; }
  double Score(const Value& v) const override { return kScore.Of(v); }
  std::optional<NumericScore> numeric_score() const override {
    return kScore;
  }
  Result<ExprPtr> ScoreExpr(const Expr& attr) const override;
  bool IsCategorical() const override { return false; }
  /// DISTANCE is measured from the observed minimum (§2.2.3).
  std::optional<double> QualityOffset() const override { return std::nullopt; }

 private:
  static constexpr NumericScore kScore{NumericScore::Kind::kLowest};
};

/// HIGHEST: larger values are better (score = -v).
class HighestPreference : public BasePreference {
 public:
  const char* TypeName() const override { return "HIGHEST"; }
  double Score(const Value& v) const override { return kScore.Of(v); }
  std::optional<NumericScore> numeric_score() const override {
    return kScore;
  }
  Result<ExprPtr> ScoreExpr(const Expr& attr) const override;
  bool IsCategorical() const override { return false; }
  std::optional<double> QualityOffset() const override { return std::nullopt; }

 private:
  static constexpr NumericScore kScore{NumericScore::Kind::kHighest};
};

/// Discrete-level preference over value sets; the shared machinery behind
/// POS, NEG, POS/POS and POS/NEG. Levels start at 1 (best).
class LayeredSetPreference : public BasePreference {
 public:
  /// `layers[i]` holds the values at level i+1; values in no layer get level
  /// layers.size() + 1 unless `others_level` overrides it.
  LayeredSetPreference(const char* type_name,
                       std::vector<std::vector<Value>> layers,
                       std::optional<int> others_level = std::nullopt);

  const char* TypeName() const override { return type_name_; }
  uint64_t Fingerprint() const override;
  double Score(const Value& v) const override;
  Result<ExprPtr> ScoreExpr(const Expr& attr) const override;
  bool IsCategorical() const override { return true; }
  std::optional<double> QualityOffset() const override { return 1.0; }

  int num_levels() const { return others_level_; }

 private:
  const char* type_name_;
  std::vector<std::vector<Value>> layers_;
  int others_level_;
};

/// POS set: being in the set (level 1) beats not being in it (level 2).
std::unique_ptr<BasePreference> MakePosPreference(std::vector<Value> values);
/// NEG set: not being in the set (level 1) beats being in it (level 2).
std::unique_ptr<BasePreference> MakeNegPreference(std::vector<Value> values);
/// POS set1 ELSE POS set2: levels 1 / 2 / 3.
std::unique_ptr<BasePreference> MakePosPosPreference(std::vector<Value> set1,
                                                     std::vector<Value> set2);
/// POS set ELSE NEG set: pos -> 1, neutral -> 2, neg -> 3.
std::unique_ptr<BasePreference> MakePosNegPreference(std::vector<Value> pos,
                                                     std::vector<Value> neg);

/// CONTAINS 'text': text attributes containing the needle (case-insensitive)
/// are level 1, others level 2 (simple full-text preference, cf. [LeK99]).
class ContainsPreference : public BasePreference {
 public:
  explicit ContainsPreference(std::string needle)
      : needle_(std::move(needle)) {}
  const char* TypeName() const override { return "CONTAINS"; }
  uint64_t Fingerprint() const override;
  double Score(const Value& v) const override;
  Result<ExprPtr> ScoreExpr(const Expr& attr) const override;
  bool IsCategorical() const override { return true; }
  std::optional<double> QualityOffset() const override { return 1.0; }

 private:
  std::string needle_;
};

}  // namespace prefsql
