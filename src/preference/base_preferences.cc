#include "preference/base_preferences.h"

#include "util/string_util.h"

namespace prefsql {
namespace {

// COALESCE(expr, kWorstScore): makes the SQL score column rank NULLs worst,
// exactly like the in-engine Score() functions.
ExprPtr WrapNullWorst(ExprPtr e) {
  std::vector<ExprPtr> args;
  args.push_back(std::move(e));
  args.push_back(Expr::MakeLiteral(Value::Double(kWorstScore)));
  return Expr::MakeFunction("coalesce", std::move(args));
}

// attr IN (values) as an Expr.
ExprPtr InList(const Expr& attr, const std::vector<Value>& values) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIn;
  e->left = attr.Clone();
  for (const auto& v : values) {
    e->in_list.push_back(Expr::MakeLiteral(v));
  }
  return e;
}

}  // namespace

// ---------------------------------------------------------------------------
// AROUND
// ---------------------------------------------------------------------------

uint64_t AroundPreference::Fingerprint() const {
  return FingerprintDouble(BasePreference::Fingerprint(), score_.low);
}

Result<ExprPtr> AroundPreference::ScoreExpr(const Expr& attr) const {
  // ABS(attr - target)
  std::vector<ExprPtr> args;
  args.push_back(
      Expr::MakeBinary(BinaryOp::kSub, attr.Clone(),
                       Expr::MakeLiteral(Value::Double(score_.low))));
  return WrapNullWorst(Expr::MakeFunction("abs", std::move(args)));
}

// ---------------------------------------------------------------------------
// BETWEEN
// ---------------------------------------------------------------------------

uint64_t BetweenPreference::Fingerprint() const {
  return FingerprintDouble(
      FingerprintDouble(BasePreference::Fingerprint(), score_.low),
      score_.high);
}

Result<ExprPtr> BetweenPreference::ScoreExpr(const Expr& attr) const {
  // CASE WHEN attr < low THEN low - attr
  //      WHEN attr > high THEN attr - high
  //      WHEN attr >= low AND attr <= high THEN 0
  //      ELSE worst END
  // NULL or non-numeric attributes fail every comparison (UNKNOWN) and land
  // in the ELSE branch, matching Score()'s kWorstScore.
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCase;
  CaseWhen below;
  below.when = Expr::MakeBinary(BinaryOp::kLt, attr.Clone(),
                                Expr::MakeLiteral(Value::Double(score_.low)));
  below.then = Expr::MakeBinary(BinaryOp::kSub,
                                Expr::MakeLiteral(Value::Double(score_.low)),
                                attr.Clone());
  e->case_whens.push_back(std::move(below));
  CaseWhen above;
  above.when = Expr::MakeBinary(BinaryOp::kGt, attr.Clone(),
                                Expr::MakeLiteral(Value::Double(score_.high)));
  above.then = Expr::MakeBinary(BinaryOp::kSub, attr.Clone(),
                                Expr::MakeLiteral(Value::Double(score_.high)));
  e->case_whens.push_back(std::move(above));
  CaseWhen inside;
  inside.when = Expr::MakeBinary(
      BinaryOp::kAnd,
      Expr::MakeBinary(BinaryOp::kGe, attr.Clone(),
                       Expr::MakeLiteral(Value::Double(score_.low))),
      Expr::MakeBinary(BinaryOp::kLe, attr.Clone(),
                       Expr::MakeLiteral(Value::Double(score_.high))));
  inside.then = Expr::MakeLiteral(Value::Double(0.0));
  e->case_whens.push_back(std::move(inside));
  e->case_else = Expr::MakeLiteral(Value::Double(kWorstScore));
  return e;
}

// ---------------------------------------------------------------------------
// LOWEST / HIGHEST
// ---------------------------------------------------------------------------

Result<ExprPtr> LowestPreference::ScoreExpr(const Expr& attr) const {
  // attr + 0 forces the numeric coercion (TEXT garbage becomes NULL and
  // COALESCE then ranks it worst, like Score()).
  return WrapNullWorst(Expr::MakeBinary(BinaryOp::kAdd, attr.Clone(),
                                        Expr::MakeLiteral(Value::Double(0.0))));
}

Result<ExprPtr> HighestPreference::ScoreExpr(const Expr& attr) const {
  return WrapNullWorst(
      Expr::MakeBinary(BinaryOp::kSub, Expr::MakeLiteral(Value::Double(0.0)),
                       attr.Clone()));
}

// ---------------------------------------------------------------------------
// Layered set preferences (POS / NEG / POS-POS / POS-NEG)
// ---------------------------------------------------------------------------

LayeredSetPreference::LayeredSetPreference(
    const char* type_name, std::vector<std::vector<Value>> layers,
    std::optional<int> others_level)
    : type_name_(type_name),
      layers_(std::move(layers)),
      others_level_(others_level.value_or(static_cast<int>(layers_.size()) + 1)) {}

uint64_t LayeredSetPreference::Fingerprint() const {
  uint64_t h = BasePreference::Fingerprint();
  for (const auto& layer : layers_) {
    h = FingerprintMix(h, layer.size());
    for (const auto& v : layer) h = FingerprintValue(h, v);
  }
  return FingerprintMix(h, static_cast<uint64_t>(others_level_));
}

double LayeredSetPreference::Score(const Value& v) const {
  if (!v.is_null()) {
    for (size_t i = 0; i < layers_.size(); ++i) {
      for (const auto& member : layers_[i]) {
        auto eq = v.SqlEquals(member);
        if (eq && *eq) return static_cast<double>(i + 1);
      }
    }
  }
  return static_cast<double>(others_level_);
}

Result<ExprPtr> LayeredSetPreference::ScoreExpr(const Expr& attr) const {
  // CASE WHEN attr IN (layer1) THEN 1 WHEN attr IN (layer2) THEN 2 ...
  //      ELSE others END
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCase;
  for (size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i].empty()) continue;
    CaseWhen cw;
    cw.when = InList(attr, layers_[i]);
    cw.then = Expr::MakeLiteral(Value::Int(static_cast<int64_t>(i + 1)));
    e->case_whens.push_back(std::move(cw));
  }
  e->case_else = Expr::MakeLiteral(Value::Int(others_level_));
  return e;
}

std::unique_ptr<BasePreference> MakePosPreference(std::vector<Value> values) {
  std::vector<std::vector<Value>> layers;
  layers.push_back(std::move(values));
  return std::make_unique<LayeredSetPreference>("POS", std::move(layers));
}

std::unique_ptr<BasePreference> MakeNegPreference(std::vector<Value> values) {
  // NEG: members of the set land at level 2, everything else at level 1.
  std::vector<std::vector<Value>> layers;
  layers.push_back({});                  // level 1 intentionally empty
  layers.push_back(std::move(values));   // level 2: the disliked values
  return std::make_unique<LayeredSetPreference>("NEG", std::move(layers),
                                                /*others_level=*/1);
}

std::unique_ptr<BasePreference> MakePosPosPreference(std::vector<Value> set1,
                                                     std::vector<Value> set2) {
  std::vector<std::vector<Value>> layers;
  layers.push_back(std::move(set1));
  layers.push_back(std::move(set2));
  return std::make_unique<LayeredSetPreference>("POS/POS", std::move(layers));
}

std::unique_ptr<BasePreference> MakePosNegPreference(std::vector<Value> pos,
                                                     std::vector<Value> neg) {
  // pos -> 1, neg -> 3, everything else -> 2.
  std::vector<std::vector<Value>> layers;
  layers.push_back(std::move(pos));
  layers.push_back({});
  layers.push_back(std::move(neg));
  return std::make_unique<LayeredSetPreference>("POS/NEG", std::move(layers),
                                                /*others_level=*/2);
}

// ---------------------------------------------------------------------------
// CONTAINS
// ---------------------------------------------------------------------------

uint64_t ContainsPreference::Fingerprint() const {
  return FingerprintString(BasePreference::Fingerprint(), needle_);
}

double ContainsPreference::Score(const Value& v) const {
  if (v.type() != ValueType::kText) return 2.0;
  return ContainsIgnoreCase(v.AsText(), needle_) ? 1.0 : 2.0;
}

Result<ExprPtr> ContainsPreference::ScoreExpr(const Expr& attr) const {
  // CASE WHEN CONTAINS(attr, 'needle') THEN 1 ELSE 2 END
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCase;
  CaseWhen cw;
  std::vector<ExprPtr> args;
  args.push_back(attr.Clone());
  args.push_back(Expr::MakeLiteral(Value::Text(needle_)));
  cw.when = Expr::MakeFunction("contains", std::move(args));
  cw.then = Expr::MakeLiteral(Value::Int(1));
  e->case_whens.push_back(std::move(cw));
  e->case_else = Expr::MakeLiteral(Value::Int(2));
  return e;
}

}  // namespace prefsql
