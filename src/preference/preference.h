// Runtime preference model: strict partial orders over attribute values
// (paper §2.1). A base preference compares two attribute values; composite
// preferences (Pareto, prioritized) are built in composite.h.

#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "sql/ast.h"
#include "types/value.h"
#include "util/status.h"

namespace prefsql {

/// Outcome of comparing two values/tuples under a preference. A strict
/// partial order admits all four outcomes.
enum class Rel {
  kBetter,        ///< a <P-dominates b (a is preferred)
  kWorse,         ///< b is preferred over a
  kEquivalent,    ///< same level; substitutable
  kIncomparable,  ///< neither dominates (only with EXPLICIT or Pareto)
};

/// Human-readable name ("better", ...).
const char* RelToString(Rel rel);

/// The inverse relation (better <-> worse).
Rel FlipRel(Rel rel);

// -- Fingerprinting -----------------------------------------------------
// Building blocks of the plan cache's key hash (FNV-1a, 64-bit; stable
// within a process run).

/// The FNV-1a offset basis; the seed of every fingerprint chain.
inline constexpr uint64_t kFingerprintSeed = 1469598103934665603ULL;

/// Mixes a 64-bit word into a running fingerprint.
uint64_t FingerprintMix(uint64_t h, uint64_t v);

/// Mixes a string into a running fingerprint.
uint64_t FingerprintString(uint64_t h, std::string_view s);

/// Score assigned to NULL / untyped-garbage values: worse than any real
/// value. A large finite number (not infinity) so the SQL rewrite can use the
/// same literal and produce bit-identical orderings.
inline constexpr double kWorstScore = 1.0e308;

/// Per-leaf prepared comparison key: the numeric score (lower is better; a
/// monotone linear extension of the leaf's order) plus, for EXPLICIT
/// preferences, the id of the mentioned value (-1 when unmentioned).
struct LeafKey {
  double score = kWorstScore;
  int32_t explicit_id = -1;
};

/// The score of a numeric base preference (AROUND, BETWEEN, LOWEST, HIGHEST,
/// or the DUAL of one) as a function of the attribute's Value::ToNumeric().
/// It is the one definition behind their Score(const Value&) and behind the
/// key build that reads a table's numeric column vectors by slot
/// (core/slot_keys.h), so the two cannot diverge. A NULL or non-numeric
/// value scores kWorstScore, which DUAL then negates like every score.
struct NumericScore {
  enum class Kind : uint8_t { kAround, kBetween, kLowest, kHighest };
  Kind kind = Kind::kLowest;
  double low = 0.0;   ///< AROUND target; BETWEEN lower bound
  double high = 0.0;  ///< BETWEEN upper bound
  bool dual = false;

  /// The score of a value whose numeric view is `n` when `valid`; `n` is
  /// ignored otherwise.
  double Of(bool valid, double n) const {
    double s = kWorstScore;
    if (valid) {
      switch (kind) {
        case Kind::kAround:
          s = std::fabs(n - low);
          break;
        case Kind::kBetween:
          s = n < low ? low - n : n > high ? n - high : 0.0;
          break;
        case Kind::kLowest:
          s = n;
          break;
        case Kind::kHighest:
          s = -n;
          break;
      }
    }
    return dual ? -s : s;
  }
  double Of(const Value& v) const {
    const std::optional<double> n = v.ToNumeric();
    return Of(n.has_value(), n.value_or(0.0));
  }
};

/// A base preference: a strict partial order on a single attribute domain.
///
/// All built-in types except EXPLICIT are weak orders: tuples compare by a
/// numeric score (lower is better). EXPLICIT overrides Compare with DAG
/// reachability.
class BasePreference {
 public:
  virtual ~BasePreference() = default;

  /// Preference type name for diagnostics ("AROUND", "POS", ...).
  virtual const char* TypeName() const = 0;

  /// Numeric score of a value; lower is better; kWorstScore for NULL or
  /// non-applicable values. For every base preference this is a monotone
  /// linear extension of the order: Better(a, b) implies
  /// Score(a) < Score(b). (This is what makes the SFS presort correct.)
  virtual double Score(const Value& v) const = 0;

  /// The score as a function of the value's numeric view, when Score is
  /// one (AROUND, BETWEEN, LOWEST, HIGHEST and their DUAL); nullopt for
  /// categorical and EXPLICIT preferences.
  virtual std::optional<NumericScore> numeric_score() const {
    return std::nullopt;
  }

  /// EXPLICIT only: dictionary id of a mentioned value (-1 otherwise).
  virtual int32_t ExplicitId(const Value& v) const {
    (void)v;
    return -1;
  }

  /// Compares two prepared keys. Default: by score (weak order).
  virtual Rel Compare(const LeafKey& a, const LeafKey& b) const {
    if (a.score < b.score) return Rel::kBetter;
    if (a.score > b.score) return Rel::kWorse;
    return Rel::kEquivalent;
  }

  /// True when Compare is exactly the default score comparison; the packed
  /// dominance kernels (dominance_program.h) may then compare raw scores
  /// without virtual dispatch. Non-weak-order EXPLICIT returns false (its
  /// Compare is DAG reachability, which scores cannot encode).
  virtual bool CompareIsScoreOnly() const { return true; }

  /// Builds the SQL expression computing Score over `attr` (the level column
  /// of the rewriter's Aux view, §3.2). Returns NotImplemented when the
  /// preference cannot be expressed as one numeric column (non-weak-order
  /// EXPLICIT); the query then falls back to in-engine BMO evaluation.
  virtual Result<ExprPtr> ScoreExpr(const Expr& attr) const = 0;

  /// True for discrete-level preferences (POS/NEG/POS-POS/POS-NEG/CONTAINS/
  /// EXPLICIT) where LEVEL() reports the integer level directly.
  virtual bool IsCategorical() const = 0;

  /// Offset subtracted from Score to obtain DISTANCE (0 = perfect match):
  ///   AROUND/BETWEEN -> 0 (score is already the distance),
  ///   categorical    -> 1 (best level is 1),
  ///   HIGHEST/LOWEST -> nullopt: subtract the minimum *observed* score
  ///                     (distance from the observed optimum, §2.2.3).
  virtual std::optional<double> QualityOffset() const = 0;

  /// Builds the key for one attribute value.
  LeafKey MakeKey(const Value& v) const {
    return LeafKey{Score(v), ExplicitId(v)};
  }
};

}  // namespace prefsql
