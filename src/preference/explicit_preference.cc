#include "preference/explicit_preference.h"

#include <algorithm>

namespace prefsql {

Result<std::unique_ptr<ExplicitPreference>> ExplicitPreference::Make(
    std::vector<std::pair<Value, Value>> edges) {
  auto p = std::unique_ptr<ExplicitPreference>(new ExplicitPreference());
  auto intern = [&](const Value& v) -> Result<int32_t> {
    if (v.is_null()) {
      return Status::InvalidArgument("EXPLICIT values must not be NULL");
    }
    auto it = p->ids_.find(v);
    if (it != p->ids_.end()) return it->second;
    int32_t id = static_cast<int32_t>(p->values_.size());
    p->values_.push_back(v);
    p->ids_.emplace(v, id);
    return id;
  };

  std::vector<std::pair<int32_t, int32_t>> id_edges;
  for (const auto& [better, worse] : edges) {
    PSQL_ASSIGN_OR_RETURN(int32_t b, intern(better));
    PSQL_ASSIGN_OR_RETURN(int32_t w, intern(worse));
    if (b == w) {
      return Status::InvalidArgument(
          "EXPLICIT preference is not irreflexive: '" + better.ToString() +
          "' BETTER THAN itself");
    }
    id_edges.emplace_back(b, w);
  }

  const size_t n = p->values_.size();
  p->reach_.assign(n * n, false);
  for (const auto& [b, w] : id_edges) {
    p->reach_[static_cast<size_t>(b) * n + static_cast<size_t>(w)] = true;
  }
  // Floyd-Warshall transitive closure (value dictionaries are small).
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (!p->reach_[i * n + k]) continue;
      for (size_t j = 0; j < n; ++j) {
        if (p->reach_[k * n + j]) p->reach_[i * n + j] = true;
      }
    }
  }
  // A strict partial order must be irreflexive after closure (no cycles).
  for (size_t i = 0; i < n; ++i) {
    if (p->reach_[i * n + i]) {
      return Status::InvalidArgument(
          "EXPLICIT preference contains a better-than cycle through '" +
          p->values_[i].ToString() + "'");
    }
  }

  // Layer ranks: longest chain from any maximal element, computed by
  // relaxation over the closed reachability relation (n is tiny).
  p->rank_.assign(n, 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (p->reach_[i * n + j] && p->rank_[j] < p->rank_[i] + 1) {
          p->rank_[j] = p->rank_[i] + 1;
          changed = true;
        }
      }
    }
  }
  p->max_rank_ = 0;
  for (size_t i = 0; i < n; ++i) p->max_rank_ = std::max(p->max_rank_, p->rank_[i]);

  // Score-faithfulness check: the single rank column encodes the order
  // exactly iff (a) dominance coincides with rank comparison on every
  // mentioned pair and (b) no two distinct mentioned values share a rank.
  // Without (b), same-rank values are incomparable under Compare but the
  // encoding would call them equivalent — indistinguishable for a flat
  // skyline, yet different under Pareto composition (an incomparable
  // component voids dominance, an equivalent one does not) and in the SQL
  // rewrite. In effect the mentioned values must form a chain.
  p->is_weak_order_ = true;
  for (size_t i = 0; i < n && p->is_weak_order_; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      bool dominates = p->reach_[i * n + j];
      bool rank_less = p->rank_[i] < p->rank_[j];
      if (dominates != rank_less || p->rank_[i] == p->rank_[j]) {
        p->is_weak_order_ = false;
        break;
      }
    }
  }
  return p;
}

double ExplicitPreference::Score(const Value& v) const {
  int32_t id = ExplicitId(v);
  if (id < 0) return static_cast<double>(max_rank_ + 2);
  return static_cast<double>(rank_[static_cast<size_t>(id)] + 1);
}

int32_t ExplicitPreference::ExplicitId(const Value& v) const {
  if (v.is_null()) return -1;
  auto it = ids_.find(v);
  if (it == ids_.end()) return -1;
  return it->second;
}

Rel ExplicitPreference::Compare(const LeafKey& a, const LeafKey& b) const {
  if (a.explicit_id < 0 && b.explicit_id < 0) return Rel::kEquivalent;
  if (a.explicit_id < 0) return Rel::kWorse;   // mentioned beats unmentioned
  if (b.explicit_id < 0) return Rel::kBetter;
  if (a.explicit_id == b.explicit_id) return Rel::kEquivalent;
  if (Reaches(a.explicit_id, b.explicit_id)) return Rel::kBetter;
  if (Reaches(b.explicit_id, a.explicit_id)) return Rel::kWorse;
  return Rel::kIncomparable;
}

Result<ExprPtr> ExplicitPreference::ScoreExpr(const Expr& attr) const {
  if (!is_weak_order_) {
    return Status::NotImplemented(
        "EXPLICIT preference is not a weak order; it cannot be rewritten to "
        "a single level column (falling back to in-engine evaluation)");
  }
  // CASE attr WHEN v THEN rank+1 ... ELSE max_rank+2 END
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCase;
  e->left = attr.Clone();
  for (size_t i = 0; i < values_.size(); ++i) {
    CaseWhen cw;
    cw.when = Expr::MakeLiteral(values_[i]);
    cw.then = Expr::MakeLiteral(Value::Int(rank_[i] + 1));
    e->case_whens.push_back(std::move(cw));
  }
  e->case_else = Expr::MakeLiteral(Value::Int(max_rank_ + 2));
  return e;
}

}  // namespace prefsql
