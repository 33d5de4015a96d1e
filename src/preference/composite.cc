#include "preference/composite.h"

#include "preference/algebra.h"
#include "preference/base_preferences.h"
#include "preference/explicit_preference.h"
#include "util/string_util.h"

namespace prefsql {
namespace {

// Numeric view of a preference literal for AROUND/BETWEEN targets.
Result<double> NumericTarget(const Value& v, const char* what) {
  auto n = v.ToNumeric();
  if (!n) {
    return Status::InvalidArgument(std::string(what) +
                                   " requires a numeric or date literal, got " +
                                   v.ToString());
  }
  return *n;
}

}  // namespace

Result<std::unique_ptr<PrefNode>> CompiledPreference::Build(
    const PrefTerm& term, std::vector<PrefLeaf>* leaves, bool dualize) {
  if (term.kind == PrefKind::kDual) {
    // DUAL distributes over Pareto, prioritization and intersection, so it
    // compiles by toggling the dualize flag on the way to the leaves.
    return Build(*term.children[0], leaves, !dualize);
  }
  if (!term.IsBase()) {
    auto node = std::make_unique<PrefNode>();
    switch (term.kind) {
      case PrefKind::kPareto:
        node->kind = PrefNode::Kind::kPareto;
        break;
      case PrefKind::kPrioritized:
        node->kind = PrefNode::Kind::kPrioritized;
        break;
      case PrefKind::kIntersect:
        node->kind = PrefNode::Kind::kIntersect;
        break;
      default:
        return Status::Internal("unexpected composite kind");
    }
    for (const auto& child : term.children) {
      PSQL_ASSIGN_OR_RETURN(auto c, Build(*child, leaves, dualize));
      node->children.push_back(std::move(c));
    }
    return node;
  }

  std::unique_ptr<BasePreference> base;
  switch (term.kind) {
    case PrefKind::kAround: {
      PSQL_ASSIGN_OR_RETURN(double t, NumericTarget(term.target, "AROUND"));
      base = std::make_unique<AroundPreference>(t);
      break;
    }
    case PrefKind::kBetween: {
      PSQL_ASSIGN_OR_RETURN(double lo, NumericTarget(term.low, "BETWEEN"));
      PSQL_ASSIGN_OR_RETURN(double hi, NumericTarget(term.high, "BETWEEN"));
      if (lo > hi) {
        return Status::InvalidArgument(
            "BETWEEN bounds out of order: low > high");
      }
      base = std::make_unique<BetweenPreference>(lo, hi);
      break;
    }
    case PrefKind::kLowest:
      base = std::make_unique<LowestPreference>();
      break;
    case PrefKind::kHighest:
      base = std::make_unique<HighestPreference>();
      break;
    case PrefKind::kPos:
      base = MakePosPreference(term.values);
      break;
    case PrefKind::kNeg:
      base = MakeNegPreference(term.values);
      break;
    case PrefKind::kPosPos:
      base = MakePosPosPreference(term.values, term.values2);
      break;
    case PrefKind::kPosNeg:
      base = MakePosNegPreference(term.values, term.values2);
      break;
    case PrefKind::kContains:
      base = std::make_unique<ContainsPreference>(term.target.AsText());
      break;
    case PrefKind::kExplicit: {
      PSQL_ASSIGN_OR_RETURN(auto p, ExplicitPreference::Make(term.edges));
      base = std::move(p);
      break;
    }
    case PrefKind::kNamedRef:
      return Status::InvalidArgument(
          "unresolved PREFERENCE reference '" + term.pref_name +
          "' (expand named preferences before compiling)");
    default:
      return Status::Internal("unexpected preference kind");
  }
  if (dualize) {
    base = std::make_unique<DualBasePreference>(std::move(base));
  }
  auto node = std::make_unique<PrefNode>();
  node->kind = PrefNode::Kind::kLeaf;
  node->leaf_slot = leaves->size();
  leaves->push_back(PrefLeaf{std::move(base), term.attr->Clone()});
  return node;
}

Result<CompiledPreference> CompiledPreference::Compile(const PrefTerm& term) {
  CompiledPreference out;
  PSQL_ASSIGN_OR_RETURN(out.root_, Build(term, &out.leaves_,
                                         /*dualize=*/false));
  out.term_ = term.Clone();
  out.program_ = DominanceProgram::Compile(*out.root_, out.leaves_);
  return out;
}

Result<PrefKey> CompiledPreference::MakeKey(const Schema& schema,
                                            const Row& row,
                                            SubqueryRunner* runner) const {
  PrefKey key;
  key.reserve(leaves_.size());
  EvalContext ctx{&schema, &row, nullptr, runner};
  for (const auto& leaf : leaves_) {
    PSQL_ASSIGN_OR_RETURN(Value v, Evaluate(*leaf.attr, ctx));
    key.push_back(leaf.pref->MakeKey(v));
  }
  return key;
}

std::vector<BoundExpr> CompiledPreference::BindLeaves(
    const Schema& schema) const {
  std::vector<BoundExpr> out;
  out.reserve(leaves_.size());
  for (const auto& leaf : leaves_) {
    out.emplace_back(*leaf.attr, schema, nullptr);
  }
  return out;
}

Status CompiledPreference::AppendKey(const std::vector<BoundExpr>& leaves,
                                     const Schema& schema, const Row& row,
                                     KeyStore* store,
                                     SubqueryRunner* runner) const {
  EvalContext ctx{&schema, &row, nullptr, runner};
  for (size_t l = 0; l < leaves_.size(); ++l) {
    auto v = Evaluate(leaves[l], ctx);
    if (!v.ok()) {
      store->RollbackRow();
      return v.status();
    }
    LeafKey k = leaves_[l].pref->MakeKey(*v);
    store->PushLeaf(k.score, k.explicit_id);
  }
  store->CommitRow();
  return Status::OK();
}

Status CompiledPreference::AppendKey(const Schema& schema, const Row& row,
                                     KeyStore* store,
                                     SubqueryRunner* runner) const {
  return AppendKey(BindLeaves(schema), schema, row, store, runner);
}

Rel CompiledPreference::CompareNode(const PrefNode& node, const PrefKey& a,
                                    const PrefKey& b) const {
  switch (node.kind) {
    case PrefNode::Kind::kLeaf:
      return leaves_[node.leaf_slot].pref->Compare(a[node.leaf_slot],
                                                   b[node.leaf_slot]);
    case PrefNode::Kind::kPareto: {
      // a dominates b iff a is better-or-equal in every component and
      // strictly better in at least one (§2.2.2).
      bool some_better = false, some_worse = false;
      for (const auto& child : node.children) {
        switch (CompareNode(*child, a, b)) {
          case Rel::kBetter:
            some_better = true;
            break;
          case Rel::kWorse:
            some_worse = true;
            break;
          case Rel::kIncomparable:
            return Rel::kIncomparable;
          case Rel::kEquivalent:
            break;
        }
        if (some_better && some_worse) return Rel::kIncomparable;
      }
      if (some_better) return Rel::kBetter;
      if (some_worse) return Rel::kWorse;
      return Rel::kEquivalent;
    }
    case PrefNode::Kind::kPrioritized: {
      // Lexicographic: the first non-equivalent component decides.
      for (const auto& child : node.children) {
        Rel rel = CompareNode(*child, a, b);
        if (rel != Rel::kEquivalent) return rel;
      }
      return Rel::kEquivalent;
    }
    case PrefNode::Kind::kIntersect: {
      // a dominates b iff a is strictly better under *every* constituent.
      bool all_better = true, all_worse = true, all_eq = true;
      for (const auto& child : node.children) {
        Rel rel = CompareNode(*child, a, b);
        all_better &= rel == Rel::kBetter;
        all_worse &= rel == Rel::kWorse;
        all_eq &= rel == Rel::kEquivalent;
        if (!all_better && !all_worse && !all_eq) return Rel::kIncomparable;
      }
      if (all_eq) return Rel::kEquivalent;
      if (all_better) return Rel::kBetter;
      if (all_worse) return Rel::kWorse;
      return Rel::kIncomparable;
    }
  }
  return Rel::kIncomparable;
}

Rel CompiledPreference::Compare(const PrefKey& a, const PrefKey& b) const {
  return CompareNode(*root_, a, b);
}

bool CompiledPreference::LexLess(const PrefKey& a, const PrefKey& b) const {
  for (size_t i = 0; i < leaves_.size(); ++i) {
    if (a[i].score < b[i].score) return true;
    if (a[i].score > b[i].score) return false;
  }
  return false;
}

Result<size_t> CompiledPreference::LeafForColumn(
    const std::string& name) const {
  std::optional<size_t> found;
  for (size_t i = 0; i < leaves_.size(); ++i) {
    const Expr& attr = *leaves_[i].attr;
    if (attr.kind == ExprKind::kColumnRef &&
        EqualsIgnoreCase(attr.column, name)) {
      if (found) {
        return Status::InvalidArgument(
            "quality function is ambiguous: several base preferences refer "
            "to column '" + name + "'");
      }
      found = i;
    }
  }
  if (!found) {
    return Status::InvalidArgument(
        "quality function refers to column '" + name +
        "' which no base preference mentions");
  }
  return *found;
}

bool CompiledPreference::IsRewritable() const {
  for (const auto& leaf : leaves_) {
    // Only a non-weak-order EXPLICIT refuses the single-column encoding.
    auto probe = leaf.pref->ScoreExpr(*leaf.attr);
    if (!probe.ok()) return false;
  }
  return true;
}

}  // namespace prefsql
