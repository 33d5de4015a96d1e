#include "engine/evaluator.h"

#include <cmath>
#include <utility>

#include "types/date.h"
#include "util/string_util.h"

namespace prefsql {

// The binding of one expression node, mirroring the Expr tree. A child is
// null when nothing in its subtree is bound (it evaluates by name).
struct BoundNode {
  // kColumnRef: the row `depth` scopes out (0 = the current row) and the
  // slot in it.
  uint32_t depth = 0;
  uint32_t slot = 0;
  // kExists: the probe planned on first use. `tried` without a plan means
  // the runner re-plans per row.
  struct Probe {
    bool tried = false;
    std::unique_ptr<ExistsProbe> plan;
  };
  std::unique_ptr<Probe> probe;
  std::unique_ptr<BoundNode> left, right, lo, hi, case_else;
  std::vector<std::unique_ptr<BoundNode>> args, in_list, whens, thens;
};

namespace {

using BoundPtr = std::unique_ptr<BoundNode>;

// Binds the subtree at `e`; null when nothing in it binds. Mirrors
// ResolveColumn: innermost scope first, an ambiguous name stops the search
// (left unbound, so evaluation raises the ambiguity), and subqueries are
// not entered (they bind when they are planned).
BoundPtr BindNode(const Expr& e, const Schema& schema,
                  const EvalContext* outer) {
  auto node = std::make_unique<BoundNode>();
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      const Schema* scope_schema = &schema;
      const EvalContext* next = outer;
      for (uint32_t depth = 0;; ++depth) {
        size_t idx = 0;
        if (scope_schema != nullptr) {
          switch (scope_schema->ResolveScoped(e.qualifier, e.column, &idx)) {
            case Schema::ResolveOutcome::kFound:
              node->depth = depth;
              node->slot = static_cast<uint32_t>(idx);
              return node;
            case Schema::ResolveOutcome::kAmbiguous:
              return nullptr;
            case Schema::ResolveOutcome::kNotFound:
              break;
          }
        }
        if (next == nullptr) return nullptr;
        scope_schema = next->schema;
        next = next->outer;
      }
    }
    case ExprKind::kExists:
      node->probe = std::make_unique<BoundNode::Probe>();
      return node;
    default:
      break;
  }
  bool any = false;
  auto bind = [&](const ExprPtr& child) {
    if (child == nullptr) return BoundPtr();
    BoundPtr b = BindNode(*child, schema, outer);
    any |= b != nullptr;
    return b;
  };
  node->left = bind(e.left);
  node->right = bind(e.right);
  node->lo = bind(e.lo);
  node->hi = bind(e.hi);
  node->case_else = bind(e.case_else);
  for (const auto& a : e.args) node->args.push_back(bind(a));
  for (const auto& item : e.in_list) node->in_list.push_back(bind(item));
  for (const auto& cw : e.case_whens) {
    node->whens.push_back(bind(cw.when));
    node->thens.push_back(bind(cw.then));
  }
  if (!any) return nullptr;
  return node;
}

// Child accessors that tolerate an unbound parent.
const BoundNode* Kid(const BoundNode* b, BoundPtr BoundNode::*field) {
  return b != nullptr ? (b->*field).get() : nullptr;
}
const BoundNode* KidAt(const BoundNode* b,
                       std::vector<BoundPtr> BoundNode::*field, size_t i) {
  return b != nullptr ? (b->*field)[i].get() : nullptr;
}

Value BoolOrNull(std::optional<bool> b) {
  if (!b) return Value::Null();
  return Value::Bool(*b);
}

// Resolves a column reference against the scope chain (innermost first).
Result<Value> ResolveColumn(const Expr& e, const EvalContext& ctx) {
  for (const EvalContext* scope = &ctx; scope != nullptr;
       scope = scope->outer) {
    if (scope->schema == nullptr) continue;
    size_t idx = 0;
    switch (scope->schema->ResolveScoped(e.qualifier, e.column, &idx)) {
      case Schema::ResolveOutcome::kFound:
        return (*scope->row)[idx];
      case Schema::ResolveOutcome::kAmbiguous:
        return Status::InvalidArgument(
            "ambiguous column: " +
            (e.qualifier.empty() ? e.column : e.qualifier + "." + e.column));
      case Schema::ResolveOutcome::kNotFound:
        break;
    }
  }
  return Status::InvalidArgument(
      "unknown column: " +
      (e.qualifier.empty() ? e.column : e.qualifier + "." + e.column));
}

Result<Value> EvalArithmetic(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  // Integer arithmetic stays integral except for division by non-divisor.
  bool both_int =
      l.type() == ValueType::kInt && r.type() == ValueType::kInt;
  auto ln = l.ToNumeric(), rn = r.ToNumeric();
  if (!ln || !rn) {
    // Dynamic typing, SQLite-flavored: arithmetic on a non-numeric operand
    // yields NULL rather than an error. The preference rewriter relies on
    // this (COALESCE(attr - target, worst) ranks garbage values worst, the
    // same way the native Score() functions do).
    return Value::Null();
  }
  // An int64 result that overflows is computed as a DOUBLE, as in SQLite;
  // INT64_MIN / -1 (which traps) is a negation.
  int64_t out;
  switch (op) {
    case BinaryOp::kAdd:
      if (both_int && !__builtin_add_overflow(l.AsInt(), r.AsInt(), &out)) {
        return Value::Int(out);
      }
      return Value::Double(*ln + *rn);
    case BinaryOp::kSub:
      if (both_int && !__builtin_sub_overflow(l.AsInt(), r.AsInt(), &out)) {
        return Value::Int(out);
      }
      return Value::Double(*ln - *rn);
    case BinaryOp::kMul:
      if (both_int && !__builtin_mul_overflow(l.AsInt(), r.AsInt(), &out)) {
        return Value::Int(out);
      }
      return Value::Double(*ln * *rn);
    case BinaryOp::kDiv:
      if (*rn == 0.0) return Value::Null();  // SQL: division by zero -> NULL
      if (both_int && r.AsInt() == -1) return NegateNumeric(l);
      if (both_int && l.AsInt() % r.AsInt() == 0) {
        return Value::Int(l.AsInt() / r.AsInt());
      }
      return Value::Double(*ln / *rn);
    case BinaryOp::kMod:
      if (*rn == 0.0) return Value::Null();
      if (both_int) {
        return Value::Int(r.AsInt() == -1 ? 0 : l.AsInt() % r.AsInt());
      }
      return Value::Double(std::fmod(*ln, *rn));
    default:
      return Status::Internal("not an arithmetic operator");
  }
}

// SQL truth of `l op r` for a comparison operator (nullopt = UNKNOWN).
std::optional<bool> CompareTruth(BinaryOp op, const Value& l, const Value& r) {
  auto negate = [](std::optional<bool> t) -> std::optional<bool> {
    if (!t) return std::nullopt;
    return !*t;
  };
  switch (op) {
    case BinaryOp::kEq:
      return l.SqlEquals(r);
    case BinaryOp::kNe:
      return negate(l.SqlEquals(r));
    case BinaryOp::kLt:
      return l.SqlLess(r);
    case BinaryOp::kGt:
      return r.SqlLess(l);
    case BinaryOp::kLe:
      return negate(r.SqlLess(l));
    case BinaryOp::kGe:
      return negate(l.SqlLess(r));
    default:
      return std::nullopt;  // not a comparison; callers check IsComparison
  }
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

Result<Value> EvalComparison(BinaryOp op, const Value& l, const Value& r) {
  if (!IsComparison(op)) return Status::Internal("not a comparison operator");
  return BoolOrNull(CompareTruth(op, l, r));
}

std::optional<bool> AsTruth(const Value& v) {
  if (v.is_null()) return std::nullopt;
  if (v.type() == ValueType::kBool) return v.AsBool();
  if (auto n = v.ToNumeric()) return *n != 0.0;
  return std::nullopt;
}

Result<Value> EvalScalarFunction(const Expr& e, const EvalContext& ctx,
                                 std::vector<Value> args) {
  const std::string& f = e.function_name;
  auto need = [&](size_t n) -> Status {
    if (args.size() == n) return Status::OK();
    return Status::InvalidArgument("function " + f + " expects " +
                                   std::to_string(n) + " argument(s)");
  };
  (void)ctx;
  if (f == "abs") {
    PSQL_RETURN_IF_ERROR(need(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() == ValueType::kInt) {
      return Value::Int(std::llabs(args[0].AsInt()));
    }
    auto n = args[0].ToNumeric();
    if (!n) return Status::InvalidArgument("abs requires a numeric argument");
    return Value::Double(std::fabs(*n));
  }
  if (f == "lower" || f == "upper") {
    PSQL_RETURN_IF_ERROR(need(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() != ValueType::kText) {
      return Status::InvalidArgument(f + " requires a text argument");
    }
    return Value::Text(f == "lower" ? ToLower(args[0].AsText())
                                    : ToUpper(args[0].AsText()));
  }
  if (f == "length") {
    PSQL_RETURN_IF_ERROR(need(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() != ValueType::kText) {
      return Status::InvalidArgument("length requires a text argument");
    }
    return Value::Int(static_cast<int64_t>(args[0].AsText().size()));
  }
  if (f == "coalesce") {
    for (auto& a : args) {
      if (!a.is_null()) return std::move(a);
    }
    return Value::Null();
  }
  if (f == "round") {
    if (args.size() != 1 && args.size() != 2) {
      return Status::InvalidArgument("round expects 1 or 2 arguments");
    }
    if (args[0].is_null()) return Value::Null();
    auto n = args[0].ToNumeric();
    if (!n) return Status::InvalidArgument("round requires numeric argument");
    double scale = 1.0;
    if (args.size() == 2) {
      auto digits = args[1].ToNumeric();
      if (!digits) {
        return Status::InvalidArgument("round digits must be numeric");
      }
      scale = std::pow(10.0, *digits);
    }
    return Value::Double(std::round(*n * scale) / scale);
  }
  if (f == "sqrt") {
    PSQL_RETURN_IF_ERROR(need(1));
    if (args[0].is_null()) return Value::Null();
    auto n = args[0].ToNumeric();
    if (!n || *n < 0) {
      return Status::InvalidArgument("sqrt requires a non-negative number");
    }
    return Value::Double(std::sqrt(*n));
  }
  if (f == "contains") {
    // Scalar twin of the CONTAINS base preference (case-insensitive).
    PSQL_RETURN_IF_ERROR(need(2));
    if (args[0].is_null() || args[1].is_null()) return Value::Null();
    if (args[0].type() != ValueType::kText ||
        args[1].type() != ValueType::kText) {
      return Value::Null();  // non-text haystack: no match information
    }
    return Value::Bool(ContainsIgnoreCase(args[0].AsText(), args[1].AsText()));
  }
  if (f == "top" || f == "level" || f == "distance") {
    return Status::InvalidArgument(
        "quality function " + ToUpper(f) +
        "() is only valid in a query with a PREFERRING clause");
  }
  if (IsAggregateFunction(f)) {
    return Status::InvalidArgument("aggregate function " + f +
                                   " is not allowed in this context");
  }
  return Status::InvalidArgument("unknown function: " + f);
}

}  // namespace

bool IsAggregateFunction(const std::string& name) {
  return name == "count" || name == "sum" || name == "avg" || name == "min" ||
         name == "max";
}

bool ContainsAggregate(const Expr& e) {
  if (e.kind == ExprKind::kFunction && IsAggregateFunction(e.function_name)) {
    return true;
  }
  auto check = [](const ExprPtr& p) { return p && ContainsAggregate(*p); };
  if (check(e.left) || check(e.right) || check(e.lo) || check(e.hi) ||
      check(e.case_else)) {
    return true;
  }
  for (const auto& a : e.args) {
    if (ContainsAggregate(*a)) return true;
  }
  for (const auto& item : e.in_list) {
    if (ContainsAggregate(*item)) return true;
  }
  for (const auto& cw : e.case_whens) {
    if (ContainsAggregate(*cw.when) || ContainsAggregate(*cw.then)) return true;
  }
  return false;
}

bool SqlLike(const std::string& text, const std::string& pattern) {
  // Iterative matcher with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

namespace {

// Reads a bound column reference: the slot of the row `depth` scopes out.
const Value& ReadSlot(const BoundNode& b, const EvalContext& ctx) {
  const EvalContext* scope = &ctx;
  for (uint32_t d = b.depth; d > 0; --d) scope = scope->outer;
  return (*scope->row)[b.slot];
}

// The value of a bound column reference or a literal, without a copy; null
// when the operand must be evaluated.
const Value* InPlace(const Expr& e, const BoundNode* b,
                     const EvalContext& ctx) {
  if (e.kind == ExprKind::kColumnRef && b != nullptr) return &ReadSlot(*b, ctx);
  if (e.kind == ExprKind::kLiteral && !e.literal.is_param()) return &e.literal;
  return nullptr;
}

// Runs a bound EXISTS through the probe it keeps: planned on first use (the
// binding's scope shape is fixed, so the plan stays valid for every later
// row), and left to SubqueryExists per row when the runner cannot keep a
// plan.
Result<bool> RunBoundExists(BoundNode::Probe& probe, const SelectStmt& select,
                            const EvalContext& ctx) {
  if (!probe.tried) {
    PSQL_ASSIGN_OR_RETURN(probe.plan,
                          ctx.runner->PlanExistsProbe(select, ctx));
    probe.tried = true;
  }
  if (probe.plan == nullptr) return ctx.runner->SubqueryExists(select, &ctx);
  return probe.plan->Run(ctx);
}

// The evaluator. `b` is the binding of `e` (null: resolve by name).
Result<Value> Eval(const Expr& e, const BoundNode* b, const EvalContext& ctx) {
  const BoundNode* bl = Kid(b, &BoundNode::left);
  const BoundNode* br = Kid(b, &BoundNode::right);
  switch (e.kind) {
    case ExprKind::kLiteral:
      if (e.literal.is_param()) {
        // Parameter holes must be bound before execution; reaching one here
        // means a statement bypassed the binding layer.
        return Status::BindError("unbound statement parameter " +
                                 e.literal.ToString());
      }
      return e.literal;
    case ExprKind::kColumnRef:
      if (b != nullptr) return ReadSlot(*b, ctx);
      return ResolveColumn(e, ctx);
    case ExprKind::kStar:
      return Status::InvalidArgument("'*' is not a scalar expression");
    case ExprKind::kUnary: {
      PSQL_ASSIGN_OR_RETURN(Value v, Eval(*e.left, bl, ctx));
      if (e.unary_op == UnaryOp::kNot) {
        auto t = AsTruth(v);
        if (!t) return Value::Null();
        return Value::Bool(!*t);
      }
      if (v.is_null()) return Value::Null();
      if (v.type() == ValueType::kInt) return NegateNumeric(v);
      auto n = v.ToNumeric();
      if (!n) return Value::Null();  // same coercion rule as binary arithmetic
      return Value::Double(-*n);
    }
    case ExprKind::kBinary: {
      // AND/OR get three-valued short-circuit treatment.
      if (e.binary_op == BinaryOp::kAnd || e.binary_op == BinaryOp::kOr) {
        PSQL_ASSIGN_OR_RETURN(Value lv, Eval(*e.left, bl, ctx));
        auto lt = AsTruth(lv);
        if (e.binary_op == BinaryOp::kAnd) {
          if (lt && !*lt) return Value::Bool(false);
          PSQL_ASSIGN_OR_RETURN(Value rv, Eval(*e.right, br, ctx));
          auto rt = AsTruth(rv);
          if (rt && !*rt) return Value::Bool(false);
          if (!lt || !rt) return Value::Null();
          return Value::Bool(true);
        }
        if (lt && *lt) return Value::Bool(true);
        PSQL_ASSIGN_OR_RETURN(Value rv, Eval(*e.right, br, ctx));
        auto rt = AsTruth(rv);
        if (rt && *rt) return Value::Bool(true);
        if (!lt || !rt) return Value::Null();
        return Value::Bool(false);
      }
      // Bound column and literal operands are read in place, not copied.
      Value lbuf, rbuf;
      const Value* l = InPlace(*e.left, bl, ctx);
      if (l == nullptr) {
        PSQL_ASSIGN_OR_RETURN(lbuf, Eval(*e.left, bl, ctx));
        l = &lbuf;
      }
      const Value* r = InPlace(*e.right, br, ctx);
      if (r == nullptr) {
        PSQL_ASSIGN_OR_RETURN(rbuf, Eval(*e.right, br, ctx));
        r = &rbuf;
      }
      switch (e.binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          return EvalArithmetic(e.binary_op, *l, *r);
        case BinaryOp::kConcat: {
          if (l->is_null() || r->is_null()) return Value::Null();
          return Value::Text(l->ToString() + r->ToString());
        }
        default:
          return EvalComparison(e.binary_op, *l, *r);
      }
    }
    case ExprKind::kIn: {
      PSQL_ASSIGN_OR_RETURN(Value v, Eval(*e.left, bl, ctx));
      if (v.is_null()) return Value::Null();
      bool saw_null = false;
      if (e.subquery) {
        if (ctx.runner == nullptr) {
          return Status::InvalidArgument("subquery not supported here");
        }
        PSQL_ASSIGN_OR_RETURN(ResultTable rt,
                              ctx.runner->RunSubquery(*e.subquery, &ctx));
        if (rt.num_columns() != 1) {
          return Status::InvalidArgument(
              "IN subquery must return exactly one column");
        }
        for (const auto& row : rt.rows()) {
          auto eq = v.SqlEquals(row[0]);
          if (!eq) {
            saw_null = true;
          } else if (*eq) {
            return Value::Bool(!e.negated);
          }
        }
      } else {
        for (size_t i = 0; i < e.in_list.size(); ++i) {
          PSQL_ASSIGN_OR_RETURN(
              Value c, Eval(*e.in_list[i], KidAt(b, &BoundNode::in_list, i),
                            ctx));
          auto eq = v.SqlEquals(c);
          if (!eq) {
            saw_null = true;
          } else if (*eq) {
            return Value::Bool(!e.negated);
          }
        }
      }
      if (saw_null) return Value::Null();
      return Value::Bool(e.negated);
    }
    case ExprKind::kBetween: {
      PSQL_ASSIGN_OR_RETURN(Value v, Eval(*e.left, bl, ctx));
      PSQL_ASSIGN_OR_RETURN(Value lo, Eval(*e.lo, Kid(b, &BoundNode::lo), ctx));
      PSQL_ASSIGN_OR_RETURN(Value hi, Eval(*e.hi, Kid(b, &BoundNode::hi), ctx));
      // `v [NOT] BETWEEN lo AND hi` is `[NOT] (v >= lo AND v <= hi)` under
      // three-valued logic, decided by the comparisons' own CompareTruth.
      const auto ge_lo = CompareTruth(BinaryOp::kGe, v, lo);
      const auto le_hi = CompareTruth(BinaryOp::kLe, v, hi);
      if ((ge_lo && !*ge_lo) || (le_hi && !*le_hi)) {
        return Value::Bool(e.negated);
      }
      if (!ge_lo || !le_hi) return Value::Null();
      return Value::Bool(!e.negated);
    }
    case ExprKind::kLike: {
      PSQL_ASSIGN_OR_RETURN(Value v, Eval(*e.left, bl, ctx));
      PSQL_ASSIGN_OR_RETURN(Value p, Eval(*e.right, br, ctx));
      if (v.is_null() || p.is_null()) return Value::Null();
      if (v.type() != ValueType::kText || p.type() != ValueType::kText) {
        return Status::InvalidArgument("LIKE requires text operands");
      }
      bool m = SqlLike(v.AsText(), p.AsText());
      return Value::Bool(e.negated ? !m : m);
    }
    case ExprKind::kIsNull: {
      PSQL_ASSIGN_OR_RETURN(Value v, Eval(*e.left, bl, ctx));
      bool is_null = v.is_null();
      return Value::Bool(e.negated ? !is_null : is_null);
    }
    case ExprKind::kCase: {
      if (e.left) {
        PSQL_ASSIGN_OR_RETURN(Value operand, Eval(*e.left, bl, ctx));
        for (size_t i = 0; i < e.case_whens.size(); ++i) {
          PSQL_ASSIGN_OR_RETURN(Value w, Eval(*e.case_whens[i].when,
                                              KidAt(b, &BoundNode::whens, i),
                                              ctx));
          auto eq = operand.SqlEquals(w);
          if (eq && *eq) {
            return Eval(*e.case_whens[i].then,
                        KidAt(b, &BoundNode::thens, i), ctx);
          }
        }
      } else {
        for (size_t i = 0; i < e.case_whens.size(); ++i) {
          PSQL_ASSIGN_OR_RETURN(Value w, Eval(*e.case_whens[i].when,
                                              KidAt(b, &BoundNode::whens, i),
                                              ctx));
          auto t = AsTruth(w);
          if (t && *t) {
            return Eval(*e.case_whens[i].then,
                        KidAt(b, &BoundNode::thens, i), ctx);
          }
        }
      }
      if (e.case_else) {
        return Eval(*e.case_else, Kid(b, &BoundNode::case_else), ctx);
      }
      return Value::Null();
    }
    case ExprKind::kFunction: {
      std::vector<Value> args;
      args.reserve(e.args.size());
      for (size_t i = 0; i < e.args.size(); ++i) {
        PSQL_ASSIGN_OR_RETURN(
            Value v, Eval(*e.args[i], KidAt(b, &BoundNode::args, i), ctx));
        args.push_back(std::move(v));
      }
      return EvalScalarFunction(e, ctx, std::move(args));
    }
    case ExprKind::kExists: {
      if (ctx.runner == nullptr) {
        return Status::InvalidArgument("subquery not supported here");
      }
      bool exists = false;
      if (b != nullptr && b->probe != nullptr) {
        PSQL_ASSIGN_OR_RETURN(exists,
                              RunBoundExists(*b->probe, *e.subquery, ctx));
      } else {
        PSQL_ASSIGN_OR_RETURN(exists,
                              ctx.runner->SubqueryExists(*e.subquery, &ctx));
      }
      return Value::Bool(e.negated ? !exists : exists);
    }
    case ExprKind::kSubquery: {
      if (ctx.runner == nullptr) {
        return Status::InvalidArgument("subquery not supported here");
      }
      PSQL_ASSIGN_OR_RETURN(ResultTable rt,
                            ctx.runner->RunSubquery(*e.subquery, &ctx));
      if (rt.num_columns() != 1) {
        return Status::InvalidArgument(
            "scalar subquery must return exactly one column");
      }
      if (rt.num_rows() == 0) return Value::Null();
      if (rt.num_rows() > 1) {
        return Status::InvalidArgument(
            "scalar subquery returned more than one row");
      }
      return rt.at(0, 0);
    }
  }
  return Status::Internal("unreachable expression kind");
}

}  // namespace

BoundExpr::BoundExpr(const Expr& expr, const Schema& schema,
                     const EvalContext* outer)
    : expr_(&expr), root_(BindNode(expr, schema, outer)) {}
BoundExpr::BoundExpr() = default;
BoundExpr::BoundExpr(BoundExpr&&) noexcept = default;
BoundExpr& BoundExpr::operator=(BoundExpr&&) noexcept = default;
BoundExpr::~BoundExpr() = default;

int64_t BoundExpr::input_slot() const {
  if (root_ == nullptr || expr_->kind != ExprKind::kColumnRef ||
      root_->depth != 0) {
    return -1;
  }
  return root_->slot;
}

Result<Value> Evaluate(const Expr& e, const EvalContext& ctx) {
  return Eval(e, nullptr, ctx);
}

Result<Value> Evaluate(const BoundExpr& e, const EvalContext& ctx) {
  return Eval(*e.expr_, e.root_.get(), ctx);
}

Result<bool> EvaluatePredicate(const Expr& e, const EvalContext& ctx) {
  PSQL_ASSIGN_OR_RETURN(Value v, Evaluate(e, ctx));
  auto t = AsTruth(v);
  return t && *t;
}

Result<bool> EvaluatePredicate(const BoundExpr& e, const EvalContext& ctx) {
  PSQL_ASSIGN_OR_RETURN(Value v, Evaluate(e, ctx));
  auto t = AsTruth(v);
  return t && *t;
}

// Top-level AND chains split into conjuncts; each conjunct filters the
// selection left-to-right, which is the batch form of the row path's
// short-circuit AND (a row false under conjunct k never evaluates k+1).
void CollectConjuncts(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kAnd &&
      e.left != nullptr && e.right != nullptr) {
    CollectConjuncts(*e.left, out);
    CollectConjuncts(*e.right, out);
    return;
  }
  out->push_back(&e);
}

namespace {

BinaryOp MirrorComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;  // kEq / kNe are symmetric
  }
}

}  // namespace

const Value& DirectConjunct::OuterValue(const EvalContext& outer) const {
  const EvalContext* scope = &outer;
  for (uint32_t d = outer_depth; d > 1; --d) scope = scope->outer;
  return (*scope->row)[outer_slot];
}

bool DirectConjunct::Test(const Value& cell) const {
  if (kind == Kind::kIsNull) return cell.is_null() != negated;
  auto t = CompareTruth(op, cell, *lit);
  return t && *t;
}

namespace {

// Where `ref` binds in the scope chain `outer` when it does not resolve in
// `schema`: BindNode's search, from depth 1 on. False when it resolves in
// `schema`, is ambiguous in the first scope that knows it, or is unknown.
bool ResolveOuterRef(const Expr& ref, const Schema& schema,
                     const EvalContext* outer, uint32_t* depth,
                     uint32_t* slot) {
  size_t idx = 0;
  if (schema.ResolveScoped(ref.qualifier, ref.column, &idx) !=
      Schema::ResolveOutcome::kNotFound) {
    return false;
  }
  uint32_t d = 1;
  for (const EvalContext* scope = outer; scope != nullptr;
       scope = scope->outer, ++d) {
    if (scope->schema == nullptr) continue;
    switch (scope->schema->ResolveScoped(ref.qualifier, ref.column, &idx)) {
      case Schema::ResolveOutcome::kFound:
        *depth = d;
        *slot = static_cast<uint32_t>(idx);
        return true;
      case Schema::ResolveOutcome::kAmbiguous:
        return false;
      case Schema::ResolveOutcome::kNotFound:
        break;
    }
  }
  return false;
}

}  // namespace

// Anything that is not direct — ambiguous names, unbound parameters,
// arbitrary expressions — evaluates per row through its binding, which
// raises the identical error a per-row EvaluatePredicate would.
std::optional<DirectConjunct> ClassifyDirect(const Expr& e,
                                             const Schema& schema,
                                             const EvalContext* outer) {
  DirectConjunct c;
  auto resolves = [&](const Expr& col) {
    return col.kind == ExprKind::kColumnRef &&
           schema.ResolveScoped(col.qualifier, col.column, &c.col) ==
               Schema::ResolveOutcome::kFound;
  };
  if (e.kind == ExprKind::kIsNull && e.left != nullptr && resolves(*e.left)) {
    c.kind = DirectConjunct::Kind::kIsNull;
    c.negated = e.negated;
    return c;
  }
  if (e.kind != ExprKind::kBinary || e.left == nullptr ||
      e.right == nullptr || !IsComparison(e.binary_op)) {
    return std::nullopt;
  }
  // The column of `schema` reads on the left; try both operand orders.
  for (const bool flipped : {false, true}) {
    const Expr& col = flipped ? *e.right : *e.left;
    const Expr& other = flipped ? *e.left : *e.right;
    c.op = flipped ? MirrorComparisonOp(e.binary_op) : e.binary_op;
    if (other.kind == ExprKind::kLiteral) {
      if (other.literal.is_param() || !resolves(col)) continue;
      c.kind = DirectConjunct::Kind::kColOpLit;
      c.lit = &other.literal;
      return c;
    }
    if (outer != nullptr && other.kind == ExprKind::kColumnRef &&
        ResolveOuterRef(other, schema, outer, &c.outer_depth,
                        &c.outer_slot) &&
        resolves(col)) {
      c.kind = DirectConjunct::Kind::kColOpOuter;
      return c;
    }
  }
  return std::nullopt;
}

BatchPredicate::BatchPredicate(const Expr& predicate, const Schema& schema,
                               const EvalContext* outer)
    : BatchPredicate(
          [&] {
            std::vector<const Expr*> parts;
            CollectConjuncts(predicate, &parts);
            return parts;
          }(),
          schema, outer) {}

BatchPredicate::BatchPredicate(const std::vector<const Expr*>& conjuncts,
                               const Schema& schema, const EvalContext* outer)
    : schema_(&schema), outer_(outer) {
  size_t i = 0;
  for (; i < conjuncts.size(); ++i) {
    auto direct = ClassifyDirect(*conjuncts[i], schema, outer);
    if (!direct) break;
    direct_.push_back(*direct);
  }
  for (; i < conjuncts.size(); ++i) {
    rest_.emplace_back(*conjuncts[i], schema, outer);
  }
}

void BatchPredicate::ApplyDirect(RowBatch* batch) const {
  for (const DirectConjunct& c : direct_) {
    // Row semantics: once a conjunct filtered every row out, the remaining
    // conjuncts see no rows and evaluate nothing.
    if (batch->sel.empty()) return;
    // A local copy, so the selection stores cannot force reloads; an outer
    // operand is read once for the batch.
    DirectConjunct d = c;
    if (d.kind == DirectConjunct::Kind::kColOpOuter) {
      d.lit = &d.OuterValue(*outer_);
    }
    // `kept` never passes `j`, so the prefetch reads a selection entry the
    // compaction has not overwritten.
    size_t kept = 0;
    for (size_t j = 0; j < batch->sel.size(); ++j) {
      const size_t ahead = j + kRowPrefetchDistance;
      if (ahead < batch->sel.size()) {
        PrefetchCell(batch->rows[batch->sel[ahead]].row(), d.col);
      }
      const uint32_t idx = batch->sel[j];
      if (d.Test(batch->rows[idx].row()[d.col])) batch->sel[kept++] = idx;
    }
    batch->sel.resize(kept);
  }
}

Result<bool> BatchPredicate::TestRest(const Row& row,
                                      SubqueryRunner* runner) const {
  EvalContext ctx{schema_, &row, outer_, runner};
  for (const BoundExpr& c : rest_) {
    PSQL_ASSIGN_OR_RETURN(bool pass, EvaluatePredicate(c, ctx));
    if (!pass) return false;
  }
  return true;
}

Result<Value> EvaluateConstant(const Expr& e) {
  EvalContext ctx;
  return Evaluate(e, ctx);
}

}  // namespace prefsql
