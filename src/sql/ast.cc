#include "sql/ast.h"

namespace prefsql {

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
    case BinaryOp::kConcat: return "||";
  }
  return "?";
}

namespace {
ExprPtr CloneOrNull(const ExprPtr& e) { return e ? e->Clone() : nullptr; }
}  // namespace

ExprPtr Expr::Clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->literal = literal;
  out->qualifier = qualifier;
  out->column = column;
  out->unary_op = unary_op;
  out->binary_op = binary_op;
  out->left = CloneOrNull(left);
  out->right = CloneOrNull(right);
  for (const auto& e : in_list) out->in_list.push_back(e->Clone());
  out->negated = negated;
  out->lo = CloneOrNull(lo);
  out->hi = CloneOrNull(hi);
  for (const auto& cw : case_whens) {
    out->case_whens.push_back({cw.when->Clone(), cw.then->Clone()});
  }
  out->case_else = CloneOrNull(case_else);
  out->function_name = function_name;
  for (const auto& a : args) out->args.push_back(a->Clone());
  out->distinct_arg = distinct_arg;
  out->subquery = subquery;  // shared
  return out;
}

ExprPtr Expr::MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::MakeColumn(std::string qualifier, std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->qualifier = std::move(qualifier);
  e->column = std::move(name);
  return e;
}

ExprPtr Expr::MakeStar(std::string qualifier) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kStar;
  e->qualifier = std::move(qualifier);
  return e;
}

ExprPtr Expr::MakeUnary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->left = std::move(operand);
  return e;
}

ExprPtr Expr::MakeBinary(BinaryOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

ExprPtr Expr::MakeFunction(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunction;
  e->function_name = std::move(name);
  e->args = std::move(args);
  return e;
}

ExprPtr Expr::MakeConjunction(std::vector<ExprPtr> conjuncts) {
  ExprPtr out;
  for (auto& c : conjuncts) {
    if (!c) continue;
    if (!out) {
      out = std::move(c);
    } else {
      out = MakeBinary(BinaryOp::kAnd, std::move(out), std::move(c));
    }
  }
  return out;
}

namespace {
bool PtrEq(const ExprPtr& a, const ExprPtr& b) {
  if (!a || !b) return !a && !b;
  return ExprStructurallyEqual(*a, *b);
}
}  // namespace

bool ExprStructurallyEqual(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ExprKind::kLiteral:
      return a.literal.IdentityEquals(b.literal);
    case ExprKind::kColumnRef:
    case ExprKind::kStar:
      return a.qualifier == b.qualifier && a.column == b.column;
    default:
      break;
  }
  if (a.unary_op != b.unary_op || a.binary_op != b.binary_op ||
      a.negated != b.negated || a.function_name != b.function_name ||
      a.distinct_arg != b.distinct_arg || a.subquery != b.subquery) {
    return false;
  }
  if (!PtrEq(a.left, b.left) || !PtrEq(a.right, b.right) ||
      !PtrEq(a.lo, b.lo) || !PtrEq(a.hi, b.hi) ||
      !PtrEq(a.case_else, b.case_else)) {
    return false;
  }
  if (a.in_list.size() != b.in_list.size() || a.args.size() != b.args.size() ||
      a.case_whens.size() != b.case_whens.size()) {
    return false;
  }
  for (size_t i = 0; i < a.in_list.size(); ++i) {
    if (!PtrEq(a.in_list[i], b.in_list[i])) return false;
  }
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (!PtrEq(a.args[i], b.args[i])) return false;
  }
  for (size_t i = 0; i < a.case_whens.size(); ++i) {
    if (!PtrEq(a.case_whens[i].when, b.case_whens[i].when) ||
        !PtrEq(a.case_whens[i].then, b.case_whens[i].then)) {
      return false;
    }
  }
  return true;
}

PrefTermPtr PrefTerm::Clone() const {
  auto out = std::make_unique<PrefTerm>();
  out->kind = kind;
  out->attr = attr ? attr->Clone() : nullptr;
  out->target = target;
  out->low = low;
  out->high = high;
  out->values = values;
  out->values2 = values2;
  out->edges = edges;
  for (const auto& c : children) out->children.push_back(c->Clone());
  out->pref_name = pref_name;
  return out;
}

std::unique_ptr<TableRef> TableRef::Clone() const {
  auto out = std::make_unique<TableRef>();
  out->kind = kind;
  out->table_name = table_name;
  out->alias = alias;
  out->subquery = subquery;  // shared
  out->join_type = join_type;
  out->join_left = join_left ? join_left->Clone() : nullptr;
  out->join_right = join_right ? join_right->Clone() : nullptr;
  out->join_on = join_on ? join_on->Clone() : nullptr;
  return out;
}

std::shared_ptr<SelectStmt> SelectStmt::Clone() const {
  auto out = std::make_shared<SelectStmt>();
  out->distinct = distinct;
  for (const auto& item : items) {
    out->items.push_back({item.expr->Clone(), item.alias});
  }
  for (const auto& t : from) out->from.push_back(t->Clone());
  out->where = where ? where->Clone() : nullptr;
  out->preferring = preferring ? preferring->Clone() : nullptr;
  out->grouping = grouping;
  out->but_only = but_only ? but_only->Clone() : nullptr;
  for (const auto& g : group_by) out->group_by.push_back(g->Clone());
  out->having = having ? having->Clone() : nullptr;
  for (const auto& o : order_by) {
    out->order_by.push_back({o.expr->Clone(), o.ascending});
  }
  out->limit = limit;
  out->offset = offset;
  out->limit_param = limit_param;
  return out;
}

Statement Statement::Clone() const {
  Statement out;
  out.kind = kind;
  out.select = select;  // shared, like subqueries
  out.name = name;
  out.columns = columns;
  out.if_not_exists = if_not_exists;
  out.if_exists = if_exists;
  out.on_table = on_table;
  out.index_columns = index_columns;
  out.insert_columns = insert_columns;
  for (const auto& row : insert_rows) {
    std::vector<ExprPtr> cloned;
    cloned.reserve(row.size());
    for (const auto& e : row) cloned.push_back(e->Clone());
    out.insert_rows.push_back(std::move(cloned));
  }
  for (const auto& [col, e] : assignments) {
    out.assignments.emplace_back(col, e->Clone());
  }
  out.where = where ? where->Clone() : nullptr;
  out.preference = preference ? preference->Clone() : nullptr;
  out.set_value = set_value;
  out.drop_kind = drop_kind;
  out.has_parameters = has_parameters;
  return out;
}

}  // namespace prefsql
