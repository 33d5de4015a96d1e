#include "sql/parameters.h"

#include <algorithm>
#include <utility>

namespace prefsql {
namespace {

// ---------------------------------------------------------------------------
// Collection
// ---------------------------------------------------------------------------

void Record(ParameterSignature* sig, const Value& v,
            ParamConstraint constraint) {
  size_t index = static_cast<size_t>(v.ParamIndex());
  if (sig->names.size() <= index) {
    sig->names.resize(index + 1);
    sig->constraints.resize(index + 1, ParamConstraint::kAny);
  }
  if (sig->names[index].empty()) sig->names[index] = v.ParamName();
  if (sig->constraints[index] == ParamConstraint::kAny) {
    sig->constraints[index] = constraint;
  }
}

void CollectValue(ParameterSignature* sig, const Value& v,
                  ParamConstraint constraint) {
  if (v.is_param()) Record(sig, v, constraint);
}

void CollectSelect(ParameterSignature* sig, const SelectStmt& select);

void CollectExpr(ParameterSignature* sig, const Expr& e) {
  if (e.kind == ExprKind::kLiteral) {
    CollectValue(sig, e.literal, ParamConstraint::kAny);
  }
  if (e.left) CollectExpr(sig, *e.left);
  if (e.right) CollectExpr(sig, *e.right);
  for (const auto& item : e.in_list) CollectExpr(sig, *item);
  if (e.lo) CollectExpr(sig, *e.lo);
  if (e.hi) CollectExpr(sig, *e.hi);
  for (const auto& cw : e.case_whens) {
    CollectExpr(sig, *cw.when);
    CollectExpr(sig, *cw.then);
  }
  if (e.case_else) CollectExpr(sig, *e.case_else);
  for (const auto& a : e.args) CollectExpr(sig, *a);
  if (e.subquery) CollectSelect(sig, *e.subquery);
}

void CollectPref(ParameterSignature* sig, const PrefTerm& p) {
  if (p.attr) CollectExpr(sig, *p.attr);
  CollectValue(sig, p.target,
               p.kind == PrefKind::kContains ? ParamConstraint::kText
                                             : ParamConstraint::kNumeric);
  CollectValue(sig, p.low, ParamConstraint::kAny);
  CollectValue(sig, p.high, ParamConstraint::kAny);
  for (const auto& v : p.values) CollectValue(sig, v, ParamConstraint::kAny);
  for (const auto& v : p.values2) CollectValue(sig, v, ParamConstraint::kAny);
  for (const auto& [better, worse] : p.edges) {
    CollectValue(sig, better, ParamConstraint::kAny);
    CollectValue(sig, worse, ParamConstraint::kAny);
  }
  for (const auto& c : p.children) CollectPref(sig, *c);
}

void CollectTableRef(ParameterSignature* sig, const TableRef& tr) {
  if (tr.subquery) CollectSelect(sig, *tr.subquery);
  if (tr.join_left) CollectTableRef(sig, *tr.join_left);
  if (tr.join_right) CollectTableRef(sig, *tr.join_right);
  if (tr.join_on) CollectExpr(sig, *tr.join_on);
}

void CollectSelect(ParameterSignature* sig, const SelectStmt& select) {
  for (const auto& item : select.items) CollectExpr(sig, *item.expr);
  for (const auto& tr : select.from) CollectTableRef(sig, *tr);
  if (select.where) CollectExpr(sig, *select.where);
  if (select.preferring) CollectPref(sig, *select.preferring);
  if (select.but_only) CollectExpr(sig, *select.but_only);
  for (const auto& g : select.group_by) CollectExpr(sig, *g);
  if (select.having) CollectExpr(sig, *select.having);
  for (const auto& o : select.order_by) CollectExpr(sig, *o.expr);
  CollectValue(sig, select.limit_param, ParamConstraint::kAny);
}

// ---------------------------------------------------------------------------
// Parameter presence predicates
// ---------------------------------------------------------------------------

bool ExprHasParameters(const Expr& e) {
  if (e.kind == ExprKind::kLiteral && e.literal.is_param()) return true;
  if (e.left && ExprHasParameters(*e.left)) return true;
  if (e.right && ExprHasParameters(*e.right)) return true;
  for (const auto& item : e.in_list) {
    if (ExprHasParameters(*item)) return true;
  }
  if (e.lo && ExprHasParameters(*e.lo)) return true;
  if (e.hi && ExprHasParameters(*e.hi)) return true;
  for (const auto& cw : e.case_whens) {
    if (ExprHasParameters(*cw.when) || ExprHasParameters(*cw.then)) {
      return true;
    }
  }
  if (e.case_else && ExprHasParameters(*e.case_else)) return true;
  for (const auto& a : e.args) {
    if (ExprHasParameters(*a)) return true;
  }
  return e.subquery && SelectHasParameters(*e.subquery);
}

bool TableRefHasParameters(const TableRef& tr) {
  if (tr.subquery && SelectHasParameters(*tr.subquery)) return true;
  if (tr.join_left && TableRefHasParameters(*tr.join_left)) return true;
  if (tr.join_right && TableRefHasParameters(*tr.join_right)) return true;
  return tr.join_on && ExprHasParameters(*tr.join_on);
}

}  // namespace

bool SelectHasParameters(const SelectStmt& select) {
  for (const auto& item : select.items) {
    if (ExprHasParameters(*item.expr)) return true;
  }
  for (const auto& tr : select.from) {
    if (TableRefHasParameters(*tr)) return true;
  }
  if (select.where && ExprHasParameters(*select.where)) return true;
  if (select.preferring && PrefTermHasParameters(*select.preferring)) {
    return true;
  }
  if (select.but_only && ExprHasParameters(*select.but_only)) return true;
  for (const auto& g : select.group_by) {
    if (ExprHasParameters(*g)) return true;
  }
  if (select.having && ExprHasParameters(*select.having)) return true;
  for (const auto& o : select.order_by) {
    if (ExprHasParameters(*o.expr)) return true;
  }
  return select.limit_param.is_param();
}

bool StatementHasParameters(const Statement& stmt) {
  if (stmt.has_parameters.has_value()) return *stmt.has_parameters;
  if (stmt.select != nullptr && SelectHasParameters(*stmt.select)) {
    return true;
  }
  for (const auto& row : stmt.insert_rows) {
    for (const auto& e : row) {
      if (ExprHasParameters(*e)) return true;
    }
  }
  for (const auto& [col, e] : stmt.assignments) {
    if (ExprHasParameters(*e)) return true;
  }
  if (stmt.where != nullptr && ExprHasParameters(*stmt.where)) return true;
  if (stmt.preference != nullptr &&
      PrefTermHasParameters(*stmt.preference)) {
    return true;
  }
  return stmt.set_value.is_param();
}

namespace {

// ---------------------------------------------------------------------------
// Binding
// ---------------------------------------------------------------------------

std::string ParamDisplay(const Value& slot) {
  return slot.ParamName().empty()
             ? "?" + std::to_string(slot.ParamIndex() + 1)
             : "$" + slot.ParamName();
}

Status BindValue(Value& slot, const std::vector<Value>& values,
                 ParamConstraint constraint, bool parse_errors) {
  if (!slot.is_param()) return Status::OK();
  size_t index = static_cast<size_t>(slot.ParamIndex());
  if (index >= values.size()) {
    return Status::BindError("parameter " + ParamDisplay(slot) +
                             " is not bound");
  }
  PSQL_RETURN_IF_ERROR(
      CheckParamConstraint(values[index], constraint, index, parse_errors));
  slot = values[index];
  return Status::OK();
}

Status BindSelect(SelectStmt& select, const std::vector<Value>& values,
                  bool parse_errors);

Status BindSubquery(std::shared_ptr<SelectStmt>& sub,
                    const std::vector<Value>& values, bool parse_errors) {
  // Subqueries are shared between clones (Expr::Clone / SelectStmt::Clone):
  // never bind through the shared pointer — detach a private copy first.
  if (sub == nullptr || !SelectHasParameters(*sub)) return Status::OK();
  auto copy = sub->Clone();
  PSQL_RETURN_IF_ERROR(BindSelect(*copy, values, parse_errors));
  sub = std::move(copy);
  return Status::OK();
}

Status BindExpr(Expr& e, const std::vector<Value>& values,
                bool parse_errors) {
  if (e.kind == ExprKind::kLiteral) {
    PSQL_RETURN_IF_ERROR(
        BindValue(e.literal, values, ParamConstraint::kAny, parse_errors));
  }
  if (e.left) PSQL_RETURN_IF_ERROR(BindExpr(*e.left, values, parse_errors));
  if (e.right) PSQL_RETURN_IF_ERROR(BindExpr(*e.right, values, parse_errors));
  for (auto& item : e.in_list) {
    PSQL_RETURN_IF_ERROR(BindExpr(*item, values, parse_errors));
  }
  if (e.lo) PSQL_RETURN_IF_ERROR(BindExpr(*e.lo, values, parse_errors));
  if (e.hi) PSQL_RETURN_IF_ERROR(BindExpr(*e.hi, values, parse_errors));
  for (auto& cw : e.case_whens) {
    PSQL_RETURN_IF_ERROR(BindExpr(*cw.when, values, parse_errors));
    PSQL_RETURN_IF_ERROR(BindExpr(*cw.then, values, parse_errors));
  }
  if (e.case_else) {
    PSQL_RETURN_IF_ERROR(BindExpr(*e.case_else, values, parse_errors));
  }
  for (auto& a : e.args) {
    PSQL_RETURN_IF_ERROR(BindExpr(*a, values, parse_errors));
  }
  return BindSubquery(e.subquery, values, parse_errors);
}

Status BindPref(PrefTerm& p, const std::vector<Value>& values,
                bool parse_errors) {
  if (p.attr) PSQL_RETURN_IF_ERROR(BindExpr(*p.attr, values, parse_errors));
  PSQL_RETURN_IF_ERROR(BindValue(
      p.target, values,
      p.kind == PrefKind::kContains ? ParamConstraint::kText
                                    : ParamConstraint::kNumeric,
      parse_errors));
  PSQL_RETURN_IF_ERROR(
      BindValue(p.low, values, ParamConstraint::kAny, parse_errors));
  PSQL_RETURN_IF_ERROR(
      BindValue(p.high, values, ParamConstraint::kAny, parse_errors));
  for (auto& v : p.values) {
    PSQL_RETURN_IF_ERROR(
        BindValue(v, values, ParamConstraint::kAny, parse_errors));
  }
  for (auto& v : p.values2) {
    PSQL_RETURN_IF_ERROR(
        BindValue(v, values, ParamConstraint::kAny, parse_errors));
  }
  for (auto& [better, worse] : p.edges) {
    PSQL_RETURN_IF_ERROR(
        BindValue(better, values, ParamConstraint::kAny, parse_errors));
    PSQL_RETURN_IF_ERROR(
        BindValue(worse, values, ParamConstraint::kAny, parse_errors));
  }
  for (auto& c : p.children) {
    PSQL_RETURN_IF_ERROR(BindPref(*c, values, parse_errors));
  }
  return Status::OK();
}

Status BindTableRef(TableRef& tr, const std::vector<Value>& values,
                    bool parse_errors) {
  PSQL_RETURN_IF_ERROR(BindSubquery(tr.subquery, values, parse_errors));
  if (tr.join_left) {
    PSQL_RETURN_IF_ERROR(BindTableRef(*tr.join_left, values, parse_errors));
  }
  if (tr.join_right) {
    PSQL_RETURN_IF_ERROR(BindTableRef(*tr.join_right, values, parse_errors));
  }
  if (tr.join_on) {
    PSQL_RETURN_IF_ERROR(BindExpr(*tr.join_on, values, parse_errors));
  }
  return Status::OK();
}

Status BindSelect(SelectStmt& select, const std::vector<Value>& values,
                  bool parse_errors) {
  for (auto& item : select.items) {
    PSQL_RETURN_IF_ERROR(BindExpr(*item.expr, values, parse_errors));
  }
  for (auto& tr : select.from) {
    PSQL_RETURN_IF_ERROR(BindTableRef(*tr, values, parse_errors));
  }
  if (select.where) {
    PSQL_RETURN_IF_ERROR(BindExpr(*select.where, values, parse_errors));
  }
  if (select.preferring) {
    PSQL_RETURN_IF_ERROR(BindPref(*select.preferring, values, parse_errors));
  }
  if (select.but_only) {
    PSQL_RETURN_IF_ERROR(BindExpr(*select.but_only, values, parse_errors));
  }
  for (auto& g : select.group_by) {
    PSQL_RETURN_IF_ERROR(BindExpr(*g, values, parse_errors));
  }
  if (select.having) {
    PSQL_RETURN_IF_ERROR(BindExpr(*select.having, values, parse_errors));
  }
  for (auto& o : select.order_by) {
    PSQL_RETURN_IF_ERROR(BindExpr(*o.expr, values, parse_errors));
  }
  if (select.limit_param.is_param()) {
    const size_t index = static_cast<size_t>(select.limit_param.ParamIndex());
    if (index >= values.size()) {
      return Status::BindError("parameter " +
                               ParamDisplay(select.limit_param) +
                               " is not bound");
    }
    const Value& v = values[index];
    // LIMIT is structural: only a non-negative integer makes a valid count,
    // whatever the binding channel. Auto-parameterized texts report the
    // parser's own error so literal and lifted forms fail identically.
    if (v.type() != ValueType::kInt || v.AsInt() < 0) {
      if (parse_errors) return Status::ParseError("expected LIMIT count");
      return Status::BindError(
          "parameter " + std::to_string(index + 1) +
          " requires a non-negative integer (LIMIT count), got " +
          v.ToString());
    }
    select.limit = v.AsInt();
    select.limit_param = v;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// IN-list width expansion (see ExpandWideParameters)
// ---------------------------------------------------------------------------

class WidthExpander {
 public:
  explicit WidthExpander(const std::vector<uint32_t>& widths)
      : widths_(widths) {
    base_.reserve(widths.size());
    uint32_t sum = 0;
    for (uint32_t w : widths) {
      base_.push_back(sum);
      sum += w;
    }
  }

  Status ExpandSelect(SelectStmt& select) {
    for (auto& item : select.items) {
      PSQL_RETURN_IF_ERROR(ExpandExpr(*item.expr));
    }
    for (auto& tr : select.from) PSQL_RETURN_IF_ERROR(ExpandTableRef(*tr));
    if (select.where) PSQL_RETURN_IF_ERROR(ExpandExpr(*select.where));
    if (select.preferring) {
      PSQL_RETURN_IF_ERROR(ExpandPref(*select.preferring));
    }
    if (select.but_only) PSQL_RETURN_IF_ERROR(ExpandExpr(*select.but_only));
    for (auto& g : select.group_by) PSQL_RETURN_IF_ERROR(ExpandExpr(*g));
    if (select.having) PSQL_RETURN_IF_ERROR(ExpandExpr(*select.having));
    for (auto& o : select.order_by) {
      PSQL_RETURN_IF_ERROR(ExpandExpr(*o.expr));
    }
    return Renumber(select.limit_param);
  }

 private:
  Status SlotIndex(const Value& slot, size_t* index) const {
    *index = static_cast<size_t>(slot.ParamIndex());
    if (*index >= widths_.size()) {
      return Status::BindError("parameter " + ParamDisplay(slot) +
                               " has no recorded width");
    }
    return Status::OK();
  }

  /// Scalar positions admit only width-1 slots; the ordinal moves from
  /// placeholder space to flat-value space.
  Status Renumber(Value& slot) {
    if (!slot.is_param()) return Status::OK();
    size_t i = 0;
    PSQL_RETURN_IF_ERROR(SlotIndex(slot, &i));
    if (widths_[i] != 1) {
      return Status::BindError("parameter " + ParamDisplay(slot) +
                               " is an IN-list slot used in a scalar "
                               "position");
    }
    slot = Value::Param(static_cast<int32_t>(base_[i]), slot.ParamName());
    return Status::OK();
  }

  /// Preference value sets: a width-m slot splices into m slots.
  Status ExpandValueList(std::vector<Value>& vs) {
    std::vector<Value> out;
    out.reserve(vs.size());
    for (Value& v : vs) {
      if (!v.is_param()) {
        out.push_back(std::move(v));
        continue;
      }
      size_t i = 0;
      PSQL_RETURN_IF_ERROR(SlotIndex(v, &i));
      for (uint32_t k = 0; k < widths_[i]; ++k) {
        out.push_back(Value::Param(static_cast<int32_t>(base_[i] + k),
                                   v.ParamName()));
      }
    }
    vs = std::move(out);
    return Status::OK();
  }

  Status ExpandExpr(Expr& e) {
    if (e.kind == ExprKind::kLiteral) {
      PSQL_RETURN_IF_ERROR(Renumber(e.literal));
    }
    if (e.left) PSQL_RETURN_IF_ERROR(ExpandExpr(*e.left));
    if (e.right) PSQL_RETURN_IF_ERROR(ExpandExpr(*e.right));
    if (!e.in_list.empty()) {
      std::vector<ExprPtr> out;
      out.reserve(e.in_list.size());
      for (auto& item : e.in_list) {
        if (item->kind == ExprKind::kLiteral && item->literal.is_param()) {
          size_t i = 0;
          PSQL_RETURN_IF_ERROR(SlotIndex(item->literal, &i));
          for (uint32_t k = 0; k < widths_[i]; ++k) {
            out.push_back(Expr::MakeLiteral(
                Value::Param(static_cast<int32_t>(base_[i] + k),
                             item->literal.ParamName())));
          }
        } else {
          PSQL_RETURN_IF_ERROR(ExpandExpr(*item));
          out.push_back(std::move(item));
        }
      }
      e.in_list = std::move(out);
    }
    if (e.lo) PSQL_RETURN_IF_ERROR(ExpandExpr(*e.lo));
    if (e.hi) PSQL_RETURN_IF_ERROR(ExpandExpr(*e.hi));
    for (auto& cw : e.case_whens) {
      PSQL_RETURN_IF_ERROR(ExpandExpr(*cw.when));
      PSQL_RETURN_IF_ERROR(ExpandExpr(*cw.then));
    }
    if (e.case_else) PSQL_RETURN_IF_ERROR(ExpandExpr(*e.case_else));
    for (auto& a : e.args) PSQL_RETURN_IF_ERROR(ExpandExpr(*a));
    return ExpandSubquery(e.subquery);
  }

  Status ExpandPref(PrefTerm& p) {
    if (p.attr) PSQL_RETURN_IF_ERROR(ExpandExpr(*p.attr));
    PSQL_RETURN_IF_ERROR(Renumber(p.target));
    PSQL_RETURN_IF_ERROR(Renumber(p.low));
    PSQL_RETURN_IF_ERROR(Renumber(p.high));
    PSQL_RETURN_IF_ERROR(ExpandValueList(p.values));
    PSQL_RETURN_IF_ERROR(ExpandValueList(p.values2));
    for (auto& [better, worse] : p.edges) {
      PSQL_RETURN_IF_ERROR(Renumber(better));
      PSQL_RETURN_IF_ERROR(Renumber(worse));
    }
    for (auto& c : p.children) PSQL_RETURN_IF_ERROR(ExpandPref(*c));
    return Status::OK();
  }

  Status ExpandTableRef(TableRef& tr) {
    PSQL_RETURN_IF_ERROR(ExpandSubquery(tr.subquery));
    if (tr.join_left) PSQL_RETURN_IF_ERROR(ExpandTableRef(*tr.join_left));
    if (tr.join_right) PSQL_RETURN_IF_ERROR(ExpandTableRef(*tr.join_right));
    if (tr.join_on) PSQL_RETURN_IF_ERROR(ExpandExpr(*tr.join_on));
    return Status::OK();
  }

  /// Same shared-subtree discipline as BindSubquery: never rewrite through
  /// the shared pointer — detach a private copy first.
  Status ExpandSubquery(std::shared_ptr<SelectStmt>& sub) {
    if (sub == nullptr || !SelectHasParameters(*sub)) return Status::OK();
    auto copy = sub->Clone();
    PSQL_RETURN_IF_ERROR(ExpandSelect(*copy));
    sub = std::move(copy);
    return Status::OK();
  }

  const std::vector<uint32_t>& widths_;
  std::vector<uint32_t> base_;
};

}  // namespace

Status ExpandWideParameters(SelectStmt& select,
                            const std::vector<uint32_t>& widths) {
  WidthExpander expander(widths);
  return expander.ExpandSelect(select);
}

ParameterSignature CollectParameters(const SelectStmt& select) {
  ParameterSignature sig;
  CollectSelect(&sig, select);
  return sig;
}

ParameterSignature CollectParameters(const Statement& stmt) {
  ParameterSignature sig;
  if (stmt.select) CollectSelect(&sig, *stmt.select);
  for (const auto& row : stmt.insert_rows) {
    for (const auto& e : row) CollectExpr(&sig, *e);
  }
  for (const auto& [col, e] : stmt.assignments) CollectExpr(&sig, *e);
  if (stmt.where) CollectExpr(&sig, *stmt.where);
  if (stmt.preference) CollectPref(&sig, *stmt.preference);
  CollectValue(&sig, stmt.set_value, ParamConstraint::kAny);
  return sig;
}

bool PrefTermHasParameters(const PrefTerm& p) {
  if (p.target.is_param() || p.low.is_param() || p.high.is_param()) {
    return true;
  }
  auto any_param = [](const std::vector<Value>& vs) {
    return std::any_of(vs.begin(), vs.end(),
                       [](const Value& v) { return v.is_param(); });
  };
  if (any_param(p.values) || any_param(p.values2)) return true;
  for (const auto& [better, worse] : p.edges) {
    if (better.is_param() || worse.is_param()) return true;
  }
  if (p.attr && ExprHasParameters(*p.attr)) return true;
  for (const auto& c : p.children) {
    if (PrefTermHasParameters(*c)) return true;
  }
  return false;
}

Status CheckParamConstraint(const Value& value, ParamConstraint constraint,
                            size_t index, bool parse_errors) {
  switch (constraint) {
    case ParamConstraint::kAny:
      return Status::OK();
    case ParamConstraint::kNumeric:
      if (value.is_numeric() || value.ToNumeric()) return Status::OK();
      if (parse_errors) {
        return Status::ParseError(
            "AROUND requires a numeric or date target, got " +
            value.ToString());
      }
      return Status::BindError(
          "parameter " + std::to_string(index + 1) +
          " requires a numeric or date value (AROUND target), got " +
          value.ToString());
    case ParamConstraint::kText:
      if (value.type() == ValueType::kText) return Status::OK();
      if (parse_errors) {
        return Status::ParseError("CONTAINS requires a string literal");
      }
      return Status::BindError(
          "parameter " + std::to_string(index + 1) +
          " requires a text value (CONTAINS needle), got " +
          value.ToString());
  }
  return Status::OK();
}

Status BindSelectParameters(SelectStmt& select,
                            const std::vector<Value>& values,
                            bool parse_errors) {
  return BindSelect(select, values, parse_errors);
}

Status BindStatementParameters(Statement& stmt,
                               const std::vector<Value>& values,
                               bool parse_errors) {
  PSQL_RETURN_IF_ERROR(BindSubquery(stmt.select, values, parse_errors));
  for (auto& row : stmt.insert_rows) {
    for (auto& e : row) {
      PSQL_RETURN_IF_ERROR(BindExpr(*e, values, parse_errors));
    }
  }
  for (auto& [col, e] : stmt.assignments) {
    PSQL_RETURN_IF_ERROR(BindExpr(*e, values, parse_errors));
  }
  if (stmt.where) {
    PSQL_RETURN_IF_ERROR(BindExpr(*stmt.where, values, parse_errors));
  }
  if (stmt.preference) {
    PSQL_RETURN_IF_ERROR(BindPref(*stmt.preference, values, parse_errors));
  }
  stmt.has_parameters = false;
  return Status::OK();
}

}  // namespace prefsql
