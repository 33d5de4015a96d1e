// Expression evaluation with SQL three-valued logic and correlated-subquery
// support.
//
// Operators bind their expressions once, at plan time (BoundExpr): every
// column reference that resolves against the operator's input schema or an
// outer scope becomes a (scope depth, slot) pair, and evaluation reads the
// slot. A reference that does not resolve at plan time stays unbound and is
// resolved by name at evaluation, so unknown/ambiguous-column errors keep
// their text and surface when (and only if) a row evaluates them. The
// binding lives beside the AST: cached plans share one SelectStmt across
// sessions, so nothing is ever written into it.

#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "sql/ast.h"
#include "types/result_table.h"
#include "types/row_batch.h"
#include "types/schema.h"
#include "types/value.h"
#include "util/status.h"

namespace prefsql {

struct EvalContext;

/// A correlated EXISTS subquery planned once and re-run per outer row.
class ExistsProbe {
 public:
  virtual ~ExistsProbe() = default;
  /// True iff the subquery yields a row for the outer row of `outer`, whose
  /// schema and scope chain are the ones the probe was planned against.
  virtual Result<bool> Run(const EvalContext& outer) = 0;
};

/// Executes subqueries on behalf of the evaluator (implemented by the
/// engine's StatementScope; kept abstract to avoid a dependency cycle).
class SubqueryRunner {
 public:
  virtual ~SubqueryRunner() = default;
  /// Runs `select` with `outer` providing the correlated scope chain.
  virtual Result<ResultTable> RunSubquery(const SelectStmt& select,
                                          const EvalContext* outer) = 0;

  /// EXISTS probe: true iff the subquery yields at least one row. Implementors
  /// may early-exit at the first matching row.
  virtual Result<bool> SubqueryExists(const SelectStmt& select,
                                      const EvalContext* outer) = 0;

  /// Plans `select` once as an EXISTS probe correlated with `outer`, for a
  /// bound EXISTS to re-run per outer row. Null when the subquery must be
  /// planned anew for every row (SubqueryExists then serves it).
  virtual Result<std::unique_ptr<ExistsProbe>> PlanExistsProbe(
      const SelectStmt& /*select*/, const EvalContext& /*outer*/) {
    return std::unique_ptr<ExistsProbe>();
  }
};

/// One scope of the evaluation environment: the current row with its schema,
/// chained to outer scopes for correlated subqueries.
struct EvalContext {
  const Schema* schema = nullptr;
  const Row* row = nullptr;
  const EvalContext* outer = nullptr;
  SubqueryRunner* runner = nullptr;  // may be null for subquery-free exprs

  /// Scope with the given row/schema and no outer chain.
  static EvalContext For(const Schema& schema, const Row& row,
                         SubqueryRunner* runner = nullptr) {
    return EvalContext{&schema, &row, nullptr, runner};
  }
};

struct BoundNode;

/// An expression bound at plan time for evaluation over rows of one schema
/// under one outer scope chain. Column references become slot reads; a
/// correlated EXISTS keeps the probe plan it builds on first use. Borrows
/// the expression, which must outlive the binding.
class BoundExpr {
 public:
  BoundExpr();
  /// Binds `expr` for rows of `schema` (scope depth 0) chained to `outer`
  /// (depth 1, 2, ...). Never fails: what does not resolve stays unbound.
  BoundExpr(const Expr& expr, const Schema& schema, const EvalContext* outer);
  BoundExpr(BoundExpr&&) noexcept;
  BoundExpr& operator=(BoundExpr&&) noexcept;
  ~BoundExpr();

  /// The input slot when the expression is a column reference bound to the
  /// current row (depth 0); -1 otherwise.
  int64_t input_slot() const;

 private:
  friend Result<Value> Evaluate(const BoundExpr& expr, const EvalContext& ctx);

  const Expr* expr_ = nullptr;
  std::unique_ptr<BoundNode> root_;  // null: nothing bound
};

/// Evaluates `expr` in `ctx`. Comparison/logic operators return BOOL or NULL
/// (UNKNOWN); arithmetic on NULL yields NULL. Every column reference
/// resolves by name.
Result<Value> Evaluate(const Expr& expr, const EvalContext& ctx);

/// Evaluates a bound expression; `ctx` must carry the schema and outer
/// chain it was bound against.
Result<Value> Evaluate(const BoundExpr& expr, const EvalContext& ctx);

/// Evaluates `expr` as a predicate: true iff the result is BOOL TRUE
/// (NULL/UNKNOWN filters out, as in a WHERE clause).
Result<bool> EvaluatePredicate(const Expr& expr, const EvalContext& ctx);
Result<bool> EvaluatePredicate(const BoundExpr& expr, const EvalContext& ctx);

/// Appends the top-level AND conjuncts of `e` to `out`, left to right.
void CollectConjuncts(const Expr& e, std::vector<const Expr*>* out);

/// A conjunct decided by one cell of the input row: `column OP literal`
/// (either operand order; `op` is mirrored so the column reads on the left)
/// or `column IS [NOT] NULL`. It never fails, and its truth is a function of
/// that cell's value alone, which is what lets a heap scan decide it once
/// per dictionary value instead of once per row.
struct DirectConjunct {
  enum class Kind { kColOpLit, kIsNull };
  Kind kind = Kind::kColOpLit;
  size_t col = 0;
  BinaryOp op = BinaryOp::kEq;
  const Value* lit = nullptr;  // borrowed from the conjunct's expression
  bool negated = false;        // IS NOT NULL

  /// True iff the conjunct is TRUE for a row whose cell `col` is `cell`
  /// (the row path's CompareTruth / IS NULL test).
  bool Test(const Value& cell) const;
};

/// `conjunct` as a DirectConjunct over rows of `schema`, or nullopt when it
/// has another shape, its column does not resolve in `schema`, or its
/// literal is an unbound parameter.
std::optional<DirectConjunct> ClassifyDirect(const Expr& conjunct,
                                             const Schema& schema);

/// A predicate compiled once for batch evaluation over one input schema.
/// Top-level AND conjuncts run left-to-right over the surviving selection
/// (the batch form of the row path's short-circuit AND), and direct
/// conjuncts (ClassifyDirect) read their column slot directly. Everything
/// else evaluates per row through its binding, so results match per-row
/// evaluation exactly; only the order in which multiple *erroring* rows
/// surface may differ (a conjunct sees rows already filtered by its left
/// siblings).
class BatchPredicate {
 public:
  /// Classifies and binds the conjuncts of `predicate` (borrowed) for rows
  /// of `schema` (borrowed) under `outer`.
  BatchPredicate(const Expr& predicate, const Schema& schema,
                 const EvalContext* outer);

  /// The same over an explicit conjunct list (each borrowed), ANDed left
  /// to right.
  BatchPredicate(const std::vector<const Expr*>& conjuncts,
                 const Schema& schema, const EvalContext* outer);

  /// Compacts `batch->sel` in place to the rows where the predicate is TRUE.
  Status Apply(RowBatch* batch, SubqueryRunner* runner) const;

 private:
  struct Conjunct {
    std::optional<DirectConjunct> direct;
    BoundExpr bound;  // when not direct
  };

  const Schema* schema_;
  const EvalContext* outer_;
  std::vector<Conjunct> conjuncts_;
};

/// Evaluates a constant expression (no column refs); used for INSERT VALUES.
Result<Value> EvaluateConstant(const Expr& expr);

/// True iff `name` (lower case) is one of the engine's aggregate functions
/// (count, sum, avg, min, max).
bool IsAggregateFunction(const std::string& name);

/// True iff the expression tree contains an aggregate function call.
bool ContainsAggregate(const Expr& expr);

/// SQL LIKE with '%' and '_' wildcards (case-sensitive).
bool SqlLike(const std::string& text, const std::string& pattern);

}  // namespace prefsql
