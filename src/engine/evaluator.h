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
/// (either operand order; `op` is mirrored so the column reads on the left),
/// `column IS [NOT] NULL`, or `column OP outer_column` (kColOpOuter), whose
/// other operand is a column of an outer scope. An outer row is fixed for
/// every inner row a correlated subquery filters, so that operand acts as a
/// literal over a whole batch. A direct conjunct never fails, and its truth
/// is a function of that cell's value alone (given the outer row). That is
/// what lets a heap scan decide a literal one once per dictionary value
/// instead of once per row, and a filter decide a batch without evaluating
/// an expression tree per row.
struct DirectConjunct {
  enum class Kind { kColOpLit, kColOpOuter, kIsNull };
  Kind kind = Kind::kColOpLit;
  size_t col = 0;
  BinaryOp op = BinaryOp::kEq;
  /// The right operand: borrowed from the conjunct's expression
  /// (kColOpLit), or pointed at the outer row's cell before each use
  /// (kColOpOuter, see OuterValue).
  const Value* lit = nullptr;
  bool negated = false;        // IS NOT NULL
  uint32_t outer_depth = 0;    // kColOpOuter: scopes out (1 = the nearest)
  uint32_t outer_slot = 0;     // kColOpOuter: the cell of that scope's row

  /// kColOpOuter: the outer operand's current value, read from the scope
  /// chain of the inner rows (`outer` is their depth-1 scope).
  const Value& OuterValue(const EvalContext& outer) const;

  /// True iff the conjunct is TRUE for a row whose cell `col` is `cell`
  /// (the row path's CompareTruth / IS NULL test). A kColOpOuter conjunct
  /// needs `lit` set to its OuterValue first.
  bool Test(const Value& cell) const;
};

/// `conjunct` as a DirectConjunct over rows of `schema`, or nullopt when it
/// has another shape, its column does not resolve in `schema`, or its
/// literal is an unbound parameter. With `outer` (the rows' outer scope
/// chain), a comparison of a column of `schema` with a column that does not
/// resolve there but does in `outer` is a kColOpOuter conjunct; the outer
/// reference resolves as the evaluator binds it (innermost scope first, an
/// ambiguous name is no match). Without `outer` (plan-time code and index
/// decisions), such a conjunct is not direct.
std::optional<DirectConjunct> ClassifyDirect(const Expr& conjunct,
                                             const Schema& schema,
                                             const EvalContext* outer = nullptr);

/// A WHERE compiled once for batch evaluation over one input schema, in
/// two parts. The leading run of direct conjuncts (ClassifyDirect, outer
/// operands included) decides whole batches at once (ApplyDirect); outer
/// operands are read from the scope chain on each call. The conjuncts
/// after it evaluate per row through their bindings, left to right, and a
/// row stops at its first conjunct that is not TRUE (TestRest) — the row
/// path's short-circuit AND. Direct conjuncts never raise, so deciding the
/// leading run first keeps every row's answer and error; a direct conjunct
/// after a non-direct one stays in the per-row part, where it may be
/// shielded by its left siblings.
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

  /// Compacts `batch->sel` in place to the rows the leading run of direct
  /// conjuncts keeps.
  void ApplyDirect(RowBatch* batch) const;

  /// True iff `row` passes every conjunct after the direct run.
  Result<bool> TestRest(const Row& row, SubqueryRunner* runner) const;

 private:
  const Schema* schema_;
  const EvalContext* outer_;
  std::vector<DirectConjunct> direct_;
  std::vector<BoundExpr> rest_;
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
