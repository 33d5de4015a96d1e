// Statement parameters: collection and binding of `?` / `$name`
// placeholders.
//
// Placeholders parse into Value::Param slots inside expressions (WHERE,
// select list, join conditions, INSERT values, ...) and inside the literal
// slots of PREFERRING terms (AROUND targets, BETWEEN bounds, IN sets,
// EXPLICIT edges). Ordinals are assigned by the parser per statement:
// each `?` takes the next ordinal, each distinct `$name` takes one ordinal
// shared by all its occurrences.
//
// CollectParameters walks a parsed statement and recovers the signature
// (arity, names, and per-slot type constraints implied by the grammar
// position, e.g. an AROUND target must be numeric). BindParameters produces
// the executable form: every parameter slot replaced by the bound value.
// Binding never mutates shared subtrees — shared subqueries that contain
// parameters are cloned before substitution, so a cached plan's AST is
// never written through.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sql/ast.h"
#include "types/value.h"
#include "util/status.h"

namespace prefsql {

/// Type constraint a parameter slot imposes on bound values, derived from
/// its grammar position.
enum class ParamConstraint {
  kAny,      ///< ordinary expression / preference set position
  kNumeric,  ///< AROUND target: numeric, date, or text parsing as a date
  kText,     ///< CONTAINS needle: text
};

/// Signature of a statement's parameters, index-ordered.
struct ParameterSignature {
  std::vector<std::string> names;             ///< "" = positional
  std::vector<ParamConstraint> constraints;   ///< parallel to names

  size_t count() const { return names.size(); }
};

/// Recovers the parameter signature of a parsed statement / query block.
/// Ordinals are read from the Value::Param slots, so the walk order does
/// not matter; holes left by hand-built ASTs surface as unnamed slots.
ParameterSignature CollectParameters(const SelectStmt& select);
ParameterSignature CollectParameters(const Statement& stmt);

/// True iff the preference term tree contains a parameter slot (such a
/// PREFERRING clause cannot be compiled until the values are bound).
bool PrefTermHasParameters(const PrefTerm& term);

/// Cheap early-exit presence tests (no signature allocation): used on the
/// per-statement hot path to reject pre-parsed statements with holes. A
/// parsed or bound statement answers from Statement::has_parameters
/// without a walk.
bool SelectHasParameters(const SelectStmt& select);
bool StatementHasParameters(const Statement& stmt);

/// Checks `value` against `constraint`; returns a kBindError naming
/// parameter `index` otherwise. `parse_errors` reports violations as parse
/// errors instead — used when re-injecting auto-parameterized literals,
/// where the value came from the statement text itself.
Status CheckParamConstraint(const Value& value, ParamConstraint constraint,
                            size_t index, bool parse_errors);

/// Replaces every parameter slot in `select` by its bound value (in place;
/// shared subqueries containing parameters are cloned first). `values` must
/// cover every ordinal that occurs. `parse_errors` selects the error
/// category for constraint violations (see CheckParamConstraint).
Status BindSelectParameters(SelectStmt& select,
                            const std::vector<Value>& values,
                            bool parse_errors = false);

/// Statement-level BindSelectParameters (prepared DML: INSERT values,
/// UPDATE assignments and WHERE, the SELECT of INSERT ... SELECT, ...).
Status BindStatementParameters(Statement& stmt,
                               const std::vector<Value>& values,
                               bool parse_errors = false);

/// Re-expands IN-list-collapsed placeholders (see ParameterizeSql's
/// `collapse_in_lists`) on a private clone of a cached plan, in place.
/// `widths[i]` says how many consecutive flat values placeholder `i`
/// consumes; a width-m slot inside an IN list (Expr::in_list) or a
/// preference value set (PrefTerm::values / values2) is replaced by m
/// parameter slots with consecutive flat ordinals, and every other slot is
/// renumbered from its placeholder ordinal to its flat base ordinal. After
/// this pass BindSelectParameters consumes the flat value vector 1:1 as
/// usual. A width > 1 slot in a scalar position is a bind error (collapse
/// only ever produces wide slots inside lists). Identity widths (all 1)
/// make this a pure renumbering no-op — callers should skip it then.
Status ExpandWideParameters(SelectStmt& select,
                            const std::vector<uint32_t>& widths);

}  // namespace prefsql
