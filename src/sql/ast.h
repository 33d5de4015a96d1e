// Abstract syntax tree for the SQL / Preference SQL dialect.
//
// Expressions and preference terms are tagged structs (one node type with a
// kind enum) rather than a class hierarchy: the rewriter synthesizes and
// restructures nodes heavily, and uniform nodes keep Clone/print/walk simple.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "types/value.h"

namespace prefsql {

struct Expr;
struct SelectStmt;
using ExprPtr = std::unique_ptr<Expr>;

/// Expression node kinds.
enum class ExprKind {
  kLiteral,    ///< constant Value
  kColumnRef,  ///< [qualifier.]name
  kStar,       ///< '*' or 'alias.*' (select list / COUNT(*))
  kUnary,      ///< -x, NOT x
  kBinary,     ///< arithmetic / comparison / AND / OR / ||
  kIn,         ///< x [NOT] IN (list) or x [NOT] IN (subquery)
  kBetween,    ///< x [NOT] BETWEEN lo AND hi
  kLike,       ///< x [NOT] LIKE pattern
  kIsNull,     ///< x IS [NOT] NULL
  kCase,       ///< CASE [operand] WHEN .. THEN .. [ELSE ..] END
  kFunction,   ///< name(args) — scalar, aggregate, or quality function
  kExists,     ///< [NOT] EXISTS (subquery)
  kSubquery,   ///< scalar subquery
};

enum class UnaryOp { kNegate, kNot };

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr, kConcat,
};

/// SQL text of a binary operator ("=", "AND", ...).
const char* BinaryOpToString(BinaryOp op);

/// One CASE branch.
struct CaseWhen {
  ExprPtr when;
  ExprPtr then;
};

/// Uniform expression node; the populated fields depend on `kind`.
struct Expr {
  ExprKind kind;

  // kLiteral
  Value literal;

  // kColumnRef / kStar (qualifier may be empty)
  std::string qualifier;
  std::string column;

  // kUnary / kBinary
  UnaryOp unary_op = UnaryOp::kNegate;
  BinaryOp binary_op = BinaryOp::kAdd;
  ExprPtr left;   // also: operand of kUnary/kIn/kBetween/kLike/kIsNull/kCase
  ExprPtr right;  // binary rhs; kLike pattern; kBetween low bound in lo/hi

  // kIn
  std::vector<ExprPtr> in_list;
  bool negated = false;  // kIn / kBetween / kLike / kIsNull / kExists

  // kBetween
  ExprPtr lo;
  ExprPtr hi;

  // kCase
  std::vector<CaseWhen> case_whens;
  ExprPtr case_else;

  // kFunction
  std::string function_name;  // lower-cased
  std::vector<ExprPtr> args;
  bool distinct_arg = false;  // COUNT(DISTINCT x)

  // kExists / kSubquery / kIn-with-subquery
  std::shared_ptr<SelectStmt> subquery;  // shared: Clone() shares the subtree

  /// Deep copy (subqueries are shared, not copied).
  ExprPtr Clone() const;

  // -- Construction helpers ---------------------------------------------
  static ExprPtr MakeLiteral(Value v);
  static ExprPtr MakeColumn(std::string qualifier, std::string name);
  static ExprPtr MakeStar(std::string qualifier = "");
  static ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);
  static ExprPtr MakeBinary(BinaryOp op, ExprPtr l, ExprPtr r);
  static ExprPtr MakeFunction(std::string name, std::vector<ExprPtr> args);
  /// Left-deep AND of all conjuncts (nullptr when empty).
  static ExprPtr MakeConjunction(std::vector<ExprPtr> conjuncts);
};

/// Structural equality of two expressions (literals by identity, subqueries
/// by pointer). Used to validate that both sides of a preference ELSE refer
/// to the same attribute expression.
bool ExprStructurallyEqual(const Expr& a, const Expr& b);

// ---------------------------------------------------------------------------
// Preference terms (the PREFERRING clause, paper §2.2).
// ---------------------------------------------------------------------------

struct PrefTerm;
using PrefTermPtr = std::unique_ptr<PrefTerm>;

/// Preference node kinds. Base preferences are leaves; kPareto ("AND") and
/// kPrioritized ("CASCADE") are the constructors of §2.2.2.
enum class PrefKind {
  kAround,      ///< expr AROUND v
  kBetween,     ///< expr BETWEEN lo, hi
  kLowest,      ///< LOWEST(expr)
  kHighest,     ///< HIGHEST(expr)
  kPos,         ///< expr IN (v1, ..) or expr = v
  kNeg,         ///< expr NOT IN (v1, ..) or expr <> v
  kPosPos,      ///< POS set1 ELSE POS set2
  kPosNeg,      ///< POS set ELSE NEG set
  kExplicit,    ///< expr EXPLICIT ('a' BETTER THAN 'b', ...)
  kContains,    ///< expr CONTAINS 'text'
  kPareto,      ///< P1 AND P2 (equal importance)
  kPrioritized, ///< P1 CASCADE P2 (ordered importance)
  kIntersect,   ///< P1 INTERSECT P2 (better iff better in every Pi; algebra)
  kDual,        ///< DUAL(P): the inverse order (preference algebra, §5)
  kNamedRef,    ///< PREFERENCE <name> — a stored preference (PDL)
};

/// Uniform preference node; populated fields depend on `kind`.
struct PrefTerm {
  PrefKind kind;

  /// Attribute expression the base preference applies to (leaves only).
  /// Arbitrary expressions are allowed per §2.2.1 ("instead of a single
  /// attribute an arithmetic expression ... [is] admissible, too").
  ExprPtr attr;

  /// kAround: target; kContains: needle.
  Value target;

  /// kBetween bounds.
  Value low, high;

  /// kPos/kNeg value set; kPosPos/kPosNeg first set.
  std::vector<Value> values;
  /// kPosPos second set; kPosNeg negative set.
  std::vector<Value> values2;

  /// kExplicit better-than edges (better, worse).
  std::vector<std::pair<Value, Value>> edges;

  /// kPareto / kPrioritized children, in syntactic order.
  std::vector<PrefTermPtr> children;

  /// kNamedRef: name of the stored preference.
  std::string pref_name;

  /// Deep copy.
  PrefTermPtr Clone() const;

  bool IsBase() const {
    return kind != PrefKind::kPareto && kind != PrefKind::kPrioritized &&
           kind != PrefKind::kIntersect && kind != PrefKind::kDual;
  }
};

// ---------------------------------------------------------------------------
// Statements.
// ---------------------------------------------------------------------------

/// FROM-clause item.
struct TableRef {
  enum class Kind { kTable, kSubquery, kJoin } kind = Kind::kTable;

  // kTable
  std::string table_name;
  // kTable / kSubquery visible alias ("" = table name).
  std::string alias;
  // kSubquery
  std::shared_ptr<SelectStmt> subquery;

  // kJoin
  enum class JoinType { kInner, kLeft, kCross } join_type = JoinType::kInner;
  std::unique_ptr<TableRef> join_left;
  std::unique_ptr<TableRef> join_right;
  ExprPtr join_on;  // nullptr for CROSS JOIN

  std::unique_ptr<TableRef> Clone() const;
};

/// SELECT-list entry.
struct SelectItem {
  ExprPtr expr;
  std::string alias;  // "" = derived name
};

struct OrderItem {
  ExprPtr expr;
  bool ascending = true;
};

/// A (Preference) SQL query block, §2.2.5:
///   SELECT ... FROM ... [WHERE ...] [PREFERRING ... [GROUPING ...]
///   [BUT ONLY ...]] [GROUP BY ... [HAVING ...]] [ORDER BY ...] [LIMIT ...]
struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<std::unique_ptr<TableRef>> from;
  ExprPtr where;

  // Preference SQL extensions; preferring == nullptr means a plain query.
  PrefTermPtr preferring;
  std::vector<std::string> grouping;  // GROUPING attribute names
  ExprPtr but_only;

  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderItem> order_by;
  std::optional<int64_t> limit;
  std::optional<int64_t> offset;
  /// Parameter hole for the LIMIT count (`LIMIT ?` / `LIMIT $k`), engaged
  /// when is_param(); binding fills `limit`. Null otherwise.
  Value limit_param;

  std::shared_ptr<SelectStmt> Clone() const;

  /// True iff the block uses any Preference SQL construct.
  bool IsPreferenceQuery() const { return preferring != nullptr; }
};

struct ColumnDef {
  std::string name;
  ColumnType type;
};

enum class StatementKind {
  kSelect,
  kCreateTable,
  kCreateView,
  kCreateIndex,
  kCreatePreference,  ///< CREATE PREFERENCE <name> AS <pref> (PDL, §2.2)
  kInsert,
  kUpdate,
  kDelete,
  kDrop,
  kExplain,           ///< EXPLAIN <select>: show the optimizer's translation
  kSet,               ///< SET <knob> = <value>: connection-level tuning
};

/// Top-level statement (uniform node, like Expr).
struct Statement {
  StatementKind kind;

  // kSelect
  std::shared_ptr<SelectStmt> select;

  // kCreateTable
  std::string name;  // table/view/index name; also target of INSERT etc.
  std::vector<ColumnDef> columns;
  bool if_not_exists = false;
  bool if_exists = false;

  // kCreateView: `select` holds the definition.

  // kCreateIndex
  std::string on_table;
  std::vector<std::string> index_columns;

  // kInsert
  std::vector<std::string> insert_columns;          // empty = all
  std::vector<std::vector<ExprPtr>> insert_rows;    // VALUES rows
  // or INSERT ... SELECT: `select`.

  // kUpdate
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;  // kUpdate / kDelete

  // kCreatePreference
  PrefTermPtr preference;

  // kSet: `name` holds the knob; bare words (on, sfs, ...) arrive as text.
  Value set_value;

  // kDrop
  enum class DropKind { kTable, kView, kIndex, kPreference } drop_kind =
      DropKind::kTable;

  /// Whether a `?`/`$name` placeholder occurs anywhere in the statement,
  /// as the parser counted them; binding every slot clears it. Unset for a
  /// hand-built statement, whose AST StatementHasParameters walks instead.
  std::optional<bool> has_parameters;

  /// Deep copy (the SELECT block and subqueries are shared, like
  /// Expr::Clone). Used to re-instantiate prepared statements with bound
  /// parameter values without re-parsing.
  Statement Clone() const;
};

}  // namespace prefsql
