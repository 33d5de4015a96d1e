// Composite preferences: compilation of a PrefTerm AST into a runtime
// object combining base preferences with Pareto accumulation ("AND") and
// prioritization ("CASCADE"), §2.2.2.

#pragma once

#include <memory>
#include <vector>

#include "engine/evaluator.h"
#include "preference/dominance_program.h"
#include "preference/key_store.h"
#include "preference/preference.h"
#include "sql/ast.h"
#include "types/schema.h"
#include "util/status.h"

namespace prefsql {

/// One leaf of a compiled preference: the base preference plus the attribute
/// expression it evaluates, in pre-order position `slot`.
struct PrefLeaf {
  std::unique_ptr<BasePreference> pref;
  ExprPtr attr;
};

/// Node of the constructor tree; leaves reference `PrefLeaf` slots.
/// DUAL does not appear here: it distributes over all constructors and is
/// pushed onto the leaves at compile time (DualBasePreference).
struct PrefNode {
  enum class Kind { kLeaf, kPareto, kPrioritized, kIntersect } kind =
      Kind::kLeaf;
  size_t leaf_slot = 0;  // kLeaf
  std::vector<std::unique_ptr<PrefNode>> children;
};

/// The comparison key of one tuple: one LeafKey per preference leaf,
/// in pre-order.
using PrefKey = std::vector<LeafKey>;

/// A fully compiled preference: dominance tests, key extraction, and the
/// linear-extension comparator used by sort-based algorithms.
class CompiledPreference {
 public:
  /// Compiles a parsed PREFERRING term. Fails on malformed EXPLICIT edge
  /// sets (cycles) and non-preference input.
  static Result<CompiledPreference> Compile(const PrefTerm& term);

  size_t num_leaves() const { return leaves_.size(); }
  const PrefLeaf& leaf(size_t i) const { return leaves_[i]; }
  const PrefNode& root() const { return *root_; }
  /// The original AST (cloned at compile time; used by the rewriter).
  const PrefTerm& term() const { return *term_; }

  /// Evaluates all leaf attribute expressions for `row` and builds the key.
  Result<PrefKey> MakeKey(const Schema& schema, const Row& row,
                          SubqueryRunner* runner = nullptr) const;

  /// The leaf attribute expressions, in leaf order, bound for rows of
  /// `schema` (engine/evaluator.h): what a key build evaluates per row.
  std::vector<BoundExpr> BindLeaves(const Schema& schema) const;

  /// Evaluates the bound leaf attribute expressions for `row` (a row of the
  /// schema `leaves` were bound for) and appends the key to `store` (which
  /// must be bound to num_leaves() leaves) — the packed equivalent of
  /// MakeKey, with no per-tuple allocation.
  Status AppendKey(const std::vector<BoundExpr>& leaves, const Schema& schema,
                   const Row& row, KeyStore* store,
                   SubqueryRunner* runner = nullptr) const;

  /// AppendKey with the leaves bound for this one row.
  Status AppendKey(const Schema& schema, const Row& row, KeyStore* store,
                   SubqueryRunner* runner = nullptr) const;

  /// The flat dominance program the BMO kernels evaluate (compiled once).
  const DominanceProgram& program() const { return program_; }

  /// Stable structural hash of the whole preference: constructor tree shape,
  /// per-leaf BasePreference::Fingerprint, and the leaf attribute
  /// expressions (as SQL text). Equal fingerprints mean the compiled
  /// preferences produce identical keys and identical dominance outcomes
  /// over any relation — the preference component of the engine's key-cache
  /// keys. Computed once at Compile time.
  uint64_t Fingerprint() const { return fingerprint_; }

  /// Compares two tuples under the full preference tree — the recursive
  /// reference implementation; program() is the production kernel and is
  /// property-tested against this oracle.
  Rel Compare(const PrefKey& a, const PrefKey& b) const;

  /// True iff `a` strictly dominates `b`.
  bool Dominates(const PrefKey& a, const PrefKey& b) const {
    return Compare(a, b) == Rel::kBetter;
  }

  /// Pre-order lexicographic comparison by leaf scores — a linear extension
  /// of the preference order (Dominates(a, b) implies LexLess(a, b)), used
  /// by the SFS presort. Ties are broken arbitrarily but deterministically.
  bool LexLess(const PrefKey& a, const PrefKey& b) const;

  /// Leaf slot whose attribute expression is exactly the column `name`
  /// (qualifier-insensitive); used to resolve quality functions LEVEL(A)
  /// etc. Error when no or several base preferences mention the column.
  Result<size_t> LeafForColumn(const std::string& name) const;

  /// True iff every leaf supports the single-column SQL encoding (weak
  /// order); when false the rewriter refuses and BMO runs in-engine.
  bool IsRewritable() const;

  CompiledPreference(CompiledPreference&&) = default;
  CompiledPreference& operator=(CompiledPreference&&) = default;

 private:
  CompiledPreference() = default;

  static Result<std::unique_ptr<PrefNode>> Build(
      const PrefTerm& term, std::vector<PrefLeaf>* leaves, bool dualize);

  Rel CompareNode(const PrefNode& node, const PrefKey& a,
                  const PrefKey& b) const;

  uint64_t FingerprintNode(const PrefNode& node, uint64_t h) const;

  std::vector<PrefLeaf> leaves_;
  std::unique_ptr<PrefNode> root_;
  PrefTermPtr term_;
  DominanceProgram program_;
  uint64_t fingerprint_ = 0;
};

}  // namespace prefsql
