// PlanCache: engine-owned reuse of statement preparations across queries
// and sessions.
//
// "Preparing" a statement covers everything up to execution that does not
// depend on table contents: lex + parse, stored-PREFERENCE expansion (PDL),
// and compilation of the PREFERRING clause into a CompiledPreference
// (semantic analysis, EXPLICIT closure, dominance-program compilation). A
// cache entry is keyed by
//
//   (parameterized normalized text, catalog version)
//
// so a repeated statement skips all of it. The text component is the
// auto-parameterized canonical form when literals could be lifted
// (sql/normalize.h ParameterizeSql — statements differing only in literal
// values share one entry) and the plain normalized text otherwise; both
// collapse whitespace but preserve case, so the key never conflates two
// spellings that would display differently. The catalog version component
// makes any DDL (including CREATE/DROP PREFERENCE, which changes what an
// expansion means) leave older preparations unreachable. No session knob
// is part of the key: preparation reads none (the knobs only steer
// execution), so differently-tuned sessions share one preparation. Only
// SELECT and EXPLAIN statements are cached — they are the serving hot path,
// and they never mutate.
//
// Entries are immutable and shared: concurrent sessions may execute the
// same preparation simultaneously (the ASTs and the compiled preference are
// only ever read during execution).

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "preference/composite.h"
#include "sql/parameters.h"
#include "sql/ast.h"
#include "util/lru_cache.h"

namespace prefsql {

/// One cached preparation. `select` is the parsed query block (kSelect and
/// kExplain are the only cached kinds) and may contain `?` / `$name`
/// parameter holes — both user-written placeholders and literals lifted by
/// auto-parameterization; bound values are injected at execute time. The
/// expanded/preference fields are engaged for preference queries only.
struct CachedPlan {
  StatementKind kind = StatementKind::kSelect;
  std::shared_ptr<const SelectStmt> select;
  /// PREFERRING with stored PREFERENCE references expanded (PDL).
  std::shared_ptr<const SelectStmt> expanded;
  /// The compiled PREFERRING clause of `expanded`; nullptr when the clause
  /// contains parameter holes (it is then compiled per execution, after the
  /// bound values are injected).
  std::shared_ptr<const CompiledPreference> preference;
  /// Catalog version the expansion was prepared against. The engine
  /// re-validates it under the statement lock and re-expands when DDL
  /// committed in between (the cache key alone cannot close that window —
  /// it is computed before the lock is taken).
  uint64_t catalog_version = 0;
  /// Parameter signature of `select` (arity, names, type constraints).
  ParameterSignature params;
  /// The PREFERRING clause contains parameter holes (see `preference`).
  bool pref_has_params = false;
};

struct PlanCacheKey {
  std::string text;  ///< NormalizeSql of the statement
  uint64_t catalog_version = 0;

  bool operator==(const PlanCacheKey& other) const = default;
};

class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 256) : cache_(capacity) {}

  /// The cached preparation for `key`, or nullptr. Counts a hit or miss
  /// and refreshes the entry's LRU position.
  std::shared_ptr<const CachedPlan> Lookup(const PlanCacheKey& key) {
    return cache_.Lookup(key);
  }

  /// Publishes a preparation (replacing any entry under `key`). May
  /// LRU-evict the least recently used entry.
  void Insert(const PlanCacheKey& key,
              std::shared_ptr<const CachedPlan> prepared) {
    if (prepared != nullptr) cache_.Insert(key, std::move(prepared));
  }

  /// Memory-pressure shed: drops up to `n` cold entries (LRU order).
  size_t Shed(size_t n) { return cache_.EvictOldest(n); }

  /// Early reclamation after DDL: drops every entry whose catalog version
  /// differs from `current` (they can never be looked up again). Returns
  /// the number of dropped entries.
  size_t EvictOtherVersions(uint64_t current) {
    return cache_.EvictWhere([current](const PlanCacheKey& key) {
      return key.catalog_version != current;
    });
  }

  struct KeyHash {
    size_t operator()(const PlanCacheKey& k) const {
      uint64_t h = FingerprintString(kFingerprintSeed, k.text);
      h = FingerprintMix(h, k.catalog_version);
      return static_cast<size_t>(h);
    }
  };

  using Counters =
      LruCache<PlanCacheKey, std::shared_ptr<const CachedPlan>,
               KeyHash>::Counters;
  Counters counters() const { return cache_.counters(); }
  size_t size() const { return cache_.size(); }

 private:
  LruCache<PlanCacheKey, std::shared_ptr<const CachedPlan>, KeyHash>
      cache_;
};

}  // namespace prefsql
