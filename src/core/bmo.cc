#include "core/bmo.h"

#include <algorithm>

#include "core/query_context.h"
#include "preference/dominance_window.h"

namespace prefsql {
namespace {

// Result vectors grow toward the skyline size, which is unknown upfront;
// reserving a modest floor removes the early reallocation churn without
// over-committing memory for small partitions.
size_t ResultReserve(size_t n) { return std::min<size_t>(n, 256); }

// The candidate indices of a result window, ascending.
std::vector<size_t> SortedIndices(const DominanceWindow& window) {
  std::vector<size_t> out(window.size());
  for (size_t m = 0; m < window.size(); ++m) out[m] = window.index(m);
  std::sort(out.begin(), out.end());
  return out;
}

// Stride-counted interrupt poll for the per-tuple loops. True means the
// statement was cancelled or timed out; the algorithm must bail out (its
// partial result is discarded by the caller, which re-checks the context).
bool InterruptedTick(QueryContext* ctx, size_t* tick) {
  if (ctx == nullptr) return false;
  if (++*tick % kInterruptStride != 0) return false;
  return !ctx->CheckInterrupt().ok();
}

// stable_sort by the lex-extension key order, interruptible: the input is
// sorted in fixed-size chunks with a deadline check between each, then
// merged pairwise with checks between merges. A monolithic stable_sort over
// 500k+ rows can run for tens of milliseconds with an expensive comparator,
// which would blow the promptness bound on its own; chunking keeps the gap
// between polls proportional to one chunk. On interrupt the vector is left
// partially sorted — callers must discard it.
void LexSortInterruptible(std::vector<size_t>& v, const KeyStore& keys,
                          QueryContext* ctx) {
  auto less = [&](size_t a, size_t b) { return keys.LexLess(a, b); };
  constexpr size_t kChunk = size_t{1} << 15;
  if (ctx == nullptr || v.size() <= kChunk) {
    std::stable_sort(v.begin(), v.end(), less);
    return;
  }
  for (size_t begin = 0; begin < v.size(); begin += kChunk) {
    if (!ctx->CheckInterrupt().ok()) return;
    std::stable_sort(v.begin() + begin,
                     v.begin() + std::min(begin + kChunk, v.size()), less);
  }
  for (size_t width = kChunk; width < v.size(); width *= 2) {
    for (size_t begin = 0; begin + width < v.size(); begin += 2 * width) {
      if (!ctx->CheckInterrupt().ok()) return;
      std::inplace_merge(
          v.begin() + begin, v.begin() + begin + width,
          v.begin() + std::min(begin + 2 * width, v.size()), less);
    }
  }
}

std::vector<size_t> NaiveNestedLoop(const DominanceProgram& prog,
                                    const KeyStore& keys,
                                    std::span<const size_t> candidates,
                                    QueryContext* ctx, BmoStats* stats) {
  // Paper §3.2: "Insert t1 into Max if there is no tuple t2 in R that is
  // better than t1" — repeated for every t1. All candidates form one
  // window (a tuple never strictly dominates itself, so t1's own member is
  // harmless).
  DominanceWindow all(prog);
  all.Reserve(candidates.size());
  for (size_t i : candidates) all.Admit(keys, i);
  std::vector<size_t> out;
  out.reserve(ResultReserve(candidates.size()));
  size_t* cmp = stats != nullptr ? &stats->comparisons : nullptr;
  size_t tick = 0;
  for (size_t i : candidates) {
    if (InterruptedTick(ctx, &tick)) return out;
    if (!all.Dominated(keys, i, cmp)) out.push_back(i);
  }
  return out;
}

std::vector<size_t> BlockNestedLoop(const DominanceProgram& prog,
                                    const KeyStore& keys,
                                    std::span<const size_t> candidates,
                                    size_t window_capacity, QueryContext* ctx,
                                    BmoStats* stats) {
  std::vector<size_t> result;  // confirmed skyline members
  result.reserve(ResultReserve(candidates.size()));
  DominanceWindow window(prog);
  window.Reserve(window_capacity != 0
                     ? std::min(window_capacity, candidates.size())
                     : ResultReserve(candidates.size()));
  // Pass 0 reads the candidates in place; later passes read the previous
  // pass's overflow (the two buffers swap roles).
  std::span<const size_t> input = candidates;
  std::vector<size_t> next, overflow;
  size_t pass = 0;
  size_t* cmp = stats != nullptr ? &stats->comparisons : nullptr;
  size_t tick = 0;

  while (!input.empty()) {
    overflow.clear();
    for (size_t t : input) {
      if (InterruptedTick(ctx, &tick)) return result;
      // One pass over the window decides both relations. It matches the
      // classic interleaved compare/evict loop exactly because window
      // members are mutually non-dominated: if some member dominates t,
      // then t dominates no member (transitivity would make that member
      // dominated inside the window), so the dominated case evicts nothing.
      if (window.Test(keys, t, cmp)) continue;
      window.EvictMarked();
      if (window_capacity == 0 || window.size() < window_capacity) {
        window.Admit(keys, t, pass);
      } else {
        overflow.push_back(t);
      }
    }
    // End of pass: members inserted in an *earlier* pass have now been
    // compared against every live tuple (anything they dominate was dropped
    // before reaching the overflow), so they are confirmed skyline members.
    // Emitting them frees window space, which guarantees progress when the
    // window is smaller than the skyline.
    window.EvictIf([&](size_t m) {
      if (window.insert_pass(m) >= pass) return false;
      result.push_back(window.index(m));
      return true;
    });
    next.swap(overflow);
    input = next;
    ++pass;
    if (stats != nullptr) stats->passes = pass;
  }
  for (size_t m = 0; m < window.size(); ++m) result.push_back(window.index(m));
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<size_t> SortFilterSkyline(const DominanceProgram& prog,
                                      const KeyStore& keys,
                                      std::span<const size_t> candidates,
                                      QueryContext* ctx, BmoStats* stats) {
  // Presort by a linear extension of the order: afterwards no tuple can be
  // dominated by a later one, so a single forward pass with an append-only
  // result window is exact.
  std::vector<size_t> sorted(candidates.begin(), candidates.end());
  LexSortInterruptible(sorted, keys, ctx);
  DominanceWindow result(prog);
  result.Reserve(ResultReserve(candidates.size()));
  size_t* cmp = stats != nullptr ? &stats->comparisons : nullptr;
  size_t tick = 0;
  for (size_t t : sorted) {
    if (InterruptedTick(ctx, &tick)) break;
    if (!result.Dominated(keys, t, cmp)) result.Admit(keys, t);
  }
  return SortedIndices(result);
}

// The LESS elimination-filter (EF) prepass: a window of a few
// high-dominance tuples drops most dominated tuples in one linear scan —
// the work the external-sort pass 0 does in the original algorithm. The EF
// holds seen tuples with the lowest score volume (sum of leaf scores, a
// cheap proxy for dominance power); dropping anything an EF member
// dominates is sound because EF members are input tuples themselves, so
// every dropped tuple is dominated and can appear in no BMO result.
std::vector<size_t> EliminationFilterScan(const DominanceProgram& prog,
                                          const KeyStore& keys,
                                          std::span<const size_t> candidates,
                                          size_t ef_capacity,
                                          QueryContext* ctx, BmoStats* stats) {
  const size_t L = keys.num_leaves();
  auto volume = [&](size_t t) {
    const double* s = keys.scores(t);
    double sum = 0;
    for (size_t i = 0; i < L; ++i) sum += s[i];
    return sum;
  };

  DominanceWindow ef(prog);
  std::vector<double> ef_volume;  // per EF member
  ef.Reserve(std::max<size_t>(1, ef_capacity));
  size_t* cmp = stats != nullptr ? &stats->comparisons : nullptr;

  std::vector<size_t> survivors;
  survivors.reserve(candidates.size());
  size_t tick = 0;
  for (size_t t : candidates) {
    if (InterruptedTick(ctx, &tick)) return survivors;
    if (ef.Dominated(keys, t, cmp)) continue;
    survivors.push_back(t);
    // Admit t when it beats the weakest EF member by volume (or there is
    // room); the window self-organizes toward the most dominant tuples.
    double v = volume(t);
    if (ef.size() < ef_capacity) {
      ef.Admit(keys, t);
      ef_volume.push_back(v);
    } else if (!ef.empty()) {
      size_t weakest = 0;
      for (size_t e = 1; e < ef.size(); ++e) {
        if (ef_volume[e] > ef_volume[weakest]) weakest = e;
      }
      if (v < ef_volume[weakest]) {
        ef.Replace(weakest, keys, t);
        ef_volume[weakest] = v;
      }
    }
  }
  return survivors;
}

// LESS [GSG05]: the EF prepass above, then the SFS sort + filter over the
// survivors, which restores exactness regardless of what the EF window
// dropped.
std::vector<size_t> LessSkyline(const DominanceProgram& prog,
                                const KeyStore& keys,
                                std::span<const size_t> candidates,
                                size_t ef_capacity, QueryContext* ctx,
                                BmoStats* stats) {
  std::vector<size_t> survivors =
      EliminationFilterScan(prog, keys, candidates, ef_capacity, ctx, stats);
  if (ctx != nullptr && ctx->interrupted()) return survivors;
  return SortFilterSkyline(prog, keys, survivors, ctx, stats);
}

}  // namespace

std::vector<size_t> ComputeBmoTopK(const CompiledPreference& pref,
                                   const KeyStore& keys,
                                   std::span<const size_t> candidates,
                                   size_t k, const BmoOptions& options,
                                   BmoStats* stats) {
  const DominanceProgram& prog = pref.program();
  if (stats != nullptr) {
    stats->kernel = prog.kernel();
    stats->simd = prog.WindowVariant();
  }
  if (k == 0) return {};
  // LESS EF prepass: the presort then runs over the (usually much smaller)
  // survivor set instead of the full input. Dropped tuples are dominated,
  // so the set of maximal tuples — and, because the EF scan preserves
  // relative order, the exact k returned below — is unchanged. The prepass
  // trades O(n * ef_window) extra dominance tests for shrinking the
  // O(n log n) presort to the survivors, so it only runs on inputs large
  // enough for the sort to dominate; below the threshold the progressive
  // filter alone already does fewer dominance tests than a full BMO.
  constexpr size_t kEfMinRows = 4096;
  std::vector<size_t> sorted;
  if (candidates.size() >= kEfMinRows) {
    sorted = EliminationFilterScan(prog, keys, candidates,
                                   std::max<size_t>(1, options.less_window),
                                   options.ctx, stats);
    if (options.ctx != nullptr && options.ctx->interrupted()) return sorted;
  } else {
    sorted.assign(candidates.begin(), candidates.end());
  }
  LexSortInterruptible(sorted, keys, options.ctx);
  DominanceWindow result(prog);
  result.Reserve(std::min(k, candidates.size()));
  size_t* cmp = stats != nullptr ? &stats->comparisons : nullptr;
  size_t tick = 0;
  for (size_t t : sorted) {
    if (InterruptedTick(options.ctx, &tick)) break;
    if (!result.Dominated(keys, t, cmp)) {
      result.Admit(keys, t);
      if (result.size() >= k) break;  // progressive early exit
    }
  }
  return SortedIndices(result);
}

const char* BmoAlgorithmToString(BmoAlgorithm a) {
  switch (a) {
    case BmoAlgorithm::kNaiveNestedLoop:
      return "naive-nested-loop";
    case BmoAlgorithm::kBlockNestedLoop:
      return "block-nested-loop";
    case BmoAlgorithm::kSortFilterSkyline:
      return "sort-filter-skyline";
    case BmoAlgorithm::kLess:
      return "less";
  }
  return "?";
}

Result<BmoAlgorithm> BmoAlgorithmFromString(const std::string& name) {
  if (name == "naive") return BmoAlgorithm::kNaiveNestedLoop;
  if (name == "bnl") return BmoAlgorithm::kBlockNestedLoop;
  if (name == "sfs") return BmoAlgorithm::kSortFilterSkyline;
  if (name == "less") return BmoAlgorithm::kLess;
  return Status::InvalidArgument("unknown BMO algorithm '" + name +
                                 "' (expected naive, bnl, sfs or less)");
}

std::vector<size_t> ComputeBmo(const CompiledPreference& pref,
                               const KeyStore& keys,
                               std::span<const size_t> candidates,
                               const BmoOptions& options, BmoStats* stats) {
  const DominanceProgram& prog = pref.program();
  if (stats != nullptr) {
    stats->kernel = prog.kernel();
    stats->simd = prog.WindowVariant();
  }
  switch (options.algorithm) {
    case BmoAlgorithm::kNaiveNestedLoop:
      return NaiveNestedLoop(prog, keys, candidates, options.ctx, stats);
    case BmoAlgorithm::kBlockNestedLoop:
      return BlockNestedLoop(prog, keys, candidates, options.bnl_window,
                             options.ctx, stats);
    case BmoAlgorithm::kSortFilterSkyline:
      return SortFilterSkyline(prog, keys, candidates, options.ctx, stats);
    case BmoAlgorithm::kLess:
      return LessSkyline(prog, keys, candidates,
                         std::max<size_t>(1, options.less_window),
                         options.ctx, stats);
  }
  return {};
}

}  // namespace prefsql
