#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <string>
#include <thread>

#include "core/connection.h"
#include "engine/operators/scan.h"
#include "storage/catalog.h"
#include "storage/epoch.h"
#include "storage/index.h"
#include "storage/row_heap.h"
#include "storage/table.h"

namespace prefsql {
namespace {

std::vector<ColumnDef> Cols() {
  return {{"id", ColumnType::kInt},
          {"name", ColumnType::kText},
          {"price", ColumnType::kDouble},
          {"day", ColumnType::kDate}};
}

TEST(TableTest, InsertCoercesTypes) {
  Table t("t", Cols());
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::Text("a"), Value::Int(5),
                        Value::Text("1999/7/3")})
                  .ok());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.heap().row(0)[2].type(), ValueType::kDouble);  // int -> double
  EXPECT_EQ(t.heap().row(0)[3].type(), ValueType::kDate);    // text -> date
  // Integral double into INTEGER column.
  ASSERT_TRUE(t.Insert({Value::Double(2.0), Value::Null(), Value::Null(),
                        Value::Null()})
                  .ok());
  EXPECT_EQ(t.heap().row(1)[0].AsInt(), 2);
}

TEST(TableTest, InsertRejectsBadValues) {
  Table t("t", Cols());
  // Fractional double into INTEGER column.
  EXPECT_FALSE(t.Insert({Value::Double(2.5), Value::Null(), Value::Null(),
                         Value::Null()})
                   .ok());
  // Non-date text into DATE column.
  EXPECT_FALSE(t.Insert({Value::Int(1), Value::Null(), Value::Null(),
                         Value::Text("nope")})
                   .ok());
  // Wrong arity.
  EXPECT_FALSE(t.Insert({Value::Int(1)}).ok());
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableTest, NullAllowedEverywhere) {
  Table t("t", Cols());
  EXPECT_TRUE(
      t.Insert({Value::Null(), Value::Null(), Value::Null(), Value::Null()})
          .ok());
}

TEST(TableTest, TextColumnRendersScalars) {
  Table t("t", {{"s", ColumnType::kText}});
  ASSERT_TRUE(t.Insert({Value::Int(42)}).ok());
  EXPECT_EQ(t.heap().row(0)[0].AsText(), "42");
}

TEST(TableTest, DeleteEndStampsInsteadOfCompacting) {
  Table t("t", {{"id", ColumnType::kInt}});
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(t.Insert({Value::Int(i)}).ok());
  const uint64_t before = t.epochs().current();
  // One DELETE statement end-stamping slots 1 and 3 at one commit epoch.
  const uint64_t commit = t.epochs().BeginWrite();
  t.MarkDeleted(1, commit);
  t.MarkDeleted(3, commit);
  t.SealVersion(commit);
  t.epochs().Publish(commit);
  // Slots never move: the heap still holds all five versions.
  EXPECT_EQ(t.heap_size(), 5u);
  EXPECT_EQ(t.num_rows(), 3u);
  // Old snapshot sees all five; new snapshot sees the survivors in place.
  EXPECT_EQ(t.NumVisibleAt(before), 5u);
  EXPECT_TRUE(t.heap().VisibleAt(1, before));
  EXPECT_FALSE(t.heap().VisibleAt(1, commit));
  EXPECT_TRUE(t.heap().VisibleAt(2, commit));
  EXPECT_EQ(t.heap().row(2)[0].AsInt(), 2);
  EXPECT_EQ(t.heap().row(4)[0].AsInt(), 4);
}

TEST(TableTest, VersionBumpsOnMutation) {
  Table t("t", {{"id", ColumnType::kInt}});
  uint64_t v0 = t.version();
  ASSERT_TRUE(t.Insert({Value::Int(1)}).ok());
  EXPECT_GT(t.version(), v0);
  uint64_t v1 = t.version();
  // UPDATE under MVCC: end-stamp the old version, append the new one.
  const uint64_t commit = t.epochs().BeginWrite();
  t.MarkDeleted(0, commit);
  t.AppendVersion({Value::Int(2)}, commit);
  t.SealVersion(commit);
  t.epochs().Publish(commit);
  EXPECT_GT(t.version(), v1);
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.heap_size(), 2u);
}

TEST(TableTest, SealHistoryAnswersHeapSizeAt) {
  Table t("t", {{"id", ColumnType::kInt}});
  const uint64_t e0 = t.epochs().current();
  ASSERT_TRUE(t.Insert({Value::Int(1)}).ok());
  const uint64_t e1 = t.epochs().current();
  const uint64_t v1 = t.version();
  ASSERT_TRUE(t.Insert({Value::Int(2)}).ok());
  const uint64_t e2 = t.epochs().current();
  // Epoch-bounded views: each snapshot maps to the heap prefix sealed at
  // or before it; every seal bumps the version.
  EXPECT_EQ(t.HeapSizeAt(e0), 0u);
  EXPECT_EQ(t.HeapSizeAt(e1), 1u);
  EXPECT_EQ(t.HeapSizeAt(e2), 2u);
  EXPECT_GT(t.version(), v1);
}

TEST(TableTest, CollectGarbageClearsOnlyDeadPayloads) {
  Table t("t", {{"id", ColumnType::kInt}});
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(t.Insert({Value::Int(i)}).ok());
  const uint64_t commit = t.epochs().BeginWrite();
  t.MarkDeleted(1, commit);
  t.SealVersion(commit);
  t.epochs().Publish(commit);
  EXPECT_EQ(t.CollectGarbage(t.epochs().current()), 1u);
  EXPECT_TRUE(t.heap().payload_cleared(1));
  EXPECT_FALSE(t.heap().payload_cleared(0));
  EXPECT_EQ(t.heap().row(0)[0].AsInt(), 0);
  EXPECT_EQ(t.heap().row(2)[0].AsInt(), 2);
  // Idempotent: nothing newly dead.
  EXPECT_EQ(t.CollectGarbage(t.epochs().current()), 0u);
}

// One DML statement's commit: end-stamp `dead`, append `rows`.
void Commit(Table& t, const std::vector<size_t>& dead,
            const std::vector<int64_t>& rows) {
  const uint64_t commit = t.epochs().BeginWrite();
  for (size_t slot : dead) t.MarkDeleted(slot, commit);
  for (int64_t v : rows) t.AppendVersion({Value::Int(v)}, commit);
  t.SealVersion(commit);
  t.epochs().Publish(commit);
}

TEST(TableTest, InsertsLeaveTheDeadSlotListEmpty) {
  Table t("t", {{"id", ColumnType::kInt}});
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(t.Insert({Value::Int(i)}).ok());
  t.BulkLoadUnchecked({{Value::Int(3)}, {Value::Int(4)}});
  Commit(t, {}, {5, 6});
  EXPECT_EQ(t.heap().pending_dead(), 0u);
  EXPECT_EQ(t.CollectGarbage(t.epochs().current()), 0u);
  // An UPDATE stamps one slot; the sweep frees it and empties the list.
  Commit(t, {2}, {20});
  EXPECT_EQ(t.heap().pending_dead(), 1u);
  EXPECT_EQ(t.CollectGarbage(t.epochs().current()), 1u);
  EXPECT_EQ(t.heap().pending_dead(), 0u);
  EXPECT_TRUE(t.heap().payload_cleared(2));
}

TEST(TableTest, PinnedVersionsSurviveASweepAndALaterOneFreesThem) {
  Table t("t", {{"id", ColumnType::kInt}});
  Commit(t, {}, {0, 1, 2, 3});
  Commit(t, {0}, {});  // dead before the pin: free at the first sweep
  SnapshotPin pin(&t.epochs());
  Commit(t, {1, 2}, {10});  // dead after the pin: the snapshot still sees them
  const uint64_t horizon = t.epochs().MinPinnedOr(t.epochs().current());
  EXPECT_EQ(horizon, pin.snapshot());
  EXPECT_EQ(t.CollectGarbage(horizon), 1u);
  EXPECT_TRUE(t.heap().payload_cleared(0));
  EXPECT_FALSE(t.heap().payload_cleared(1));
  EXPECT_EQ(t.heap().row(2)[0].AsInt(), 2);
  EXPECT_EQ(t.heap().pending_dead(), 2u);
  pin.Release();
  EXPECT_EQ(t.CollectGarbage(t.epochs().MinPinnedOr(t.epochs().current())),
            2u);
  EXPECT_TRUE(t.heap().payload_cleared(1));
  EXPECT_TRUE(t.heap().payload_cleared(2));
  EXPECT_FALSE(t.heap().payload_cleared(3));
  EXPECT_EQ(t.heap().pending_dead(), 0u);
}

// The dead-slot sweep must free exactly what a walk over every slot frees:
// a seeded mix of INSERT/UPDATE/DELETE statements, snapshot pins taken and
// released at random, and sweeps at the oldest pin's horizon, checked
// against a reference that tests every slot's end stamp at each sweep.
TEST(TableTest, DeadSlotSweepMatchesAFullWalk) {
  for (uint32_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(seed);
    Table t("t", {{"id", ColumnType::kInt}});
    std::vector<size_t> live;  // visible at the current epoch
    std::vector<bool> reference;
    std::vector<SnapshotPin> pins;
    for (int step = 0; step < 300; ++step) {
      const uint32_t op = rng() % 8;
      if (op < 3 || live.empty()) {  // INSERT of one to three rows
        std::vector<int64_t> rows(1 + rng() % 3, step);
        for (size_t i = 0; i < rows.size(); ++i) {
          live.push_back(t.heap_size() + i);
        }
        Commit(t, {}, rows);
      } else if (op < 6) {  // UPDATE or DELETE of one live row
        const size_t k = rng() % live.size();
        const size_t victim = live[k];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        if (op == 4) {
          live.push_back(t.heap_size());
          Commit(t, {victim}, {step});
        } else {
          Commit(t, {victim}, {});
        }
      } else if (op == 6) {
        if (pins.size() < 3 && rng() % 2 == 0) {
          pins.emplace_back(&t.epochs());
        } else if (!pins.empty()) {
          pins.erase(pins.begin() +
                     static_cast<std::ptrdiff_t>(rng() % pins.size()));
        }
      } else {
        const uint64_t horizon = t.epochs().MinPinnedOr(t.epochs().current());
        size_t expect_freed = 0;
        reference.resize(t.heap_size(), false);
        for (size_t pos = 0; pos < t.heap_size(); ++pos) {
          if (!reference[pos] && t.heap().end_epoch(pos) <= horizon) {
            reference[pos] = true;
            ++expect_freed;
          }
        }
        ASSERT_EQ(t.CollectGarbage(horizon), expect_freed) << "step " << step;
        for (size_t pos = 0; pos < t.heap_size(); ++pos) {
          ASSERT_EQ(t.heap().payload_cleared(pos), reference[pos])
              << "step " << step << ", slot " << pos;
        }
      }
    }
  }
}

TEST(RowHeapTest, AppendAcrossBucketsKeepsPositionsStable) {
  RowHeap heap;
  constexpr size_t kRows = RowHeap::kFirstBucketSize * 3 + 17;
  std::vector<const Row*> borrowed;
  for (size_t i = 0; i < kRows; ++i) {
    size_t pos = heap.Append({Value::Int(static_cast<int64_t>(i))}, 1);
    EXPECT_EQ(pos, i);
    borrowed.push_back(&heap.row(i));
  }
  EXPECT_EQ(heap.size(), kRows);
  // Rows never move: pointers taken at append time stay valid.
  for (size_t i = 0; i < kRows; i += 97) {
    EXPECT_EQ(&heap.row(i), borrowed[i]);
    EXPECT_EQ(heap.row(i)[0].AsInt(), static_cast<int64_t>(i));
  }
  // Locate walks the geometric buckets: 512, 1024, 2048, ... slots.
  size_t bucket = 0, offset = 0;
  for (size_t pos = 0; pos < kRows; ++pos) {
    size_t b, off;
    RowHeap::Locate(pos, &b, &off);
    if (offset == (RowHeap::kFirstBucketSize << bucket)) {
      ++bucket;
      offset = 0;
    }
    ASSERT_EQ(b, bucket) << pos;
    ASSERT_EQ(off, offset) << pos;
    ++offset;
  }
  EXPECT_EQ(bucket, 2u);
}

TEST(RowHeapTest, VisibilityWindow) {
  RowHeap heap;
  heap.Append({Value::Int(1)}, /*begin=*/5);
  EXPECT_FALSE(heap.VisibleAt(0, 4));
  EXPECT_TRUE(heap.VisibleAt(0, 5));
  heap.MarkDead(0, /*end=*/9);
  EXPECT_TRUE(heap.VisibleAt(0, 8));
  EXPECT_FALSE(heap.VisibleAt(0, 9));
  EXPECT_EQ(heap.begin_epoch(0), 5u);
  EXPECT_EQ(heap.end_epoch(0), 9u);
}

// The slots a range heap scan of `t` at `snapshot` hands over, pulled
// `capacity` at a time, as slots-only batches or as borrowed rows with
// their slots. `counters` receives the scan's visibility counters.
std::vector<size_t> ScanSlots(const Table& t, uint64_t snapshot,
                              bool slots_only, size_t capacity,
                              std::vector<HeapScanOperator::CodedFilter> coded,
                              MvccScanCounters* counters) {
  HeapScanOperator scan(t.schema(), &t.heap(), t.HeapSizeAt(snapshot),
                        snapshot, counters, std::move(coded));
  std::vector<size_t> slots;
  EXPECT_TRUE(scan.Open().ok());
  RowBatch batch;
  batch.capacity = capacity;
  batch.slots_only = slots_only;
  while (true) {
    auto more = scan.NextBatch(&batch);
    EXPECT_TRUE(more.ok());
    if (!more.ok() || !*more) break;
    EXPECT_LE(batch.selected(), capacity);
    if (slots_only) {
      EXPECT_TRUE(batch.rows.empty());
      EXPECT_TRUE(batch.sel.empty());
      slots.insert(slots.end(), batch.slots.begin(), batch.slots.end());
      continue;
    }
    EXPECT_EQ(batch.rows.size(), batch.slots.size());
    for (uint32_t idx : batch.sel) {
      EXPECT_EQ(&batch.rows[idx].row(), &t.heap().row(batch.slots[idx]));
      slots.push_back(batch.slots[idx]);
    }
  }
  scan.Close();
  return slots;
}

// A range scan tests visibility by the heap's ended bytes alone, relying on
// every slot below HeapSizeAt(S) having begin <= S. Over seeded
// INSERT/UPDATE/DELETE scripts (failing multi-row INSERTs and sweeps under
// pinned snapshots included), at every retained snapshot the slots-only
// scan, the row scan and a VisibleAt walk over [0, HeapSizeAt(S)) must
// agree slot for slot, with and without a coded filter, at batch sizes
// that make a run stop mid-way; the scan's counters must count exactly the
// code matches and the invisible ones among them.
TEST(HeapScanVisibilityTest, SlotsOnlyRowAndWalkAgreeAtEverySnapshot) {
  uint64_t swept = 0;  // payloads the sweeps freed, over all seeds
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(seed);
    Connection conn;
    // The test reads the heap directly between statements, so only the
    // sweep after each UPDATE/DELETE (on this thread, at the oldest pin's
    // horizon) may free payloads, not the background reclaimer.
    ASSERT_TRUE(conn.Execute("SET mvcc_gc_background = off").ok());
    ASSERT_TRUE(conn.Execute("CREATE TABLE t (id INTEGER, tag TEXT)").ok());
    Table* t = *conn.database().catalog().GetTable("t");
    const auto& gc_cleared = conn.database().executor().stats().gc_cleared;
    std::vector<SnapshotPin> pins;
    int next_id = 0;
    for (int step = 0; step < 80; ++step) {
      const uint32_t op = rng() % 10;
      const std::string tag = "'tag" + std::to_string(rng() % 3) + "'";
      if (op < 4) {  // multi-row INSERT, sometimes across a bucket boundary
        const int rows = 1 + static_cast<int>(rng() % (op == 0 ? 400 : 4));
        std::string sql = "INSERT INTO t VALUES ";
        for (int i = 0; i < rows; ++i) {
          sql += (i ? ", (" : "(") + std::to_string(next_id++) + ", 'tag" +
                 std::to_string(rng() % 3) + "')";
        }
        ASSERT_TRUE(conn.Execute(sql).ok()) << sql;
      } else if (op == 4) {  // a multi-row INSERT whose last row fails
        const size_t before = t->heap_size();
        ASSERT_FALSE(conn.Execute("INSERT INTO t VALUES (" +
                                  std::to_string(next_id) +
                                  ", 'tag0'), ('x', 'tag1')")
                         .ok());
        ASSERT_EQ(t->heap_size(), before);
      } else if (op < 7) {
        ASSERT_TRUE(conn.Execute("UPDATE t SET tag = " + tag +
                                 " WHERE id % 7 = " +
                                 std::to_string(rng() % 7))
                        .ok());
      } else if (op == 7) {
        ASSERT_TRUE(conn.Execute("DELETE FROM t WHERE id % 11 = " +
                                 std::to_string(rng() % 11))
                        .ok());
      } else if (op == 8) {
        if (pins.size() < 4 && rng() % 3 != 0) {
          pins.emplace_back(&t->epochs());
        } else if (!pins.empty()) {
          pins.erase(pins.begin() +
                     static_cast<std::ptrdiff_t>(rng() % pins.size()));
        }
      } else {  // one row's DELETE, then the sweep under the pins held
        ASSERT_TRUE(conn.Execute("DELETE FROM t WHERE id = " +
                                 std::to_string(rng() % (next_id + 1)))
                        .ok());
      }

      std::vector<uint64_t> snapshots = {t->epochs().current()};
      for (const SnapshotPin& pin : pins) snapshots.push_back(pin.snapshot());
      for (uint64_t snap : snapshots) {
        const size_t n = t->HeapSizeAt(snap);
        std::vector<uint8_t> truth;
        const ColumnCodes* codes = t->CodesFor(
            1, n, [](const Value& v) { return v.AsText() == "tag1"; },
            &truth);
        ASSERT_NE(codes, nullptr);
        std::vector<size_t> visible, coded_visible;
        uint64_t coded_matches = 0;
        for (size_t pos = 0; pos < n; ++pos) {
          ASSERT_LE(t->heap().begin_epoch(pos), snap) << "slot " << pos;
          size_t len = 0;
          const bool match = truth[*codes->Run(pos, &len)] != 0;
          coded_matches += match;
          if (!t->heap().VisibleAt(pos, snap)) continue;
          visible.push_back(pos);
          if (match) coded_visible.push_back(pos);
        }
        for (size_t capacity : {size_t{1}, size_t{7}, kRowBatchCapacity}) {
          for (bool slots_only : {false, true}) {
            SCOPED_TRACE("step " + std::to_string(step) + ", snapshot " +
                         std::to_string(snap) + ", capacity " +
                         std::to_string(capacity) +
                         (slots_only ? ", slots only" : ", rows"));
            ASSERT_EQ(ScanSlots(*t, snap, slots_only, capacity, {}, nullptr),
                      visible);
            MvccScanCounters counters;
            ASSERT_EQ(ScanSlots(*t, snap, slots_only, capacity,
                                {{codes, truth}}, &counters),
                      coded_visible);
            EXPECT_EQ(counters.versions_scanned.load(), coded_matches);
            EXPECT_EQ(counters.versions_skipped.load(),
                      coded_matches - coded_visible.size());
          }
        }
      }
    }
    swept += gc_cleared.load();
  }
  EXPECT_GT(swept, 0u);
}

// A writer end-stamps and appends while readers scan at their pinned
// snapshots: the ended bytes and end stamps race the scans, yet the
// slots-only scan, the row scan and a VisibleAt walk agree at every
// snapshot (stamps of later epochs never hide a version from it). Runs in
// the CI TSan job.
TEST(HeapScanVisibilityTest, ScansAgreeWhileAWriterStamps) {
  Table t("t", {{"id", ColumnType::kInt}});
  std::vector<Row> initial;
  for (int i = 0; i < 1500; ++i) initial.push_back({Value::Int(i)});
  t.BulkLoadUnchecked(std::move(initial));
  std::atomic<bool> done{false};
  std::thread writer([&]() {
    std::mt19937 rng(7);
    std::vector<size_t> live(1500);
    for (size_t i = 0; i < live.size(); ++i) live[i] = i;
    for (int statement = 0; statement < 1500; ++statement) {
      const uint64_t commit = t.epochs().BeginWrite();
      for (int k = 0; k < 4 && !live.empty(); ++k) {
        const size_t victim = rng() % live.size();
        t.MarkDeleted(live[victim], commit);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        if (rng() % 2 == 0) {  // an UPDATE: the new version
          live.push_back(t.AppendVersion({Value::Int(statement)}, commit));
        }
      }
      t.SealVersion(commit);
      t.epochs().Publish(commit);
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });
  size_t rounds = 0;
  while (!done.load(std::memory_order_acquire) || rounds < 3) {
    SnapshotPin pin(&t.epochs());
    const uint64_t snap = pin.snapshot();
    const std::vector<size_t> by_slot =
        ScanSlots(t, snap, /*slots_only=*/true, kRowBatchCapacity, {}, nullptr);
    const std::vector<size_t> by_row = ScanSlots(
        t, snap, /*slots_only=*/false, kRowBatchCapacity, {}, nullptr);
    std::vector<size_t> walk;
    bool sealed = true;
    const size_t n = t.HeapSizeAt(snap);
    for (size_t pos = 0; pos < n; ++pos) {
      sealed = sealed && t.heap().begin_epoch(pos) <= snap;
      if (t.heap().VisibleAt(pos, snap)) walk.push_back(pos);
    }
    // EXPECT, not ASSERT: the writer thread must be joined.
    EXPECT_TRUE(sealed) << "snapshot " << snap;
    EXPECT_EQ(by_slot, walk) << "snapshot " << snap;
    EXPECT_EQ(by_row, walk) << "snapshot " << snap;
    ++rounds;
    if (::testing::Test::HasFailure()) break;
  }
  writer.join();
}

TEST(EpochManagerTest, PinTracksOldestSnapshot) {
  EpochManager epochs;
  EXPECT_EQ(epochs.MinPinnedOr(42), 42u);
  const uint64_t e1 = epochs.BeginWrite();
  epochs.Publish(e1);
  SnapshotPin a(&epochs);
  EXPECT_EQ(a.snapshot(), e1);
  const uint64_t e2 = epochs.BeginWrite();
  epochs.Publish(e2);
  SnapshotPin b(&epochs);
  EXPECT_EQ(b.snapshot(), e2);
  EXPECT_EQ(epochs.pinned_count(), 2u);
  EXPECT_EQ(epochs.MinPinnedOr(e2), e1);
  a.Release();
  EXPECT_EQ(epochs.MinPinnedOr(0), e2);
  // Moved-from pins do not double-unpin.
  SnapshotPin c = std::move(b);
  EXPECT_FALSE(b.pinned());  // NOLINT(bugprone-use-after-move)
  c.Release();
  EXPECT_EQ(epochs.pinned_count(), 0u);
}

TEST(EpochManagerTest, AmbientSnapshotScopeNests) {
  EXPECT_FALSE(HasAmbientSnapshot());
  EXPECT_EQ(AmbientSnapshotOr(7), 7u);
  {
    ScopedSnapshot outer(10);
    EXPECT_EQ(AmbientSnapshotOr(7), 10u);
    {
      ScopedSnapshot inner(11);
      EXPECT_EQ(AmbientSnapshotOr(7), 11u);
    }
    EXPECT_EQ(AmbientSnapshotOr(7), 10u);
  }
  EXPECT_FALSE(HasAmbientSnapshot());
}

TEST(IndexTest, LookupAndStaleness) {
  Table t("t", {{"id", ColumnType::kInt}, {"grp", ColumnType::kText}});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        t.Insert({Value::Int(i), Value::Text(i % 2 ? "odd" : "even")}).ok());
  }
  Index idx("by_grp", &t, {1});
  EXPECT_EQ(idx.Lookup({Value::Text("odd")}).size(), 5u);
  EXPECT_EQ(idx.Lookup({Value::Text("none")}).size(), 0u);
  EXPECT_EQ(idx.NumDistinctKeys(), 2u);
  // Mutation is picked up on the next lookup.
  ASSERT_TRUE(t.Insert({Value::Int(10), Value::Text("even")}).ok());
  EXPECT_EQ(idx.Lookup({Value::Text("even")}).size(), 6u);
}

TEST(IndexTest, RangeLookup) {
  Table t("t", {{"v", ColumnType::kInt}});
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(t.Insert({Value::Int(i)}).ok());
  Index idx("by_v", &t, {0});
  const Value lo = Value::Int(5), hi = Value::Int(8);
  auto hits = idx.RangeLookupBounds(&lo, &hi);
  EXPECT_EQ(hits.size(), 4u);
}

TEST(CatalogTest, CreateGetDropTable) {
  Catalog c;
  ASSERT_TRUE(c.CreateTable("T1", Cols(), false).ok());
  EXPECT_TRUE(c.HasTable("t1"));  // case-insensitive
  EXPECT_TRUE(c.GetTable("T1").ok());
  // Duplicate.
  EXPECT_TRUE(c.CreateTable("t1", Cols(), false).IsAlreadyExists());
  EXPECT_TRUE(c.CreateTable("t1", Cols(), true).ok());  // IF NOT EXISTS
  ASSERT_TRUE(c.Drop(Statement::DropKind::kTable, "t1", false).ok());
  EXPECT_FALSE(c.HasTable("t1"));
  EXPECT_TRUE(
      c.Drop(Statement::DropKind::kTable, "t1", false).IsNotFound());
  EXPECT_TRUE(c.Drop(Statement::DropKind::kTable, "t1", true).ok());
}

TEST(CatalogTest, DuplicateColumnRejected) {
  Catalog c;
  EXPECT_FALSE(c.CreateTable("t", {{"a", ColumnType::kInt},
                                   {"A", ColumnType::kInt}},
                             false)
                   .ok());
}

TEST(CatalogTest, IndexLifecycle) {
  Catalog c;
  ASSERT_TRUE(c.CreateTable("t", Cols(), false).ok());
  ASSERT_TRUE(c.CreateIndex("i1", "t", {"id"}).ok());
  EXPECT_TRUE(c.CreateIndex("i1", "t", {"id"}).IsAlreadyExists());
  EXPECT_FALSE(c.CreateIndex("i2", "t", {"missing"}).ok());
  EXPECT_EQ(c.IndexesOn("t").size(), 1u);
  EXPECT_NE(c.FindIndex("t", {0}), nullptr);
  EXPECT_EQ(c.FindIndex("t", {1}), nullptr);
  // Dropping the table drops its indexes.
  ASSERT_TRUE(c.Drop(Statement::DropKind::kTable, "t", false).ok());
  EXPECT_EQ(c.IndexesOn("t").size(), 0u);
}

TEST(CatalogTest, ViewsShareNamespaceWithTables) {
  Catalog c;
  ASSERT_TRUE(c.CreateTable("t", Cols(), false).ok());
  auto def = std::make_shared<SelectStmt>();
  EXPECT_TRUE(c.CreateView("t", def).IsAlreadyExists());
  ASSERT_TRUE(c.CreateView("v", def).ok());
  EXPECT_TRUE(c.HasView("V"));
  EXPECT_TRUE(c.GetView("v").ok());
  EXPECT_FALSE(c.CreateTable("v", Cols(), false).ok());
  ASSERT_TRUE(c.Drop(Statement::DropKind::kView, "v", false).ok());
  EXPECT_FALSE(c.HasView("v"));
}

}  // namespace
}  // namespace prefsql
