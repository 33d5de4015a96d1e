#include <gtest/gtest.h>

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
