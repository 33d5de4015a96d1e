#include "storage/table.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "types/date.h"
#include "util/string_util.h"

namespace prefsql {

uint64_t Table::NextId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Table::Table(std::string name, std::vector<ColumnDef> columns,
             EpochManager* epochs)
    : name_(std::move(name)), columns_(std::move(columns)) {
  if (epochs == nullptr) {
    owned_epochs_ = std::make_unique<EpochManager>();
    epochs_ = owned_epochs_.get();
  } else {
    epochs_ = epochs;
  }
  std::vector<ColumnInfo> infos;
  infos.reserve(columns_.size());
  for (const auto& c : columns_) infos.push_back({"", c.name});
  schema_ = Schema(std::move(infos));
  seals_.push_back({0, 0});
  codes_.resize(columns_.size());
  numbers_.resize(columns_.size());
}

Result<size_t> Table::ColumnIndex(const std::string& column) const {
  auto idx = FindNameIgnoreCase(
      columns_, column, [](const ColumnDef& c) { return std::string_view(c.name); });
  if (idx) return *idx;
  return Status::NotFound("no column '" + column + "' in table " + name_);
}

Result<Value> Table::CoerceToColumn(size_t col, Value value) const {
  if (value.is_null()) return value;
  switch (columns_[col].type) {
    case ColumnType::kInt:
      if (value.type() == ValueType::kInt) return value;
      if (value.type() == ValueType::kDouble) {
        double d = value.AsDouble();
        if (d == std::floor(d)) return Value::Int(static_cast<int64_t>(d));
      }
      break;
    case ColumnType::kDouble:
      if (value.type() == ValueType::kDouble) return value;
      if (value.type() == ValueType::kInt) {
        return Value::Double(static_cast<double>(value.AsInt()));
      }
      break;
    case ColumnType::kText:
      if (value.type() == ValueType::kText) return value;
      // Render non-text scalars; keeps INSERT ergonomics close to SQLite.
      return Value::Text(value.ToString());
    case ColumnType::kBool:
      if (value.type() == ValueType::kBool) return value;
      if (value.type() == ValueType::kInt) {
        return Value::Bool(value.AsInt() != 0);
      }
      break;
    case ColumnType::kDate:
      if (value.type() == ValueType::kDate) return value;
      if (value.type() == ValueType::kText) {
        auto days = ParseDate(value.AsText());
        if (days) return Value::Date(*days);
      }
      if (value.type() == ValueType::kInt) return Value::Date(value.AsInt());
      break;
  }
  return Status::InvalidArgument(
      "cannot store " + std::string(ValueTypeToString(value.type())) +
      " value '" + value.ToString() + "' in column " + name_ + "." +
      columns_[col].name);
}

Result<Row> Table::CoerceRow(Row row) const {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "INSERT into " + name_ + " expects " +
        std::to_string(columns_.size()) + " values, got " +
        std::to_string(row.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    PSQL_ASSIGN_OR_RETURN(row[i], CoerceToColumn(i, std::move(row[i])));
  }
  return row;
}

Status Table::Insert(Row row) {
  PSQL_ASSIGN_OR_RETURN(row, CoerceRow(std::move(row)));
  uint64_t commit = epochs_->BeginWrite();
  heap_.Append(std::move(row), commit);
  SealVersion(commit);
  epochs_->Publish(commit);
  return Status::OK();
}

void Table::BulkLoadUnchecked(std::vector<Row> rows) {
  uint64_t commit = epochs_->BeginWrite();
  for (auto& r : rows) heap_.Append(std::move(r), commit);
  SealVersion(commit);
  epochs_->Publish(commit);
}

void Table::SealVersion(uint64_t commit_epoch) {
  uint64_t v = version_.load(std::memory_order_relaxed) + 1;
  version_.store(v, std::memory_order_release);
  std::lock_guard<std::mutex> g(seal_mu_);
  seals_.push_back({commit_epoch, heap_.size()});
}

size_t Table::HeapSizeAt(uint64_t snapshot) const {
  std::lock_guard<std::mutex> g(seal_mu_);
  // Last seal with epoch <= snapshot (seals_ ascends; seeded with epoch 0).
  auto it = std::upper_bound(
      seals_.begin(), seals_.end(), snapshot,
      [](uint64_t snap, const Seal& s) { return snap < s.epoch; });
  return it == seals_.begin() ? 0 : std::prev(it)->heap_size;
}

size_t Table::NumVisibleAt(uint64_t snapshot) const {
  size_t n = HeapSizeAt(snapshot);
  size_t visible = 0;
  for (size_t pos = 0; pos < n; ++pos) {
    if (heap_.VisibleAt(pos, snapshot)) ++visible;
  }
  return visible;
}

const ColumnCodes* Table::CodesFor(
    size_t col, size_t limit, const std::function<bool(const Value&)>& test,
    std::vector<uint8_t>* truth) const {
  std::lock_guard<std::mutex> g(codes_mu_);
  std::unique_ptr<ColumnCodes>& codes = codes_[col];
  if (codes == nullptr) codes = std::make_unique<ColumnCodes>();
  if (codes->covered() < limit) codes->Extend(heap_, col, limit);
  if (codes->refused()) return nullptr;
  truth->clear();
  truth->reserve(codes->values().size());
  for (const Value& v : codes->values()) truth->push_back(test(v) ? 1 : 0);
  return codes.get();
}

const NumericColumn& Table::NumbersFor(size_t col, size_t limit) const {
  std::lock_guard<std::mutex> g(codes_mu_);
  std::unique_ptr<NumericColumn>& numbers = numbers_[col];
  if (numbers == nullptr) numbers = std::make_unique<NumericColumn>();
  if (numbers->covered() < limit) numbers->Extend(heap_, col, limit);
  return *numbers;
}

size_t Table::CollectGarbage(uint64_t horizon) {
  size_t freed = heap_.CollectGarbage(horizon);
  std::lock_guard<std::mutex> g(seal_mu_);
  // Keep the last seal at or below the horizon (it resolves HeapSizeAt for
  // the horizon snapshot itself) and everything after it.
  auto it = std::upper_bound(
      seals_.begin(), seals_.end(), horizon,
      [](uint64_t snap, const Seal& s) { return snap < s.epoch; });
  if (it != seals_.begin()) --it;
  seals_.erase(seals_.begin(), it);
  return freed;
}

}  // namespace prefsql
