#include "storage/numeric_column.h"

#include <algorithm>
#include <optional>

namespace prefsql {

NumericColumn::~NumericColumn() {
  for (auto& b : values_) delete[] b.load(std::memory_order_relaxed);
  for (auto& b : valid_) delete[] b.load(std::memory_order_relaxed);
}

void NumericColumn::Extend(const RowHeap& heap, size_t col, size_t limit) {
  size_t pos = covered_.load(std::memory_order_relaxed);
  while (pos < limit) {
    size_t b, off;
    RowHeap::Locate(pos, &b, &off);
    const size_t cap = RowHeap::kFirstBucketSize << b;
    double* values = values_[b].load(std::memory_order_relaxed);
    uint8_t* valid = valid_[b].load(std::memory_order_relaxed);
    if (values == nullptr) {
      values = new double[cap];
      valid = new uint8_t[cap];
      values_[b].store(values, std::memory_order_release);
      valid_[b].store(valid, std::memory_order_release);
    }
    const size_t end = std::min(limit, pos + (cap - off));
    for (; pos < end; ++pos, ++off) {
      // A payload the GC freed belongs to a version no snapshot that can
      // still start sees; it reads as invalid.
      std::optional<double> n;
      if (!heap.payload_cleared(pos)) n = heap.row(pos)[col].ToNumeric();
      values[off] = n.value_or(0.0);
      valid[off] = n.has_value() ? 1 : 0;
    }
    covered_.store(pos, std::memory_order_release);
  }
}

}  // namespace prefsql
