#include "storage/column_codes.h"

#include <algorithm>
#include <cstring>

namespace prefsql {

ColumnCodes::~ColumnCodes() {
  for (auto& b : buckets_) delete[] b.load(std::memory_order_relaxed);
}

const uint16_t* ColumnCodes::Run(size_t pos, size_t* len) const {
  size_t b, off;
  RowHeap::Locate(pos, &b, &off);
  *len = (RowHeap::kFirstBucketSize << b) - off;
  return buckets_[b].load(std::memory_order_acquire) + off;
}

int32_t ColumnCodes::CodeOf(const Value& v) {
  const auto next = static_cast<int32_t>(values_.size());
  auto admit = [&]() -> bool {
    if (values_.size() >= kMaxDistinct) return false;
    values_.push_back(v);
    return true;
  };
  if (v.is_null()) {
    if (null_code_ < 0) {
      if (!admit()) return -1;
      null_code_ = next;
    }
    return null_code_;
  }
  if (v.type() == ValueType::kText) {
    auto it = texts_.find(std::string_view(v.AsText()));
    if (it != texts_.end()) return it->second;
    if (!admit()) return -1;
    texts_.emplace(v.AsText(), static_cast<uint16_t>(next));
    return next;
  }
  ScalarKey key{v.type(), 0};
  switch (v.type()) {
    case ValueType::kBool:
      key.bits = v.AsBool() ? 1 : 0;
      break;
    case ValueType::kInt:
      key.bits = static_cast<uint64_t>(v.AsInt());
      break;
    case ValueType::kDouble: {
      const double d = v.AsDouble();
      std::memcpy(&key.bits, &d, sizeof d);
      break;
    }
    case ValueType::kDate:
      key.bits = static_cast<uint64_t>(v.AsDateDays());
      break;
    default:
      return -1;  // parameters never reach a heap
  }
  auto it = scalars_.find(key);
  if (it != scalars_.end()) return it->second;
  if (!admit()) return -1;
  scalars_.emplace(key, static_cast<uint16_t>(next));
  return next;
}

void ColumnCodes::Extend(const RowHeap& heap, size_t col, size_t limit) {
  if (refused_) return;
  static const Value kNull;
  size_t pos = covered_.load(std::memory_order_relaxed);
  while (pos < limit) {
    size_t b, off;
    RowHeap::Locate(pos, &b, &off);
    const size_t cap = RowHeap::kFirstBucketSize << b;
    uint16_t* bucket = buckets_[b].load(std::memory_order_relaxed);
    if (bucket == nullptr) {
      bucket = new uint16_t[cap];
      buckets_[b].store(bucket, std::memory_order_release);
    }
    const size_t end = std::min(limit, pos + (cap - off));
    for (; pos < end; ++pos, ++off) {
      // A payload the GC freed belongs to a version no snapshot that can
      // still start sees; any code serves it, NULL's keeps the row unread.
      const int32_t code =
          CodeOf(heap.payload_cleared(pos) ? kNull : heap.row(pos)[col]);
      if (code < 0) {
        refused_ = true;
        covered_.store(pos, std::memory_order_release);
        return;
      }
      bucket[off] = static_cast<uint16_t>(code);
    }
    covered_.store(pos, std::memory_order_release);
  }
}

}  // namespace prefsql
