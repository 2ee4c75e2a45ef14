// A bounded ring that keeps the most recent `capacity` elements, oldest
// first, evicting (and counting) the oldest once full.  The one ring
// behind the event log and the span tracer.
//
// Storage grows on demand up to the capacity, so a ring nobody writes
// owns no memory and a ring that retains n elements owns about n of them:
// a disabled log or tracer costs nothing however large its configured
// capacity.  Growth doubles, clamped to the capacity, so the vector never
// over-allocates past it.

#ifndef SCREP_OBS_RING_H_
#define SCREP_OBS_RING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace screp::obs {

template <typename T>
class Ring {
 public:
  /// A capacity of 0 is clamped to 1.
  explicit Ring(size_t capacity) : capacity_(std::max<size_t>(capacity, 1)) {}

  /// Appends `value`; when full, overwrites the oldest element and counts
  /// it as dropped.
  void Push(T value) {
    if (items_.size() < capacity_) {
      if (items_.size() == items_.capacity()) {
        const size_t grown = std::max<size_t>(16, 2 * items_.size());
        items_.reserve(std::min(capacity_, grown));
      }
      items_.push_back(std::move(value));
      return;
    }
    items_[head_] = std::move(value);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }

  /// The i-th oldest retained element (0 = oldest).
  const T& operator[](size_t i) const {
    return items_[(head_ + i) % items_.size()];
  }

  /// The retained elements, oldest first.
  std::vector<T> ToVector() const {
    std::vector<T> out;
    out.reserve(items_.size());
    for (size_t i = 0; i < items_.size(); ++i) out.push_back((*this)[i]);
    return out;
  }

  size_t size() const { return items_.size(); }
  /// The configured bound, not the storage currently allocated.
  size_t capacity() const { return capacity_; }
  /// Elements evicted because the ring was full.
  int64_t dropped() const { return dropped_; }

  /// Discards every element, the drop count and the storage.
  void Clear() {
    items_ = std::vector<T>();
    head_ = 0;
    dropped_ = 0;
  }

 private:
  size_t capacity_;
  std::vector<T> items_;
  size_t head_ = 0;  ///< index of the oldest element once full
  int64_t dropped_ = 0;
};

}  // namespace screp::obs

#endif  // SCREP_OBS_RING_H_
