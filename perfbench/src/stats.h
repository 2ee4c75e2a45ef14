// Sample summaries for the benchmark's reported timings.
//
// A percentile is reported only when at least kMinTail samples lie beyond
// it: a p99 over 200 samples would be decided by two requests, so the
// helper refuses it instead of printing a number that does not repeat.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr int64_t kMinTail = 10;

/// Collects samples of one quantity and answers percentile queries.
class Distribution {
 public:
  void Add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  void Merge(const Distribution& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  int64_t count() const { return static_cast<int64_t>(values_.size()); }

  /// Nearest-rank q-quantile (0 < q < 1), or nullopt when fewer than
  /// kMinTail samples lie beyond that rank.
  std::optional<double> Percentile(double q) {
    const int64_t n = count();
    const auto rank =
        static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
    if (rank < 1 || n - rank < kMinTail) return std::nullopt;
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    return values_[static_cast<size_t>(rank - 1)];
  }

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
