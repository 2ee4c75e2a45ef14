// Per-shard version coordinates.
//
// Partitioned certification gives every shard its own dense version
// space, so a writeset, decision, routed request or event is located by
// one (shard, version) pair per shard it touches.  With one shard (K = 1)
// the list would only repeat the scalar version, so messages and events
// carry an empty list there and the scalar alone — K = 1 wire bytes, WAL
// records and event-log lines are exactly those of the single-stream
// design.  ShardCoords reads either form; ShardCoordsField writes it.

#ifndef SCREP_COMMON_SHARD_COORDS_H_
#define SCREP_COMMON_SHARD_COORDS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"

namespace screp {

/// Dense shard identifier in [0, shard_count).
using ShardId = int32_t;

/// Sparse (shard, version) list, sorted by shard.
using ShardVersions = std::vector<std::pair<ShardId, DbVersion>>;

/// Looks a shard's entry up in a (shard, version) list; `missing` when
/// absent.
inline DbVersion ShardVersionOf(const ShardVersions& versions, ShardId shard,
                                DbVersion missing = 0) {
  for (const auto& [s, v] : versions) {
    if (s == shard) return v;
  }
  return missing;
}

/// The (shard, version) coordinates of a writeset, decision, request or
/// event: its per-shard list, or — when that list is empty, as it always
/// is at K = 1 — the scalar version as shard 0's.  A non-owning view over
/// `per_shard`, which must outlive it.
class ShardCoords {
 public:
  using Entry = std::pair<ShardId, DbVersion>;

  ShardCoords(const ShardVersions& per_shard, DbVersion scalar)
      : per_shard_(per_shard.empty() ? nullptr : &per_shard),
        scalar_{0, scalar} {}

  const Entry* begin() const {
    return per_shard_ != nullptr ? per_shard_->data() : &scalar_;
  }
  const Entry* end() const {
    return per_shard_ != nullptr ? per_shard_->data() + per_shard_->size()
                                 : &scalar_ + 1;
  }
  size_t size() const {
    return per_shard_ != nullptr ? per_shard_->size() : 1;
  }
  const Entry& front() const { return *begin(); }

  /// One shard's version; `missing` when the coordinates omit it.
  DbVersion Of(ShardId shard, DbVersion missing = 0) const {
    for (const Entry& e : *this) {
      if (e.first == shard) return e.second;
    }
    return missing;
  }

  ShardVersions ToVector() const { return ShardVersions(begin(), end()); }

 private:
  const ShardVersions* per_shard_;
  Entry scalar_;
};

/// The producer side: `coords` as the per-shard field of a message or
/// event in a `shard_count`-shard configuration — empty at K = 1, where
/// the scalar beside it says everything.
inline ShardVersions ShardCoordsField(ShardVersions coords, int shard_count) {
  if (shard_count == 1) return {};
  return coords;
}

}  // namespace screp

#endif  // SCREP_COMMON_SHARD_COORDS_H_
