// Static shard map for partitioned certification (Sutra & Shapiro-style
// partial replication over the paper's middleware).
//
// The certification stream is split into K lanes by *table*: every table
// belongs to exactly one shard, a writeset's shard-set is the set of
// shards its tables (written, read, or range-scanned) fall into, and a
// replica may host a subset of the shards.  Tables are the partition
// unit because the paper's own fine-grained machinery (table-sets,
// per-table V_t) is already table-granular: the load balancer can
// compute a transaction's shard-set statically from its declared
// table-set, before any data is touched.
//
// The default assignment is round-robin (table t -> t mod K), which
// spreads the KvGrid/TPC-W table heat evenly; an explicit per-table
// assignment can be injected for skewed schemas.

#ifndef SCREP_REPLICATION_SHARD_MAP_H_
#define SCREP_REPLICATION_SHARD_MAP_H_

#include <cstdint>
#include <vector>

#include "common/shard_coords.h"
#include "common/types.h"
#include "storage/write_set.h"

namespace screp {

/// Immutable table -> shard assignment shared by the certifier's lanes,
/// the proxies, the load balancer and the auditor.
class ShardMap {
 public:
  /// Round-robin assignment: table t -> t mod shards.
  ShardMap(size_t table_count, int shards);

  /// Explicit assignment: `table_to_shard[t]` in [0, shards).
  ShardMap(std::vector<ShardId> table_to_shard, int shards);

  int shard_count() const { return shards_; }
  size_t table_count() const { return table_to_shard_.size(); }

  /// The shard holding `table` (with one shard: 0 for every table).
  ShardId ShardOf(TableId table) const;

  /// Sorted distinct shards touched by `tables`.
  std::vector<ShardId> ShardsOfTables(
      const std::vector<TableId>& tables) const;

  /// Sorted distinct shards a writeset touches.  Includes the shards of
  /// its *read* keys and ranges: in serializable certification the lane
  /// owning a read's table must also vote, or a read-write conflict in
  /// that shard would go unchecked.
  std::vector<ShardId> ShardsOf(const WriteSet& ws) const;

  /// `ws` restricted to one shard: only the ops / read keys / read
  /// ranges whose tables live in `shard`, with the replication header
  /// (txn, origin) copied.  `commit_version` / `snapshot_version` are
  /// left for the caller to stamp in the shard's own version space.
  WriteSet SubWriteSet(const WriteSet& ws, ShardId shard) const;

  /// The table -> shard assignment (for the auditor's config).
  const std::vector<ShardId>& table_to_shard() const {
    return table_to_shard_;
  }

 private:
  std::vector<ShardId> table_to_shard_;
  int shards_;
};

}  // namespace screp

#endif  // SCREP_REPLICATION_SHARD_MAP_H_
