#include "replication/shard_map.h"

#include <algorithm>

#include "common/logging.h"

namespace screp {

ShardMap::ShardMap(size_t table_count, int shards) : shards_(shards) {
  SCREP_CHECK_MSG(shards >= 1, "shard count must be positive");
  table_to_shard_.resize(table_count);
  for (size_t t = 0; t < table_count; ++t) {
    table_to_shard_[t] = static_cast<ShardId>(t % static_cast<size_t>(shards));
  }
}

ShardMap::ShardMap(std::vector<ShardId> table_to_shard, int shards)
    : table_to_shard_(std::move(table_to_shard)), shards_(shards) {
  SCREP_CHECK_MSG(shards >= 1, "shard count must be positive");
  for (ShardId s : table_to_shard_) {
    SCREP_CHECK_MSG(s >= 0 && s < shards_, "table assigned to shard " << s
                                               << " outside [0, " << shards_
                                               << ")");
  }
}

ShardId ShardMap::ShardOf(TableId table) const {
  if (shards_ == 1) return 0;  // one shard holds every table
  SCREP_CHECK_MSG(table >= 0 &&
                      static_cast<size_t>(table) < table_to_shard_.size(),
                  "table " << table << " not covered by the shard map");
  return table_to_shard_[static_cast<size_t>(table)];
}

std::vector<ShardId> ShardMap::ShardsOfTables(
    const std::vector<TableId>& tables) const {
  std::vector<ShardId> shards;
  shards.reserve(tables.size());
  for (TableId t : tables) shards.push_back(ShardOf(t));
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  return shards;
}

std::vector<ShardId> ShardMap::ShardsOf(const WriteSet& ws) const {
  std::vector<ShardId> shards;
  shards.reserve(ws.ops.size() + ws.read_keys.size());
  for (const WriteOp& op : ws.ops) shards.push_back(ShardOf(op.table));
  for (const auto& [table, key] : ws.read_keys) {
    (void)key;
    shards.push_back(ShardOf(table));
  }
  for (const ReadRange& range : ws.read_ranges) {
    shards.push_back(ShardOf(range.table));
  }
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  return shards;
}

WriteSet ShardMap::SubWriteSet(const WriteSet& ws, ShardId shard) const {
  WriteSet sub;
  sub.txn_id = ws.txn_id;
  sub.origin = ws.origin;
  for (const WriteOp& op : ws.ops) {
    if (ShardOf(op.table) != shard) continue;
    sub.ops.push_back(op);
  }
  for (const auto& read : ws.read_keys) {
    if (ShardOf(read.first) != shard) continue;
    sub.read_keys.push_back(read);
  }
  for (const ReadRange& range : ws.read_ranges) {
    if (ShardOf(range.table) != shard) continue;
    sub.read_ranges.push_back(range);
  }
  return sub;
}

}  // namespace screp
