#include "replication/conflict_index.h"

namespace screp {

void CommittedKeyIndex::Insert(const WriteSet& ws, const Hit& hit,
                               const ShardMap* map, ShardId shard) {
  for (const WriteOp& op : ws.ops) {
    if (map != nullptr && map->ShardOf(op.table) != shard) continue;
    // Versions are assigned in submission order, so a plain overwrite
    // always leaves the newest version behind.
    latest_[TableKey{op.table, op.key}] = hit;
    if (track_ranges_) by_table_[op.table][op.key] = hit;
  }
}

void CommittedKeyIndex::Erase(const WriteSet& ws, DbVersion version,
                              const ShardMap* map, ShardId shard) {
  for (const WriteOp& op : ws.ops) {
    if (map != nullptr && map->ShardOf(op.table) != shard) continue;
    auto it = latest_.find(TableKey{op.table, op.key});
    if (it == latest_.end() || it->second.version != version) {
      continue;  // a later writeset overwrote this key; keep it indexed
    }
    latest_.erase(it);
    if (track_ranges_) {
      auto tit = by_table_.find(op.table);
      if (tit != by_table_.end()) {
        tit->second.erase(op.key);
        if (tit->second.empty()) by_table_.erase(tit);
      }
    }
  }
}

bool CommittedKeyIndex::LatestWriteConflict(const WriteSet& ws,
                                            DbVersion snapshot,
                                            Hit* hit) const {
  Hit best;
  for (const WriteOp& op : ws.ops) {
    auto it = latest_.find(TableKey{op.table, op.key});
    if (it == latest_.end()) continue;
    if (it->second.version > snapshot && it->second.version > best.version) {
      best = it->second;
    }
  }
  if (best.version == kNoVersion) return false;
  *hit = best;
  return true;
}

bool CommittedKeyIndex::LatestReadConflict(const WriteSet& ws,
                                           DbVersion snapshot,
                                           Hit* hit) const {
  Hit best;
  for (const auto& [table, key] : ws.read_keys) {
    auto it = latest_.find(TableKey{table, key});
    if (it == latest_.end()) continue;
    if (it->second.version > snapshot && it->second.version > best.version) {
      best = it->second;
    }
  }
  for (const ReadRange& range : ws.read_ranges) {
    auto tit = by_table_.find(range.table);
    if (tit == by_table_.end()) continue;
    const std::map<int64_t, Hit>& keys = tit->second;
    for (auto it = keys.lower_bound(range.lo);
         it != keys.end() && it->first <= range.hi; ++it) {
      if (it->second.version > snapshot &&
          it->second.version > best.version) {
        best = it->second;
      }
    }
  }
  if (best.version == kNoVersion) return false;
  *hit = best;
  return true;
}

void CommittedKeyIndex::Clear() {
  latest_.clear();
  by_table_.clear();
}

void PendingApplyIndex::Insert(const WriteSet& ws,
                               const ShardVersions& versions, bool is_local) {
  for (const WriteOp& op : ws.ops) {
    keys_[TableKey{op.table, op.key}][VersionOf(op, versions)] =
        Slot{is_local, /*dispatched=*/false};
  }
}

void PendingApplyIndex::MarkDispatched(const WriteSet& ws,
                                       const ShardVersions& versions) {
  for (const WriteOp& op : ws.ops) {
    auto it = keys_.find(TableKey{op.table, op.key});
    if (it == keys_.end()) continue;
    auto vit = it->second.find(VersionOf(op, versions));
    if (vit != it->second.end()) vit->second.dispatched = true;
  }
}

void PendingApplyIndex::Erase(const WriteSet& ws,
                              const ShardVersions& versions) {
  for (const WriteOp& op : ws.ops) {
    auto it = keys_.find(TableKey{op.table, op.key});
    if (it == keys_.end()) continue;
    it->second.erase(VersionOf(op, versions));
    if (it->second.empty()) keys_.erase(it);
  }
}

bool PendingApplyIndex::ConflictsWithQueuedRefresh(
    const WriteSet& partial) const {
  for (const WriteOp& op : partial.ops) {
    auto it = keys_.find(TableKey{op.table, op.key});
    if (it == keys_.end()) continue;
    for (const auto& [version, slot] : it->second) {
      (void)version;
      if (!slot.is_local && !slot.dispatched) return true;
    }
  }
  return false;
}

bool PendingApplyIndex::BlockedByEarlier(const WriteSet& ws,
                                         const ShardVersions& versions) const {
  for (const WriteOp& op : ws.ops) {
    auto it = keys_.find(TableKey{op.table, op.key});
    if (it == keys_.end()) continue;
    // The version map is ordered: the first entry is the oldest
    // un-published write to this key.
    if (!it->second.empty() &&
        it->second.begin()->first < VersionOf(op, versions)) {
      return true;
    }
  }
  return false;
}

}  // namespace screp
