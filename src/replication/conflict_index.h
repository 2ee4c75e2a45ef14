// Keyed conflict indexes for the two middleware hot paths (paper §IV).
//
// Certification and refresh application both answer the same question —
// "does this writeset touch a (table, key) some other writeset touched?" —
// and both answered it by brute force: the certifier rescanned its whole
// conflict window with a quadratic per-pair check, and the proxy scanned
// every pending refresh writeset.  The indexes here make both answers
// O(|writeset|) hash lookups:
//
//  * CommittedKeyIndex — the certifier's view of the conflict window:
//    (table, key) -> the *latest* committed version writing that key.
//    Because commit versions only grow, the latest version per key is
//    sufficient for first-committer-wins ("any committed write to this key
//    after my snapshot?") and reports exactly the same conflict the
//    newest-first linear scan reported.  A per-table ordered map over the
//    same entries serves the serializable mode's read-range (phantom)
//    checks.  Entries are pruned as writesets fall out of the window.
//
//  * PendingApplyIndex — the proxy's view of its un-published writesets
//    (queued, executing in an apply lane, or executed and awaiting the
//    in-order version publish).  It answers early certification ("does
//    this partial writeset conflict with a queued refresh?") and the
//    apply-lane dispatch rule ("does this writeset conflict with any
//    earlier un-published writeset?") without scanning the queue.
//
//  * WriteKeySet — a one-shot hash set over one writeset's keys, for
//    checking many other writesets against it (the proxy's abort-on-
//    arriving-refresh sweep over active transactions).

#ifndef SCREP_REPLICATION_CONFLICT_INDEX_H_
#define SCREP_REPLICATION_CONFLICT_INDEX_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/types.h"
#include "replication/shard_map.h"
#include "storage/write_set.h"

namespace screp {

/// One (table, key) coordinate — the unit of write-write conflict.
struct TableKey {
  TableId table = 0;
  int64_t key = 0;
  bool operator==(const TableKey& other) const {
    return table == other.table && key == other.key;
  }
};

struct TableKeyHash {
  size_t operator()(const TableKey& tk) const {
    // splitmix64-style mix of the two coordinates.
    uint64_t x = static_cast<uint64_t>(tk.key) * 0x9e3779b97f4a7c15ULL +
                 static_cast<uint64_t>(static_cast<uint32_t>(tk.table));
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    return static_cast<size_t>(x);
  }
};

/// The certifier's index over the committed conflict window.
class CommittedKeyIndex {
 public:
  /// A conflicting committed write: the version and the transaction that
  /// produced it, plus the certifier's decide sequence number, which
  /// orders hits from indexes with incomparable version spaces.
  struct Hit {
    DbVersion version = kNoVersion;
    TxnId txn = 0;
    int64_t seq = 0;
  };

  /// `track_ranges` additionally maintains the per-table ordered key maps
  /// needed for read-range (phantom) checks — only the serializable
  /// certification mode pays for them.
  explicit CommittedKeyIndex(bool track_ranges)
      : track_ranges_(track_ranges) {}

  /// Indexes a committed writeset's writes as `hit`.  With a `map`, only
  /// the writes to tables of `shard` (one certifier lane's index).
  void Insert(const WriteSet& ws, const Hit& hit,
              const ShardMap* map = nullptr, ShardId shard = 0);

  /// Un-indexes a writeset falling out of the conflict window, where it
  /// was inserted at `version` (same `map`/`shard` restriction).  An
  /// entry is only removed when it still points at that version — a
  /// later write to the same key keeps the key indexed.
  void Erase(const WriteSet& ws, DbVersion version,
             const ShardMap* map = nullptr, ShardId shard = 0);

  /// The newest committed write after `snapshot` to any key `ws` writes;
  /// false when none (the writeset certifies under first-committer-wins).
  bool LatestWriteConflict(const WriteSet& ws, DbVersion snapshot,
                           Hit* hit) const;

  /// The newest committed write after `snapshot` to any key or scanned
  /// range `ws` *read* — the serializable mode's read-write conflict.
  /// Requires `track_ranges`.
  bool LatestReadConflict(const WriteSet& ws, DbVersion snapshot,
                          Hit* hit) const;

  size_t size() const { return latest_.size(); }
  void Clear();

 private:
  bool track_ranges_;
  /// (table, key) -> newest committed write.
  std::unordered_map<TableKey, Hit, TableKeyHash> latest_;
  /// Per-table ordered mirror of `latest_` for range queries.
  std::unordered_map<TableId, std::map<int64_t, Hit>> by_table_;
};

/// The proxy's index over un-published writesets (pending, executing, or
/// awaiting the in-order publish).  Multiple un-published writesets may
/// write the same key (at different versions), so each key maps to a
/// small version-ordered set of entries.  A key's versions are those of
/// its table's shard — the only version space in which writes to it are
/// ordered — so every method takes the writeset's (shard, version)
/// coordinates.
class PendingApplyIndex {
 public:
  /// `map` (which must outlive the index) assigns tables to shards.
  explicit PendingApplyIndex(const ShardMap* map) : map_(map) {}

  /// Indexes a newly arrived writeset (state: queued).
  void Insert(const WriteSet& ws, const ShardVersions& versions,
              bool is_local);

  /// Marks a writeset dispatched to an apply lane.  Dispatched writesets
  /// no longer count as "pending refresh" for early certification — the
  /// pre-lane code checked only the un-dispatched queue — but still block
  /// later conflicting dispatches until published.
  void MarkDispatched(const WriteSet& ws, const ShardVersions& versions);

  /// Removes a writeset at publish time.
  void Erase(const WriteSet& ws, const ShardVersions& versions);

  /// True when any key of `partial` is written by a *queued* (not yet
  /// dispatched) refresh writeset — the early-certification probe run per
  /// update statement of a local transaction.
  bool ConflictsWithQueuedRefresh(const WriteSet& partial) const;

  /// True when any key of `ws` is written by an un-published writeset
  /// with an earlier version in that key's shard — the lane dispatch
  /// rule: such a writeset must execute first.
  bool BlockedByEarlier(const WriteSet& ws,
                        const ShardVersions& versions) const;

  size_t size() const { return keys_.size(); }
  void Clear() { keys_.clear(); }

 private:
  struct Slot {
    bool is_local = false;
    bool dispatched = false;
  };
  /// The version `op` is written at: its table's shard's coordinate.
  DbVersion VersionOf(const WriteOp& op, const ShardVersions& versions) const {
    return ShardVersionOf(versions, map_->ShardOf(op.table));
  }

  const ShardMap* map_;
  /// (table, key) -> shard version -> state of the writeset writing it.
  std::unordered_map<TableKey, std::map<DbVersion, Slot>, TableKeyHash>
      keys_;
};

/// A hash set over one writeset's (table, key) coordinates, for testing
/// many other writesets against it in O(|other|) each.
class WriteKeySet {
 public:
  explicit WriteKeySet(const WriteSet& ws) {
    keys_.reserve(ws.ops.size());
    for (const WriteOp& op : ws.ops) keys_.insert(TableKey{op.table, op.key});
  }

  bool Contains(TableId table, int64_t key) const {
    return keys_.count(TableKey{table, key}) != 0;
  }

  /// Equivalent to WriteSet::ConflictsWith against the indexed writeset.
  bool Intersects(const WriteSet& other) const {
    for (const WriteOp& op : other.ops) {
      if (Contains(op.table, op.key)) return true;
    }
    return false;
  }

 private:
  std::unordered_set<TableKey, TableKeyHash> keys_;
};

}  // namespace screp

#endif  // SCREP_REPLICATION_CONFLICT_INDEX_H_
