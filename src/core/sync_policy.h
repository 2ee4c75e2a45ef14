// SyncPolicy — the load balancer's version-tagging brain.
//
// This class combines the trackers (V_system, per-table V_t, session map,
// each kept per shard) and answers the two questions the load balancer
// asks on every message:
//
//  * request path:  with what version requirement do I tag this new
//    transaction? (paper §IV-A/B/C; eager requires nothing)
//  * response path: which trackers advance when a commit acknowledgment
//    (tagged with V_local and the written tables' new versions) flows back
//    to the client?
//
// Keeping this logic in one policy object is what lets the same load
// balancer run any of the four consistency configurations.

#ifndef SCREP_CORE_SYNC_POLICY_H_
#define SCREP_CORE_SYNC_POLICY_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/shard_coords.h"
#include "core/consistency_level.h"
#include "core/session_tracker.h"
#include "core/table_version_tracker.h"
#include "core/version_tracker.h"
#include "obs/eventlog.h"

namespace screp {

/// Per-level synchronization policy for transaction starts.
///
/// Every tracker is kept per shard, in that shard's own version space
/// (paper §IV's V_system, V_t and session versions, one set per
/// certifier lane).  With one shard — every table in shard 0 — this is
/// exactly the paper's single-stream policy.
class SyncPolicy {
 public:
  /// `table_to_shard[t]` assigns each table its shard (empty: every table
  /// in shard 0 of a one-shard configuration).
  SyncPolicy(ConsistencyLevel level, size_t table_count,
             DbVersion staleness_bound = 0,
             std::vector<ShardId> table_to_shard = {}, int shard_count = 1)
      : level_(level),
        staleness_bound_(staleness_bound),
        table_to_shard_(std::move(table_to_shard)),
        conservative_floor_(static_cast<size_t>(shard_count), 0),
        system_versions_(static_cast<size_t>(shard_count)),
        table_versions_(table_count),
        sessions_(static_cast<size_t>(shard_count)) {
    SCREP_CHECK(shard_count >= 1);
    if (table_to_shard_.empty()) table_to_shard_.assign(table_count, 0);
  }

  ConsistencyLevel level() const { return level_; }
  DbVersion staleness_bound() const { return staleness_bound_; }
  int shard_count() const { return static_cast<int>(sessions_.size()); }

  /// Which tracker the version tag comes from under this level — i.e.
  /// where the auditor attributes any blocked BEGIN (or, for eager, ack)
  /// time in the staleness report.
  obs::WaitCause wait_cause() const {
    switch (level_) {
      case ConsistencyLevel::kEager:
        return obs::WaitCause::kEagerGlobal;
      case ConsistencyLevel::kLazyCoarse:
        return obs::WaitCause::kSystemVersion;
      case ConsistencyLevel::kLazyFine:
        return obs::WaitCause::kTableVersion;
      case ConsistencyLevel::kSession:
        return obs::WaitCause::kSessionVersion;
      case ConsistencyLevel::kBoundedStaleness:
        return obs::WaitCause::kStalenessBound;
    }
    return obs::WaitCause::kNone;
  }

  /// Fail-over recovery: a freshly promoted load balancer has lost the
  /// soft tracker state, so it must not *under*-synchronize.  Setting a
  /// conservative floor per shard (each certifier lane's current commit
  /// version) makes every non-eager requirement in that shard at least
  /// its floor — over-waiting is safe, under-waiting would silently
  /// weaken the guarantee.
  void SetConservativeFloor(const ShardVersions& floors) {
    for (const auto& [s, floor] : floors) {
      DbVersion& f = conservative_floor_[static_cast<size_t>(s)];
      f = std::max(f, floor);
      system_versions_[static_cast<size_t>(s)].OnCommitAcknowledged(floor);
    }
  }
  DbVersion conservative_floor(ShardId shard = 0) const {
    return conservative_floor_[static_cast<size_t>(shard)];
  }

  /// The version each shard in `shards` (the transaction's sorted
  /// shard-set) must have published at the destination replica before a
  /// transaction from `session` with the given table-set may BEGIN.
  /// All zeros under the eager scheme, where synchronization happens at
  /// commit instead.
  ShardVersions RequiredStartVersion(
      SessionId session, const std::vector<ShardId>& shards,
      const std::vector<TableId>& table_set) const {
    ShardVersions required;
    required.reserve(shards.size());
    for (ShardId s : shards) {
      const auto idx = static_cast<size_t>(s);
      DbVersion v = 0;
      switch (level_) {
        case ConsistencyLevel::kEager:
          required.emplace_back(s, 0);
          continue;
        case ConsistencyLevel::kLazyCoarse:
        case ConsistencyLevel::kBoundedStaleness:
          v = system_versions_[idx].RequiredVersion();
          break;
        case ConsistencyLevel::kLazyFine:
          // V_t values are shard-local: the fine-grained max is taken
          // over the table-set's tables in this shard.
          for (TableId t : table_set) {
            SCREP_CHECK(t >= 0 &&
                        static_cast<size_t>(t) < table_to_shard_.size());
            if (table_to_shard_[static_cast<size_t>(t)] == s) {
              v = std::max(v, table_versions_.TableVersion(t));
            }
          }
          break;
        case ConsistencyLevel::kSession:
          v = sessions_[idx].RequiredVersion(session);
          break;
      }
      v = std::max(conservative_floor_[idx], v);
      if (level_ == ConsistencyLevel::kBoundedStaleness) {
        v = v > staleness_bound_ ? v - staleness_bound_ : 0;
      }
      required.emplace_back(s, v);
    }
    return required;
  }

  /// Processes a commit acknowledgment flowing back through the load
  /// balancer: `locals` is the replica's published version per hosted
  /// shard when it committed (the V_local tag), `written_table_versions`
  /// the (table, new V_t) pairs for tables the transaction wrote, each in
  /// its table's shard (empty for read-only transactions).
  void OnCommitAcknowledged(
      SessionId session, const ShardVersions& locals,
      const std::vector<std::pair<TableId, DbVersion>>&
          written_table_versions) {
    // All trackers are maintained regardless of level: they are cheap,
    // and experiments can then report e.g. "how stale would SC have been"
    // under any configuration.
    for (const auto& [s, v] : locals) {
      system_versions_[static_cast<size_t>(s)].OnCommitAcknowledged(v);
      sessions_[static_cast<size_t>(s)].OnCommitAcknowledged(session, v);
    }
    table_versions_.Merge(written_table_versions);
  }

  /// Drops a finished session's tracker entries.  Session state is soft:
  /// a later request from the same SID simply re-creates it (with the
  /// conservative floor still applied), so ending early is always safe —
  /// but never ending it grows the maps by one entry per session forever.
  void EndSession(SessionId session) {
    for (SessionTracker& shard_sessions : sessions_) {
      shard_sessions.EndSession(session);
    }
  }

  /// One shard's V_system tracker.
  const VersionTracker& system_version(ShardId shard = 0) const {
    return system_versions_[static_cast<size_t>(shard)];
  }
  const TableVersionTracker& table_versions() const {
    return table_versions_;
  }
  /// One shard's session map.
  const SessionTracker& sessions(ShardId shard = 0) const {
    return sessions_[static_cast<size_t>(shard)];
  }

 private:
  ConsistencyLevel level_;
  DbVersion staleness_bound_;
  std::vector<ShardId> table_to_shard_;
  std::vector<DbVersion> conservative_floor_;
  std::vector<VersionTracker> system_versions_;
  TableVersionTracker table_versions_;
  std::vector<SessionTracker> sessions_;
};

}  // namespace screp

#endif  // SCREP_CORE_SYNC_POLICY_H_
