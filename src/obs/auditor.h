// Online consistency auditor: a live EventLog sink that incrementally
// re-checks the paper's guarantees while the run is still going, so a
// violation is flagged at the moment it happens — with the full causal
// chain (the offending transaction, its snapshot, the conflicting
// commit) — instead of at end-of-run by the offline checkers.
//
// Checks, in event order:
//  * admission   — a BEGIN must be admitted only once the replica reached
//                  the version tag (V_local >= required).  This is the
//                  implementation invariant everything else rests on; the
//                  test-only ProxyConfig::test_skip_version_check knob
//                  exists precisely to prove this check fires.
//  * route       — the load balancer must never tag a transaction with a
//                  version the certifier has not issued.
//  * total-order — certified commit versions are dense and unique;
//                  snapshots never exceed the latest issued version, and
//                  an update's snapshot precedes its commit version.
//  * apply-order — every replica commits writesets in exactly the
//                  certifier's version order, with no gaps.  A replica
//                  rejoining from a peer's snapshot (kRecover "snapshot")
//                  resumes the order at the snapshot's version, which
//                  must not go backwards or past the certifier.
//  * fcw         — generalized snapshot isolation first-committer-wins:
//                  no two committed concurrent updates overlap in their
//                  writesets.
//  * definition1 — strong consistency (paper Definition 1), incremental
//                  form: per table, the max commit version among update
//                  transactions acknowledged before T submitted must not
//                  exceed T's snapshot (only for configurations that
//                  promise strong consistency).
//  * definition2 — session consistency (paper Definition 2): the same
//                  condition restricted to T's own session.
//
// The auditor also performs the staleness attribution of the audit
// report: histograms (in the shared MetricsRegistry) of each BEGIN's
// version lag behind the certifier and the virtual-time age of its
// snapshot.  The begin-blocked-time-by-cause histograms are recorded by
// the proxies themselves (they know the wait); everything lands under
// the "staleness." prefix.

#ifndef SCREP_OBS_AUDITOR_H_
#define SCREP_OBS_AUDITOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/shard_coords.h"
#include "obs/eventlog.h"
#include "obs/metrics_registry.h"

namespace screp::obs {

/// Registry names of the auditor-owned staleness histograms.
inline constexpr char kVersionLagHistogram[] =
    "staleness.version_lag_at_begin";
inline constexpr char kSnapshotAgeHistogram[] =
    "staleness.snapshot_age_at_begin_us";
/// Prefix of the proxy-recorded blocked-time-by-cause histograms
/// ("staleness.blocked.<cause>_us").
inline constexpr char kBlockedHistogramPrefix[] = "staleness.blocked.";

struct AuditorConfig {
  /// Check Definition 1 (strong consistency).  Off for configurations
  /// that only promise session consistency (SC, bounded staleness).
  bool check_strong = true;
  /// Check Definition 2 (session consistency).  Off for bounded
  /// staleness, which bounds a snapshot's lag behind V_system without
  /// consulting session versions — a session may legally read a snapshot
  /// older than its own last write.
  bool check_session = true;
  /// Violations retained verbatim (the count keeps running past it).
  size_t max_recorded_violations = 100;
};

/// Incremental checker over the event stream.
class Auditor {
 public:
  /// `registry` (may be null) receives the staleness histograms.
  /// `table_to_shard[t]` assigns tables to the `shard_count` shards of a
  /// partitioned configuration (empty: one shard holding every table).
  /// Every check runs over the events' per-shard coordinates: commit
  /// versions are dense per shard, and first-committer-wins plus
  /// Definitions 1 and 2 compare a table's versions only within its own
  /// shard, where they remain totally ordered.  With one shard this is
  /// exactly the single-stream audit.
  Auditor(AuditorConfig config, MetricsRegistry* registry,
          std::vector<int32_t> table_to_shard = {}, int shard_count = 1);

  /// The EventLog sink.
  void OnEvent(const Event& event);

  struct Violation {
    std::string check;  ///< "admission", "fcw", "definition1", ...
    TxnId txn = 0;      ///< the offending transaction
    TimePoint at = 0;     ///< virtual time the violation was detected
    std::string detail; ///< full causal chain, human-readable
  };

  bool ok() const { return violation_count_ == 0; }
  /// Violations found so far (capped; see violation_count() for totals).
  const std::vector<Violation>& violations() const { return violations_; }
  int64_t violation_count() const { return violation_count_; }
  int64_t events_consumed() const { return events_; }
  /// Non-vacuous checks evaluated (evidence the audit did something).
  int64_t checks_performed() const { return checks_; }

  /// Latest commit version the auditor has seen certified (shard 0's).
  DbVersion max_commit_version() const { return shard_max_commit_version(0); }
  /// Latest certified version of one shard.
  DbVersion shard_max_commit_version(int32_t shard) const {
    return max_version_[static_cast<size_t>(shard)];
  }

  /// {"ok":...,"events":N,"checks":N,"violations_total":N,
  ///  "violations":[{"check","txn","at","detail"},...]}.
  std::string ToJson() const;

  /// One-line human summary ("audit OK: ..." / "audit FAILED: ...").
  std::string Summary() const;

 private:
  /// One acked committed update writing some table, in ack order; the
  /// stored version is the running prefix max so "latest version
  /// acknowledged before time t" is one binary search.
  struct AckedWrite {
    TimePoint ack_time = 0;
    DbVersion version = 0;  ///< prefix max of commit versions so far
    TxnId txn = 0;          ///< transaction achieving that max
  };
  using AckedWriteLog = std::vector<AckedWrite>;

  /// A committed update retained for first-committer-wins checking.
  struct CommittedUpdate {
    TxnId txn = 0;
    DbVersion snapshot = 0;
    std::vector<std::pair<TableId, int64_t>> keys_written;
  };

  void AddViolation(const char* check, TxnId txn, TimePoint at,
                    std::string detail);
  void OnCertVerdict(const Event& e);
  void OnBegin(const Event& e);
  void OnApply(const Event& e);
  void OnSnapshotInstalled(const Event& e);
  void OnFinished(const Event& e);
  /// " in shard S" in a partitioned configuration, "" with one shard.
  std::string InShard(int32_t shard) const;
  /// Latest acknowledged (before `deadline`) committed write to `table`
  /// in `log`; nullptr when none.
  static const AckedWrite* LatestAckedBefore(const AckedWriteLog& log,
                                             TimePoint deadline);

  AuditorConfig config_;
  MetricsRegistry* registry_;
  Histogram* version_lag_hist_ = nullptr;
  Histogram* snapshot_age_hist_ = nullptr;

  int64_t events_ = 0;
  int64_t checks_ = 0;
  int64_t violation_count_ = 0;
  std::vector<Violation> violations_;

  int shard_count_;
  std::vector<int32_t> table_to_shard_;
  /// Per shard: the latest issued version, and version -> (txn, certify
  /// time), pruned to a recent window.
  std::vector<DbVersion> max_version_;
  std::vector<std::map<DbVersion, std::pair<TxnId, TimePoint>>> certified_;
  /// Per shard: commit version -> the writes made in that shard, for
  /// first-committer-wins.
  std::vector<std::map<DbVersion, CommittedUpdate>> committed_updates_;
  /// (replica * shard_count + shard) -> last applied version (apply-order
  /// check).
  std::unordered_map<int64_t, DbVersion> applied_;
  /// Per-table ack-ordered prefix-max logs (Definition 1), in each
  /// table's shard-local version space (a table never changes shard).
  std::unordered_map<TableId, AckedWriteLog> acked_writes_;
  /// The same, per session (Definition 2).
  std::unordered_map<SessionId,
                     std::unordered_map<TableId, AckedWriteLog>>
      session_writes_;
};

}  // namespace screp::obs

#endif  // SCREP_OBS_AUDITOR_H_
