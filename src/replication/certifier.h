// The certifier (paper §IV, following Tashkent): decides update-transaction
// commits, maintains the global commit order, makes decisions durable, and
// fans refresh writesets out to the other replicas.
//
// Certification is first-committer-wins over writesets: a transaction T can
// commit iff its writeset does not write-conflict with the writesets of
// transactions that committed since T's snapshot.  Commit versions are
// dense: V_commit increases by one per certified commit.
//
// Durability is enforced here (replicas run with log forcing off): each
// certified writeset is appended to the certifier's WAL and forced to a
// simulated disk.  Forces are group-committed — all decisions waiting while
// the disk is busy share the next force.
//
// In the eager configuration the certifier additionally counts per-replica
// commit notifications and tells the originating replica when a
// transaction is *globally* committed (§IV-D).

#ifndef SCREP_REPLICATION_CERTIFIER_H_
#define SCREP_REPLICATION_CERTIFIER_H_

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/eager_tracker.h"
#include "obs/observability.h"
#include "replication/conflict_index.h"
#include "replication/message.h"
#include "sim/resource.h"
#include "runtime/runtime.h"
#include "storage/wal.h"
#include "storage/write_set.h"

namespace screp {

/// What certification guarantees (paper §IV: the prototype provides GSI;
/// the serializable mode additionally aborts read-write conflicts, the
/// standard upgrade for workloads that are not serializable under SI).
enum class CertificationMode {
  /// Generalized snapshot isolation: first-committer-wins on write-write
  /// conflicts only.
  kGsi = 0,
  /// Update-serializability: additionally aborts a transaction whose
  /// *read set* intersects the writes of transactions committed since its
  /// snapshot (write-skew / phantom protection).
  kSerializable,
};

/// Tuning knobs for the certifier.
struct CertifierConfig {
  /// CPU time to certify one writeset (conflict check + bookkeeping).
  Duration certify_cpu_time = Micros(120);
  /// Disk time for one forced log write (shared by a group-commit batch).
  Duration log_force_time = Millis(0.8);
  /// Certification guarantee.
  CertificationMode mode = CertificationMode::kGsi;
  /// Cap on the recent committed writesets retained for conflict
  /// checking (PruneThrough usually keeps far fewer); transactions with
  /// snapshots older than the window are conservatively aborted.
  size_t conflict_window = 100000;
  /// DEBUG ONLY: decide by linearly rescanning the whole conflict window
  /// (the pre-index brute-force path) instead of the keyed conflict
  /// index.  Kept as the oracle for property tests and the certification
  /// microbenchmark; decisions are identical either way.
  bool linear_scan_oracle = false;
  /// Coalesce each group-commit force's refresh fan-out into one message
  /// per target replica (amortizing per-message latency exactly where
  /// the batch already exists).  Off by default: one message per
  /// writeset per target, the original fan-out schedule.
  bool refresh_batching = false;
  /// Bound on the certification intake queue (0 = unbounded).  A
  /// submission finding the CPU queue at the bound is refused on arrival
  /// with an `overloaded` decision instead of queueing — backpressure
  /// the proxy surfaces to the client as TxnOutcome::kOverloaded.
  size_t max_intake = 0;
  /// Credit-based refresh flow control (0 = off): at most this many
  /// unacknowledged refresh writesets are in flight per target replica.
  /// Fan-out past the window is deferred here and sent — coalesced into
  /// one batch — as the replica returns credits on publish, so a slow
  /// replica bounds the certifier's and its own memory instead of
  /// accumulating writesets without limit.
  size_t refresh_credit_window = 0;
  /// Cap on the writesets one disk force covers (0 = unbounded, the
  /// original behaviour: each force takes everything that accumulated
  /// while the previous one was in flight).  A finite cap trades more
  /// forces for a smoother refresh stream: unbounded group commits
  /// release their whole batch's fan-out in one burst, which at high
  /// load queues the replicas' apply lanes and inflates local update
  /// commit latency (bench/saturation --batch-sweep measures this).
  size_t max_force_batch = 0;
  /// Partitioned certification: number of certifier lanes (K).  1 (the
  /// default) runs this class — the paper's single certification stream,
  /// byte-identical to every pre-sharding configuration.  K > 1 makes
  /// the system construct a ShardedCertifier (sharded_certifier.h)
  /// instead: K lanes sharded by table, each with its own conflict
  /// window, WAL force stream and refresh fan-out, plus a sequencer for
  /// cross-shard transactions.
  int shard_lanes = 1;
};

/// Central certification service.
class Certifier {
 public:
  using DecisionCallback =
      std::function<void(ReplicaId origin, const CertDecision&)>;
  using RefreshCallback =
      std::function<void(ReplicaId target, const RefreshBatch&)>;
  using GlobalCommitCallback =
      std::function<void(ReplicaId origin, TxnId txn)>;
  using ForwardCallback = std::function<void(const WriteSet&)>;

  Certifier(runtime::Runtime* rt, CertifierConfig config, int replica_count,
            bool eager);

  /// Wires the decision channel back to replica proxies.
  void SetDecisionCallback(DecisionCallback cb) {
    decision_cb_ = std::move(cb);
  }
  /// Wires the refresh fan-out channel.
  void SetRefreshCallback(RefreshCallback cb) { refresh_cb_ = std::move(cb); }
  /// Wires global-commit notifications (eager mode only).
  void SetGlobalCommitCallback(GlobalCommitCallback cb) {
    global_commit_cb_ = std::move(cb);
  }

  /// State-machine replication: every certification request is forwarded
  /// (in processing order, before its decision is announced) to a standby
  /// certifier, which processes the identical deterministic stream.
  void SetForwardCallback(ForwardCallback cb) { forward_cb_ = std::move(cb); }

  /// Mutes/unmutes this certifier's outward channels (decision, refresh,
  /// global-commit). A standby runs muted until promoted.
  void SetMuted(bool muted) { muted_ = muted; }
  bool muted() const { return muted_; }

  /// Attaches the system's observability layer: certification and
  /// group-commit spans, abort counters and batch-size distribution.
  /// Only the active (unmuted) certifier should be attached — a standby
  /// processes the identical stream and would double-count.
  void SetObservability(obs::Observability* obs);

  /// Submits an update transaction's writeset for certification.
  /// `ws.origin` and `ws.snapshot_version` must be filled in.
  void SubmitCertification(WriteSet ws);

  /// Eager mode: a replica reports having committed `txn` (locally or as
  /// a refresh). When all live replicas have, the origin gets the
  /// global-commit notification.
  void NotifyReplicaCommitted(TxnId txn);

  /// Refresh flow control: `replica` published `credits` refresh
  /// writesets and frees that much of its window.  Deferred writesets
  /// drain to it as one coalesced batch, up to the credits available.
  void OnCreditReturned(ReplicaId replica, int credits);

  /// Membership: marks a replica crashed. Refresh fan-out skips it, and in
  /// eager mode pending global commits stop waiting for it (it will catch
  /// up from this certifier's durable log on recovery).
  void MarkReplicaDown(ReplicaId replica);

  /// Membership: marks a replica live again (recovery started).
  void MarkReplicaUp(ReplicaId replica);

  /// True when `replica` is currently marked down.
  bool IsReplicaDown(ReplicaId replica) const;

  /// Recovery catch-up: invokes `sink` with every committed writeset with
  /// commit_version in (from, CommitVersion()], in version order: the
  /// durable log's suffix when the window does not reach back to `from`,
  /// then the window.
  Status FetchSince(DbVersion from,
                    const std::function<void(const WriteSet&)>& sink) const;

  /// Low-water-mark sweep.  `horizon` is the oldest snapshot any replica
  /// that is not crashed may still certify against; writesets at or
  /// below it can conflict with no such snapshot, so they leave the
  /// window and its index, and decisions made before it are retired.
  /// Later snapshots below the mark are window-aborted.  Monotone.
  void PruneThrough(DbVersion horizon);

  /// Standby: applies `primary`'s current mark once this certifier's
  /// stream reaches the primary's position, so a late forward is decided
  /// against the same window the primary used.
  void MirrorPruneOf(const Certifier& primary);

  /// The prune mark: snapshots below it are window-aborted.
  DbVersion pruned_through() const { return pruned_through_; }

  /// Latest assigned commit version.
  DbVersion CommitVersion() const { return v_commit_; }

  /// Distinct (table, key) coordinates currently indexed over the
  /// conflict window (0 in linear-scan-oracle mode).
  size_t conflict_index_size() const { return conflict_index_.size(); }
  /// Decisions retained for failover idempotence (bounded by the
  /// conflict window).
  size_t decided_size() const { return decided_.size(); }
  /// Committed writesets held in the conflict window.
  size_t retained_writesets() const { return recent_.size(); }

  int64_t certified_count() const { return certified_; }
  int64_t abort_count() const { return aborts_; }
  /// Submissions refused at the intake bound (never certified).
  int64_t shed_count() const { return shed_; }
  /// Refresh credits currently available for `replica`.
  int64_t refresh_credits(ReplicaId replica) const {
    return refresh_credits_[static_cast<size_t>(replica)];
  }
  /// Refresh writesets deferred (awaiting credits) across all replicas.
  size_t deferred_refresh_total() const {
    size_t total = 0;
    for (const auto& q : deferred_refresh_) total += q.size();
    return total;
  }
  /// Aborts caused by read-write conflicts (serializable mode only).
  int64_t rw_abort_count() const { return rw_aborts_; }
  /// Aborts caused by the conflict window being exceeded (should be 0).
  int64_t window_abort_count() const { return window_aborts_; }

  const Wal& wal() const { return wal_; }
  Resource* cpu() { return &cpu_; }
  Resource* disk() { return &disk_; }

  /// Writesets certified but still waiting for the in-flight disk force
  /// (the next group-commit batch) — an instantaneous queue-depth gauge.
  size_t force_batch_pending() const { return force_batch_.size(); }

  bool eager() const { return eager_; }
  int replica_count() const { return replica_count_; }

 private:
  /// Runs after CPU service: the actual certification decision.
  void Certify(WriteSet ws);
  /// Records a decision for failover idempotence.
  void RecordDecision(const CertDecision& decision);
  /// Standby: applies mirrored prune marks the stream has reached.
  void ApplyDuePrunes();
  /// Evicts window writesets at or below the prune mark that are durable
  /// (FetchSince serves the rest from the window).
  void EvictWindow();
  /// Appends to the durable log via group commit, then announces.  The
  /// writeset is frozen (immutable, shared) by this point: the force
  /// batch, the refresh fan-out and the conflict window all reference
  /// the same object.
  void MakeDurableAndAnnounce(WriteSetRef ws);
  /// Forces the pending batch (up to max_force_batch writesets) to
  /// disk; reschedules itself while decisions keep arriving.
  void ForceNext();
  /// Sends the commit decision + per-writeset refresh fan-out for one
  /// durable writeset (the unbatched announcement path).
  void Announce(const WriteSetRef& ws);
  /// Sends one writeset's commit decision to its origin.
  void AnnounceDecision(const WriteSet& ws);
  /// Refresh-batching: sends each live replica one message carrying the
  /// whole force batch (minus writesets it originated).
  void AnnounceRefreshBatches(const std::vector<WriteSetRef>& batch);
  /// Refuses one submission at the intake bound: an immediate
  /// `overloaded` decision, no certification, no standby forward.
  void ShedSubmission(const WriteSet& ws);
  /// Sends `ws` to `replica` now if a credit is available (or flow
  /// control is off), otherwise defers it until credits return.
  void SendRefresh(ReplicaId replica, const WriteSetRef& ws);

  runtime::Runtime* rt_;
  CertifierConfig config_;
  int replica_count_;
  bool eager_;

  Resource cpu_;
  Resource disk_;

  DbVersion v_commit_ = 0;
  /// Committed writesets, ascending by commit version, for conflict
  /// checks (evicted once at or below the prune mark and durable).
  /// Frozen references: the same objects flow through the force batch
  /// and the refresh fan-out without being copied again.
  std::deque<WriteSetRef> recent_;
  /// Max of the horizon marks and v_commit_ - conflict_window.
  /// Certification depends on it alone, not on what has been evicted.
  DbVersion pruned_through_ = 0;
  DbVersion durable_version_ = 0;  // newest version in wal_
  /// Submissions past the idempotence check: the stream position,
  /// identical on primary and standby.
  uint64_t stream_position_ = 0;
  /// Standby: (primary stream position, mark) not yet reached.
  std::deque<std::pair<uint64_t, DbVersion>> mirrored_prunes_;
  /// Keyed index over `recent_`: (table, key) -> newest committed write
  /// (plus per-table ordered maps in serializable mode), making a
  /// certification O(|writeset|) lookups instead of a window rescan.
  /// Not maintained in linear-scan-oracle mode.
  CommittedKeyIndex conflict_index_;

  /// Writesets certified but awaiting the in-flight disk force.
  std::vector<WriteSetRef> force_batch_;
  bool force_in_flight_ = false;

  EagerCommitTracker eager_tracker_;
  std::unordered_map<TxnId, ReplicaId> eager_origins_;
  std::vector<bool> replica_down_;

  /// Refresh flow control (only consulted when refresh_credit_window >
  /// 0): per-replica credits remaining, and writesets deferred in
  /// commit-version order until the replica returns credits.
  std::vector<int64_t> refresh_credits_;
  std::vector<std::deque<WriteSetRef>> deferred_refresh_;

  Wal wal_;
  int64_t certified_ = 0;
  int64_t aborts_ = 0;
  int64_t window_aborts_ = 0;
  int64_t rw_aborts_ = 0;
  int64_t shed_ = 0;

  /// Certification is idempotent: re-submissions after a failover get the
  /// original decision back instead of being re-decided.  Bounded: a
  /// decision is retired once made before the prune mark (`decided_log_`
  /// remembers the commit version current at each decision, in order):
  /// a transaction decided at version c had a snapshot <= c, so below
  /// the horizon no live replica still waits on it.
  std::unordered_map<TxnId, CertDecision> decided_;
  std::deque<std::pair<DbVersion, TxnId>> decided_log_;

  bool muted_ = false;

  /// Appends a kCertVerdict event (no-op without an event log or while
  /// muted — a standby re-decides the identical stream).
  void EmitVerdict(const WriteSet& ws, bool commit, const char* reason,
                   DbVersion conflict_version, TxnId conflict_txn);

  // Observability (all optional; null until SetObservability).
  obs::Tracer* tracer_ = nullptr;
  obs::EventLog* event_log_ = nullptr;
  /// Certification-done times of commits awaiting their group-commit
  /// force, for the "certifier.force_wait" span (tracing only).
  std::unordered_map<TxnId, TimePoint> certify_done_at_;
  obs::Counter* ctr_certified_ = nullptr;
  obs::Counter* ctr_aborts_ww_ = nullptr;
  obs::Counter* ctr_aborts_rw_ = nullptr;
  obs::Counter* ctr_aborts_window_ = nullptr;
  obs::Counter* ctr_forces_ = nullptr;
  obs::Counter* ctr_shed_ = nullptr;
  Histogram* batch_size_hist_ = nullptr;
  obs::Gauge* last_batch_gauge_ = nullptr;

  DecisionCallback decision_cb_;
  RefreshCallback refresh_cb_;
  GlobalCommitCallback global_commit_cb_;
  ForwardCallback forward_cb_;
};

}  // namespace screp

#endif  // SCREP_REPLICATION_CERTIFIER_H_
