// The certifier (paper §IV, following Tashkent): decides update-transaction
// commits, maintains the commit order, makes decisions durable, and fans
// refresh writesets out to the other replicas.
//
// Certification is first-committer-wins over writesets: a transaction T can
// commit iff its writeset does not write-conflict with the writesets of
// transactions that committed since T's snapshot.
//
// The service runs K lanes (CertifierConfig::shard_lanes, default 1), each
// owning one shard of the tables (shard_map.h) end to end: its own CPU and
// disk, its conflict window with a CommittedKeyIndex and a prune mark, its
// WAL and group-commit force stream, its per-replica refresh credits, and
// its own dense version sequence V_s = 1, 2, ... over the writesets that
// touch it.  At K = 1 the single lane is the paper's certifier: one FIFO
// stream, one dense global commit version, and no shard coordinates on any
// writeset, decision or wire message.
//
// A submission enters the decide queue of every lane it touches (its
// shard-set; in serializable mode read keys and ranges count too) and
// costs one certify-CPU service in each (its votes, the per-shard conflict
// work running in parallel).  It is decided once every vote is in and it
// heads every touched queue.  Head-of-all-queues makes the decide order
// deterministic and conflict-safe, and cannot deadlock: the earliest
// undecided submission heads all of its queues.  At K = 1 it is plain
// FIFO.  A commit takes the next version in every touched lane at once
// (its joint commit version) and is announced once every touched lane's
// force has made it durable.
//
// Implemented once, across lanes: the idempotence map for failover
// resubmissions, standby forwarding (state-machine replication) with
// mirrored prunes and muting, eager global-commit tracking (§IV-D),
// replica membership, and the counters, spans and verdict events.

#ifndef SCREP_REPLICATION_CERTIFIER_H_
#define SCREP_REPLICATION_CERTIFIER_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/eager_tracker.h"
#include "obs/observability.h"
#include "replication/conflict_index.h"
#include "replication/message.h"
#include "replication/shard_map.h"
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

/// Tuning knobs for the certifier.  Everything but `shard_lanes` applies
/// per lane.
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
  /// Coalesce each group-commit force's refresh fan-out into one message
  /// per target replica and lane (amortizing per-message latency exactly
  /// where the batch already exists).  Off by default: one message per
  /// writeset per target, the original fan-out schedule.
  bool refresh_batching = false;
  /// Bound on the certification intake queue (0 = unbounded).  A
  /// submission finding a touched lane's CPU queue at the bound is
  /// refused on arrival with an `overloaded` decision instead of queueing
  /// — backpressure the proxy surfaces to the client as
  /// TxnOutcome::kOverloaded.
  size_t max_intake = 0;
  /// Credit-based refresh flow control (0 = off): at most this many
  /// unacknowledged refresh writesets are in flight per target replica
  /// and lane.  Fan-out past the window is deferred here and sent —
  /// coalesced into one batch — as the replica returns credits on
  /// publish, so a slow replica bounds the certifier's and its own memory
  /// instead of accumulating writesets without limit.
  size_t refresh_credit_window = 0;
  /// Cap on the writesets one disk force covers (0 = unbounded, the
  /// original behaviour: each force takes everything that accumulated
  /// while the previous one was in flight).  A finite cap trades more
  /// forces for a smoother refresh stream: unbounded group commits
  /// release their whole batch's fan-out in one burst, which at high
  /// load queues the replicas' apply lanes and inflates local update
  /// commit latency (bench/saturation --batch-sweep measures this).
  size_t max_force_batch = 0;
  /// Partitioned certification: number of certifier lanes (K), sharded
  /// by table.  1 (the default) is the paper's single certification
  /// stream.  The system builds the table -> lane ShardMap from it.
  int shard_lanes = 1;
};

/// Central certification service.
class Certifier {
 public:
  using DecisionCallback =
      std::function<void(ReplicaId origin, const CertDecision&)>;
  /// Refresh fan-out on one lane's stream to one target.  A writeset goes
  /// to each target once, on the lowest-numbered touched lane the target
  /// hosts (always lane 0 at K = 1); the proxy ingests it into every
  /// touched hosted stream.
  using RefreshCallback = std::function<void(
      ShardId lane, ReplicaId target, const RefreshBatch& batch)>;
  using GlobalCommitCallback =
      std::function<void(ReplicaId origin, TxnId txn)>;
  using ForwardCallback = std::function<void(const WriteSet&)>;

  /// `map` assigns tables to lanes; its shard count is K.  The default
  /// one-shard map runs the single stream (no table is ever looked up).
  Certifier(runtime::Runtime* rt, CertifierConfig config, int replica_count,
            bool eager, ShardMap map = ShardMap(0, 1));

  /// Declares each replica's hosted lanes (a missing or empty
  /// per-replica set = hosts everything).  Refresh fan-out skips replicas
  /// hosting none of a writeset's lanes.
  void SetHostedShards(const std::vector<std::vector<ShardId>>& hosted);

  /// Wires the decision channel back to replica proxies.
  void SetDecisionCallback(DecisionCallback cb) {
    decision_cb_ = std::move(cb);
  }
  /// Wires the refresh fan-out channels.
  void SetRefreshCallback(RefreshCallback cb) { refresh_cb_ = std::move(cb); }
  /// Wires global-commit notifications (eager mode only).
  void SetGlobalCommitCallback(GlobalCommitCallback cb) {
    global_commit_cb_ = std::move(cb);
  }

  /// State-machine replication: every certification request is forwarded
  /// (in decide order, before its decision is announced) to a standby
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
  /// `ws.origin` and `ws.snapshot_version` must be filled in; at K > 1
  /// `ws.shard_snapshots` carries the per-lane snapshots (a missing entry
  /// reads as 0 — "saw nothing").
  void SubmitCertification(WriteSet ws);

  /// Eager mode: a replica reports having committed `txn` (locally or as
  /// a refresh). When all live replicas have, the origin gets the
  /// global-commit notification.
  void NotifyReplicaCommitted(TxnId txn);

  /// Refresh flow control: `replica` published `credits` refresh
  /// writesets of `lane`'s stream and frees that much of its window.
  /// Deferred writesets drain to it as one coalesced batch, up to the
  /// credits available.
  void OnCreditReturned(ShardId lane, ReplicaId replica, int credits);

  /// Membership: marks a replica crashed. Refresh fan-out skips it, and in
  /// eager mode pending global commits stop waiting for it (it catches up
  /// on recovery from this certifier's log, or from a peer's snapshot
  /// once the log no longer reaches back to it).
  void MarkReplicaDown(ReplicaId replica);

  /// Membership: marks a replica live again (recovery started).
  void MarkReplicaUp(ReplicaId replica);

  /// True when `replica` is currently marked down.
  bool IsReplicaDown(ReplicaId replica) const;

  /// Catch-up: invokes `sink` with every committed writeset of `lane`
  /// whose lane version is in (from, CommitVersion(lane)], in version
  /// order: the retained log's suffix when the window does not reach
  /// back to `from`, then the window.  Below FetchFloor(lane) it returns
  /// OutOfRange before streaming anything: a caller gets the whole
  /// suffix or nothing, never a stream with a gap.
  Status FetchSince(ShardId lane, DbVersion from,
                    const std::function<void(const WriteSet&)>& sink) const;

  /// The lowest `from` FetchSince(lane, from) serves: the retained log's
  /// first record or the window's front, whichever reaches lower, minus
  /// one.  Log records carry no shard coordinates, so at K > 1 only the
  /// window counts.  Every live replica's V_local is at or above it.
  DbVersion FetchFloor(ShardId lane = 0) const;

  /// Low-water-mark sweep of one lane.  `horizon` is the oldest lane
  /// snapshot any replica that is not crashed may still certify against;
  /// writesets at or below it can conflict with no such snapshot, so they
  /// leave the window and its index, decisions made before it are
  /// retired, and whole log segments at or below it are dropped.  Later
  /// snapshots below the mark are window-aborted.  Monotone.
  void PruneThrough(ShardId lane, DbVersion horizon);

  /// Standby: applies `primary`'s current marks once this certifier's
  /// stream reaches the primary's position in each lane, so a late
  /// forward is decided against the same window the primary used.
  void MirrorPruneOf(const Certifier& primary);

  /// A lane's prune mark: snapshots below it are window-aborted.
  DbVersion pruned_through(ShardId lane = 0) const {
    return lanes_[static_cast<size_t>(lane)]->pruned_through;
  }

  /// Latest commit version assigned in `lane` (at K = 1: the global one).
  DbVersion CommitVersion(ShardId lane = 0) const {
    return lanes_[static_cast<size_t>(lane)]->v_commit;
  }

  int lane_count() const { return static_cast<int>(lanes_.size()); }

  /// Distinct (table, key) coordinates indexed over all conflict windows.
  size_t conflict_index_size() const;
  /// Decisions retained for failover idempotence (bounded by the prune
  /// marks).
  size_t decided_size() const { return decided_.size(); }
  /// Committed writesets held in `lane`'s conflict window.
  size_t retained_writesets(ShardId lane) const {
    return lanes_[static_cast<size_t>(lane)]->recent.size();
  }

  int64_t certified_count() const { return certified_; }
  int64_t abort_count() const { return aborts_; }
  /// Submissions refused at the intake bound (never certified).
  int64_t shed_count() const { return shed_; }
  /// Commits that crossed lanes (joint versions in more than one lane).
  int64_t sequenced_count() const { return sequenced_; }
  /// Refresh credits currently available for `replica` on `lane`.
  int64_t refresh_credits(ShardId lane, ReplicaId replica) const {
    return lanes_[static_cast<size_t>(lane)]
        ->credits[static_cast<size_t>(replica)];
  }
  /// Refresh writesets deferred (awaiting credits) across all streams.
  size_t deferred_refresh_total() const;
  /// Aborts caused by read-write conflicts (serializable mode only).
  int64_t rw_abort_count() const { return rw_aborts_; }
  /// Aborts caused by the conflict window being exceeded (should be 0).
  int64_t window_abort_count() const { return window_aborts_; }

  const Wal& wal(ShardId lane) const {
    return lanes_[static_cast<size_t>(lane)]->wal;
  }
  Resource* cpu(ShardId lane) {
    return &lanes_[static_cast<size_t>(lane)]->cpu;
  }
  Resource* disk(ShardId lane) {
    return &lanes_[static_cast<size_t>(lane)]->disk;
  }

  /// Writesets certified in `lane` but still waiting for its in-flight
  /// disk force (the next group-commit batch) — a queue-depth gauge.
  size_t force_batch_pending(ShardId lane) const {
    return lanes_[static_cast<size_t>(lane)]->force_batch.size();
  }

  bool eager() const { return eager_; }
  int replica_count() const { return replica_count_; }

 private:
  /// One submission on its way through the decide queues.
  struct Submission {
    WriteSet ws;
    std::vector<ShardId> lanes;  ///< touched lanes, ascending
    int votes_outstanding = 0;
  };

  struct Lane {
    Lane(runtime::Runtime* rt, const std::string& name, bool serializable,
         int replica_count, size_t credit_window)
        : cpu(rt, name + "-cpu", 1),
          disk(rt, name + "-disk", 1),
          index(serializable),
          credits(static_cast<size_t>(replica_count),
                  static_cast<int64_t>(credit_window)),
          deferred(static_cast<size_t>(replica_count)) {}

    Resource cpu;
    Resource disk;
    DbVersion v_commit = 0;
    /// Committed writesets touching this lane, ascending by lane version
    /// (evicted once at or below the prune mark and durable).  Frozen
    /// references shared with the other touched lanes, the force batches
    /// and the refresh fan-out — never copied per lane.
    std::deque<WriteSetRef> recent;
    /// Keyed index over this lane's writes in `recent`: (table, key) ->
    /// newest committed write (plus per-table ordered maps in
    /// serializable mode), making a conflict check O(|writeset|) lookups.
    CommittedKeyIndex index;
    /// Max of the horizon marks and v_commit - conflict_window.
    /// Certification depends on it alone, not on what has been evicted.
    DbVersion pruned_through = 0;
    DbVersion durable_version = 0;  ///< newest lane version in `wal`
    Wal wal;
    /// Writesets certified but awaiting the in-flight disk force.
    std::vector<WriteSetRef> force_batch;
    bool force_in_flight = false;
    /// Decide queue: submissions touching this lane, in arrival order.
    std::deque<std::shared_ptr<Submission>> queue;
    /// (lane version at decide time, txn) of the decisions whose first
    /// touched lane is this one, in order — retired below the prune mark.
    std::deque<std::pair<DbVersion, TxnId>> decided_log;
    /// Decisions touching this lane past the idempotence check: the
    /// lane's stream position, identical on primary and standby.
    uint64_t stream_position = 0;
    /// Standby: (primary stream position, mark) not yet reached.
    std::deque<std::pair<uint64_t, DbVersion>> mirrored_prunes;
    /// Refresh flow control (only consulted when refresh_credit_window >
    /// 0): per-replica credits remaining, and writesets deferred in lane
    /// order until the replica returns credits.
    std::vector<int64_t> credits;
    std::vector<std::deque<WriteSetRef>> deferred;
  };

  Lane& lane(ShardId s) { return *lanes_[static_cast<size_t>(s)]; }
  const Lane& lane(ShardId s) const { return *lanes_[static_cast<size_t>(s)]; }
  bool sharded() const { return lanes_.size() > 1; }
  /// The map restricting a lane's index to its own tables (null at K = 1).
  const ShardMap* lane_map() const { return sharded() ? &map_ : nullptr; }
  /// `ws`'s snapshot / commit version in `lane`'s version space.
  DbVersion SnapshotIn(const WriteSet& ws, ShardId lane) const;
  DbVersion VersionIn(const WriteSet& ws, ShardId lane) const;
  /// The lane whose stream carries `ws` to `target`: the lowest touched
  /// lane it hosts, or -1 when it hosts none.
  ShardId FanoutLane(const WriteSet& ws, ReplicaId target) const;

  /// One lane's certify-CPU service for `sub` completed.
  void OnVote(const std::shared_ptr<Submission>& sub);
  /// Decides every submission that has all its votes and heads all its
  /// lanes' queues, until no further progress.
  void DecideEligible();
  /// The certification decision for one submission.
  void Decide(WriteSet ws, const std::vector<ShardId>& lanes);
  /// Newest conflict of `ws` across its lanes; false when it certifies.
  bool FindConflict(const WriteSet& ws, const std::vector<ShardId>& lanes,
                    bool* ww, CommittedKeyIndex::Hit* blame) const;
  /// Records, emits and (unless muted) announces an abort.
  void Reject(const WriteSet& ws, ShardId first_lane, const char* reason,
              DbVersion conflict_version, TxnId conflict_txn);
  /// Assigns the joint commit version, installs the frozen writeset in
  /// every touched lane's window and enqueues it on their forces.
  void Commit(WriteSet ws, const std::vector<ShardId>& lanes);
  /// Records a decision for failover idempotence.
  void RecordDecision(const CertDecision& decision, ShardId first_lane);
  /// Standby: applies mirrored prune marks the streams have reached.
  void ApplyDuePrunes();
  /// Evicts window writesets at or below the prune mark that are durable
  /// (FetchSince serves the rest from the window).
  void EvictWindow(ShardId lane);
  /// Forces the lane's pending batch (up to max_force_batch writesets) to
  /// disk; reschedules itself while decisions keep arriving.
  void ForceNext(ShardId lane);
  /// True once the last of `ws`'s touched lanes made it durable.
  bool JointlyDurable(const WriteSet& ws);
  /// Sends the commit decision + per-writeset refresh fan-out for one
  /// durable writeset (the unbatched announcement path).
  void Announce(const WriteSetRef& ws);
  /// Sends one writeset's commit decision to its origin.
  void AnnounceDecision(const WriteSet& ws);
  /// Refresh batching: sends each live replica one message per lane
  /// stream carrying the durable writesets of one force (minus those it
  /// originated).
  void AnnounceRefreshBatches(const std::vector<WriteSetRef>& batch);
  /// Refuses one submission at the intake bound: an immediate
  /// `overloaded` decision, no certification, no standby forward.
  void ShedSubmission(const WriteSet& ws);
  /// Sends `ws` to `replica` on `lane` now if a credit is available (or
  /// flow control is off), otherwise defers it until credits return.
  void SendRefresh(ShardId lane, ReplicaId replica, const WriteSetRef& ws);
  /// Appends a kCertVerdict event (no-op without an event log or while
  /// muted — a standby re-decides the identical stream).
  void EmitVerdict(const WriteSet& ws, bool commit, const char* reason,
                   DbVersion conflict_version, TxnId conflict_txn);

  runtime::Runtime* rt_;
  CertifierConfig config_;
  ShardMap map_;
  int replica_count_;
  bool eager_;

  std::vector<std::unique_ptr<Lane>> lanes_;
  /// hosts_[replica][lane].
  std::vector<std::vector<bool>> hosts_;
  /// Decide sequence number: orders conflict hits across lanes (never a
  /// version anyone observes).
  int64_t seq_ = 0;
  /// Cross-lane commits whose joint durability is still outstanding:
  /// txn -> touched lanes whose force has not completed yet.
  std::unordered_map<TxnId, int> force_remaining_;

  EagerCommitTracker eager_tracker_;
  std::unordered_map<TxnId, ReplicaId> eager_origins_;
  std::vector<bool> replica_down_;

  int64_t certified_ = 0;
  int64_t aborts_ = 0;
  int64_t window_aborts_ = 0;
  int64_t rw_aborts_ = 0;
  int64_t shed_ = 0;
  int64_t sequenced_ = 0;

  /// Certification is idempotent: re-submissions after a failover get the
  /// original decision back instead of being re-decided.  Bounded: a
  /// decision is retired once made before its first lane's prune mark
  /// (Lane::decided_log): a transaction decided at lane version c had a
  /// lane snapshot <= c, so below the horizon no live replica still waits
  /// on it.
  std::unordered_map<TxnId, CertDecision> decided_;

  bool muted_ = false;

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
  obs::Counter* ctr_sequenced_ = nullptr;
  Histogram* batch_size_hist_ = nullptr;
  obs::Gauge* last_batch_gauge_ = nullptr;

  DecisionCallback decision_cb_;
  RefreshCallback refresh_cb_;
  GlobalCommitCallback global_commit_cb_;
  ForwardCallback forward_cb_;
};

}  // namespace screp

#endif  // SCREP_REPLICATION_CERTIFIER_H_
