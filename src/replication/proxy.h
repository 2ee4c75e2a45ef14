// The per-replica proxy (paper §IV): intercepts all requests to the local
// DBMS, executes client transactions against snapshot isolation, applies
// refresh writesets in the certifier's global order, tracks V_local and
// per-table versions, enforces the synchronization start delay, and
// performs early certification to avoid the hidden-deadlock problem.

#ifndef SCREP_REPLICATION_PROXY_H_
#define SCREP_REPLICATION_PROXY_H_

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "obs/observability.h"
#include "replication/conflict_index.h"
#include "replication/message.h"
#include "replication/shard_map.h"
#include "sim/resource.h"
#include "runtime/runtime.h"
#include "sql/executor.h"
#include "sql/table_set.h"
#include "storage/database.h"
#include "storage/transaction.h"

namespace screp {

/// Replica service-time model and behaviour knobs.
///
/// The mean service times are calibrated so a replica behaves like the
/// paper's testbed nodes (SQL Server 2008 on a Core 2 Duo): statements
/// cost a few milliseconds, and the serialized refresh-application stream
/// saturates under update-heavy load.  Service times are *stochastic*
/// (exponential spread plus rare multi-ms stalls modelling OS/disk
/// interference): the max-over-replicas of the resulting apply lag is
/// exactly what makes the eager scheme's global commit delay an order of
/// magnitude larger than the lazy schemes' start delays (paper Fig. 4/6).
struct ProxyConfig {
  /// Parallel service units of the replica machine (the testbed's Core 2
  /// Duo => 2).
  int cpu_cores = 2;
  /// Mean CPU time of a read statement.
  Duration read_stmt_base = Millis(2.5);
  /// Mean CPU time of an update statement (index + row maintenance).
  Duration update_stmt_base = Millis(4.0);
  /// Additional CPU per row the access path examines.
  Duration per_row_cost = Micros(25);
  /// CPU time to commit a local transaction.
  Duration commit_cost = Millis(1.2);
  /// Base CPU time to apply one refresh writeset (serialized, in commit
  /// order).
  Duration refresh_base = Millis(1.0);
  /// Additional CPU per record in a refresh writeset: applying a refresh
  /// re-executes its writes statement by statement, so the cost scales
  /// with the writeset size.
  Duration refresh_per_op = Millis(2.5);
  /// Client<->replica round trip paid per statement (the app server talks
  /// to the DBMS statement by statement).
  Duration stmt_round_trip = Micros(300);
  /// Fraction of each service time drawn from an exponential (0 =
  /// deterministic, 1 = fully exponential). Mean is preserved.
  double service_spread = 0.7;
  /// Probability that a work item hits a stall (checkpoint, page flush,
  /// scheduler interference) ...
  double stall_probability = 0.012;
  /// ... of this mean (exponential) duration.
  Duration stall_duration = Millis(40);
  /// Seed for the per-replica service-time stream.
  uint64_t seed = 1;
  /// Early certification on (paper default); the ablation benchmark turns
  /// it off.
  bool early_certification = true;
  /// Apply lanes: how many certified writesets may *execute* concurrently
  /// on the replica CPU.  A writeset is dispatched to a lane as soon as
  /// it conflicts with no earlier un-published writeset; execution is out
  /// of order, but V_local only advances — and BEGIN waiters, local
  /// commits and eager reports only fire — in strict commit-version
  /// order, so every consistency configuration sees the same versioned
  /// states as the serial apply path.  1 (the paper's serial apply)
  /// reproduces the pre-lane behaviour exactly.
  int apply_lanes = 1;
  /// Attach read sets to writesets (set automatically when the system
  /// runs in serializable certification mode).
  bool attach_read_sets = false;
  /// TEST ONLY: admit every BEGIN immediately, skipping the
  /// synchronization start-delay version check.  Deliberately breaks the
  /// guarantee so tests can prove the online auditor catches it.
  bool test_skip_version_check = false;
};

/// One replica's middleware component.
///
/// The proxy keeps one in-order apply stream per hosted shard, in that
/// shard's own version space (with one shard: the certifier's global
/// order, and the stream's version is V_local).  BEGIN waits until every
/// touched hosted stream has published the load balancer's requirement;
/// a writeset executes in an apply lane once no version gap or earlier
/// conflicting writeset stands before it in any of its streams, and
/// publishes when it is next in every one of them.
class Proxy {
 public:
  using CertRequestCallback = std::function<void(const WriteSet&)>;
  using ResponseCallback = std::function<void(const TxnResponse&)>;
  using ReplicaCommittedCallback = std::function<void(TxnId)>;
  /// One credit per published refresh writeset, on the certifier lane
  /// whose refresh channel delivered it.
  using CreditCallback = std::function<void(ShardId lane, int credits)>;

  /// `map` assigns tables to shards (copied; null: one shard holding
  /// every table of `db`), `hosted` is the set of shards this replica
  /// hosts (empty = all of them).
  Proxy(runtime::Runtime* rt, ReplicaId id, Database* db,
        const sql::TransactionRegistry* registry, ProxyConfig config,
        bool eager, const ShardMap* map = nullptr,
        std::vector<ShardId> hosted = {});

  /// Wires the writeset channel to the certifier.
  void SetCertRequestCallback(CertRequestCallback cb) {
    cert_request_cb_ = std::move(cb);
  }
  /// Wires responses back to the load balancer.
  void SetResponseCallback(ResponseCallback cb) {
    response_cb_ = std::move(cb);
  }
  /// Wires eager commit notifications to the certifier.
  void SetReplicaCommittedCallback(ReplicaCommittedCallback cb) {
    replica_committed_cb_ = std::move(cb);
  }
  /// Wires refresh flow-control credit returns to the certifier.  Only
  /// set when the certifier runs with a refresh credit window; unset
  /// (the default) the proxy accounts no credits at all.
  void SetCreditCallback(CreditCallback cb) { credit_cb_ = std::move(cb); }

  bool HostsShard(ShardId shard) const {
    return stream_index_[static_cast<size_t>(shard)] >= 0;
  }
  const std::vector<ShardId>& hosted_shards() const { return hosted_shards_; }
  /// Latest shard version published locally for a hosted shard (with one
  /// shard: V_local).
  DbVersion ShardPublished(ShardId shard) const;

  /// Attaches the system's observability layer: per-transaction stage
  /// spans (start delay, statements, certification, ordering wait, commit,
  /// eager global wait) plus early-abort / refresh / drop counters, the
  /// structured event log (BEGIN admissions, writeset applies) and — when
  /// auditing — the blocked-time-by-cause staleness histogram.
  void SetObservability(obs::Observability* obs);

  /// Tells the proxy which tracker the version tags come from under the
  /// system's consistency configuration, for event annotation and
  /// blocked-time attribution.  Called by the system at wiring time.
  void SetWaitCause(obs::WaitCause cause) { wait_cause_ = cause; }

  /// A routed transaction request arrives; the load balancer tagged it
  /// with `required` — one (shard, version) pair per touched shard — and
  /// the replica delays BEGIN until every one of those hosted streams
  /// has published its version (the synchronization start delay).
  void OnTxnRequest(const TxnRequest& request, const ShardVersions& required);

  /// The certifier's decision for a local update transaction.
  void OnCertDecision(const CertDecision& decision);

  /// A refresh writeset outside the credited channel (the recovery and
  /// failover catch-up streams): never consumes or returns credits.  It
  /// enters every touched hosted stream.
  void OnRefresh(const WriteSet& ws);

  /// A refresh message from certifier lane `lane`: one or more writesets
  /// (one group-commit force's worth when refresh batching is on),
  /// unpacked in order through the apply lanes.  The batch carries
  /// references to the certifier's frozen writesets — ingesting one is a
  /// refcount bump, not a row-image copy.  With flow control on, each
  /// writeset carries one credit on that lane: returned on publish, or
  /// immediately when the writeset is not accepted (duplicate delivery).
  void OnRefreshBatch(ShardId lane, const RefreshBatch& batch) {
    for (const WriteSetRef& ws : batch.writesets) {
      if (!IngestRefresh(ws, lane, /*credited=*/credit_cb_ != nullptr) &&
          credit_cb_) {
        credit_cb_(lane, 1);
      }
    }
  }

  /// Eager mode: the certifier reports the global commit of a local
  /// transaction; the client can finally be acknowledged.
  void OnGlobalCommit(TxnId txn);

  /// Crash-stop failure (paper's crash-recovery model): all in-flight
  /// transactions and pending writesets vanish; incoming messages are
  /// ignored until Restart(). The database content survives — the replica
  /// recovers its own durable state — but refresh writesets missed while
  /// down must be re-fetched from the certifier (or replaced by a peer's
  /// snapshot once the certifier's log no longer reaches back).
  void Crash();

  /// Brings the replica back up (the system then streams the missed
  /// writesets from the certifier into OnRefresh).
  void Restart();

  /// Rejoin by snapshot: replaces the local tables with `snapshot` (a
  /// live peer's rows at its committed version V) and jumps V_local to V.
  /// Received writesets at or below V are dropped (returning their
  /// credits) and the apply pipeline resumes above V; the event log gets
  /// one kRecover "snapshot" event carrying V, where the auditor's
  /// apply-order check resumes.  Requires a restarted, idle replica of a
  /// one-shard configuration (a snapshot carries one version).
  void InstallSnapshot(const DatabaseSnapshot& snapshot);

  bool down() const { return down_; }
  int64_t dropped_while_down() const { return dropped_while_down_; }

  /// Certifier failover: re-sends the writeset of every transaction still
  /// awaiting a certification decision (certification is idempotent at
  /// the certifier). Returns how many were resubmitted.
  int ResubmitPendingCertifications();

  /// Invokes `fn` once V_local reaches `version` (immediately if it
  /// already has). Used by recovery: the replica rejoins routing only
  /// after its catch-up stream has fully applied. Waiters are discarded
  /// on a crash.
  void CallWhenVersionReached(DbVersion version, std::function<void()> fn);

  ReplicaId id() const { return id_; }
  DbVersion v_local() const { return db_->CommittedVersion(); }
  /// Client transactions currently being served (the load-balancing
  /// signal).
  size_t active_transactions() const { return active_.size(); }
  /// Refresh/local writesets received but not yet published: queued,
  /// executing in an apply lane, or executed awaiting the in-order
  /// version publish.
  size_t pending_writesets() const { return applies_.size(); }
  /// High-water mark of pending_writesets() over the proxy's lifetime —
  /// what the refresh credit window is supposed to bound.
  size_t peak_pending_writesets() const { return peak_pending_writesets_; }
  /// Writesets executed out of order, waiting for an earlier version to
  /// finish before V_local may advance over them.
  size_t publish_backlog() const { return executed_count_; }

  Resource* cpu() { return &cpu_; }
  /// The apply-lane slot pool (`apply_lanes` per hosted stream; its
  /// Busy()/Utilization() report lane occupancy).
  Resource* apply_lanes() { return &apply_lanes_; }
  int64_t refresh_applied_count() const { return refresh_applied_; }
  int64_t early_abort_count() const { return early_aborts_; }

  /// The oldest snapshot any active transaction reads at (V_local when
  /// idle) — the MVCC garbage-collection horizon.
  DbVersion OldestActiveSnapshot() const;
  /// The same in hosted `shard`'s version space (its published version
  /// when idle) — that certifier lane's pruning horizon at this replica.
  DbVersion OldestActiveSnapshot(ShardId shard) const;

 private:
  /// A client transaction in flight at this replica.
  struct ActiveTxn {
    TxnRequest request;
    /// The load balancer's version tag: per touched shard, the version
    /// its hosted stream must publish before BEGIN.
    ShardVersions required;
    /// Per hosted shard, the published version when BEGIN executed — the
    /// transaction's snapshot coordinates.
    ShardVersions snapshots;
    const sql::PreparedTransaction* prepared = nullptr;
    std::unique_ptr<Transaction> txn;
    size_t next_stmt = 0;
    int64_t rows_examined = 0;
    /// Per-statement result rows, kept only when the request asked for
    /// them (TxnRequest::collect_results).
    std::vector<std::vector<Row>> results;

    bool aborted_early = false;     // flagged by early certification
    bool awaiting_decision = false;  // writeset at the certifier
    bool awaiting_global = false;    // eager: waiting for global commit
    // Eager: the global commit arrived before the local commit finished
    // (possible when a crash lowers the membership bar).
    bool global_done_early = false;

    WriteSet writeset;  // built at commit request

    // Stage timestamps.
    TimePoint arrive_time = 0;
    TimePoint exec_start_time = 0;
    TimePoint queries_end_time = 0;
    TimePoint certify_start_time = 0;
    TimePoint decision_time = 0;
    TimePoint apply_start_time = 0;
    TimePoint exec_done_time = 0;  ///< local apply finished on its lane
    TimePoint local_commit_time = 0;
    StageTimes stages;
  };

  /// A received writeset on its way to publication.  The writeset is a
  /// frozen reference: refresh entries share the certifier's object,
  /// local entries freeze their own copy at decision time.
  struct PendingApply {
    WriteSetRef ws;
    /// The writeset restricted to hosted shards — what actually applies
    /// locally (aliases `ws` when every touched shard is hosted).
    WriteSetRef hosted;
    /// (shard, version) in each touched hosted stream.
    ShardVersions versions;
    bool is_local = false;  // local client commit vs. refresh
    /// A refresh copy of a local transaction's own commit (delivered by
    /// the failover catch-up before its decision): publishing it
    /// finishes that transaction.
    bool claimed = false;
    /// Arrived through the credited refresh channel of `credit_lane`;
    /// publishing it returns one credit to the certifier.
    bool credited = false;
    ShardId credit_lane = 0;
    bool dispatched = false;  // executing or executed
    bool executed = false;    // awaiting the in-order publish
    TimePoint enqueue_time = 0;
    /// When the contiguity watermarks crossed this writeset in all its
    /// streams (it became dispatchable gap-wise); splits the ordering
    /// wait into gap wait vs. lane wait for the profiler.
    TimePoint ready_time = 0;
  };

  /// One hosted shard's in-order apply stream.
  struct Stream {
    DbVersion published = 0;   ///< latest version published locally
    /// Every version in (published, contiguous] has been received — a
    /// writeset above this gap must wait (an unseen earlier writeset
    /// could conflict with it).
    DbVersion contiguous = 0;
    int busy_lanes = 0;  ///< writesets executing in this stream's lanes
    /// Received writesets not yet dispatched, by version.
    std::map<DbVersion, TxnId> queued;
    /// Received writesets not yet published (queued, executing or
    /// executed), by version.
    std::map<DbVersion, TxnId> unpublished;
    /// BEGINs whose first unmet requirement is in this stream.
    std::multimap<DbVersion, TxnId> begin_waiters;
  };

  Stream& StreamOf(ShardId shard) {
    return streams_[static_cast<size_t>(
        stream_index_[static_cast<size_t>(shard)])];
  }

  /// Queues one refresh writeset through the apply pipeline; returns
  /// false when it is dropped instead (down, or duplicate delivery).
  bool IngestRefresh(WriteSetRef ws, ShardId credit_lane, bool credited);
  /// True when the writeset is already received or published here.
  bool IsReceived(const WriteSet& ws) const;
  /// Enters one writeset (local or refresh) into its hosted streams.
  void Enqueue(PendingApply apply);

  /// Starts the transaction, or parks it on its first hosted stream that
  /// has not yet published the required version.
  void AdmitOrWait(ActiveTxn* t);
  void StartExecution(ActiveTxn* t);
  void ExecuteNextStatement(ActiveTxn* t);
  void OnStatementsDone(ActiveTxn* t);
  void FinishLocalCommit(ActiveTxn* t);
  void Respond(ActiveTxn* t, TxnOutcome outcome);

  /// Dispatches queued writesets into free apply lanes, lowest version
  /// first per stream, as long as the dispatch rule allows: a free lane
  /// and no version gap below in every touched stream, no conflict with
  /// an earlier un-published writeset, and no earlier queued writeset in
  /// any touched stream except ones held back by such a conflict.
  void DispatchApplies();
  /// The lane and gap conditions in every stream of `apply`, and stream
  /// order in each but `scanned` (whose scan already ensured it).
  bool CanStart(const PendingApply& apply, const Stream* scanned);
  /// Starts executing one queued writeset on a lane in each of its
  /// streams.
  void StartApply(TxnId txn);
  /// Publishes executed writesets in strict per-stream version order,
  /// each when it is next in every touched stream: advances the streams
  /// and V_local in one step and fires the event log / eager reports /
  /// local-commit settlement / BEGIN-waiter release for it.
  void PublishReady();
  void Publish(TxnId txn);
  /// Advances the received-contiguously watermarks after an arrival.
  void AdvanceContiguous();
  /// Releases transactions whose required versions have been reached.
  void ReleaseBeginWaiters();
  /// Early certification, arrival direction: aborts active local
  /// transactions whose partial writesets conflict with `ws`.
  void AbortConflictingActives(const WriteSet& ws);

  /// Applies the stochastic service-time model to a mean cost.
  Duration Stochastic(Duration mean_cost);

  /// Records a span on this replica's trace row (no-op without a tracer).
  void EmitSpan(const char* name, TxnId txn, TimePoint start, Duration duration,
                const char* arg_name = nullptr, int64_t arg_value = 0);
  /// Adds to the blocked-time-by-cause staleness histogram (auditing
  /// only): the synchronization start delay for the lazy schemes, the
  /// global commit wait for eager.
  void RecordBlockedTime(Duration blocked);
  /// Counts + logs a message discarded because the replica is down (or the
  /// transaction was lost in a crash).
  void NoteDroppedWhileDown(const char* what, TxnId txn);

  runtime::Runtime* rt_;
  ReplicaId id_;
  Database* db_;
  const sql::TransactionRegistry* registry_;
  ProxyConfig config_;
  bool eager_;
  Rng service_rng_;
  ShardMap shard_map_;
  std::vector<ShardId> hosted_shards_;

  Resource cpu_;
  /// Apply-lane slot pool: one held slot per writeset per stream it is
  /// executing in.  Execution time is still served by `cpu_` (applies
  /// compete with client statements for the replica cores, as before);
  /// the lanes only bound how many applies may be in flight at once.
  Resource apply_lanes_;

  std::unordered_map<TxnId, std::unique_ptr<ActiveTxn>> active_;
  std::multimap<DbVersion, std::function<void()>> version_waiters_;
  /// shard -> index into streams_ (-1 = not hosted).
  std::vector<int> stream_index_;
  std::vector<Stream> streams_;
  /// Every received, un-published writeset, by transaction.
  std::unordered_map<TxnId, PendingApply> applies_;
  size_t executed_count_ = 0;
  /// Keyed index over every un-published writeset, for O(|writeset|)
  /// early-certification probes and lane dispatch checks.
  PendingApplyIndex pending_index_;

  int64_t refresh_applied_ = 0;
  int64_t early_aborts_ = 0;
  size_t peak_pending_writesets_ = 0;
  bool down_ = false;
  uint64_t epoch_ = 0;  ///< bumped on crash: stale callbacks bail out
  int64_t dropped_while_down_ = 0;

  // Observability (all optional; null until SetObservability).
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* ctr_early_aborts_ = nullptr;
  obs::Counter* ctr_refresh_applied_ = nullptr;
  obs::Counter* ctr_dropped_ = nullptr;
  obs::EventLog* event_log_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  bool audit_ = false;
  obs::WaitCause wait_cause_ = obs::WaitCause::kNone;
  /// "staleness.blocked.<cause>_us" (shared across replicas); created
  /// lazily — and only when auditing — so audit-off metrics output is
  /// unchanged.
  Histogram* blocked_hist_ = nullptr;

  CertRequestCallback cert_request_cb_;
  ResponseCallback response_cb_;
  ReplicaCommittedCallback replica_committed_cb_;
  CreditCallback credit_cb_;
};

}  // namespace screp

#endif  // SCREP_REPLICATION_PROXY_H_
