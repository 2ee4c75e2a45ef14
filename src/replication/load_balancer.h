// The load balancer (paper §IV): the intermediary between clients and
// replicas.  It routes each transaction to the live replica with the
// fewest active transactions, tags requests with the version requirement
// computed by the consistency policy, and reads version tags off replica
// responses on their way back to clients.
//
// Its state is deliberately small and soft (§IV, fault-tolerance):
// per-replica outstanding-transaction tables, the version trackers, and
// the table-set dictionary loaded once from the database catalog.  When a
// replica crashes, the load balancer reports the failure for every
// transaction outstanding there so clients can retry on live replicas.

#ifndef SCREP_REPLICATION_LOAD_BALANCER_H_
#define SCREP_REPLICATION_LOAD_BALANCER_H_

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/sync_policy.h"
#include "obs/observability.h"
#include "replication/message.h"
#include "replication/shard_map.h"
#include "runtime/runtime.h"

namespace screp {

/// How the load balancer picks a replica for a new transaction.
enum class RoutingPolicy {
  /// Fewest outstanding transactions (paper default).
  kLeastActive = 0,
  /// Cyclic assignment ignoring load.
  kRoundRobin,
};

/// Overload protection at the load balancer.  Both knobs default to 0
/// ("unbounded"), which reproduces the pre-flow-control behavior exactly:
/// every arrival dispatches immediately and nothing is ever queued or
/// shed at admission.
struct AdmissionConfig {
  /// Per-replica outstanding window: a replica holding this many
  /// transactions accepts no further dispatches, so arrivals wait in the
  /// admission queue instead of piling onto replica queues.
  int max_outstanding_per_replica = 0;
  /// Bound on the admission queue; arrivals finding it full are shed
  /// with TxnOutcome::kOverloaded.  Only meaningful with the window on;
  /// 0 leaves the queue unbounded.
  size_t admission_queue_limit = 0;
};

/// Client-facing router + consistency tagger.
class LoadBalancer {
 public:
  /// Dispatch: the request plus its version requirement, one (shard,
  /// version) pair per shard the transaction touches (one pair at K = 1).
  using DispatchCallback = std::function<void(
      ReplicaId replica, const TxnRequest&, const ShardVersions& required)>;
  using ClientResponseCallback = std::function<void(const TxnResponse&)>;

  /// `map` assigns tables to shards (null: one shard holding every
  /// table); `hosted` gives each replica's shard-set (an empty outer
  /// vector, or an empty inner vector, means "hosts everything").
  /// Requests route by the transaction's declared table-set to replicas
  /// hosting every shard it touches — with one shard, any live replica.
  LoadBalancer(runtime::Runtime* rt, ConsistencyLevel level, size_t table_count,
               int replica_count,
               RoutingPolicy routing = RoutingPolicy::kLeastActive,
               DbVersion staleness_bound = 0,
               AdmissionConfig admission = AdmissionConfig{},
               const ShardMap* map = nullptr,
               const std::vector<std::vector<ShardId>>& hosted = {});

  /// Wires request dispatch to replica proxies.
  void SetDispatchCallback(DispatchCallback cb) {
    dispatch_cb_ = std::move(cb);
  }
  /// Wires responses back to clients.
  void SetClientResponseCallback(ClientResponseCallback cb) {
    client_response_cb_ = std::move(cb);
  }

  /// Attaches the system's observability layer: routing spans plus
  /// dispatch / fail-over counters.
  void SetObservability(obs::Observability* obs);

  /// Installs the transaction-type -> table-set dictionary (resolved to
  /// table ids), obtained from the sys_tablesets catalog at startup.
  void SetTableSets(
      std::unordered_map<TxnTypeId, std::vector<TableId>> table_sets);

  /// A new client request: route by least-active-transactions among live
  /// replicas and dispatch with the version-requirement tag.  With
  /// admission control on, requests finding every live replica at its
  /// window wait in the bounded admission queue; past the bound they are
  /// shed with kOverloaded.  With no live replica at all, the request
  /// fails straight back to the client as kReplicaFailure (the load
  /// balancer's state is soft — aborting the process would turn a
  /// transient total outage into a permanent one).
  void OnClientRequest(const TxnRequest& request);

  /// A proxy's response: update trackers, relay to the client. Responses
  /// for transactions already failed over (their replica crashed) are
  /// dropped.
  void OnProxyResponse(const TxnResponse& response);

  /// Failure handling: stop routing to `replica` and fail every
  /// transaction outstanding there back to its client.
  void MarkReplicaDown(ReplicaId replica);

  /// Resume routing to `replica`.
  void MarkReplicaUp(ReplicaId replica);

  bool IsReplicaDown(ReplicaId replica) const {
    return down_[static_cast<size_t>(replica)];
  }

  /// Marks this instance as a promoted standby: the tracker state is
  /// re-initialized conservatively from `floors` (each certifier lane's
  /// current commit version) and responses for transactions dispatched by
  /// the dead predecessor are relayed rather than dropped.
  void PromoteFrom(const ShardVersions& floors);

  bool promoted() const { return promoted_; }

  /// A client finished its session: drop the session tracker entry (soft
  /// state; a later request under the same SID re-creates it safely).
  void EndSession(SessionId session) { policy_.EndSession(session); }

  const SyncPolicy& policy() const { return policy_; }
  /// Transactions currently outstanding at `replica`.
  int ActiveAt(ReplicaId replica) const {
    return static_cast<int>(
        outstanding_[static_cast<size_t>(replica)].size());
  }
  int64_t dispatched_count() const { return dispatched_; }
  int64_t failed_over_count() const { return failed_over_; }
  /// Requests shed with kOverloaded at the admission queue bound.
  int64_t shed_count() const { return shed_; }
  /// Requests failed with kReplicaFailure because no replica was live.
  int64_t unroutable_count() const { return unroutable_; }
  size_t admission_queue_depth() const { return admission_queue_.size(); }
  size_t peak_admission_queue() const { return peak_admission_queue_; }

 private:
  /// What we remember about a dispatched transaction — enough to
  /// synthesize a failure response if its replica crashes.
  struct OutstandingTxn {
    TxnTypeId type = kUnknownTxnType;
    SessionId session = 0;
    int client_id = 0;
    TimePoint submit_time = 0;
  };

  /// Routing among live replicas per `routing_` (rotating tie-break).
  /// With `respect_window`, replicas at the outstanding window are
  /// skipped as if down.  `shards` restricts the candidates to replicas
  /// hosting every listed shard; null means no hosting constraint.
  /// Returns kNoReplica when no candidate is left.
  ReplicaId PickReplica(bool respect_window,
                        const std::vector<ShardId>* shards = nullptr);

  /// True when `replica` hosts every shard in `shards`.
  bool HostsAll(size_t replica, const std::vector<ShardId>& shards) const;

  /// The declared table-set for `type`, or null when the catalog has no
  /// entry (a full-replication workload that never declared one).
  const std::vector<TableId>* TableSetFor(TxnTypeId type) const;

  /// The transaction's shard-set: its table-set's shards, or every shard
  /// when no table-set was declared (the conservative fallback — such a
  /// transaction can only route to a replica hosting everything).
  std::vector<ShardId> ShardsFor(const TxnRequest& request) const;

  /// True when `replica` may take one more transaction under the window.
  bool HasWindowRoom(size_t replica) const {
    return admission_.max_outstanding_per_replica <= 0 ||
           outstanding_[replica].size() <
               static_cast<size_t>(admission_.max_outstanding_per_replica);
  }

  /// Tags, records, and sends one admitted request to `replica`.
  void Dispatch(ReplicaId replica, const TxnRequest& request);

  /// Fails `request` straight back to the client with `outcome`
  /// (kOverloaded shed or kReplicaFailure when nothing is routable).
  void Reject(const TxnRequest& request, TxnOutcome outcome);

  /// Dispatches queued requests while some live replica has window room.
  void DrainAdmissionQueue();

  runtime::Runtime* rt_;
  ShardMap shard_map_;
  SyncPolicy policy_;
  int replica_count_;
  RoutingPolicy routing_;
  AdmissionConfig admission_;
  std::vector<std::unordered_map<TxnId, OutstandingTxn>> outstanding_;
  std::vector<bool> down_;
  size_t tie_break_cursor_ = 0;
  std::unordered_map<TxnTypeId, std::vector<TableId>> table_sets_;
  /// One admission-queue entry: the request plus when it was queued (the
  /// profiler's admission-wait boundary).
  struct QueuedRequest {
    TxnRequest request;
    TimePoint enqueued = 0;
  };

  /// Requests admitted but not yet dispatchable (every live replica at
  /// its window).  FIFO; version tags are computed at dispatch time, so
  /// a queued request only ever over-waits (safe), never under-waits.
  std::deque<QueuedRequest> admission_queue_;
  size_t peak_admission_queue_ = 0;
  int64_t dispatched_ = 0;
  int64_t failed_over_ = 0;
  int64_t shed_ = 0;
  int64_t unroutable_ = 0;
  bool promoted_ = false;

  /// hosts_[replica][shard]: does the replica apply that shard's stream?
  std::vector<std::vector<bool>> hosts_;

  // Observability (all optional; null until SetObservability).
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* ctr_dispatched_ = nullptr;
  obs::Counter* ctr_failed_over_ = nullptr;
  obs::Counter* ctr_shed_ = nullptr;
  obs::EventLog* event_log_ = nullptr;

  DispatchCallback dispatch_cb_;
  ClientResponseCallback client_response_cb_;
};

}  // namespace screp

#endif  // SCREP_REPLICATION_LOAD_BALANCER_H_
