// ReplicatedSystem: builds and wires the whole multi-master cluster —
// load balancer, certifier, N replicas — over a simulated network, and
// exposes the client entry point (paper Fig. 2).

#ifndef SCREP_REPLICATION_SYSTEM_H_
#define SCREP_REPLICATION_SYSTEM_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "consistency/history.h"
#include "core/consistency_level.h"
#include "net/channel.h"
#include "obs/observability.h"
#include "replication/certifier.h"
#include "replication/load_balancer.h"
#include "replication/replica.h"
#include "replication/shard_map.h"
#include "runtime/runtime.h"
#include "sql/table_set.h"

namespace screp {

/// The cluster interconnect: one LinkConfig per hop class
/// (Gigabit-Ethernet-ish defaults).  Beyond the base one-way latency each
/// link can model jitter, per-byte cost and injected faults — see
/// net/link.h.
struct NetworkConfig {
  /// Client <-> load balancer (both directions).
  net::LinkConfig client_lb{Micros(150)};
  /// Load balancer <-> replica proxies (both directions).
  net::LinkConfig lb_replica{Micros(120)};
  /// Replica <-> certifier control traffic (certification requests,
  /// decisions, eager commit notices / global commits, standby stream).
  net::LinkConfig replica_certifier{Micros(120)};
  /// Certifier -> replica refresh fan-out.  Kept separate from
  /// `replica_certifier` so loss/jitter can be injected on the refresh
  /// stream alone; runs in reliable (sequence-number + redelivery) mode
  /// by default, so a dropped refresh is retransmitted instead of
  /// stalling the apply stream forever.
  net::LinkConfig refresh{Micros(120)};
  /// Seed of the per-channel jitter/fault RNG streams (independent of
  /// the workload and service-time streams).
  uint64_t seed = 0x6e657473ULL;

  NetworkConfig() { refresh.reliability = net::Reliability::kReliable; }
};

/// Everything needed to stand up a system.
struct SystemConfig {
  int replica_count = 4;
  ConsistencyLevel level = ConsistencyLevel::kLazyCoarse;
  ProxyConfig proxy;
  CertifierConfig certifier;
  NetworkConfig network;
  /// Load balancer routing policy.
  RoutingPolicy routing = RoutingPolicy::kLeastActive;
  /// Load balancer admission control (defaults off = unbounded, the
  /// pre-flow-control behavior).
  AdmissionConfig admission;
  /// kBoundedStaleness only: how many versions a replica may lag behind
  /// V_system at transaction start.
  DbVersion staleness_bound = 100;
  /// Run a hot-standby certifier replicated via the state-machine
  /// approach (paper §IV fault-tolerance); CrashCertifier() then promotes
  /// it. Not supported together with the eager configuration.
  bool standby_certifier = false;
  /// Seed for the replicas' stochastic service-time streams.
  uint64_t seed = 1;
  /// Partitioned certification (certifier.shard_lanes > 1 only): each
  /// replica's hosted-shard set — partial replication.  Empty outer
  /// vector, or an empty per-replica set, means "hosts every shard"
  /// (full replication).  Every shard must be hosted by at least one
  /// replica.
  std::vector<std::vector<ShardId>> hosted_shards;
  /// Explicit table -> shard assignment (empty = round-robin t mod K).
  std::vector<ShardId> table_to_shard;
  /// Observability: tracing + sampling knobs (everything off by default).
  obs::ObsConfig obs;
};

/// Populates one replica's database (schema + initial rows); must be
/// deterministic so all replicas start identical.
using SchemaBuilder = std::function<Status(Database*)>;

/// Registers the workload's prepared transactions against a replica's
/// catalog (all replicas share table ids by construction).
using TxnDefiner =
    std::function<Status(const Database&, sql::TransactionRegistry*)>;

/// The assembled replicated database system.
class ReplicatedSystem {
 public:
  using ClientCallback = std::function<void(const TxnResponse&)>;

  /// Commit decisions delivered between two low-water-mark sweeps:
  /// driven by commit progress, not a timer, so an idle system schedules
  /// nothing.
  static constexpr int64_t kSweepEveryCommits = 32;

  /// Builds the system: creates the replicas (each populated by
  /// `schema_builder`), prepares the transaction registry, persists the
  /// table-set catalog, and wires every channel with network latency.
  static Result<std::unique_ptr<ReplicatedSystem>> Create(
      runtime::Runtime* rt, const SystemConfig& config,
      const SchemaBuilder& schema_builder, const TxnDefiner& txn_definer);

  /// Client entry point: the request travels client -> load balancer with
  /// latency, then onwards.
  void Submit(TxnRequest request);

  /// Wires acknowledgments back to clients (delivered with latency).
  void SetClientCallback(ClientCallback cb) { client_cb_ = std::move(cb); }

  /// Optional: record every finished transaction for consistency checking.
  void SetHistory(History* history) { history_ = history; }

  /// Allocates a globally unique transaction id.
  TxnId NextTxnId() { return next_txn_id_++; }

  /// A client finished its session: the load balancer drops the session
  /// tracker entry (soft state — long-running systems would otherwise
  /// grow the per-session map by one entry per client forever).
  void EndSession(SessionId session) { load_balancer_->EndSession(session); }

  /// Crash-stop failure of one replica (paper's crash-recovery model):
  /// its in-flight transactions are failed back to their clients, the
  /// load balancer stops routing to it, the certifier stops sending it
  /// refreshes (and in eager mode stops waiting for it).
  void CrashReplica(ReplicaId replica);

  /// Recovery: the replica comes back, catches up, and rejoins routing
  /// once current.  The catch-up streams the certifier's log from its
  /// V_local while the log still reaches back that far.  Otherwise the
  /// replica first installs a snapshot of the most current live peer (an
  /// MVCC read at the peer's committed version V; nobody quiesces) and
  /// streams from V.  With no such peer it waits, installing nothing,
  /// until another replica's catch-up completes.
  void RecoverReplica(ReplicaId replica);

  /// Recoveries that rejoined from a peer's snapshot.
  int64_t snapshot_rejoins() const { return snapshot_rejoins_; }
  /// True while `replica` has restarted but waits for a live peer to
  /// take a snapshot from.
  bool IsAwaitingPeer(ReplicaId replica) const;

  /// True while `replica` is crashed.
  bool IsReplicaDown(ReplicaId replica) const;

  /// Network fault injection: cuts every link to and from `replica`
  /// (messages drop at the channel, counted per link).  The replica
  /// itself keeps running — unlike a crash its state survives — but the
  /// LB and certifier detect the silent peer one heartbeat round trip
  /// later and fail it out of the cluster.
  void PartitionReplica(ReplicaId replica);

  /// Heals the partition: links reopen, the replica catches up from the
  /// certifier (resubmitting transactions stuck awaiting decisions; a
  /// partitioned replica still holds the prune horizon, so the retained
  /// log and window reach back to it), and rejoins routing once current.
  void HealReplicaPartition(ReplicaId replica);

  /// True while `replica` is partitioned.
  bool IsReplicaPartitioned(ReplicaId replica) const {
    return partitioned_[static_cast<size_t>(replica)];
  }

  /// Crash-stop failure of the primary certifier; the standby (which has
  /// processed the identical certification stream) is promoted, replicas
  /// catch up on any refreshes lost in flight, and transactions awaiting
  /// decisions are resubmitted. Requires `standby_certifier`.
  void CrashCertifier();

  /// True when the primary certifier has failed over to the standby.
  bool CertifierFailedOver() const { return certifier_failed_over_; }

  /// Crash-stop failure of the load balancer; a standby with empty soft
  /// state takes over, re-initialized conservatively from each certifier
  /// lane's current commit version so no consistency guarantee weakens
  /// (§IV: "a standby load balancer can be used for availability").
  void CrashLoadBalancer();

  /// How many times the load balancer has failed over.
  int load_balancer_failovers() const { return lb_failovers_; }

  runtime::Runtime* runtime() { return rt_; }
  const SystemConfig& config() const { return config_; }
  /// The system's observability layer (always present; collection is
  /// governed by SystemConfig::obs).
  obs::Observability* obs() { return obs_.get(); }
  LoadBalancer* load_balancer() { return load_balancer_.get(); }
  /// The active certifier (the promoted standby after a failover).
  Certifier* certifier() { return certifier_.get(); }
  /// True with more than one certifier lane (partitioned certification).
  bool sharded() const { return config_.certifier.shard_lanes > 1; }
  /// The table -> certifier-lane assignment (one lane at K = 1).
  const ShardMap* shard_map() const { return shard_map_.get(); }
  Replica* replica(ReplicaId id) {
    return replicas_[static_cast<size_t>(id)].get();
  }
  int replica_count() const {
    return static_cast<int>(replicas_.size());
  }
  const sql::TransactionRegistry& registry() const { return registry_; }

  /// The certifier -> replica refresh channel of one lane's stream
  /// (null when the replica does not host the lane).  Tests and benches
  /// read its per-link stats: messages, bytes, drops, redeliveries.
  net::Channel<RefreshBatch>* refresh_channel(ReplicaId replica,
                                              ShardId lane = 0) {
    return ch_refresh_[static_cast<size_t>(replica)]
                      [static_cast<size_t>(lane)].get();
  }
  /// The LB -> replica dispatch channel.
  net::Channel<RoutedRequest>* dispatch_channel(ReplicaId replica) {
    return ch_dispatch_[static_cast<size_t>(replica)].get();
  }

 private:
  ReplicatedSystem(runtime::Runtime* rt, SystemConfig config);

  /// Builds every named channel of the cluster fabric (handlers read
  /// component pointers through `this`, so LB/certifier failovers keep
  /// speaking over the same channels).
  void BuildChannels();
  /// Flips the partitioned flag on every channel into/out of `replica`.
  void SetReplicaLinksPartitioned(ReplicaId replica, bool partitioned);
  void Wire();
  void RecordHistory(const TxnResponse& response, TimePoint ack_time);
  /// Appends a crash/recover/failover event for `component` ("replica",
  /// "certifier", "lb") to the event log.
  void EmitFaultEvent(obs::EventKind kind, const char* component,
                      ReplicaId replica);
  /// Every replica that is not crashed truncates its row versions below
  /// its oldest active snapshot; each certifier lane (and its standby
  /// twin) prunes below the oldest lane snapshot among the replicas that
  /// are not crashed and host it.  Partitioned replicas count: their
  /// transactions may resubmit after the heal.
  void SweepLowWaterMark();

  /// A recovered replica's catch-up, one round trip after it restarted
  /// (see RecoverReplica).
  void CatchUpRecovered(ReplicaId replica);
  /// The live, reachable peer with the highest V_local that the
  /// certifier can stream on from, or null.
  Replica* SnapshotPeer(ReplicaId replica) const;
  /// `replica` is current again: it rejoins routing, and replicas
  /// waiting for a snapshot peer retry.
  void OnCaughtUp(ReplicaId replica);
  /// Registers the component state gauges (queue depths, version lag,
  /// utilizations) polled by the sampler.
  void RegisterGauges();

  runtime::Runtime* rt_;
  SystemConfig config_;
  std::unique_ptr<obs::Observability> obs_;
  /// (Re)wires the active certifier's outward channels.
  void WireCertifier();
  /// (Re)wires the active load balancer's channels.
  void WireLoadBalancer();

  /// `replica`'s configured shard-set (empty = hosts everything).
  const std::vector<ShardId>& HostedShards(ReplicaId replica) const;
  /// True when `replica` hosts certifier lane `shard` (always at K = 1).
  bool ReplicaHostsShard(ReplicaId replica, ShardId shard) const;
  /// A load balancer over this system's replicas, shard map and
  /// table-set catalog (the initial one, or a promoted standby).
  std::unique_ptr<LoadBalancer> MakeLoadBalancer() const;
  /// The channel-name suffix of one (lane, replica) stream: ".rN" at
  /// K = 1, ".sS.rN" at K > 1.
  std::string LaneTag(ShardId shard, ReplicaId replica) const;

  sql::TransactionRegistry registry_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::unique_ptr<ShardMap> shard_map_;
  std::unique_ptr<Certifier> certifier_;
  std::unique_ptr<Certifier> standby_certifier_;
  /// The crashed primary is kept allocated (muted) until the run ends:
  /// simulated work it had in flight may still complete, and a crashed
  /// node's effects must simply be silenced, not use-after-freed.
  std::unique_ptr<Certifier> dead_certifier_;
  bool certifier_failed_over_ = false;
  int lb_failovers_ = 0;
  std::unordered_map<TxnTypeId, std::vector<TableId>> table_sets_;
  std::unique_ptr<LoadBalancer> load_balancer_;
  ClientCallback client_cb_;
  History* history_ = nullptr;
  TxnId next_txn_id_ = 1;
  int64_t commits_since_sweep_ = 0;
  int64_t snapshot_rejoins_ = 0;
  /// Restarted replicas below the certifier's retained log with no live
  /// peer to snapshot; retried whenever a catch-up completes.
  std::vector<ReplicaId> awaiting_peer_;
  /// Restarted by RecoverReplica and not current yet: out of routing,
  /// also for a load balancer promoted meanwhile.
  std::vector<bool> rejoining_;

  // ---- The transport fabric (net/channel.h) ----
  // Endpoints: closing one (crash-stop) makes every channel pointed at
  // it drop at send.  Declared before the channels that reference them.
  std::unique_ptr<net::Endpoint> lb_endpoint_;
  std::unique_ptr<net::Endpoint> certifier_endpoint_;
  std::unique_ptr<net::Endpoint> client_endpoint_;
  std::vector<std::unique_ptr<net::Endpoint>> replica_endpoints_;
  // Directed channels, one per hop (client<->LB shared by all clients;
  // everything else per replica).
  std::unique_ptr<net::Channel<TxnRequest>> ch_client_lb_;
  std::unique_ptr<net::Channel<TxnResponse>> ch_lb_client_;
  std::vector<std::unique_ptr<net::Channel<RoutedRequest>>> ch_dispatch_;
  std::vector<std::unique_ptr<net::Channel<TxnResponse>>> ch_response_;
  std::vector<std::unique_ptr<net::Channel<WriteSet>>> ch_cert_request_;
  std::vector<std::unique_ptr<net::Channel<TxnId>>> ch_commit_notice_;
  std::vector<std::unique_ptr<net::Channel<CertDecision>>> ch_decision_;
  std::vector<std::unique_ptr<net::Channel<TxnId>>> ch_global_commit_;
  std::unique_ptr<net::Channel<WriteSet>> ch_forward_;
  /// Certifier -> replica refresh streams and replica -> certifier
  /// credit returns (flow control), indexed [replica][lane]; null where
  /// the replica does not host the lane.
  std::vector<std::vector<std::unique_ptr<net::Channel<RefreshBatch>>>>
      ch_refresh_;
  std::vector<std::vector<std::unique_ptr<net::Channel<int>>>> ch_credit_;
  std::vector<bool> partitioned_;
};

}  // namespace screp

#endif  // SCREP_REPLICATION_SYSTEM_H_
