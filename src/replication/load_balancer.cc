#include "replication/load_balancer.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace screp {

LoadBalancer::LoadBalancer(runtime::Runtime* rt, ConsistencyLevel level,
                           size_t table_count, int replica_count,
                           RoutingPolicy routing, DbVersion staleness_bound,
                           AdmissionConfig admission, const ShardMap* map,
                           const std::vector<std::vector<ShardId>>& hosted)
    : rt_(rt),
      shard_map_(map != nullptr ? *map : ShardMap(table_count, 1)),
      policy_(level, table_count, staleness_bound,
              shard_map_.table_to_shard(), shard_map_.shard_count()),
      replica_count_(replica_count),
      routing_(routing),
      admission_(admission),
      outstanding_(static_cast<size_t>(replica_count)),
      down_(static_cast<size_t>(replica_count), false) {
  SCREP_CHECK(replica_count_ >= 1);
  const size_t shards = static_cast<size_t>(shard_map_.shard_count());
  hosts_.assign(static_cast<size_t>(replica_count_),
                std::vector<bool>(shards, true));
  for (size_t r = 0; r < hosted.size() && r < hosts_.size(); ++r) {
    if (hosted[r].empty()) continue;  // empty set = hosts everything
    hosts_[r].assign(shards, false);
    for (ShardId s : hosted[r]) hosts_[r][static_cast<size_t>(s)] = true;
  }
}

void LoadBalancer::SetObservability(obs::Observability* obs) {
  if (obs == nullptr) return;
  tracer_ = obs->tracer();
  event_log_ = obs->event_log();
  obs::MetricsRegistry* registry = obs->registry();
  ctr_dispatched_ = registry->GetCounter("lb.dispatched");
  ctr_failed_over_ = registry->GetCounter("lb.failed_over");
  ctr_shed_ = registry->GetCounter("lb.shed");
}

void LoadBalancer::SetTableSets(
    std::unordered_map<TxnTypeId, std::vector<TableId>> table_sets) {
  table_sets_ = std::move(table_sets);
}

bool LoadBalancer::HostsAll(size_t replica,
                            const std::vector<ShardId>& shards) const {
  for (ShardId s : shards) {
    if (!hosts_[replica][static_cast<size_t>(s)]) return false;
  }
  return true;
}

const std::vector<TableId>* LoadBalancer::TableSetFor(TxnTypeId type) const {
  auto it = table_sets_.find(type);
  return it == table_sets_.end() ? nullptr : &it->second;
}

std::vector<ShardId> LoadBalancer::ShardsFor(
    const TxnRequest& request) const {
  const std::vector<TableId>* table_set = TableSetFor(request.type);
  if (table_set != nullptr && !table_set->empty()) {
    return shard_map_.ShardsOfTables(*table_set);
  }
  // No declared table-set: assume the transaction may touch anything.
  std::vector<ShardId> all(static_cast<size_t>(shard_map_.shard_count()));
  for (size_t s = 0; s < all.size(); ++s) all[s] = static_cast<ShardId>(s);
  return all;
}

ReplicaId LoadBalancer::PickReplica(bool respect_window,
                                    const std::vector<ShardId>* shards) {
  ReplicaId best = kNoReplica;
  size_t best_count = 0;
  for (int i = 0; i < replica_count_; ++i) {
    const size_t idx =
        (tie_break_cursor_ + static_cast<size_t>(i)) %
        static_cast<size_t>(replica_count_);
    if (down_[idx]) continue;
    if (shards != nullptr && !HostsAll(idx, *shards)) continue;
    if (respect_window && !HasWindowRoom(idx)) continue;
    if (routing_ == RoutingPolicy::kRoundRobin) {
      best = static_cast<ReplicaId>(idx);  // first live in rotation
      break;
    }
    const size_t count = outstanding_[idx].size();
    if (best == kNoReplica || count < best_count) {
      best = static_cast<ReplicaId>(idx);
      best_count = count;
    }
  }
  if (best == kNoReplica) return kNoReplica;
  ++tie_break_cursor_;
  return best;
}

void LoadBalancer::OnClientRequest(const TxnRequest& request) {
  // Routing is constrained to replicas hosting every shard the
  // transaction's declared table-set touches.
  const std::vector<ShardId> shards = ShardsFor(request);
  const ReplicaId replica = PickReplica(/*respect_window=*/true, &shards);
  if (replica != kNoReplica) {
    Dispatch(replica, request);
    return;
  }
  // No dispatchable replica.  Distinguish "every candidate is down" (the
  // request cannot succeed, fail it back) from "live candidates are all
  // at their window" (queue it, bounded).
  if (PickReplica(/*respect_window=*/false, &shards) == kNoReplica) {
    ++unroutable_;
    SCREP_LOG(kInfo) << "[lb] no live replica for txn " << request.txn_id
                     << "; failing the request back to the client";
    Reject(request, TxnOutcome::kReplicaFailure);
    return;
  }
  if (admission_.admission_queue_limit > 0 &&
      admission_queue_.size() >= admission_.admission_queue_limit) {
    Reject(request, TxnOutcome::kOverloaded);
    return;
  }
  admission_queue_.push_back({request, rt_->Now()});
  peak_admission_queue_ =
      std::max(peak_admission_queue_, admission_queue_.size());
}

void LoadBalancer::Reject(const TxnRequest& request, TxnOutcome outcome) {
  if (outcome == TxnOutcome::kOverloaded) {
    ++shed_;
    if (ctr_shed_ != nullptr) ctr_shed_->Increment();
    if (event_log_ != nullptr && event_log_->enabled()) {
      obs::Event e;
      e.kind = obs::EventKind::kShed;
      e.at = rt_->Now();
      e.txn = request.txn_id;
      e.session = request.session;
      e.detail = "lb";
      event_log_->Append(std::move(e));
    }
  }
  TxnResponse failure;
  failure.txn_id = request.txn_id;
  failure.type = request.type;
  failure.session = request.session;
  failure.client_id = request.client_id;
  failure.outcome = outcome;
  failure.submit_time = request.submit_time;
  // Straight back to the client: the request never reached a replica, so
  // failure.replica stays kNoReplica and no outstanding entry exists.
  client_response_cb_(failure);
}

void LoadBalancer::DrainAdmissionQueue() {
  while (!admission_queue_.empty()) {
    const std::vector<ShardId> shards =
        ShardsFor(admission_queue_.front().request);
    const ReplicaId replica = PickReplica(/*respect_window=*/true, &shards);
    if (replica == kNoReplica) {
      // The head may have become permanently unroutable (its hosting
      // replicas all died) while other queued requests could still
      // dispatch.  Fail it back and keep draining; otherwise stay FIFO.
      if (PickReplica(/*respect_window=*/false, &shards) == kNoReplica) {
        QueuedRequest dead = std::move(admission_queue_.front());
        admission_queue_.pop_front();
        ++unroutable_;
        Reject(dead.request, TxnOutcome::kReplicaFailure);
        continue;
      }
      return;
    }
    QueuedRequest queued = std::move(admission_queue_.front());
    admission_queue_.pop_front();
    if (tracer_ != nullptr) {
      tracer_->Add({.name = "lb.admission_wait",
                    .category = "lb",
                    .pid = obs::kLbPid,
                    .tid = static_cast<int64_t>(queued.request.txn_id),
                    .start = queued.enqueued,
                    .duration = rt_->Now() - queued.enqueued,
                    .txn = queued.request.txn_id});
    }
    Dispatch(replica, queued.request);
  }
}

void LoadBalancer::Dispatch(ReplicaId replica, const TxnRequest& request) {
  static const std::vector<TableId> kEmptyTableSet;
  const std::vector<TableId>* table_set = TableSetFor(request.type);
  SCREP_CHECK_MSG(table_set != nullptr ||
                      policy_.level() != ConsistencyLevel::kLazyFine,
                  "fine-grained mode needs a table-set for txn type "
                      << request.type);
  if (table_set == nullptr) table_set = &kEmptyTableSet;
  // Tagged at dispatch (not arrival) time: a request that waited in the
  // admission queue picks up any versions acknowledged meanwhile, so it
  // can only over-wait relative to tagging on arrival — never weaker.
  const ShardVersions required = policy_.RequiredStartVersion(
      request.session, ShardsFor(request), *table_set);
  outstanding_[static_cast<size_t>(replica)][request.txn_id] =
      OutstandingTxn{request.type, request.session, request.client_id,
                     request.submit_time};
  ++dispatched_;
  if (ctr_dispatched_ != nullptr) ctr_dispatched_->Increment();
  if (tracer_ != nullptr) {
    // An instantaneous routing decision: where this transaction went.
    tracer_->Add({.name = "lb.route",
                  .category = "lb",
                  .pid = obs::kLbPid,
                  .tid = static_cast<int64_t>(request.txn_id),
                  .start = rt_->Now(),
                  .duration = 0,
                  .txn = request.txn_id,
                  .arg_name = "replica",
                  .arg_value = static_cast<int64_t>(replica)});
  }
  if (event_log_ != nullptr && event_log_->enabled()) {
    obs::Event e;
    e.kind = obs::EventKind::kRoute;
    e.at = rt_->Now();
    e.txn = request.txn_id;
    e.session = request.session;
    e.replica = replica;
    e.required_version = required.empty() ? 0 : required.front().second;
    e.satisfied_version = policy_.system_version().SystemVersion();
    e.shard_required =
        ShardCoordsField(required, shard_map_.shard_count());
    event_log_->Append(std::move(e));
  }
  dispatch_cb_(replica, request, required);
}

void LoadBalancer::OnProxyResponse(const TxnResponse& response) {
  SCREP_CHECK(response.replica != kNoReplica);
  auto& table = outstanding_[static_cast<size_t>(response.replica)];
  auto it = table.find(response.txn_id);
  if (it == table.end()) {
    if (!promoted_) {
      // Already failed over when the replica was marked down; the client
      // has its answer.
      return;
    }
    // A promoted standby relays responses for transactions dispatched by
    // its dead predecessor (its outstanding table was soft state).
  } else {
    table.erase(it);
  }
  if (response.outcome == TxnOutcome::kCommitted) {
    policy_.OnCommitAcknowledged(
        response.session,
        ShardCoords(response.shard_locals, response.v_local_after).ToVector(),
        response.written_table_versions);
    if (event_log_ != nullptr && event_log_->enabled()) {
      obs::Event e;
      e.kind = obs::EventKind::kSessionUpdate;
      e.at = rt_->Now();
      e.txn = response.txn_id;
      e.session = response.session;
      e.replica = response.replica;
      e.satisfied_version = policy_.sessions().RequiredVersion(response.session);
      e.shard_versions = response.shard_locals;
      event_log_->Append(std::move(e));
    }
  }
  client_response_cb_(response);
  // The finished transaction freed one window slot at its replica.
  if (!admission_queue_.empty()) DrainAdmissionQueue();
}

void LoadBalancer::PromoteFrom(const ShardVersions& floors) {
  promoted_ = true;
  policy_.SetConservativeFloor(floors);
}

void LoadBalancer::MarkReplicaDown(ReplicaId replica) {
  SCREP_CHECK(replica >= 0 && replica < replica_count_);
  down_[static_cast<size_t>(replica)] = true;
  auto& table = outstanding_[static_cast<size_t>(replica)];
  SCREP_LOG(kInfo) << "[lb] replica " << replica
                   << " marked down; failing over " << table.size()
                   << " outstanding transaction(s)";
  for (const auto& [txn_id, info] : table) {
    TxnResponse failure;
    failure.txn_id = txn_id;
    failure.type = info.type;
    failure.session = info.session;
    failure.client_id = info.client_id;
    failure.outcome = TxnOutcome::kReplicaFailure;
    failure.replica = replica;
    failure.submit_time = info.submit_time;
    ++failed_over_;
    if (ctr_failed_over_ != nullptr) ctr_failed_over_->Increment();
    client_response_cb_(failure);
  }
  table.clear();
  // Queued requests can still dispatch to the surviving replicas; only
  // when this was the last one must they fail back to their clients.
  if (PickReplica(/*respect_window=*/false) == kNoReplica) {
    std::deque<QueuedRequest> queued;
    queued.swap(admission_queue_);
    for (const QueuedRequest& entry : queued) {
      ++unroutable_;
      Reject(entry.request, TxnOutcome::kReplicaFailure);
    }
  } else if (!admission_queue_.empty()) {
    DrainAdmissionQueue();
  }
}

void LoadBalancer::MarkReplicaUp(ReplicaId replica) {
  SCREP_CHECK(replica >= 0 && replica < replica_count_);
  down_[static_cast<size_t>(replica)] = false;
  if (!admission_queue_.empty()) DrainAdmissionQueue();
}

}  // namespace screp
