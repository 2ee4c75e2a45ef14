#include "replication/proxy.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace screp {

Proxy::Proxy(runtime::Runtime* rt, ReplicaId id, Database* db,
             const sql::TransactionRegistry* registry, ProxyConfig config,
             bool eager)
    : rt_(rt),
      id_(id),
      db_(db),
      registry_(registry),
      config_(config),
      eager_(eager),
      service_rng_(config.seed * 0x9e3779b97f4a7c15ULL +
                   static_cast<uint64_t>(id) + 1),
      cpu_(rt, "replica-" + std::to_string(id) + "-cpu",
           config.cpu_cores),
      apply_lanes_(rt, "replica-" + std::to_string(id) + "-apply-lanes",
                   config.apply_lanes) {
  SCREP_CHECK(config.apply_lanes >= 1);
}

void Proxy::SetObservability(obs::Observability* obs) {
  if (obs == nullptr) return;
  tracer_ = obs->tracer();
  event_log_ = obs->event_log();
  metrics_ = obs->registry();
  audit_ = obs->audit_enabled();
  const std::string prefix = "replica" + std::to_string(id_) + ".";
  ctr_early_aborts_ = metrics_->GetCounter(prefix + "early_aborts");
  ctr_refresh_applied_ = metrics_->GetCounter(prefix + "refresh_applied");
  ctr_dropped_ = metrics_->GetCounter(prefix + "dropped_while_down");
}

void Proxy::RecordBlockedTime(Duration blocked) {
  if (!audit_ || metrics_ == nullptr) return;
  if (blocked_hist_ == nullptr) {
    blocked_hist_ = metrics_->GetHistogram(
        std::string(obs::kBlockedHistogramPrefix) +
        obs::WaitCauseName(wait_cause_) + "_us");
  }
  blocked_hist_->Add(static_cast<double>(blocked));
}

void Proxy::EmitSpan(const char* name, TxnId txn, TimePoint start,
                     Duration duration, const char* arg_name,
                     int64_t arg_value) {
  if (tracer_ == nullptr) return;
  tracer_->Add({.name = name,
                .category = "proxy",
                .pid = static_cast<int32_t>(obs::kReplicaPidBase + id_),
                .tid = static_cast<int64_t>(txn),
                .start = start,
                .duration = duration,
                .txn = txn,
                .arg_name = arg_name,
                .arg_value = arg_value});
}

void Proxy::NoteDroppedWhileDown(const char* what, TxnId txn) {
  ++dropped_while_down_;
  if (ctr_dropped_ != nullptr) ctr_dropped_->Increment();
  SCREP_LOG(kDebug) << "[replica " << id_ << "] dropped " << what
                    << " for txn " << txn
                    << (down_ ? " while down" : " (lost in a crash)");
}

Duration Proxy::Stochastic(Duration mean_cost) {
  const double spread = config_.service_spread;
  double cost = static_cast<double>(mean_cost) *
                ((1.0 - spread) + spread * service_rng_.NextExponential(1.0));
  if (config_.stall_probability > 0 &&
      service_rng_.NextBool(config_.stall_probability)) {
    cost += service_rng_.NextExponential(
        static_cast<double>(config_.stall_duration));
  }
  return static_cast<Duration>(cost);
}

DbVersion Proxy::OldestActiveSnapshot() const {
  DbVersion oldest = v_local();
  for (const auto& [txn_id, t] : active_) {
    (void)txn_id;
    if (t->txn != nullptr) oldest = std::min(oldest, t->txn->snapshot());
  }
  return oldest;
}

DbVersion Proxy::OldestShardSnapshot(ShardId shard) const {
  DbVersion oldest = ShardPublished(shard);
  for (const auto& [txn_id, t] : active_) {
    (void)txn_id;
    if (t->txn != nullptr) {
      oldest = std::min(oldest, ShardVersionOf(t->shard_snapshots, shard,
                                               oldest));
    }
  }
  return oldest;
}

void Proxy::Crash() {
  down_ = true;
  ++epoch_;  // invalidates every in-flight completion callback
  SCREP_LOG(kWarn) << "[replica " << id_ << "] crash: dropping "
                   << active_.size() << " in-flight transaction(s) and "
                   << pending_writesets() << " pending writeset(s); V_local="
                   << v_local();
  active_.clear();
  begin_waiters_.clear();
  version_waiters_.clear();
  pending_.clear();
  // In-flight apply completions bail on the epoch check, so their lanes
  // must be returned here.
  for (size_t i = 0; i < executing_.size(); ++i) apply_lanes_.Release();
  executing_.clear();
  executed_.clear();
  pending_index_.Clear();
  contiguous_ = v_local();
  local_claims_.clear();
}

int Proxy::ResubmitPendingCertifications() {
  int resubmitted = 0;
  for (auto& [txn_id, t] : active_) {
    (void)txn_id;
    if (t->awaiting_decision) {
      cert_request_cb_(t->writeset);
      ++resubmitted;
    }
  }
  return resubmitted;
}

void Proxy::CallWhenVersionReached(DbVersion version,
                                   std::function<void()> fn) {
  if (v_local() >= version) {
    fn();
    return;
  }
  version_waiters_.emplace(version, std::move(fn));
}

void Proxy::Restart() {
  SCREP_CHECK(down_);
  down_ = false;
}

void Proxy::InstallSnapshot(const DatabaseSnapshot& snapshot) {
  SCREP_CHECK(!down_);
  SCREP_CHECK_MSG(!sharded(), "snapshot rejoin needs the single stream");
  SCREP_CHECK_MSG(active_.empty() && executing_.empty() && executed_.empty(),
                  "snapshot install into a busy replica");
  const Status st = db_->InstallSnapshot(snapshot);
  SCREP_CHECK_MSG(st.ok(), "snapshot install failed: " << st.ToString());
  const DbVersion v = snapshot.version;
  SCREP_LOG(kInfo) << "[replica " << id_ << "] installed a snapshot at "
                   << v;
  while (!pending_.empty() && pending_.begin()->first <= v) {
    const PendingApply& apply = pending_.begin()->second;
    pending_index_.Erase(*apply.ws);
    if (apply.credited && credit_cb_) credit_cb_(1);
    pending_.erase(pending_.begin());
  }
  contiguous_ = v;
  if (event_log_ != nullptr && event_log_->enabled()) {
    obs::Event e;
    e.kind = obs::EventKind::kRecover;
    e.at = rt_->Now();
    e.replica = id_;
    e.commit_version = v;
    e.detail = "snapshot";
    event_log_->Append(std::move(e));
  }
  AdvanceContiguous();
  DispatchApplies();
  ReleaseBeginWaiters();
}

void Proxy::EnableSharding(const ShardMap* map,
                           std::vector<ShardId> hosted) {
  SCREP_CHECK_MSG(!eager_, "eager mode is unsupported with sharding");
  SCREP_CHECK(map != nullptr);
  shard_map_ = map;
  if (hosted.empty()) {
    for (ShardId s = 0; s < map->shard_count(); ++s) hosted.push_back(s);
  }
  std::sort(hosted.begin(), hosted.end());
  hosted.erase(std::unique(hosted.begin(), hosted.end()), hosted.end());
  hosted_shards_ = std::move(hosted);
  stream_index_.assign(static_cast<size_t>(map->shard_count()), -1);
  streams_.assign(hosted_shards_.size(), ShardStream{});
  for (size_t i = 0; i < hosted_shards_.size(); ++i) {
    const ShardId s = hosted_shards_[i];
    SCREP_CHECK_MSG(s >= 0 && s < map->shard_count(),
                    "hosted shard " << s << " out of range");
    stream_index_[static_cast<size_t>(s)] = static_cast<int>(i);
  }
}

DbVersion Proxy::ShardPublished(ShardId shard) const {
  const int idx = stream_index_[static_cast<size_t>(shard)];
  SCREP_CHECK_MSG(idx >= 0, "shard " << shard << " not hosted by replica "
                                     << id_);
  return streams_[static_cast<size_t>(idx)].published;
}

bool Proxy::ShardedRequirementMet(
    const std::vector<std::pair<int32_t, DbVersion>>& required) const {
  for (const auto& [shard, version] : required) {
    SCREP_CHECK_MSG(HostsShard(shard),
                    "routed to replica " << id_ << " which does not host shard "
                                         << shard);
    if (ShardPublished(shard) < version) return false;
  }
  return true;
}

void Proxy::OnTxnRequestSharded(
    const TxnRequest& request,
    const std::vector<std::pair<int32_t, DbVersion>>& shard_required) {
  if (down_) {
    NoteDroppedWhileDown("request", request.txn_id);
    return;
  }
  auto t = std::make_unique<ActiveTxn>();
  t->request = request;
  t->shard_required = shard_required;
  t->prepared = &registry_->Get(request.type);
  t->arrive_time = rt_->Now();
  ActiveTxn* raw = t.get();
  SCREP_CHECK_MSG(active_.emplace(request.txn_id, std::move(t)).second,
                  "duplicate txn id " << request.txn_id);
  if (ShardedRequirementMet(shard_required) ||
      config_.test_skip_version_check) {
    StartExecution(raw);
  } else {
    // Per-shard synchronization start delay: BEGIN waits until every
    // touched hosted shard's refresh stream reaches its required version.
    sharded_begin_waiters_.push_back(request.txn_id);
  }
}

void Proxy::ReleaseShardedBeginWaiters() {
  for (size_t i = 0; i < sharded_begin_waiters_.size();) {
    const TxnId txn = sharded_begin_waiters_[i];
    auto it = active_.find(txn);
    const bool release =
        it == active_.end() ||
        ShardedRequirementMet(it->second->shard_required);
    if (!release) {
      ++i;
      continue;
    }
    sharded_begin_waiters_[i] = sharded_begin_waiters_.back();
    sharded_begin_waiters_.pop_back();
    if (it != active_.end()) StartExecution(it->second.get());
  }
}

void Proxy::OnTxnRequest(const TxnRequest& request,
                         DbVersion required_version) {
  if (down_) {
    NoteDroppedWhileDown("request", request.txn_id);
    return;  // the load balancer reports the failure to the client
  }
  auto t = std::make_unique<ActiveTxn>();
  t->request = request;
  t->required_version = required_version;
  t->prepared = &registry_->Get(request.type);
  t->arrive_time = rt_->Now();
  ActiveTxn* raw = t.get();
  SCREP_CHECK_MSG(active_.emplace(request.txn_id, std::move(t)).second,
                  "duplicate txn id " << request.txn_id);
  if (v_local() >= required_version || config_.test_skip_version_check) {
    StartExecution(raw);
  } else {
    // Synchronization start delay: wait for the refresh stream to bring
    // V_local up to the tagged version (§IV-A/B/C).
    begin_waiters_.emplace(required_version, request.txn_id);
  }
}

void Proxy::ReleaseBeginWaiters() {
  const DbVersion v = v_local();
  while (!begin_waiters_.empty() && begin_waiters_.begin()->first <= v) {
    const TxnId txn_id = begin_waiters_.begin()->second;
    begin_waiters_.erase(begin_waiters_.begin());
    auto it = active_.find(txn_id);
    SCREP_CHECK(it != active_.end());
    StartExecution(it->second.get());
  }
  while (!version_waiters_.empty() &&
         version_waiters_.begin()->first <= v) {
    auto fn = std::move(version_waiters_.begin()->second);
    version_waiters_.erase(version_waiters_.begin());
    fn();
  }
}

void Proxy::StartExecution(ActiveTxn* t) {
  t->exec_start_time = rt_->Now();
  t->stages.version = t->exec_start_time - t->arrive_time;
  EmitSpan("proxy.start_delay", t->request.txn_id, t->arrive_time,
           t->stages.version);
  t->txn = db_->Begin();  // snapshot at current V_local
  if (sharded()) {
    // The transaction's per-shard snapshot coordinates: what each hosted
    // shard's refresh stream had published when BEGIN executed.  Applies
    // advance the local database version and the shard streams in one
    // atomic step, so these coordinates exactly describe the local MVCC
    // snapshot just taken.
    t->shard_snapshots.reserve(hosted_shards_.size());
    for (ShardId s : hosted_shards_) {
      t->shard_snapshots.emplace_back(s, ShardPublished(s));
    }
  }
  if (event_log_ != nullptr && event_log_->enabled()) {
    obs::Event e;
    e.kind = obs::EventKind::kBeginAdmitted;
    e.at = t->exec_start_time;
    e.txn = t->request.txn_id;
    e.session = t->request.session;
    e.replica = id_;
    e.required_version = t->required_version;
    e.satisfied_version = t->txn->snapshot();
    e.wait_cause = wait_cause_;
    e.wait = t->stages.version;
    e.shard_required = t->shard_required;
    e.shard_snapshots = t->shard_snapshots;
    event_log_->Append(std::move(e));
  }
  // Eager pays at the ack instead (see Respond); the lazy schemes' only
  // blocked time is this start delay.
  if (!eager_) RecordBlockedTime(t->stages.version);
  ExecuteNextStatement(t);
}

void Proxy::ExecuteNextStatement(ActiveTxn* t) {
  if (t->aborted_early) {
    Respond(t, TxnOutcome::kEarlyAbort);
    return;
  }
  if (t->next_stmt >= t->prepared->statements.size()) {
    OnStatementsDone(t);
    return;
  }
  const sql::PreparedStatement& stmt =
      *t->prepared->statements[t->next_stmt];
  const std::vector<Value>& params = t->request.params[t->next_stmt];
  ++t->next_stmt;

  // The statement's reads are against the fixed snapshot, so evaluating
  // now and charging service time afterwards is equivalent to evaluating
  // at any point inside the service window.
  Result<sql::ResultSet> rs = sql::Execute(t->txn.get(), stmt, params);
  if (!rs.ok()) {
    SCREP_LOG(kDebug) << "txn " << t->request.txn_id << " statement failed: "
                      << rs.status().ToString();
    Respond(t, TxnOutcome::kExecutionError);
    return;
  }
  t->rows_examined += rs->rows_examined;
  if (t->request.collect_results) t->results.push_back(std::move(rs->rows));

  // Early certification (§IV): an update statement's partial writeset is
  // checked against pending refresh writesets; a conflict aborts the
  // client transaction immediately instead of letting it block the
  // refresh stream inside the DBMS.
  if (stmt.IsUpdate() && config_.early_certification) {
    if (ConflictsWithPendingRefresh(t->txn->PartialWriteSet())) {
      ++early_aborts_;
      if (ctr_early_aborts_ != nullptr) ctr_early_aborts_->Increment();
      SCREP_LOG(kDebug) << "[replica " << id_ << "] early abort of txn "
                        << t->request.txn_id
                        << ": statement writes conflict with a pending "
                           "refresh writeset";
      Respond(t, TxnOutcome::kEarlyAbort);
      return;
    }
  }

  const Duration cpu_cost = Stochastic(
      (stmt.IsUpdate() ? config_.update_stmt_base : config_.read_stmt_base) +
      config_.per_row_cost * rs->rows_examined);
  const TxnId txn_id = t->request.txn_id;
  const int64_t stmt_index = static_cast<int64_t>(t->next_stmt) - 1;
  const TimePoint stmt_start = rt_->Now();
  cpu_.Submit(cpu_cost, [this, txn_id, stmt_index, stmt_start]() {
    auto it = active_.find(txn_id);
    if (it == active_.end()) return;  // aborted meanwhile
    EmitSpan("proxy.stmt", txn_id, stmt_start, rt_->Now() - stmt_start,
             "stmt", stmt_index);
    // Per-statement application round trip before the next statement.
    rt_->Schedule(config_.stmt_round_trip, [this, txn_id]() {
      auto it2 = active_.find(txn_id);
      if (it2 == active_.end()) return;
      ExecuteNextStatement(it2->second.get());
    });
  });
}

void Proxy::OnStatementsDone(ActiveTxn* t) {
  t->queries_end_time = rt_->Now();
  t->stages.queries = t->queries_end_time - t->exec_start_time;
  EmitSpan("proxy.exec", t->request.txn_id, t->exec_start_time,
           t->stages.queries);
  if (t->txn->read_only()) {
    // Read-only fast path: commit locally, acknowledge immediately (§IV).
    const TxnId txn_id = t->request.txn_id;
    cpu_.Submit(Stochastic(config_.commit_cost), [this, txn_id]() {
      auto it = active_.find(txn_id);
      if (it == active_.end()) return;
      ActiveTxn* t2 = it->second.get();
      t2->stages.commit = rt_->Now() - t2->queries_end_time;
      EmitSpan("proxy.commit", txn_id, t2->queries_end_time,
               t2->stages.commit);
      Respond(t2, TxnOutcome::kCommitted);
    });
    return;
  }
  // Update transaction: send the writeset to the certifier and await the
  // decision.
  t->writeset = t->txn->BuildWriteSet(config_.attach_read_sets);
  t->writeset.txn_id = t->request.txn_id;
  t->writeset.origin = id_;
  // Sharded mode: ship the per-shard snapshot coordinates so each lane
  // certifies against the snapshot this transaction actually read in
  // that shard (hosted covers touched: the LB only routes here when this
  // replica hosts every touched shard).
  if (sharded()) t->writeset.shard_snapshots = t->shard_snapshots;
  t->certify_start_time = rt_->Now();
  t->awaiting_decision = true;
  cert_request_cb_(t->writeset);
}

void Proxy::OnCertDecision(const CertDecision& decision) {
  auto it = active_.find(decision.txn_id);
  if (down_ || it == active_.end()) {
    // Decision for a transaction lost in a crash. If it committed, its
    // writeset reaches this replica through recovery catch-up instead.
    NoteDroppedWhileDown("certification decision", decision.txn_id);
    return;
  }
  ActiveTxn* t = it->second.get();
  if (!t->awaiting_decision) return;  // duplicate (failover re-delivery)
  t->awaiting_decision = false;
  t->decision_time = rt_->Now();
  t->stages.certify = t->decision_time - t->certify_start_time;
  EmitSpan("proxy.certify", decision.txn_id, t->certify_start_time,
           t->stages.certify);
  if (!decision.commit) {
    if (decision.overloaded) {
      // The certifier refused the writeset at its intake bound without
      // certifying it; tell the client to back off, not that it lost a
      // conflict.
      SCREP_LOG(kDebug) << "[replica " << id_ << "] txn " << decision.txn_id
                        << " shed at the certifier intake bound";
      Respond(t, TxnOutcome::kOverloaded);
      return;
    }
    SCREP_LOG(kDebug) << "[replica " << id_
                      << "] certification abort of txn " << decision.txn_id;
    Respond(t, TxnOutcome::kCertificationAbort);
    return;
  }
  if (sharded()) {
    t->writeset.commit_version = decision.commit_version;
    t->writeset.shard_versions = decision.shard_versions;
    // After a certifier failover the catch-up stream may have delivered
    // this commit before its decision: whichever copy publishes finishes
    // the transaction.
    if (auto pending = sharded_pending_.find(decision.txn_id);
        pending != sharded_pending_.end()) {
      pending->second.claimed = true;
      return;
    }
    const auto& [shard, version] = decision.shard_versions.front();
    if (HostsShard(shard) && ShardPublished(shard) >= version) {
      FinishLocalCommit(t);
      return;
    }
    // Queue the local commit into its hosted apply streams at the joint
    // per-shard versions the certifier assigned; publishing it finishes
    // the transaction.
    ShardedApply apply;
    apply.ws = std::make_shared<const WriteSet>(t->writeset);
    apply.is_local = true;
    apply.enqueue_time = rt_->Now();
    EnqueueShardedApply(std::move(apply));
    DispatchShardedApplies();
    return;
  }
  t->writeset.commit_version = decision.commit_version;
  // Whichever channel commits this version locally finishes the
  // transaction: normally the local apply queued below, but after a
  // certifier failover the same writeset may arrive (or already have
  // arrived, or be mid-apply) through the refresh/catch-up channel.
  local_claims_[decision.commit_version] = decision.txn_id;
  if (decision.commit_version <= v_local()) {
    SettleLocalClaims();
    return;
  }
  if (IsUnpublished(decision.commit_version)) {
    return;  // already queued as a refresh; the claim finishes it
  }
  // Queue the local commit at its slot in the global order; it interleaves
  // with refresh writesets so every replica commits in certifier order.
  PendingApply apply;
  apply.ws = std::make_shared<const WriteSet>(t->writeset);
  apply.is_local = true;
  apply.local_txn = decision.txn_id;
  apply.enqueue_time = rt_->Now();
  pending_index_.Insert(*apply.ws, /*is_local=*/true);
  pending_.emplace(decision.commit_version, std::move(apply));
  peak_pending_writesets_ =
      std::max(peak_pending_writesets_, pending_writesets());
  AdvanceContiguous();
  DispatchApplies();
}

void Proxy::OnRefresh(const WriteSet& ws) {
  // Catch-up path: the sender hands us a plain writeset, so freeze a
  // private copy here.  The live fan-out path (OnRefreshBatch) shares the
  // certifier's frozen objects instead.
  auto frozen = std::make_shared<const WriteSet>(ws);
  if (sharded()) {
    IngestShardedRefresh(std::move(frozen), /*credit_shard=*/-1,
                         /*credited=*/false);
  } else {
    IngestRefresh(std::move(frozen), /*credited=*/false);
  }
}

bool Proxy::IngestRefresh(WriteSetRef ws, bool credited) {
  SCREP_CHECK(ws->commit_version != kNoVersion);
  if (down_) {
    NoteDroppedWhileDown("refresh writeset", ws->txn_id);
    return false;  // recovery catch-up re-delivers it
  }
  if (ws->commit_version <= v_local() || IsUnpublished(ws->commit_version)) {
    return false;  // duplicate delivery (recovery catch-up overlap)
  }
  // Early certification, arrival direction: abort conflicting active local
  // transactions right away (§IV, hidden-deadlock avoidance).
  if (config_.early_certification) AbortConflictingActives(*ws);
  const DbVersion commit_version = ws->commit_version;
  PendingApply apply;
  apply.ws = std::move(ws);
  apply.is_local = false;
  apply.credited = credited;
  apply.enqueue_time = rt_->Now();
  pending_index_.Insert(*apply.ws, /*is_local=*/false);
  pending_.emplace(commit_version, std::move(apply));
  peak_pending_writesets_ =
      std::max(peak_pending_writesets_, pending_writesets());
  AdvanceContiguous();
  DispatchApplies();
  return true;
}

bool Proxy::IngestShardedRefresh(WriteSetRef ws, ShardId credit_shard,
                                 bool credited) {
  SCREP_CHECK(!ws->shard_versions.empty());
  if (down_) {
    NoteDroppedWhileDown("refresh writeset", ws->txn_id);
    return false;
  }
  if (sharded_pending_.find(ws->txn_id) != sharded_pending_.end()) {
    return false;  // duplicate delivery
  }
  // Publication is atomic across a writeset's touched streams, so one
  // hosted shard already covering its version means all of them do.
  bool fresh = false;
  for (const auto& [shard, version] : ws->shard_versions) {
    if (HostsShard(shard) && version > ShardPublished(shard)) {
      fresh = true;
      break;
    }
  }
  if (!fresh) return false;  // duplicate delivery
  // Early certification, arrival direction (§IV, hidden-deadlock
  // avoidance) — unchanged by sharding.
  if (config_.early_certification) AbortConflictingActives(*ws);
  ShardedApply apply;
  apply.ws = std::move(ws);
  apply.credited = credited;
  apply.credit_shard = credit_shard;
  apply.enqueue_time = rt_->Now();
  EnqueueShardedApply(std::move(apply));
  DispatchShardedApplies();
  return true;
}

void Proxy::EnqueueShardedApply(ShardedApply apply) {
  const TxnId txn = apply.ws->txn_id;
  bool all_hosted = true;
  for (const auto& [shard, version] : apply.ws->shard_versions) {
    if (HostsShard(shard)) {
      apply.hosted_versions.emplace_back(shard, version);
    } else {
      all_hosted = false;
    }
  }
  SCREP_CHECK_MSG(!apply.hosted_versions.empty(),
                  "writeset for txn " << txn << " touches no hosted shard");
  if (all_hosted) {
    apply.hosted_sub = apply.ws;
  } else {
    // Partial replication: only the hosted shards' writes apply here.
    WriteSet sub;
    sub.txn_id = apply.ws->txn_id;
    sub.origin = apply.ws->origin;
    for (const WriteOp& op : apply.ws->ops) {
      if (HostsShard(shard_map_->ShardOf(op.table))) sub.ops.push_back(op);
    }
    apply.hosted_sub = std::make_shared<const WriteSet>(std::move(sub));
  }
  pending_index_.Insert(*apply.hosted_sub, apply.is_local);
  for (const auto& [shard, version] : apply.hosted_versions) {
    ShardStream& stream =
        streams_[static_cast<size_t>(stream_index_[static_cast<size_t>(shard)])];
    SCREP_CHECK_MSG(stream.queue.emplace(version, txn).second,
                    "duplicate version " << version << " in shard " << shard
                                         << " stream");
  }
  sharded_pending_.emplace(txn, std::move(apply));
  peak_pending_writesets_ =
      std::max(peak_pending_writesets_, pending_writesets());
}

void Proxy::DispatchShardedApplies() {
  // Start every stream head that is next in line in ALL of its touched
  // hosted streams: serial within a stream, parallel across streams.
  // Joint versions are assigned atomically in certifier decide order, so
  // two cross-shard writesets can never wait on each other's heads.
  bool progress = true;
  while (progress) {
    progress = false;
    for (ShardStream& stream : streams_) {
      if (stream.applying || stream.queue.empty()) continue;
      const auto& [version, txn] = *stream.queue.begin();
      if (version != stream.published + 1) continue;  // gap below
      auto it = sharded_pending_.find(txn);
      SCREP_CHECK(it != sharded_pending_.end());
      bool ready = true;
      for (const auto& [shard, v] : it->second.hosted_versions) {
        const ShardStream& other =
            streams_[static_cast<size_t>(
                stream_index_[static_cast<size_t>(shard)])];
        if (other.applying || other.published + 1 != v) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      StartShardedApply(txn);
      progress = true;
    }
  }
}

void Proxy::StartShardedApply(TxnId txn) {
  auto it = sharded_pending_.find(txn);
  SCREP_CHECK(it != sharded_pending_.end());
  ShardedApply& apply = it->second;
  for (const auto& [shard, version] : apply.hosted_versions) {
    (void)version;
    streams_[static_cast<size_t>(stream_index_[static_cast<size_t>(shard)])]
        .applying = true;
  }
  Duration cost;
  if (apply.is_local) {
    auto ait = active_.find(txn);
    SCREP_CHECK(ait != active_.end());
    ActiveTxn* t = ait->second.get();
    t->apply_start_time = rt_->Now();
    t->stages.sync = t->apply_start_time - t->decision_time;
    EmitSpan("proxy.lane_wait", txn, t->decision_time, t->stages.sync);
    cost = Stochastic(config_.commit_cost);
  } else {
    cost = Stochastic(config_.refresh_base +
                      config_.refresh_per_op *
                          static_cast<Duration>(apply.hosted_sub->size()));
  }
  const uint64_t epoch = epoch_;
  cpu_.Submit(cost, [this, epoch, txn]() {
    if (epoch != epoch_ || down_) return;
    FinishShardedApply(txn);
  });
}

void Proxy::FinishShardedApply(TxnId txn) {
  auto it = sharded_pending_.find(txn);
  SCREP_CHECK(it != sharded_pending_.end());
  ShardedApply apply = std::move(it->second);
  sharded_pending_.erase(it);
  // Apply the hosted writes at the next *local* dense version, then
  // advance every touched stream — one atomic step, so BEGIN snapshots
  // can never observe a partially published writeset.
  const Status st = db_->ApplyWriteSetLocal(*apply.hosted_sub);
  SCREP_CHECK_MSG(st.ok(), "apply failed: " << st.ToString());
  pending_index_.Erase(*apply.hosted_sub);
  for (const auto& [shard, version] : apply.hosted_versions) {
    ShardStream& stream =
        streams_[static_cast<size_t>(stream_index_[static_cast<size_t>(shard)])];
    SCREP_CHECK(!stream.queue.empty() &&
                stream.queue.begin()->first == version);
    stream.queue.erase(stream.queue.begin());
    stream.published = version;
    stream.applying = false;
  }
  if (!apply.is_local) {
    ++refresh_applied_;
    if (ctr_refresh_applied_ != nullptr) ctr_refresh_applied_->Increment();
  }
  if (apply.credited && sharded_credit_cb_) {
    sharded_credit_cb_(apply.credit_shard, 1);
  }
  if (event_log_ != nullptr && event_log_->enabled()) {
    obs::Event e;
    e.kind = obs::EventKind::kApply;
    e.at = rt_->Now();
    e.txn = apply.ws->txn_id;
    e.replica = id_;
    e.commit_version = apply.ws->commit_version;
    e.local = apply.is_local;
    e.shard_versions = apply.hosted_versions;
    event_log_->Append(std::move(e));
  }
  if (apply.is_local) {
    auto ait = active_.find(txn);
    if (ait != active_.end()) {
      ActiveTxn* t = ait->second.get();
      t->exec_done_time = rt_->Now();
      EmitSpan("proxy.apply", txn, t->apply_start_time,
               t->exec_done_time - t->apply_start_time);
      t->local_commit_time = rt_->Now();
      t->stages.commit = t->local_commit_time - t->apply_start_time;
      Respond(t, TxnOutcome::kCommitted);
    }
  } else if (apply.claimed) {
    auto ait = active_.find(txn);
    if (ait != active_.end()) FinishLocalCommit(ait->second.get());
  }
  ReleaseShardedBeginWaiters();
  DispatchShardedApplies();
}

void Proxy::AbortConflictingActives(const WriteSet& ws) {
  // One hash set over the refresh's keys; each active transaction then
  // costs O(|its partial writeset|) instead of O(|ws| * |partial|).
  const WriteKeySet refresh_keys(ws);
  for (auto& [txn_id, t] : active_) {
    (void)txn_id;
    if (t->aborted_early) continue;
    // Transactions already at the certifier are resolved there: the
    // refresh writeset committed first, so certification will abort them.
    if (t->awaiting_decision || t->awaiting_global) continue;
    if (t->txn == nullptr || t->txn->read_only()) continue;
    if (refresh_keys.Intersects(t->txn->PartialWriteSet())) {
      t->aborted_early = true;  // surfaced at the next statement boundary
      ++early_aborts_;
      if (ctr_early_aborts_ != nullptr) ctr_early_aborts_->Increment();
      SCREP_LOG(kDebug) << "[replica " << id_ << "] early abort of txn "
                        << t->request.txn_id
                        << ": arriving refresh writeset (version "
                        << ws.commit_version << ") conflicts";
    }
  }
}

bool Proxy::ConflictsWithPendingRefresh(const WriteSet& partial) const {
  return pending_index_.ConflictsWithQueuedRefresh(partial);
}

bool Proxy::IsUnpublished(DbVersion version) const {
  return pending_.count(version) != 0 || executing_.count(version) != 0 ||
         executed_.count(version) != 0;
}

void Proxy::AdvanceContiguous() {
  while (IsUnpublished(contiguous_ + 1)) {
    ++contiguous_;
    // The version just became dispatchable gap-wise; remember when, so
    // StartApply can split its ordering wait into gap wait vs. lane wait.
    auto it = pending_.find(contiguous_);
    if (it != pending_.end()) it->second.ready_time = rt_->Now();
  }
}

void Proxy::DispatchApplies() {
  auto it = pending_.begin();
  while (it != pending_.end() && apply_lanes_.FreeServers() > 0) {
    const DbVersion version = it->first;
    if (version > contiguous_) {
      // Version gap below: an unseen earlier writeset could conflict, so
      // nothing above the gap may dispatch yet.
      break;
    }
    if (pending_index_.BlockedByEarlier(*it->second.ws)) {
      ++it;  // must wait for a conflicting earlier writeset to publish
      continue;
    }
    ++it;  // advance before StartApply erases this entry
    StartApply(version);
  }
}

void Proxy::StartApply(DbVersion version) {
  SCREP_CHECK(apply_lanes_.TryAcquire());
  auto it = pending_.find(version);
  SCREP_CHECK(it != pending_.end());
  PendingApply apply = std::move(it->second);
  pending_.erase(it);
  pending_index_.MarkDispatched(*apply.ws);
  executing_.insert(version);

  Duration cost;
  if (apply.is_local) {
    auto ait = active_.find(apply.local_txn);
    SCREP_CHECK(ait != active_.end());
    ActiveTxn* t = ait->second.get();
    t->apply_start_time = rt_->Now();
    t->stages.sync = t->apply_start_time - t->decision_time;
    // The ordering wait splits at the moment the contiguity watermark
    // crossed this version: before it, the writeset waited for the gap
    // below to fill (gap wait); after it, for a free lane and any
    // conflicting earlier writesets (lane wait).
    const TimePoint ready =
        apply.ready_time > 0 ? apply.ready_time : t->decision_time;
    EmitSpan("proxy.gap_wait", apply.local_txn, t->decision_time,
             ready - t->decision_time);
    EmitSpan("proxy.lane_wait", apply.local_txn, ready,
             t->apply_start_time - ready);
    cost = Stochastic(config_.commit_cost);
  } else {
    cost = Stochastic(config_.refresh_base +
                      config_.refresh_per_op *
                          static_cast<Duration>(apply.ws->size()));
  }

  const uint64_t epoch = epoch_;
  cpu_.Submit(cost, [this, epoch, version, apply = std::move(apply)]() mutable {
    if (epoch != epoch_ || down_) return;  // crashed meanwhile; Crash()
                                           // already returned the lane
    executing_.erase(version);
    apply_lanes_.Release();
    if (apply.is_local) {
      auto ait = active_.find(apply.local_txn);
      if (ait != active_.end()) {
        ActiveTxn* t = ait->second.get();
        t->exec_done_time = rt_->Now();
        EmitSpan("proxy.apply", apply.local_txn, t->apply_start_time,
                 t->exec_done_time - t->apply_start_time);
      }
    }
    executed_.emplace(version, std::move(apply));
    PublishReady();
    DispatchApplies();
  });
}

void Proxy::PublishReady() {
  // Publish executed writesets in strict commit-version order: V_local
  // only ever advances by one, and each version's side effects (event
  // log, eager report, local-commit settlement, BEGIN-waiter release)
  // fire before the next version's — exactly the serial apply path's
  // externally visible order.
  for (auto it = executed_.find(v_local() + 1); it != executed_.end();
       it = executed_.find(v_local() + 1)) {
    PendingApply apply = std::move(it->second);
    executed_.erase(it);
    const Status st = db_->ApplyWriteSet(*apply.ws);
    SCREP_CHECK_MSG(st.ok(), "apply failed: " << st.ToString());
    pending_index_.Erase(*apply.ws);
    if (!apply.is_local) {
      ++refresh_applied_;
      if (ctr_refresh_applied_ != nullptr) ctr_refresh_applied_->Increment();
    }
    // Publishing frees the apply-pipeline slot this writeset held:
    // return its refresh credit so the certifier may send the next one.
    if (apply.credited && credit_cb_) credit_cb_(1);
    if (event_log_ != nullptr && event_log_->enabled()) {
      obs::Event e;
      e.kind = obs::EventKind::kApply;
      e.at = rt_->Now();
      e.txn = apply.ws->txn_id;
      e.replica = id_;
      e.commit_version = apply.ws->commit_version;
      e.local = apply.is_local;
      event_log_->Append(std::move(e));
    }
    if (eager_) replica_committed_cb_(apply.ws->txn_id);
    SettleLocalClaims();
    ReleaseBeginWaiters();
  }
}

void Proxy::SettleLocalClaims() {
  const DbVersion v = v_local();
  while (!local_claims_.empty() && local_claims_.begin()->first <= v) {
    const TxnId txn_id = local_claims_.begin()->second;
    local_claims_.erase(local_claims_.begin());
    auto it = active_.find(txn_id);
    if (it == active_.end()) continue;  // lost in a crash
    FinishLocalCommit(it->second.get());
  }
}

void Proxy::FinishLocalCommit(ActiveTxn* t) {
  if (t->apply_start_time == 0) {
    // Committed through the refresh channel (certifier failover): the
    // whole wait from the decision to the version's local commit is one
    // claim wait — there was no local apply to decompose.
    EmitSpan("proxy.claim_wait", t->request.txn_id, t->decision_time,
             rt_->Now() - t->decision_time);
    t->apply_start_time = rt_->Now();
  } else if (t->exec_done_time > 0) {
    // The local apply finished on its lane at exec_done_time; since then
    // the transaction waited for every earlier version to publish.
    EmitSpan("proxy.publish_wait", t->request.txn_id, t->exec_done_time,
             rt_->Now() - t->exec_done_time);
  }
  t->local_commit_time = rt_->Now();
  t->stages.commit = t->local_commit_time - t->apply_start_time;
  if (eager_) {
    if (t->global_done_early) {
      // The certifier already declared the global commit (a membership
      // change can complete it before our own local commit finishes).
      t->stages.global = 0;
      Respond(t, TxnOutcome::kCommitted);
      return;
    }
    // Global commit delay: hold the acknowledgment until every replica
    // has committed this transaction (§IV-D).
    t->awaiting_global = true;
    return;
  }
  Respond(t, TxnOutcome::kCommitted);
}

void Proxy::OnGlobalCommit(TxnId txn) {
  auto it = active_.find(txn);
  if (down_ || it == active_.end()) {
    NoteDroppedWhileDown("global-commit notification", txn);
    return;
  }
  ActiveTxn* t = it->second.get();
  if (!t->awaiting_global) {
    // Local commit still in flight; remember the verdict.
    t->global_done_early = true;
    return;
  }
  t->stages.global = rt_->Now() - t->local_commit_time;
  EmitSpan("eager.global_wait", txn, t->local_commit_time, t->stages.global);
  Respond(t, TxnOutcome::kCommitted);
}

void Proxy::Respond(ActiveTxn* t, TxnOutcome outcome) {
  if (eager_ && outcome == TxnOutcome::kCommitted && t->txn != nullptr &&
      !t->txn->read_only()) {
    RecordBlockedTime(t->stages.global);
  }
  TxnResponse response;
  response.txn_id = t->request.txn_id;
  response.type = t->request.type;
  response.session = t->request.session;
  response.client_id = t->request.client_id;
  response.outcome = outcome;
  response.read_only = t->txn == nullptr || t->txn->read_only();
  response.replica = id_;
  response.v_local_after = v_local();
  response.snapshot = t->txn != nullptr ? t->txn->snapshot() : 0;
  response.stages = t->stages;
  response.submit_time = t->request.submit_time;
  response.start_time = t->exec_start_time;
  if (t->request.collect_results && outcome == TxnOutcome::kCommitted) {
    response.results = std::move(t->results);
  }
  if (sharded()) {
    response.shard_snapshots = t->shard_snapshots;
    response.shard_locals.reserve(hosted_shards_.size());
    for (ShardId s : hosted_shards_) {
      response.shard_locals.emplace_back(s, ShardPublished(s));
    }
  }
  if (outcome == TxnOutcome::kCommitted && !response.read_only) {
    response.commit_version = t->writeset.commit_version;
    if (sharded()) response.shard_versions = t->writeset.shard_versions;
    for (TableId table : t->writeset.TablesWritten()) {
      // Sharded mode: a table's fine-grained tag advances in its own
      // shard's version space.
      const DbVersion v =
          sharded() ? ShardVersionOf(t->writeset.shard_versions,
                                     shard_map_->ShardOf(table))
                    : t->writeset.commit_version;
      response.written_table_versions.emplace_back(table, v);
    }
    for (const WriteOp& op : t->writeset.ops) {
      response.keys_written.emplace_back(op.table, op.key);
    }
  }
  response_cb_(response);
  active_.erase(t->request.txn_id);
}

}  // namespace screp
