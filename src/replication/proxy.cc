#include "replication/proxy.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace screp {

namespace {

/// Sorted, de-duplicated hosted shard-set; empty means every shard.
std::vector<ShardId> HostedSet(const ShardMap& map,
                               std::vector<ShardId> hosted) {
  if (hosted.empty()) {
    for (ShardId s = 0; s < map.shard_count(); ++s) hosted.push_back(s);
  }
  std::sort(hosted.begin(), hosted.end());
  hosted.erase(std::unique(hosted.begin(), hosted.end()), hosted.end());
  for (ShardId s : hosted) {
    SCREP_CHECK_MSG(s >= 0 && s < map.shard_count(),
                    "hosted shard " << s << " out of range");
  }
  return hosted;
}

}  // namespace

Proxy::Proxy(runtime::Runtime* rt, ReplicaId id, Database* db,
             const sql::TransactionRegistry* registry, ProxyConfig config,
             bool eager, const ShardMap* map, std::vector<ShardId> hosted)
    : rt_(rt),
      id_(id),
      db_(db),
      registry_(registry),
      config_(config),
      eager_(eager),
      service_rng_(config.seed * 0x9e3779b97f4a7c15ULL +
                   static_cast<uint64_t>(id) + 1),
      shard_map_(map != nullptr ? *map : ShardMap(db->TableCount(), 1)),
      hosted_shards_(HostedSet(shard_map_, std::move(hosted))),
      cpu_(rt, "replica-" + std::to_string(id) + "-cpu",
           config.cpu_cores),
      apply_lanes_(rt, "replica-" + std::to_string(id) + "-apply-lanes",
                   config.apply_lanes *
                       static_cast<int>(hosted_shards_.size())),
      stream_index_(static_cast<size_t>(shard_map_.shard_count()), -1),
      streams_(hosted_shards_.size()),
      pending_index_(&shard_map_) {
  SCREP_CHECK(config.apply_lanes >= 1);
  for (size_t i = 0; i < hosted_shards_.size(); ++i) {
    stream_index_[static_cast<size_t>(hosted_shards_[i])] =
        static_cast<int>(i);
  }
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

DbVersion Proxy::OldestActiveSnapshot(ShardId shard) const {
  DbVersion oldest = ShardPublished(shard);
  for (const auto& [txn_id, t] : active_) {
    (void)txn_id;
    if (t->txn != nullptr) {
      oldest = std::min(oldest, ShardVersionOf(t->snapshots, shard, oldest));
    }
  }
  return oldest;
}

DbVersion Proxy::ShardPublished(ShardId shard) const {
  const int idx = stream_index_[static_cast<size_t>(shard)];
  SCREP_CHECK_MSG(idx >= 0, "shard " << shard << " not hosted by replica "
                                     << id_);
  return streams_[static_cast<size_t>(idx)].published;
}

void Proxy::Crash() {
  down_ = true;
  ++epoch_;  // invalidates every in-flight completion callback
  SCREP_LOG(kWarn) << "[replica " << id_ << "] crash: dropping "
                   << active_.size() << " in-flight transaction(s) and "
                   << pending_writesets() << " pending writeset(s); V_local="
                   << v_local();
  active_.clear();
  version_waiters_.clear();
  for (Stream& stream : streams_) {
    // In-flight apply completions bail on the epoch check, so their lanes
    // must be returned here.
    for (int i = 0; i < stream.busy_lanes; ++i) apply_lanes_.Release();
    stream.busy_lanes = 0;
    stream.queued.clear();
    stream.unpublished.clear();
    stream.begin_waiters.clear();
    stream.contiguous = stream.published;
  }
  applies_.clear();
  executed_count_ = 0;
  pending_index_.Clear();
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
  SCREP_CHECK_MSG(shard_map_.shard_count() == 1,
                  "snapshot rejoin needs a one-shard configuration");
  SCREP_CHECK_MSG(active_.empty() && executed_count_ == 0 &&
                      streams_[0].busy_lanes == 0,
                  "snapshot install into a busy replica");
  const Status st = db_->InstallSnapshot(snapshot);
  SCREP_CHECK_MSG(st.ok(), "snapshot install failed: " << st.ToString());
  const DbVersion v = snapshot.version;
  SCREP_LOG(kInfo) << "[replica " << id_ << "] installed a snapshot at "
                   << v;
  Stream& stream = streams_[0];
  while (!stream.queued.empty() && stream.queued.begin()->first <= v) {
    auto node = applies_.extract(stream.queued.begin()->second);
    const PendingApply& apply = node.mapped();
    pending_index_.Erase(*apply.hosted, apply.versions);
    if (apply.credited && credit_cb_) credit_cb_(apply.credit_lane, 1);
    stream.unpublished.erase(stream.queued.begin()->first);
    stream.queued.erase(stream.queued.begin());
  }
  stream.published = v;
  stream.contiguous = v;
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

void Proxy::OnTxnRequest(const TxnRequest& request,
                         const ShardVersions& required) {
  if (down_) {
    NoteDroppedWhileDown("request", request.txn_id);
    return;  // the load balancer reports the failure to the client
  }
  auto t = std::make_unique<ActiveTxn>();
  t->request = request;
  t->required = required;
  t->prepared = &registry_->Get(request.type);
  t->arrive_time = rt_->Now();
  ActiveTxn* raw = t.get();
  SCREP_CHECK_MSG(active_.emplace(request.txn_id, std::move(t)).second,
                  "duplicate txn id " << request.txn_id);
  AdmitOrWait(raw);
}

void Proxy::AdmitOrWait(ActiveTxn* t) {
  if (!config_.test_skip_version_check) {
    for (const auto& [shard, version] : t->required) {
      SCREP_CHECK_MSG(HostsShard(shard),
                      "routed to replica " << id_
                                           << " which does not host shard "
                                           << shard);
      Stream& stream = StreamOf(shard);
      if (stream.published < version) {
        // Synchronization start delay: wait for the refresh stream to
        // publish the tagged version (§IV-A/B/C).
        stream.begin_waiters.emplace(version, t->request.txn_id);
        return;
      }
    }
  }
  StartExecution(t);
}

void Proxy::ReleaseBeginWaiters() {
  for (Stream& stream : streams_) {
    while (!stream.begin_waiters.empty() &&
           stream.begin_waiters.begin()->first <= stream.published) {
      const TxnId txn_id = stream.begin_waiters.begin()->second;
      stream.begin_waiters.erase(stream.begin_waiters.begin());
      auto it = active_.find(txn_id);
      SCREP_CHECK(it != active_.end());
      AdmitOrWait(it->second.get());
    }
  }
  const DbVersion v = v_local();
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
  // The transaction's per-shard snapshot coordinates: what each hosted
  // stream had published when BEGIN executed.  Applies advance the local
  // database version and the streams in one atomic step, so these
  // coordinates exactly describe the local MVCC snapshot just taken.
  t->snapshots.reserve(hosted_shards_.size());
  for (ShardId s : hosted_shards_) {
    t->snapshots.emplace_back(s, ShardPublished(s));
  }
  if (event_log_ != nullptr && event_log_->enabled()) {
    const int shards = shard_map_.shard_count();
    obs::Event e;
    e.kind = obs::EventKind::kBeginAdmitted;
    e.at = t->exec_start_time;
    e.txn = t->request.txn_id;
    e.session = t->request.session;
    e.replica = id_;
    e.required_version = t->required.empty() ? 0 : t->required.front().second;
    e.satisfied_version = t->txn->snapshot();
    e.wait_cause = wait_cause_;
    e.wait = t->stages.version;
    e.shard_required = ShardCoordsField(t->required, shards);
    e.shard_snapshots = ShardCoordsField(t->snapshots, shards);
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
    if (pending_index_.ConflictsWithQueuedRefresh(
            t->txn->PartialWriteSet())) {
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
  // The per-shard snapshot coordinates let each certifier lane certify
  // against the snapshot this transaction actually read in that shard
  // (hosted covers touched: the LB only routes here when this replica
  // hosts every touched shard).
  t->writeset.shard_snapshots =
      ShardCoordsField(t->snapshots, shard_map_.shard_count());
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
  t->writeset.commit_version = decision.commit_version;
  t->writeset.shard_versions = decision.shard_versions;
  // Whichever channel commits this writeset locally finishes the
  // transaction: normally the local apply queued below, but after a
  // certifier failover the same writeset may arrive (or already have
  // arrived, or be mid-apply) through the refresh/catch-up channel.
  if (auto pending = applies_.find(decision.txn_id);
      pending != applies_.end()) {
    pending->second.claimed = true;
    return;
  }
  if (IsReceived(t->writeset)) {
    FinishLocalCommit(t);  // already published
    return;
  }
  // Queue the local commit at its slot in the global order; it interleaves
  // with refresh writesets so every replica commits in certifier order.
  PendingApply apply;
  apply.ws = std::make_shared<const WriteSet>(t->writeset);
  apply.is_local = true;
  apply.enqueue_time = rt_->Now();
  Enqueue(std::move(apply));
  DispatchApplies();
}

void Proxy::OnRefresh(const WriteSet& ws) {
  // Catch-up path: the sender hands us a plain writeset, so freeze a
  // private copy here.  The live fan-out path (OnRefreshBatch) shares the
  // certifier's frozen objects instead.
  IngestRefresh(std::make_shared<const WriteSet>(ws), /*credit_lane=*/0,
                /*credited=*/false);
}

bool Proxy::IsReceived(const WriteSet& ws) const {
  if (applies_.count(ws.txn_id) != 0) return true;
  // Publication is atomic across a writeset's streams, so one hosted
  // stream covering its version means all of them do.
  for (const auto& [shard, version] :
       ShardCoords(ws.shard_versions, ws.commit_version)) {
    if (HostsShard(shard)) return version <= ShardPublished(shard);
  }
  SCREP_CHECK_MSG(false, "writeset for txn " << ws.txn_id
                                             << " touches no hosted shard");
  return false;
}

bool Proxy::IngestRefresh(WriteSetRef ws, ShardId credit_lane, bool credited) {
  SCREP_CHECK(ws->commit_version != kNoVersion);
  if (down_) {
    NoteDroppedWhileDown("refresh writeset", ws->txn_id);
    return false;  // recovery catch-up re-delivers it
  }
  if (IsReceived(*ws)) {
    return false;  // duplicate delivery (recovery catch-up overlap)
  }
  // Early certification, arrival direction: abort conflicting active local
  // transactions right away (§IV, hidden-deadlock avoidance).
  if (config_.early_certification) AbortConflictingActives(*ws);
  PendingApply apply;
  apply.ws = std::move(ws);
  apply.credited = credited;
  apply.credit_lane = credit_lane;
  apply.enqueue_time = rt_->Now();
  Enqueue(std::move(apply));
  DispatchApplies();
  return true;
}

void Proxy::Enqueue(PendingApply apply) {
  const WriteSet& ws = *apply.ws;
  bool all_hosted = true;
  for (const auto& [shard, version] :
       ShardCoords(ws.shard_versions, ws.commit_version)) {
    if (HostsShard(shard)) {
      apply.versions.emplace_back(shard, version);
    } else {
      all_hosted = false;
    }
  }
  SCREP_CHECK_MSG(!apply.versions.empty(),
                  "writeset for txn " << ws.txn_id
                                      << " touches no hosted shard");
  if (all_hosted) {
    apply.hosted = apply.ws;
  } else {
    // Partial replication: only the hosted shards' writes apply here.
    WriteSet sub;
    sub.txn_id = ws.txn_id;
    sub.origin = ws.origin;
    for (const WriteOp& op : ws.ops) {
      if (HostsShard(shard_map_.ShardOf(op.table))) sub.ops.push_back(op);
    }
    apply.hosted = std::make_shared<const WriteSet>(std::move(sub));
  }
  pending_index_.Insert(*apply.hosted, apply.versions, apply.is_local);
  for (const auto& [shard, version] : apply.versions) {
    Stream& stream = StreamOf(shard);
    SCREP_CHECK_MSG(stream.unpublished.emplace(version, ws.txn_id).second,
                    "duplicate version " << version << " in shard " << shard
                                         << " stream");
    stream.queued.emplace(version, ws.txn_id);
  }
  applies_.emplace(ws.txn_id, std::move(apply));
  peak_pending_writesets_ =
      std::max(peak_pending_writesets_, pending_writesets());
  AdvanceContiguous();
}

void Proxy::AdvanceContiguous() {
  for (Stream& stream : streams_) {
    while (stream.unpublished.count(stream.contiguous + 1) != 0) {
      ++stream.contiguous;
      // The writeset may just have become dispatchable gap-wise in all of
      // its streams; remember when, so StartApply can split its ordering
      // wait into gap wait vs. lane wait.
      PendingApply& apply =
          applies_.at(stream.unpublished.at(stream.contiguous));
      if (apply.dispatched) continue;
      bool ready = true;
      for (const auto& [shard, version] : apply.versions) {
        ready = ready && version <= StreamOf(shard).contiguous;
      }
      if (ready) apply.ready_time = rt_->Now();
    }
  }
}

bool Proxy::CanStart(const PendingApply& apply, const Stream* scanned) {
  for (const auto& [shard, version] : apply.versions) {
    Stream& stream = StreamOf(shard);
    // A version gap below (an unseen earlier writeset could conflict), or
    // no free lane.
    if (version > stream.contiguous ||
        stream.busy_lanes >= config_.apply_lanes) {
      return false;
    }
    if (&stream == scanned) continue;
    // Stream order: only writesets held back by a conflict are overtaken.
    for (auto it = stream.queued.begin(); it->first < version; ++it) {
      const PendingApply& earlier = applies_.at(it->second);
      if (!pending_index_.BlockedByEarlier(*earlier.hosted,
                                           earlier.versions)) {
        return false;
      }
    }
  }
  return true;
}

void Proxy::DispatchApplies() {
  // Each stream dispatches in version order; a writeset held back by a
  // conflict with an earlier un-published one is overtaken, any other
  // that cannot start yet (a gap or a busy lane in one of its streams)
  // holds its stream back.
  for (Stream& stream : streams_) {
    auto it = stream.queued.begin();
    while (it != stream.queued.end() &&
           stream.busy_lanes < config_.apply_lanes) {
      // Nothing above this stream's gap may dispatch yet.
      if (it->first > stream.contiguous) break;
      const TxnId txn = it->second;
      const PendingApply& apply = applies_.at(txn);
      ++it;  // advance before StartApply erases this entry
      if (pending_index_.BlockedByEarlier(*apply.hosted, apply.versions)) {
        continue;  // must wait for a conflicting earlier writeset
      }
      if (!CanStart(apply, &stream)) break;
      StartApply(txn);
    }
  }
}

void Proxy::StartApply(TxnId txn) {
  PendingApply& apply = applies_.at(txn);
  for (const auto& [shard, version] : apply.versions) {
    Stream& stream = StreamOf(shard);
    stream.queued.erase(version);
    ++stream.busy_lanes;
    SCREP_CHECK(apply_lanes_.TryAcquire());
  }
  pending_index_.MarkDispatched(*apply.hosted, apply.versions);
  apply.dispatched = true;

  Duration cost;
  if (apply.is_local) {
    auto ait = active_.find(txn);
    SCREP_CHECK(ait != active_.end());
    ActiveTxn* t = ait->second.get();
    t->apply_start_time = rt_->Now();
    t->stages.sync = t->apply_start_time - t->decision_time;
    // The ordering wait splits at the moment the contiguity watermarks
    // crossed this writeset: before it, the writeset waited for the gaps
    // below to fill (gap wait); after it, for free lanes and any
    // conflicting earlier writesets (lane wait).
    const TimePoint ready =
        apply.ready_time > 0 ? apply.ready_time : t->decision_time;
    EmitSpan("proxy.gap_wait", txn, t->decision_time,
             ready - t->decision_time);
    EmitSpan("proxy.lane_wait", txn, ready, t->apply_start_time - ready);
    cost = Stochastic(config_.commit_cost);
  } else {
    cost = Stochastic(config_.refresh_base +
                      config_.refresh_per_op *
                          static_cast<Duration>(apply.hosted->size()));
  }

  const uint64_t epoch = epoch_;
  cpu_.Submit(cost, [this, epoch, txn]() {
    if (epoch != epoch_ || down_) return;  // crashed meanwhile; Crash()
                                           // already returned the lanes
    PendingApply& done = applies_.at(txn);
    for (const auto& [shard, version] : done.versions) {
      (void)version;
      --StreamOf(shard).busy_lanes;
      apply_lanes_.Release();
    }
    if (done.is_local) {
      auto ait = active_.find(txn);
      if (ait != active_.end()) {
        ActiveTxn* t = ait->second.get();
        t->exec_done_time = rt_->Now();
        EmitSpan("proxy.apply", txn, t->apply_start_time,
                 t->exec_done_time - t->apply_start_time);
      }
    }
    done.executed = true;
    ++executed_count_;
    PublishReady();
    DispatchApplies();
  });
}

void Proxy::PublishReady() {
  // Publish executed writesets in strict per-stream version order: each
  // stream's version only ever advances by one, and each writeset's side
  // effects (event log, eager report, local-commit settlement, BEGIN-
  // waiter release) fire before the next one's — with one stream exactly
  // the serial apply path's externally visible order.  A writeset
  // publishes only when it is next in every one of its streams, so no
  // BEGIN can observe it in one stream and not another.
  for (bool progress = true; progress;) {
    progress = false;
    for (Stream& stream : streams_) {
      if (stream.unpublished.empty() ||
          stream.unpublished.begin()->first != stream.published + 1) {
        continue;
      }
      const TxnId txn = stream.unpublished.begin()->second;
      const PendingApply& apply = applies_.at(txn);
      bool next_everywhere = apply.executed;
      for (const auto& [shard, version] : apply.versions) {
        next_everywhere =
            next_everywhere && StreamOf(shard).published + 1 == version;
      }
      if (!next_everywhere) continue;
      Publish(txn);
      progress = true;
    }
  }
}

void Proxy::Publish(TxnId txn) {
  auto node = applies_.extract(txn);
  const PendingApply& apply = node.mapped();
  --executed_count_;
  const Status st = db_->ApplyWriteSetLocal(*apply.hosted);
  SCREP_CHECK_MSG(st.ok(), "apply failed: " << st.ToString());
  pending_index_.Erase(*apply.hosted, apply.versions);
  for (const auto& [shard, version] : apply.versions) {
    Stream& stream = StreamOf(shard);
    stream.unpublished.erase(stream.unpublished.begin());
    stream.published = version;
  }
  if (!apply.is_local) {
    ++refresh_applied_;
    if (ctr_refresh_applied_ != nullptr) ctr_refresh_applied_->Increment();
  }
  // Publishing frees the apply-pipeline slot this writeset held: return
  // its refresh credit so the certifier may send the next one.
  if (apply.credited && credit_cb_) credit_cb_(apply.credit_lane, 1);
  if (event_log_ != nullptr && event_log_->enabled()) {
    obs::Event e;
    e.kind = obs::EventKind::kApply;
    e.at = rt_->Now();
    e.txn = txn;
    e.replica = id_;
    e.commit_version = apply.ws->commit_version;
    e.local = apply.is_local;
    e.shard_versions =
        ShardCoordsField(apply.versions, shard_map_.shard_count());
    event_log_->Append(std::move(e));
  }
  if (eager_) replica_committed_cb_(txn);
  if (apply.is_local || apply.claimed) {
    auto it = active_.find(txn);
    if (it != active_.end()) FinishLocalCommit(it->second.get());
  }
  ReleaseBeginWaiters();
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
  // The per-shard V_local tag: each hosted stream's published version.
  ShardVersions locals;
  for (ShardId s : hosted_shards_) locals.emplace_back(s, ShardPublished(s));
  const int shards = shard_map_.shard_count();
  response.shard_locals = ShardCoordsField(std::move(locals), shards);
  response.shard_snapshots = ShardCoordsField(t->snapshots, shards);
  if (outcome == TxnOutcome::kCommitted && !response.read_only) {
    response.commit_version = t->writeset.commit_version;
    response.shard_versions = t->writeset.shard_versions;
    const ShardCoords commits(t->writeset.shard_versions,
                              t->writeset.commit_version);
    for (TableId table : t->writeset.TablesWritten()) {
      // A table's fine-grained tag advances in its own shard's version
      // space.
      response.written_table_versions.emplace_back(
          table, commits.Of(shard_map_.ShardOf(table)));
    }
    for (const WriteOp& op : t->writeset.ops) {
      response.keys_written.emplace_back(op.table, op.key);
    }
  }
  response_cb_(response);
  active_.erase(t->request.txn_id);
}

}  // namespace screp
