#include "replication/certifier.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/logging.h"

namespace screp {

Certifier::Certifier(runtime::Runtime* rt, CertifierConfig config,
                     int replica_count, bool eager, ShardMap map)
    : rt_(rt),
      config_(config),
      map_(std::move(map)),
      replica_count_(replica_count),
      eager_(eager),
      hosts_(static_cast<size_t>(replica_count),
             std::vector<bool>(static_cast<size_t>(map_.shard_count()), true)),
      eager_tracker_(replica_count),
      replica_down_(static_cast<size_t>(replica_count), false) {
  const bool serializable = config_.mode == CertificationMode::kSerializable;
  const int k = map_.shard_count();
  for (int s = 0; s < k; ++s) {
    lanes_.push_back(std::make_unique<Lane>(
        rt, k == 1 ? std::string("certifier")
                   : "certifier-lane" + std::to_string(s),
        serializable, replica_count, config_.refresh_credit_window));
  }
}

void Certifier::SetHostedShards(
    const std::vector<std::vector<ShardId>>& hosted) {
  // A replica without an entry (or with an empty set) hosts everything.
  for (size_t r = 0; r < hosted.size() && r < hosts_.size(); ++r) {
    const auto& set = hosted[r];
    if (set.empty()) continue;  // this replica hosts everything
    auto& row = hosts_[r];
    std::fill(row.begin(), row.end(), false);
    for (ShardId s : set) {
      SCREP_CHECK_MSG(s >= 0 && s < lane_count(),
                      "hosted shard " << s << " out of range");
      row[static_cast<size_t>(s)] = true;
    }
  }
}

void Certifier::SetObservability(obs::Observability* obs) {
  if (obs == nullptr) {
    tracer_ = nullptr;
    event_log_ = nullptr;
    ctr_certified_ = nullptr;
    ctr_aborts_ww_ = nullptr;
    ctr_aborts_rw_ = nullptr;
    ctr_aborts_window_ = nullptr;
    ctr_forces_ = nullptr;
    ctr_shed_ = nullptr;
    ctr_sequenced_ = nullptr;
    batch_size_hist_ = nullptr;
    last_batch_gauge_ = nullptr;
    return;
  }
  tracer_ = obs->tracer();
  event_log_ = obs->event_log();
  obs::MetricsRegistry* registry = obs->registry();
  ctr_certified_ = registry->GetCounter("certifier.certified");
  ctr_aborts_ww_ = registry->GetCounter("certifier.aborts.ww");
  ctr_aborts_rw_ = registry->GetCounter("certifier.aborts.rw");
  ctr_aborts_window_ = registry->GetCounter("certifier.aborts.window");
  ctr_forces_ = registry->GetCounter("certifier.forces");
  ctr_shed_ = registry->GetCounter("certifier.shed");
  // Only a multi-lane certifier can sequence across lanes.
  if (sharded()) ctr_sequenced_ = registry->GetCounter("certifier.sequenced");
  batch_size_hist_ = registry->GetHistogram("certifier.batch_size");
  last_batch_gauge_ = registry->GetGauge("certifier.last_batch_size");
}

DbVersion Certifier::SnapshotIn(const WriteSet& ws, ShardId s) const {
  return ShardCoords(ws.shard_snapshots, ws.snapshot_version).Of(s);
}

DbVersion Certifier::VersionIn(const WriteSet& ws, ShardId s) const {
  return ShardCoords(ws.shard_versions, ws.commit_version).Of(s, kNoVersion);
}

ShardId Certifier::FanoutLane(const WriteSet& ws, ReplicaId target) const {
  for (const auto& [s, version] :
       ShardCoords(ws.shard_versions, ws.commit_version)) {
    (void)version;
    if (hosts_[static_cast<size_t>(target)][static_cast<size_t>(s)]) return s;
  }
  return -1;
}

size_t Certifier::conflict_index_size() const {
  size_t total = 0;
  for (const auto& l : lanes_) total += l->index.size();
  return total;
}

size_t Certifier::deferred_refresh_total() const {
  size_t total = 0;
  for (const auto& l : lanes_) {
    for (const auto& q : l->deferred) total += q.size();
  }
  return total;
}

void Certifier::SubmitCertification(WriteSet ws) {
  SCREP_CHECK_MSG(!ws.empty(), "read-only writesets never reach the certifier");
  SCREP_CHECK(ws.origin != kNoReplica);
  auto sub = std::make_shared<Submission>();
  sub->lanes = map_.ShardsOf(ws);
  // Intake bound: refuse on arrival once a touched lane's CPU queue is at
  // the bound, BEFORE the writeset can enter the certification stream —
  // a shed submission is never forwarded to the standby, so primary and
  // standby still process identical streams, and a cross-lane submission
  // admitted into only some of its lanes cannot stall the others.
  // Failover resubmissions (already in decided_) are exempt: their
  // decision exists and must be re-sent.
  if (!muted_ && config_.max_intake > 0 &&
      decided_.find(ws.txn_id) == decided_.end()) {
    for (ShardId s : sub->lanes) {
      if (lane(s).cpu.QueueLength() >= config_.max_intake) {
        ShedSubmission(ws);
        return;
      }
    }
  }
  sub->ws = std::move(ws);
  sub->votes_outstanding = static_cast<int>(sub->lanes.size());
  for (ShardId s : sub->lanes) lane(s).queue.push_back(sub);
  // One certify-CPU service per touched lane.  Each lane's CPU is a
  // single FIFO server, so the decide order is deterministic.
  const TimePoint enqueued = rt_->Now();
  for (ShardId s : sub->lanes) {
    lane(s).cpu.Submit(config_.certify_cpu_time,
                       [this, sub, enqueued]() {
                         const TxnId txn = sub->ws.txn_id;
                         const bool last = sub->votes_outstanding == 1;
                         OnVote(sub);
                         if (!last || tracer_ == nullptr || muted_) return;
                         // The lane's single-server FIFO CPU served the
                         // last vote for exactly certify_cpu_time at the
                         // end of the interval; everything before that
                         // was intake queueing.
                         const TimePoint service_start =
                             rt_->Now() - config_.certify_cpu_time;
                         tracer_->Add({.name = "certifier.intake_wait",
                                       .category = "certifier",
                                       .pid = obs::kCertifierPid,
                                       .tid = static_cast<int64_t>(txn),
                                       .start = enqueued,
                                       .duration = service_start - enqueued,
                                       .txn = txn});
                         tracer_->Add({.name = "certifier.certify",
                                       .category = "certifier",
                                       .pid = obs::kCertifierPid,
                                       .tid = static_cast<int64_t>(txn),
                                       .start = service_start,
                                       .duration = config_.certify_cpu_time,
                                       .txn = txn});
                       });
  }
}

void Certifier::ShedSubmission(const WriteSet& ws) {
  ++shed_;
  if (ctr_shed_ != nullptr) ctr_shed_->Increment();
  if (event_log_ != nullptr && event_log_->enabled()) {
    obs::Event e;
    e.kind = obs::EventKind::kShed;
    e.at = rt_->Now();
    e.txn = ws.txn_id;
    e.replica = ws.origin;
    e.detail = "certifier";
    event_log_->Append(std::move(e));
  }
  // Deliberately NOT recorded in decided_: nothing was certified, and a
  // retry must be certified fresh (against its new snapshot).
  CertDecision decision;
  decision.txn_id = ws.txn_id;
  decision.commit = false;
  decision.overloaded = true;
  decision_cb_(ws.origin, decision);
}

void Certifier::OnVote(const std::shared_ptr<Submission>& sub) {
  if (--sub->votes_outstanding > 0) return;
  DecideEligible();
}

void Certifier::DecideEligible() {
  // Each decision pops queue heads and may unblock the next, so sweep
  // until a full pass makes no progress.
  bool progress = true;
  while (progress) {
    progress = false;
    for (const auto& l : lanes_) {
      if (l->queue.empty()) continue;
      const std::shared_ptr<Submission> head = l->queue.front();
      if (head->votes_outstanding > 0) continue;
      const bool at_all_heads =
          std::all_of(head->lanes.begin(), head->lanes.end(),
                      [this, &head](ShardId s) {
                        return lane(s).queue.front() == head;
                      });
      if (!at_all_heads) continue;
      for (ShardId s : head->lanes) lane(s).queue.pop_front();
      Decide(std::move(head->ws), head->lanes);
      progress = true;
    }
  }
}

void Certifier::EmitVerdict(const WriteSet& ws, bool commit,
                            const char* reason, DbVersion conflict_version,
                            TxnId conflict_txn) {
  if (muted_ || event_log_ == nullptr || !event_log_->enabled()) return;
  obs::Event e;
  e.kind = obs::EventKind::kCertVerdict;
  e.at = rt_->Now();
  e.txn = ws.txn_id;
  e.replica = ws.origin;
  e.snapshot = ws.snapshot_version;
  e.committed = commit;
  e.read_only = false;
  e.shard_snapshots = ws.shard_snapshots;
  if (commit) {
    e.commit_version = ws.commit_version;
    e.shard_versions = ws.shard_versions;
  } else {
    e.detail = reason;
    e.conflict_version = conflict_version;
    e.conflict_txn = conflict_txn;
  }
  event_log_->Append(std::move(e));
}

void Certifier::RecordDecision(const CertDecision& decision,
                               ShardId first_lane) {
  decided_[decision.txn_id] = decision;
  Lane& l = lane(first_lane);
  l.decided_log.emplace_back(l.v_commit, decision.txn_id);
}

void Certifier::MirrorPruneOf(const Certifier& primary) {
  for (ShardId s = 0; s < lane_count(); ++s) {
    lane(s).mirrored_prunes.emplace_back(primary.lane(s).stream_position,
                                         primary.lane(s).pruned_through);
  }
  ApplyDuePrunes();
}

void Certifier::ApplyDuePrunes() {
  for (ShardId s = 0; s < lane_count(); ++s) {
    auto& due = lane(s).mirrored_prunes;
    while (!due.empty() && due.front().first <= lane(s).stream_position) {
      PruneThrough(s, due.front().second);
      due.pop_front();
    }
  }
}

void Certifier::PruneThrough(ShardId s, DbVersion horizon) {
  Lane& l = lane(s);
  if (horizon <= l.pruned_through) return;
  l.pruned_through = horizon;
  EvictWindow(s);
  // No live replica reads the log below its snapshot, and the window
  // holds everything above the mark, so whole segments at or below the
  // mark go too.  A replica crashed below them rejoins from a peer's
  // snapshot instead.
  l.wal.DropThrough(horizon);
  while (!l.decided_log.empty() && l.decided_log.front().first < horizon) {
    decided_.erase(l.decided_log.front().second);
    l.decided_log.pop_front();
  }
}

void Certifier::EvictWindow(ShardId s) {
  Lane& l = lane(s);
  const DbVersion evict_through = std::min(l.pruned_through, l.durable_version);
  while (!l.recent.empty() &&
         VersionIn(*l.recent.front(), s) <= evict_through) {
    l.index.Erase(*l.recent.front(), VersionIn(*l.recent.front(), s),
                  lane_map(), s);
    l.recent.pop_front();
  }
}

void Certifier::Decide(WriteSet ws, const std::vector<ShardId>& lanes) {
  ApplyDuePrunes();
  // Idempotence: a transaction re-submitted after a certifier failover
  // (or a duplicated message) gets its original decision.
  if (auto it = decided_.find(ws.txn_id); it != decided_.end()) {
    if (!muted_) decision_cb_(ws.origin, it->second);
    return;
  }
  for (ShardId s : lanes) ++lane(s).stream_position;
  ++seq_;
  // Forward to the standby BEFORE any decision can be announced, so the
  // standby's deterministic state always covers everything the replicas
  // may have observed (synchronous state-machine replication).
  if (forward_cb_) forward_cb_(ws);
  // Conservative abort when a touched lane's snapshot predates its
  // retained window.  The prune mark, not the window's front, decides:
  // an emptied window covers nothing below it.
  for (ShardId s : lanes) {
    const DbVersion snapshot = SnapshotIn(ws, s);
    if (snapshot >= lane(s).pruned_through) continue;
    ++window_aborts_;
    ++aborts_;
    if (!muted_) {
      if (ctr_aborts_window_ != nullptr) ctr_aborts_window_->Increment();
      SCREP_LOG(kWarn) << "[certifier] conservative window abort of txn "
                       << ws.txn_id << ": lane " << s << " snapshot "
                       << snapshot
                       << " predates the retained window (pruned through "
                       << lane(s).pruned_through << ", conflict_window="
                       << config_.conflict_window << ")";
    }
    Reject(ws, lanes.front(), "window", kNoVersion, 0);
    return;
  }
  bool ww = false;
  CommittedKeyIndex::Hit blame;
  if (FindConflict(ws, lanes, &ww, &blame)) {
    ++aborts_;
    if (!ww) ++rw_aborts_;
    if (!muted_) {
      if (!ww) {
        if (ctr_aborts_rw_ != nullptr) ctr_aborts_rw_->Increment();
      } else if (ctr_aborts_ww_ != nullptr) {
        ctr_aborts_ww_->Increment();
      }
      SCREP_LOG(kDebug) << "[certifier] certification abort of txn "
                        << ws.txn_id << " from replica " << ws.origin
                        << " (snapshot " << ws.snapshot_version << "): "
                        << (ww ? "write-write" : "read-write")
                        << " conflict with committed version "
                        << blame.version << " (txn " << blame.txn << ")";
    }
    Reject(ws, lanes.front(), ww ? "ww" : "rw", blame.version, blame.txn);
    return;
  }
  Commit(std::move(ws), lanes);
}

bool Certifier::FindConflict(const WriteSet& ws,
                             const std::vector<ShardId>& lanes, bool* ww,
                             CommittedKeyIndex::Hit* blame) const {
  // First-committer-wins: a conflict with any writeset committed after
  // this transaction's snapshot aborts it.  Serializable mode also aborts
  // read-write conflicts (this transaction read data a concurrent
  // committed transaction wrote).  Each lane looks the written / read
  // keys up in its index — O(|writeset|); foreign-lane keys never hit.
  const bool serializable = config_.mode == CertificationMode::kSerializable;
  bool found = false;
  for (ShardId s : lanes) {
    const Lane& l = lane(s);
    const DbVersion snapshot = SnapshotIn(ws, s);
    CommittedKeyIndex::Hit write_hit, read_hit;
    const bool has_write =
        l.index.LatestWriteConflict(ws, snapshot, &write_hit);
    const bool has_read =
        serializable && l.index.LatestReadConflict(ws, snapshot, &read_hit);
    if (!has_write && !has_read) continue;
    // Within a lane the newest conflicting writeset is blamed; when it
    // conflicts both ways the write-write conflict wins.  Lane versions
    // are incomparable across lanes, so there the decide sequence number
    // picks the newest, and a tie (one committed cross-lane transaction
    // hitting through several lanes) again goes to write-write.
    const bool lane_ww = has_write && write_hit.version >= read_hit.version;
    const CommittedKeyIndex::Hit& hit = lane_ww ? write_hit : read_hit;
    if (!found || hit.seq > blame->seq || (hit.seq == blame->seq && lane_ww)) {
      found = true;
      *ww = lane_ww;
      *blame = hit;
    }
  }
  return found;
}

void Certifier::Reject(const WriteSet& ws, ShardId first_lane,
                       const char* reason, DbVersion conflict_version,
                       TxnId conflict_txn) {
  EmitVerdict(ws, /*commit=*/false, reason, conflict_version, conflict_txn);
  CertDecision decision{ws.txn_id, /*commit=*/false, kNoVersion};
  RecordDecision(decision, first_lane);
  if (!muted_) decision_cb_(ws.origin, decision);
}

void Certifier::Commit(WriteSet ws, const std::vector<ShardId>& lanes) {
  // The joint commit version: the next version in every touched lane,
  // assigned atomically.  The scalar commit_version is the first touched
  // lane's (at K = 1 the global total order, with no shard coordinates).
  ShardVersions versions;
  for (ShardId s : lanes) versions.emplace_back(s, ++lane(s).v_commit);
  ws.commit_version = versions.front().second;
  ws.shard_versions = ShardCoordsField(std::move(versions), lane_count());
  ++certified_;
  if (lanes.size() > 1) {
    ++sequenced_;
    if (!muted_ && ctr_sequenced_ != nullptr) ctr_sequenced_->Increment();
  }
  EmitVerdict(ws, /*commit=*/true, nullptr, kNoVersion, 0);
  if (!muted_ && ctr_certified_ != nullptr) ctr_certified_->Increment();
  // The conflict_window cap: at most that many versions per lane stay
  // certifiable.
  for (ShardId s : lanes) {
    const DbVersion v = lane(s).v_commit;
    if (static_cast<size_t>(v) > config_.conflict_window) {
      PruneThrough(s, v - static_cast<DbVersion>(config_.conflict_window));
    }
  }
  CertDecision decision{ws.txn_id, /*commit=*/true, ws.commit_version};
  decision.shard_versions = ws.shard_versions;
  RecordDecision(decision, lanes.front());
  // Freeze the writeset: one immutable object shared by every touched
  // lane's window, the force batches, every per-target refresh batch and
  // the proxies' apply queues.
  WriteSetRef frozen = std::make_shared<const WriteSet>(std::move(ws));
  for (ShardId s : lanes) {
    Lane& l = lane(s);
    l.recent.push_back(frozen);
    l.index.Insert(*frozen, {VersionIn(*frozen, s), frozen->txn_id, seq_},
                   lane_map(), s);
    EvictWindow(s);
  }
  if (eager_) {
    eager_tracker_.OnCertified(frozen->txn_id);
    eager_origins_[frozen->txn_id] = frozen->origin;
  }
  if (tracer_ != nullptr && !muted_ && tracer_->active()) {
    // Remember when certification finished so the announcement after the
    // group-commit force can span the durability wait.
    certify_done_at_[frozen->txn_id] = rt_->Now();
  }
  // Group commit: batch decisions while a force is in flight; the next
  // force covers the whole batch with a single disk write.
  if (lanes.size() > 1) {
    force_remaining_[frozen->txn_id] = static_cast<int>(lanes.size());
  }
  for (ShardId s : lanes) {
    Lane& l = lane(s);
    l.force_batch.push_back(frozen);
    if (l.force_in_flight) continue;
    l.force_in_flight = true;
    ForceNext(s);
  }
}

void Certifier::ForceNext(ShardId s) {
  Lane& l = lane(s);
  std::vector<WriteSetRef> batch;
  if (config_.max_force_batch > 0 &&
      l.force_batch.size() > config_.max_force_batch) {
    // Capped group commit: take the oldest max_force_batch writesets (in
    // lane-version order) and leave the rest for the next force.
    const auto split = l.force_batch.begin() +
                       static_cast<std::ptrdiff_t>(config_.max_force_batch);
    batch.assign(l.force_batch.begin(), split);
    l.force_batch.erase(l.force_batch.begin(), split);
  } else {
    batch.swap(l.force_batch);
  }
  const TimePoint force_start = rt_->Now();
  l.disk.Submit(
      config_.log_force_time,
      [this, s, batch = std::move(batch), force_start]() {
        Lane& l = lane(s);
        const auto batch_size = static_cast<int64_t>(batch.size());
        if (!muted_) {
          if (ctr_forces_ != nullptr) ctr_forces_->Increment();
          if (batch_size_hist_ != nullptr) {
            batch_size_hist_->Add(static_cast<double>(batch_size));
          }
          if (last_batch_gauge_ != nullptr) {
            last_batch_gauge_->Set(static_cast<double>(batch_size));
          }
          if (tracer_ != nullptr) {
            tracer_->Add({.name = "certifier.log_force",
                          .category = "certifier",
                          .pid = obs::kCertifierPid,
                          .tid = s,
                          .start = force_start,
                          .duration = rt_->Now() - force_start,
                          .txn = 0,
                          .arg_name = "batch",
                          .arg_value = batch_size});
          }
        }
        // Durability + announcement per writeset, in lane-version order;
        // with refresh batching the fan-out of everything this force made
        // durable then goes out as one message per target stream.
        std::vector<WriteSetRef> durable;
        for (const WriteSetRef& ws : batch) {
          l.wal.Append(*ws);
          if (!JointlyDurable(*ws)) continue;
          if (config_.refresh_batching) {
            AnnounceDecision(*ws);
            durable.push_back(ws);
          } else {
            Announce(ws);
          }
        }
        if (config_.refresh_batching) AnnounceRefreshBatches(durable);
        l.durable_version = VersionIn(*batch.back(), s);
        EvictWindow(s);
        if (!l.force_batch.empty()) {
          ForceNext(s);
        } else {
          l.force_in_flight = false;
        }
      });
}

bool Certifier::JointlyDurable(const WriteSet& ws) {
  // A cross-lane commit is announced only once its force completed in
  // EVERY touched lane — joint durability before any replica hears of it.
  if (ws.shard_versions.size() <= 1) return true;
  auto it = force_remaining_.find(ws.txn_id);
  SCREP_CHECK(it != force_remaining_.end());
  if (--it->second > 0) return false;
  force_remaining_.erase(it);
  return true;
}

void Certifier::Announce(const WriteSetRef& ws) {
  if (muted_) return;  // standby: identical state, silent channels
  AnnounceDecision(*ws);
  for (ReplicaId r = 0; r < replica_count_; ++r) {
    if (r == ws->origin) continue;
    if (replica_down_[static_cast<size_t>(r)]) continue;  // catches up later
    const ShardId s = FanoutLane(*ws, r);
    if (s >= 0) SendRefresh(s, r, ws);
  }
}

void Certifier::SendRefresh(ShardId s, ReplicaId replica,
                            const WriteSetRef& ws) {
  if (config_.refresh_credit_window == 0) {
    refresh_cb_(s, replica, RefreshBatch{{ws}});
    return;
  }
  Lane& l = lane(s);
  const auto idx = static_cast<size_t>(replica);
  // Order preservation: once anything is deferred for this stream,
  // everything newer must queue behind it.
  if (!l.deferred[idx].empty() || l.credits[idx] <= 0) {
    l.deferred[idx].push_back(ws);
    return;
  }
  --l.credits[idx];
  refresh_cb_(s, replica, RefreshBatch{{ws}});
}

void Certifier::AnnounceDecision(const WriteSet& ws) {
  if (muted_) return;
  if (tracer_ != nullptr) {
    if (auto it = certify_done_at_.find(ws.txn_id);
        it != certify_done_at_.end()) {
      tracer_->Add({.name = "certifier.force_wait",
                    .category = "certifier",
                    .pid = obs::kCertifierPid,
                    .tid = static_cast<int64_t>(ws.txn_id),
                    .start = it->second,
                    .duration = rt_->Now() - it->second,
                    .txn = ws.txn_id});
      certify_done_at_.erase(it);
    }
  }
  CertDecision decision{ws.txn_id, /*commit=*/true, ws.commit_version};
  decision.shard_versions = ws.shard_versions;
  decision_cb_(ws.origin, decision);
}

void Certifier::AnnounceRefreshBatches(
    const std::vector<WriteSetRef>& batch) {
  if (muted_) return;
  const bool credited = config_.refresh_credit_window > 0;
  for (ReplicaId r = 0; r < replica_count_; ++r) {
    const auto idx = static_cast<size_t>(r);
    if (replica_down_[idx]) continue;  // catches up later
    std::vector<RefreshBatch> per_lane(lanes_.size());
    for (const WriteSetRef& ws : batch) {
      if (ws->origin == r) continue;  // the origin applies its own commit
      const ShardId s = FanoutLane(*ws, r);
      if (s < 0) continue;
      Lane& l = lane(s);
      // Each writeset in the coalesced batch consumes one credit; the
      // overflow is deferred in order behind anything already deferred.
      if (credited && (!l.deferred[idx].empty() || l.credits[idx] <= 0)) {
        l.deferred[idx].push_back(ws);
        continue;
      }
      if (credited) --l.credits[idx];
      per_lane[static_cast<size_t>(s)].writesets.push_back(ws);
    }
    for (ShardId s = 0; s < lane_count(); ++s) {
      const RefreshBatch& refresh = per_lane[static_cast<size_t>(s)];
      if (!refresh.writesets.empty()) refresh_cb_(s, r, refresh);
    }
  }
}

void Certifier::OnCreditReturned(ShardId s, ReplicaId replica, int credits) {
  if (config_.refresh_credit_window == 0) return;
  SCREP_CHECK(s >= 0 && s < lane_count());
  SCREP_CHECK(replica >= 0 && replica < replica_count_);
  Lane& l = lane(s);
  const auto idx = static_cast<size_t>(replica);
  // Cap at the window: duplicate-tolerant (a proxy returning a credit for
  // a writeset the channel duplicated can never inflate the window).
  l.credits[idx] =
      std::min(l.credits[idx] + credits,
               static_cast<int64_t>(config_.refresh_credit_window));
  if (muted_ || replica_down_[idx]) return;
  auto& deferred = l.deferred[idx];
  if (deferred.empty()) return;
  // Drain as ONE coalesced batch up to the credits available — under
  // sustained pressure the flow-control path batches fan-out by itself.
  RefreshBatch refresh;
  while (!deferred.empty() && l.credits[idx] > 0) {
    refresh.writesets.push_back(std::move(deferred.front()));
    deferred.pop_front();
    --l.credits[idx];
  }
  if (!refresh.writesets.empty()) refresh_cb_(s, replica, refresh);
}

void Certifier::MarkReplicaDown(ReplicaId replica) {
  SCREP_CHECK(replica >= 0 && replica < replica_count_);
  const auto idx = static_cast<size_t>(replica);
  if (replica_down_[idx]) return;
  replica_down_[idx] = true;
  if (config_.refresh_credit_window > 0) {
    // In-flight refreshes and deferred backlog are moot: the replica
    // catches up from the certifier on recovery, so its windows reset.
    for (const auto& l : lanes_) {
      l->deferred[idx].clear();
      l->credits[idx] = static_cast<int64_t>(config_.refresh_credit_window);
    }
  }
  if (!eager_) return;
  int active = 0;
  for (bool down : replica_down_) active += down ? 0 : 1;
  SCREP_CHECK_MSG(active >= 1, "all replicas down");
  // Lowering the bar may complete pending global commits.
  for (TxnId txn : eager_tracker_.SetActiveReplicaCount(active)) {
    auto it = eager_origins_.find(txn);
    SCREP_CHECK(it != eager_origins_.end());
    const ReplicaId origin = it->second;
    eager_origins_.erase(it);
    // The origin itself may be the crashed replica; its client will be
    // told of the failure by the load balancer instead.
    if (origin != replica) global_commit_cb_(origin, txn);
  }
}

void Certifier::MarkReplicaUp(ReplicaId replica) {
  SCREP_CHECK(replica >= 0 && replica < replica_count_);
  const auto idx = static_cast<size_t>(replica);
  if (!replica_down_[idx]) return;
  replica_down_[idx] = false;
  if (config_.refresh_credit_window > 0) {
    // The recovered replica's apply pipeline restarted empty; any credit
    // returns still in flight from before the crash will be capped.
    for (const auto& l : lanes_) {
      l->credits[idx] = static_cast<int64_t>(config_.refresh_credit_window);
    }
  }
  if (!eager_) return;
  int active = 0;
  for (bool down : replica_down_) active += down ? 0 : 1;
  // Raising the bar never completes anything.
  (void)eager_tracker_.SetActiveReplicaCount(active);
}

bool Certifier::IsReplicaDown(ReplicaId replica) const {
  SCREP_CHECK(replica >= 0 && replica < replica_count_);
  return replica_down_[static_cast<size_t>(replica)];
}

DbVersion Certifier::FetchFloor(ShardId s) const {
  const Lane& l = lane(s);
  const DbVersion window_floor =
      l.recent.empty() ? l.v_commit : VersionIn(*l.recent.front(), s) - 1;
  // Log records carry no shard coordinates: at K > 1 only the window
  // serves.
  if (sharded()) return window_floor;
  // The window holds everything not yet durable, so the log's retained
  // suffix and the window leave no gap between them.
  return std::min(window_floor, l.wal.FirstRetained() - 1);
}

Status Certifier::FetchSince(
    ShardId s, DbVersion from,
    const std::function<void(const WriteSet&)>& sink) const {
  const Lane& l = lane(s);
  if (from >= l.v_commit) return Status::OK();
  if (from < FetchFloor(s)) {
    return Status::OutOfRange("catch-up from lane " + std::to_string(s) +
                              " version " + std::to_string(from) +
                              " but the certifier retains only from " +
                              std::to_string(FetchFloor(s) + 1));
  }
  DbVersion next = from + 1;  // the next version the caller is owed
  if (l.recent.empty() || VersionIn(*l.recent.front(), s) > next) {
    SCREP_RETURN_NOT_OK(l.wal.ReadSince(from, [&](const WriteSet& ws) {
      sink(ws);
      next = ws.commit_version + 1;
    }));
  }
  for (const WriteSetRef& ws : l.recent) {
    if (VersionIn(*ws, s) >= next) sink(*ws);
  }
  return Status::OK();
}

void Certifier::NotifyReplicaCommitted(TxnId txn) {
  if (!eager_) return;
  if (eager_tracker_.OnReplicaCommitted(txn)) {
    auto it = eager_origins_.find(txn);
    SCREP_CHECK(it != eager_origins_.end());
    const ReplicaId origin = it->second;
    eager_origins_.erase(it);
    if (!muted_) global_commit_cb_(origin, txn);
  }
}

}  // namespace screp
