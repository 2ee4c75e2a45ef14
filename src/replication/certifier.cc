#include "replication/certifier.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/logging.h"

namespace screp {

Certifier::Certifier(runtime::Runtime* rt, CertifierConfig config,
                     int replica_count, bool eager)
    : rt_(rt),
      config_(config),
      replica_count_(replica_count),
      eager_(eager),
      cpu_(rt, "certifier-cpu", 1),
      disk_(rt, "certifier-disk", 1),
      conflict_index_(config.mode == CertificationMode::kSerializable),
      eager_tracker_(replica_count),
      replica_down_(static_cast<size_t>(replica_count), false),
      refresh_credits_(static_cast<size_t>(replica_count),
                       static_cast<int64_t>(config.refresh_credit_window)),
      deferred_refresh_(static_cast<size_t>(replica_count)) {}

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
  batch_size_hist_ = registry->GetHistogram("certifier.batch_size");
  last_batch_gauge_ = registry->GetGauge("certifier.last_batch_size");
}

void Certifier::SubmitCertification(WriteSet ws) {
  SCREP_CHECK_MSG(!ws.empty(), "read-only writesets never reach the certifier");
  SCREP_CHECK(ws.origin != kNoReplica);
  // Intake bound: refuse on arrival once the CPU queue is at the bound,
  // BEFORE the writeset can enter the certification stream — a shed
  // submission is never forwarded to the standby, so primary and standby
  // still process identical streams.  Failover resubmissions (already in
  // decided_) are exempt: their decision exists and must be re-sent.
  if (!muted_ && config_.max_intake > 0 &&
      cpu_.QueueLength() >= config_.max_intake &&
      decided_.find(ws.txn_id) == decided_.end()) {
    ShedSubmission(ws);
    return;
  }
  // Single CPU server => certifications are processed in arrival order,
  // which keeps version assignment deterministic.
  const TimePoint enqueued = rt_->Now();
  cpu_.Submit(config_.certify_cpu_time,
              [this, enqueued, ws = std::move(ws)]() mutable {
                const TxnId txn = ws.txn_id;
                Certify(std::move(ws));
                if (tracer_ != nullptr && !muted_) {
                  // The single-server FIFO CPU served this writeset for
                  // exactly certify_cpu_time at the end of the interval;
                  // everything before that was intake queueing.
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
                }
              });
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
  if (commit) {
    e.commit_version = ws.commit_version;
  } else {
    e.detail = reason;
    e.conflict_version = conflict_version;
    e.conflict_txn = conflict_txn;
  }
  event_log_->Append(std::move(e));
}

void Certifier::RecordDecision(const CertDecision& decision) {
  decided_[decision.txn_id] = decision;
  decided_log_.emplace_back(v_commit_, decision.txn_id);
}

void Certifier::MirrorPruneOf(const Certifier& primary) {
  mirrored_prunes_.emplace_back(primary.stream_position_,
                                primary.pruned_through_);
  ApplyDuePrunes();
}

void Certifier::ApplyDuePrunes() {
  while (!mirrored_prunes_.empty() &&
         mirrored_prunes_.front().first <= stream_position_) {
    PruneThrough(mirrored_prunes_.front().second);
    mirrored_prunes_.pop_front();
  }
}

void Certifier::PruneThrough(DbVersion horizon) {
  if (horizon <= pruned_through_) return;
  pruned_through_ = horizon;
  EvictWindow();
  while (!decided_log_.empty() &&
         decided_log_.front().first < pruned_through_) {
    decided_.erase(decided_log_.front().second);
    decided_log_.pop_front();
  }
}

void Certifier::EvictWindow() {
  const DbVersion evict_through = std::min(pruned_through_, durable_version_);
  while (!recent_.empty() &&
         recent_.front()->commit_version <= evict_through) {
    if (!config_.linear_scan_oracle) conflict_index_.Erase(*recent_.front());
    recent_.pop_front();
  }
}

void Certifier::Certify(WriteSet ws) {
  ApplyDuePrunes();
  // Idempotence: a transaction re-submitted after a certifier failover
  // (or a duplicated message) gets its original decision.
  if (auto it = decided_.find(ws.txn_id); it != decided_.end()) {
    if (!muted_) decision_cb_(ws.origin, it->second);
    return;
  }
  ++stream_position_;
  // Forward to the standby BEFORE any decision can be announced, so the
  // standby's deterministic state always covers everything the replicas
  // may have observed (synchronous state-machine replication).
  if (forward_cb_) forward_cb_(ws);
  // Conservative abort when the snapshot predates the retained window.
  // The prune mark, not recent_.front(), decides: an emptied window
  // covers nothing below it.
  if (ws.snapshot_version < pruned_through_) {
    ++window_aborts_;
    ++aborts_;
    if (!muted_) {
      if (ctr_aborts_window_ != nullptr) ctr_aborts_window_->Increment();
      SCREP_LOG(kWarn) << "[certifier] conservative window abort of txn "
                       << ws.txn_id << ": snapshot " << ws.snapshot_version
                       << " predates the retained window (pruned through "
                       << pruned_through_ << ", conflict_window="
                       << config_.conflict_window << ")";
    }
    EmitVerdict(ws, /*commit=*/false, "window", kNoVersion, 0);
    CertDecision decision{ws.txn_id, /*commit=*/false, kNoVersion};
    RecordDecision(decision);
    if (!muted_) decision_cb_(ws.origin, decision);
    return;
  }
  // First-committer-wins: conflict with any writeset committed after this
  // transaction's snapshot aborts it.  Serializable mode also aborts
  // read-write conflicts (this transaction read data a concurrent
  // committed transaction wrote).  The indexed path looks each written /
  // read key up in the conflict index — O(|writeset|) — and reports the
  // newest conflicting version, exactly what the oracle's newest-first
  // window rescan reports.
  const bool serializable =
      config_.mode == CertificationMode::kSerializable;
  bool ww = false, rw = false;
  DbVersion conflict_version = kNoVersion;
  TxnId conflict_txn = 0;
  if (config_.linear_scan_oracle) {
    // recent_ is ascending by version: scan from the back and stop at
    // the snapshot; the first conflict found is the newest.
    for (auto it = recent_.rbegin(); it != recent_.rend(); ++it) {
      const WriteSet& committed = **it;
      if (committed.commit_version <= ws.snapshot_version) break;
      ww = ws.ConflictsWith(committed);
      rw = serializable && ws.ReadsConflictWith(committed);
      if (ww || rw) {
        conflict_version = committed.commit_version;
        conflict_txn = committed.txn_id;
        break;
      }
    }
  } else {
    CommittedKeyIndex::Hit write_hit, read_hit;
    const bool has_write =
        conflict_index_.LatestWriteConflict(ws, ws.snapshot_version,
                                            &write_hit);
    const bool has_read =
        serializable && conflict_index_.LatestReadConflict(
                            ws, ws.snapshot_version, &read_hit);
    if (has_write || has_read) {
      // Attribute the abort to the newest conflicting writeset; when it
      // conflicts both ways the write-write conflict wins (matching the
      // oracle's per-writeset check order).
      if (has_write && write_hit.version >= read_hit.version) {
        ww = true;
        rw = has_read && read_hit.version == write_hit.version;
        conflict_version = write_hit.version;
        conflict_txn = write_hit.txn;
      } else {
        rw = true;
        conflict_version = read_hit.version;
        conflict_txn = read_hit.txn;
      }
    }
  }
  if (ww || rw) {
    ++aborts_;
    if (!ww && rw) ++rw_aborts_;
    if (!muted_) {
      if (!ww && rw) {
        if (ctr_aborts_rw_ != nullptr) ctr_aborts_rw_->Increment();
      } else if (ctr_aborts_ww_ != nullptr) {
        ctr_aborts_ww_->Increment();
      }
      SCREP_LOG(kDebug) << "[certifier] certification abort of txn "
                        << ws.txn_id << " from replica " << ws.origin
                        << " (snapshot " << ws.snapshot_version << "): "
                        << (ww ? "write-write" : "read-write")
                        << " conflict with committed version "
                        << conflict_version;
    }
    EmitVerdict(ws, /*commit=*/false, (!ww && rw) ? "rw" : "ww",
                conflict_version, conflict_txn);
    CertDecision decision{ws.txn_id, /*commit=*/false, kNoVersion};
    RecordDecision(decision);
    if (!muted_) decision_cb_(ws.origin, decision);
    return;
  }
  // Commit: assign the next version in the global total order, then
  // freeze the writeset — one immutable object shared by the conflict
  // window, the force batch, every per-target refresh batch and the
  // proxies' apply queues.
  ws.commit_version = ++v_commit_;
  ++certified_;
  EmitVerdict(ws, /*commit=*/true, nullptr, kNoVersion, 0);
  if (!muted_ && ctr_certified_ != nullptr) ctr_certified_->Increment();
  // The conflict_window cap: at most that many versions stay certifiable.
  if (static_cast<size_t>(v_commit_) > config_.conflict_window) {
    PruneThrough(v_commit_ - static_cast<DbVersion>(config_.conflict_window));
  }
  RecordDecision(CertDecision{ws.txn_id, /*commit=*/true, ws.commit_version});
  WriteSetRef frozen = std::make_shared<const WriteSet>(std::move(ws));
  recent_.push_back(frozen);
  if (!config_.linear_scan_oracle) conflict_index_.Insert(*recent_.back());
  EvictWindow();
  if (eager_) {
    eager_tracker_.OnCertified(frozen->txn_id);
    eager_origins_[frozen->txn_id] = frozen->origin;
  }
  if (tracer_ != nullptr && !muted_ && tracer_->active()) {
    // Remember when certification finished so the announcement after the
    // group-commit force can span the durability wait.
    certify_done_at_[frozen->txn_id] = rt_->Now();
  }
  MakeDurableAndAnnounce(std::move(frozen));
}

void Certifier::MakeDurableAndAnnounce(WriteSetRef ws) {
  // Group commit: batch decisions while a force is in flight; the next
  // force covers the whole batch with a single disk write.
  force_batch_.push_back(std::move(ws));
  if (force_in_flight_) return;
  force_in_flight_ = true;
  ForceNext();
}

void Certifier::ForceNext() {
  std::vector<WriteSetRef> batch;
  if (config_.max_force_batch > 0 &&
      force_batch_.size() > config_.max_force_batch) {
    // Capped group commit: take the oldest max_force_batch writesets (in
    // commit-version order) and leave the rest for the next force.
    const auto split = force_batch_.begin() +
                       static_cast<std::ptrdiff_t>(config_.max_force_batch);
    batch.assign(force_batch_.begin(), split);
    force_batch_.erase(force_batch_.begin(), split);
  } else {
    batch.swap(force_batch_);
  }
  const TimePoint force_start = rt_->Now();
  disk_.Submit(
      config_.log_force_time,
      [this, batch = std::move(batch), force_start]() {
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
                          .tid = 0,
                          .start = force_start,
                          .duration = rt_->Now() - force_start,
                          .txn = 0,
                          .arg_name = "batch",
                          .arg_value = batch_size});
          }
        }
        if (config_.refresh_batching) {
          // Durability + decisions per writeset (in version order), then
          // one coalesced refresh message per target for the whole batch.
          for (const WriteSetRef& ws : batch) {
            wal_.Append(*ws);
            AnnounceDecision(*ws);
          }
          AnnounceRefreshBatches(batch);
        } else {
          for (const WriteSetRef& ws : batch) {
            wal_.Append(*ws);
            Announce(ws);
          }
        }
        durable_version_ = batch.back()->commit_version;
        EvictWindow();
        if (!force_batch_.empty()) {
          ForceNext();
        } else {
          force_in_flight_ = false;
        }
      });
}

void Certifier::Announce(const WriteSetRef& ws) {
  if (muted_) return;  // standby: identical state, silent channels
  AnnounceDecision(*ws);
  for (ReplicaId r = 0; r < replica_count_; ++r) {
    if (r == ws->origin) continue;
    if (replica_down_[static_cast<size_t>(r)]) continue;  // catches up later
    SendRefresh(r, ws);
  }
}

void Certifier::SendRefresh(ReplicaId replica, const WriteSetRef& ws) {
  if (config_.refresh_credit_window == 0) {
    refresh_cb_(replica, RefreshBatch{{ws}});
    return;
  }
  const auto idx = static_cast<size_t>(replica);
  // Order preservation: once anything is deferred for this replica,
  // everything newer must queue behind it.
  if (!deferred_refresh_[idx].empty() || refresh_credits_[idx] <= 0) {
    deferred_refresh_[idx].push_back(ws);
    return;
  }
  --refresh_credits_[idx];
  refresh_cb_(replica, RefreshBatch{{ws}});
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
  decision_cb_(ws.origin, decision);
}

void Certifier::AnnounceRefreshBatches(
    const std::vector<WriteSetRef>& batch) {
  if (muted_) return;
  const bool credited = config_.refresh_credit_window > 0;
  for (ReplicaId r = 0; r < replica_count_; ++r) {
    const auto idx = static_cast<size_t>(r);
    if (replica_down_[idx]) continue;  // catches up later
    RefreshBatch refresh;
    for (const WriteSetRef& ws : batch) {
      if (ws->origin == r) continue;  // the origin applies its own commit
      // Each writeset in the coalesced batch consumes one credit; the
      // overflow is deferred in version order behind anything already
      // deferred.
      if (credited && (!deferred_refresh_[idx].empty() ||
                       refresh_credits_[idx] <= 0)) {
        deferred_refresh_[idx].push_back(ws);
        continue;
      }
      if (credited) --refresh_credits_[idx];
      refresh.writesets.push_back(ws);
    }
    if (!refresh.writesets.empty()) refresh_cb_(r, refresh);
  }
}

void Certifier::OnCreditReturned(ReplicaId replica, int credits) {
  if (config_.refresh_credit_window == 0) return;
  SCREP_CHECK(replica >= 0 && replica < replica_count_);
  const auto idx = static_cast<size_t>(replica);
  // Cap at the window: duplicate-tolerant (a proxy returning a credit for
  // a writeset the channel duplicated can never inflate the window).
  refresh_credits_[idx] =
      std::min(refresh_credits_[idx] + credits,
               static_cast<int64_t>(config_.refresh_credit_window));
  if (muted_ || replica_down_[idx]) return;
  auto& deferred = deferred_refresh_[idx];
  if (deferred.empty()) return;
  // Drain as ONE coalesced batch up to the credits available — under
  // sustained pressure the flow-control path batches fan-out by itself.
  RefreshBatch refresh;
  while (!deferred.empty() && refresh_credits_[idx] > 0) {
    refresh.writesets.push_back(std::move(deferred.front()));
    deferred.pop_front();
    --refresh_credits_[idx];
  }
  if (!refresh.writesets.empty()) refresh_cb_(replica, refresh);
}

void Certifier::MarkReplicaDown(ReplicaId replica) {
  SCREP_CHECK(replica >= 0 && replica < replica_count_);
  if (replica_down_[static_cast<size_t>(replica)]) return;
  replica_down_[static_cast<size_t>(replica)] = true;
  if (config_.refresh_credit_window > 0) {
    // In-flight refreshes and deferred backlog are moot: the replica
    // catches up from the durable log on recovery, so its window resets.
    deferred_refresh_[static_cast<size_t>(replica)].clear();
    refresh_credits_[static_cast<size_t>(replica)] =
        static_cast<int64_t>(config_.refresh_credit_window);
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
  if (!replica_down_[static_cast<size_t>(replica)]) return;
  replica_down_[static_cast<size_t>(replica)] = false;
  if (config_.refresh_credit_window > 0) {
    // The recovered replica's apply pipeline restarted empty; any credit
    // returns still in flight from before the crash will be capped.
    refresh_credits_[static_cast<size_t>(replica)] =
        static_cast<int64_t>(config_.refresh_credit_window);
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

Status Certifier::FetchSince(
    DbVersion from,
    const std::function<void(const WriteSet&)>& sink) const {
  if (from >= v_commit_) return Status::OK();
  DbVersion next = from + 1;  // the next version the caller is owed
  if (recent_.empty() || recent_.front()->commit_version > next) {
    // The window holds everything not yet durable, so log suffix plus
    // window leave no gap.
    SCREP_RETURN_NOT_OK(wal_.ReadSince(from, [&](const WriteSet& ws) {
      sink(ws);
      next = ws.commit_version + 1;
    }));
  }
  for (const WriteSetRef& ws : recent_) {
    if (ws->commit_version >= next) sink(*ws);
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
