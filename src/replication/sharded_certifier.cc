#include "replication/sharded_certifier.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>

#include "common/logging.h"

namespace screp {

ShardedCertifier::ShardedCertifier(runtime::Runtime* rt,
                                   CertifierConfig config, ShardMap map,
                                   int replica_count)
    : rt_(rt),
      config_(config),
      map_(std::move(map)),
      replica_count_(replica_count) {
  SCREP_CHECK_MSG(map_.shard_count() >= 1, "need at least one lane");
  const bool serializable = config_.mode == CertificationMode::kSerializable;
  lanes_.reserve(static_cast<size_t>(map_.shard_count()));
  for (int s = 0; s < map_.shard_count(); ++s) {
    lanes_.push_back(std::make_unique<Lane>(
        rt, "certifier-lane" + std::to_string(s), serializable));
  }
  hosts_.assign(static_cast<size_t>(replica_count),
                std::vector<bool>(static_cast<size_t>(map_.shard_count()),
                                  true));
  credits_.assign(
      static_cast<size_t>(map_.shard_count()),
      std::vector<int64_t>(static_cast<size_t>(replica_count),
                           static_cast<int64_t>(config_.refresh_credit_window)));
  deferred_.assign(static_cast<size_t>(map_.shard_count()),
                   std::vector<std::deque<WriteSetRef>>(
                       static_cast<size_t>(replica_count)));
}

void ShardedCertifier::SetHostedShards(
    const std::vector<std::vector<ShardId>>& hosted) {
  if (hosted.empty()) return;  // full replication: everyone hosts everything
  SCREP_CHECK_MSG(hosted.size() == static_cast<size_t>(replica_count_),
                  "hosted-shard sets must cover every replica");
  for (ReplicaId r = 0; r < replica_count_; ++r) {
    const auto& set = hosted[static_cast<size_t>(r)];
    if (set.empty()) continue;  // this replica hosts everything
    auto& row = hosts_[static_cast<size_t>(r)];
    std::fill(row.begin(), row.end(), false);
    for (ShardId s : set) {
      SCREP_CHECK_MSG(s >= 0 && s < map_.shard_count(),
                      "hosted shard " << s << " out of range");
      row[static_cast<size_t>(s)] = true;
    }
  }
}

void ShardedCertifier::SetObservability(obs::Observability* obs) {
  if (obs == nullptr) {
    event_log_ = nullptr;
    ctr_certified_ = nullptr;
    ctr_aborts_ww_ = nullptr;
    ctr_aborts_rw_ = nullptr;
    ctr_aborts_window_ = nullptr;
    ctr_shed_ = nullptr;
    ctr_sequenced_ = nullptr;
    return;
  }
  event_log_ = obs->event_log();
  obs::MetricsRegistry* registry = obs->registry();
  ctr_certified_ = registry->GetCounter("certifier.certified");
  ctr_aborts_ww_ = registry->GetCounter("certifier.aborts.ww");
  ctr_aborts_rw_ = registry->GetCounter("certifier.aborts.rw");
  ctr_aborts_window_ = registry->GetCounter("certifier.aborts.window");
  ctr_shed_ = registry->GetCounter("certifier.shed");
  ctr_sequenced_ = registry->GetCounter("certifier.sequenced");
}

size_t ShardedCertifier::conflict_index_size() const {
  size_t total = 0;
  for (const auto& lane : lanes_) total += lane->index.size();
  return total;
}

int64_t ShardedCertifier::refresh_credits(ShardId shard,
                                          ReplicaId replica) const {
  return credits_[static_cast<size_t>(shard)][static_cast<size_t>(replica)];
}

size_t ShardedCertifier::deferred_refresh_total() const {
  size_t total = 0;
  for (const auto& per_shard : deferred_) {
    for (const auto& q : per_shard) total += q.size();
  }
  return total;
}

void ShardedCertifier::SubmitCertification(WriteSet ws) {
  SCREP_CHECK_MSG(!ws.empty(), "read-only writesets never reach the certifier");
  SCREP_CHECK(ws.origin != kNoReplica);
  const TxnId txn = ws.txn_id;
  // Idempotence: a re-submitted decided transaction gets its original
  // decision back after one lane's CPU service (mirroring the base
  // certifier, which replays from decided_ after intake service).  The
  // decision is captured by value: retirement between submission and
  // service cannot invalidate the replay.
  if (auto it = decided_.find(txn); it != decided_.end()) {
    const ReplicaId origin = ws.origin;
    const ShardId lane = map_.ShardsOf(ws).front();
    lanes_[static_cast<size_t>(lane)]->cpu.Submit(
        config_.certify_cpu_time, [this, origin, decision = it->second]() {
          decision_cb_(origin, decision);
        });
    return;
  }
  // Duplicate of an in-flight submission: drop it — the pending decision
  // will be announced to the origin exactly once.
  if (pending_.find(txn) != pending_.end()) return;
  std::vector<ShardId> shards = map_.ShardsOf(ws);
  SCREP_CHECK_MSG(!shards.empty(), "writeset touches no shard");
  // Intake bound, per lane: refuse on arrival when ANY touched lane's
  // vote queue is at the bound — a cross-shard transaction admitted into
  // only some of its lanes would stall every queue behind its missing
  // votes.  A shed submission never enters any queue.
  if (config_.max_intake > 0) {
    for (ShardId s : shards) {
      if (lanes_[static_cast<size_t>(s)]->cpu.QueueLength() >=
          config_.max_intake) {
        ShedSubmission(ws);
        return;
      }
    }
  }
  PendingTxn pending;
  pending.ws = std::move(ws);
  pending.shards = std::move(shards);
  pending.votes_outstanding = static_cast<int>(pending.shards.size());
  PendingTxn& inserted = pending_[txn] = std::move(pending);
  // `inserted.shards`, not a reference into the local: the local's vector
  // was just moved away.
  const std::vector<ShardId> touched = inserted.shards;
  for (ShardId s : touched) {
    lanes_[static_cast<size_t>(s)]->order.push_back(txn);
  }
  // One certify-CPU service per touched lane: the per-shard conflict
  // checks proceed in parallel.
  for (ShardId s : touched) {
    lanes_[static_cast<size_t>(s)]->cpu.Submit(
        config_.certify_cpu_time, [this, txn]() { OnVote(txn); });
  }
}

void ShardedCertifier::ShedSubmission(const WriteSet& ws) {
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
  // Not recorded in decided_: nothing was certified, and a retry must be
  // certified fresh against its new snapshot.
  CertDecision decision;
  decision.txn_id = ws.txn_id;
  decision.commit = false;
  decision.overloaded = true;
  decision_cb_(ws.origin, decision);
}

void ShardedCertifier::OnVote(TxnId txn) {
  auto it = pending_.find(txn);
  SCREP_CHECK_MSG(it != pending_.end(), "vote for unknown txn " << txn);
  if (--it->second.votes_outstanding > 0) return;
  it->second.ready = true;
  DecideEligible();
}

void ShardedCertifier::DecideEligible() {
  // Decide every transaction that has all its votes and sits at the head
  // of ALL its touched lanes' queues; each decision pops queue heads and
  // may unblock the next, so sweep until a full pass makes no progress.
  bool progress = true;
  while (progress) {
    progress = false;
    for (const auto& lane : lanes_) {
      if (lane->order.empty()) continue;
      const TxnId txn = lane->order.front();
      auto it = pending_.find(txn);
      SCREP_CHECK_MSG(it != pending_.end(), "queued txn " << txn
                                                          << " not pending");
      if (!it->second.ready) continue;
      bool at_all_heads = true;
      for (ShardId s : it->second.shards) {
        const auto& q = lanes_[static_cast<size_t>(s)]->order;
        if (q.empty() || q.front() != txn) {
          at_all_heads = false;
          break;
        }
      }
      if (!at_all_heads) continue;
      PendingTxn pending = std::move(it->second);
      pending_.erase(it);
      for (ShardId s : pending.shards) {
        lanes_[static_cast<size_t>(s)]->order.pop_front();
      }
      Decide(std::move(pending));
      progress = true;
    }
  }
}

void ShardedCertifier::EmitVerdict(const WriteSet& ws, bool commit,
                                   const char* reason,
                                   DbVersion conflict_version,
                                   TxnId conflict_txn) {
  if (event_log_ == nullptr || !event_log_->enabled()) return;
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

void ShardedCertifier::RecordDecision(const CertDecision& decision) {
  decided_[decision.txn_id] = decision;
  decided_log_.emplace_back(seq_, decision.txn_id);
  // Retire decisions a full conflict window of decide steps old (the
  // sharded analog of the base certifier's commit-version horizon).
  const auto horizon = static_cast<int64_t>(config_.conflict_window);
  while (!decided_log_.empty() && seq_ - decided_log_.front().first > horizon) {
    decided_.erase(decided_log_.front().second);
    decided_log_.pop_front();
  }
}

void ShardedCertifier::Decide(PendingTxn pending) {
  WriteSet& ws = pending.ws;
  const std::vector<ShardId>& shards = pending.shards;
  const bool serializable = config_.mode == CertificationMode::kSerializable;
  const bool cross_shard = shards.size() > 1;
  // Conservative window abort when any touched lane's retained window no
  // longer covers the transaction's snapshot in that shard.
  for (ShardId s : shards) {
    Lane& lane = *lanes_[static_cast<size_t>(s)];
    const DbVersion snapshot = ShardVersionOf(ws.shard_snapshots, s);
    const DbVersion window_start =
        lane.recent.empty() ? 0 : lane.recent.front()->commit_version - 1;
    if (snapshot >= window_start) continue;
    ++window_aborts_;
    ++aborts_;
    if (ctr_aborts_window_ != nullptr) ctr_aborts_window_->Increment();
    SCREP_LOG(kWarn) << "[certifier] conservative window abort of txn "
                     << ws.txn_id << ": shard " << s << " snapshot "
                     << snapshot << " predates the retained window (starts at "
                     << window_start << ")";
    EmitVerdict(ws, /*commit=*/false, "window", kNoVersion, 0);
    ++seq_;
    CertDecision decision{ws.txn_id, /*commit=*/false, kNoVersion};
    RecordDecision(decision);
    decision_cb_(ws.origin, decision);
    return;
  }
  // First-committer-wins across every touched lane.  Each lane reports
  // its newest conflict (against this shard's committed sub-writesets,
  // probed with the full writeset: foreign-shard keys simply never hit).
  // Shard-local versions are incomparable across lanes, so "newest" is
  // resolved by the global decide sequence number recorded with each
  // committed sub-writeset; on a tie (one committed cross-shard
  // transaction hitting through several lanes) the write-write
  // classification wins, matching the oracle's per-writeset check order.
  bool found = false, ww = false;
  int64_t best_seq = -1;
  DbVersion conflict_version = kNoVersion;
  TxnId conflict_txn = 0;
  for (ShardId s : shards) {
    Lane& lane = *lanes_[static_cast<size_t>(s)];
    const DbVersion snapshot = ShardVersionOf(ws.shard_snapshots, s);
    bool lane_found = false, lane_ww = false;
    DbVersion lane_version = kNoVersion;
    TxnId lane_txn = 0;
    if (config_.linear_scan_oracle) {
      for (auto it = lane.recent.rbegin(); it != lane.recent.rend(); ++it) {
        const WriteSet& committed = **it;
        if (committed.commit_version <= snapshot) break;
        const bool hit_ww = ws.ConflictsWith(committed);
        const bool hit_rw = serializable && ws.ReadsConflictWith(committed);
        if (hit_ww || hit_rw) {
          lane_found = true;
          lane_ww = hit_ww;
          lane_version = committed.commit_version;
          lane_txn = committed.txn_id;
          break;
        }
      }
    } else {
      CommittedKeyIndex::Hit write_hit, read_hit;
      const bool has_write =
          lane.index.LatestWriteConflict(ws, snapshot, &write_hit);
      const bool has_read =
          serializable && lane.index.LatestReadConflict(ws, snapshot,
                                                        &read_hit);
      if (has_write || has_read) {
        lane_found = true;
        if (has_write && write_hit.version >= read_hit.version) {
          lane_ww = true;
          lane_version = write_hit.version;
          lane_txn = write_hit.txn;
        } else {
          lane_version = read_hit.version;
          lane_txn = read_hit.txn;
        }
      }
    }
    if (!lane_found) continue;
    const DbVersion front = lane.recent.front()->commit_version;
    const int64_t lane_seq =
        lane.recent_seq[static_cast<size_t>(lane_version - front)];
    if (!found || lane_seq > best_seq || (lane_seq == best_seq && lane_ww)) {
      found = true;
      ww = lane_ww;
      best_seq = lane_seq;
      conflict_version = lane_version;
      conflict_txn = lane_txn;
    }
  }
  if (found) {
    ++aborts_;
    if (!ww) ++rw_aborts_;
    if (!ww) {
      if (ctr_aborts_rw_ != nullptr) ctr_aborts_rw_->Increment();
    } else if (ctr_aborts_ww_ != nullptr) {
      ctr_aborts_ww_->Increment();
    }
    SCREP_LOG(kDebug) << "[certifier] certification abort of txn " << ws.txn_id
                      << " from replica " << ws.origin << ": "
                      << (ww ? "write-write" : "read-write")
                      << " conflict with shard-local version "
                      << conflict_version << " (txn " << conflict_txn << ")";
    EmitVerdict(ws, /*commit=*/false, ww ? "ww" : "rw", conflict_version,
                conflict_txn);
    ++seq_;
    CertDecision decision{ws.txn_id, /*commit=*/false, kNoVersion};
    RecordDecision(decision);
    decision_cb_(ws.origin, decision);
    return;
  }
  // Commit: one decide step assigns the joint commit version — the next
  // version in every touched lane, atomically.  The scalar
  // commit_version mirrors the lowest-numbered touched shard's version
  // for consumers that only track one number.
  ++seq_;
  ws.shard_versions.clear();
  for (ShardId s : shards) {
    Lane& lane = *lanes_[static_cast<size_t>(s)];
    ws.shard_versions.emplace_back(s, ++lane.v_commit);
  }
  ws.commit_version = ws.shard_versions.front().second;
  ++certified_;
  if (cross_shard) {
    ++sequenced_;
    if (ctr_sequenced_ != nullptr) ctr_sequenced_->Increment();
  }
  if (ctr_certified_ != nullptr) ctr_certified_->Increment();
  EmitVerdict(ws, /*commit=*/true, nullptr, kNoVersion, 0);
  CertDecision decision;
  decision.txn_id = ws.txn_id;
  decision.commit = true;
  decision.commit_version = ws.commit_version;
  decision.shard_versions = ws.shard_versions;
  RecordDecision(decision);
  WriteSetRef frozen = std::make_shared<const WriteSet>(std::move(ws));
  // Install the per-shard sub-writesets into their lanes' conflict
  // windows, stamped with the shard-local version and the decide
  // sequence number, and enqueue one WAL force per touched lane.
  force_remaining_[frozen->txn_id] = static_cast<int>(shards.size());
  announcing_[frozen->txn_id] = frozen;
  for (const auto& [s, version] : frozen->shard_versions) {
    Lane& lane = *lanes_[static_cast<size_t>(s)];
    WriteSet sub = map_.SubWriteSet(*frozen, s);
    sub.snapshot_version = ShardVersionOf(frozen->shard_snapshots, s);
    sub.commit_version = version;
    WriteSetRef frozen_sub = std::make_shared<const WriteSet>(std::move(sub));
    lane.recent.push_back(frozen_sub);
    lane.recent_seq.push_back(seq_);
    if (!config_.linear_scan_oracle) lane.index.Insert(*frozen_sub);
    while (lane.recent.size() > config_.conflict_window) {
      if (!config_.linear_scan_oracle) lane.index.Erase(*lane.recent.front());
      lane.recent.pop_front();
      lane.recent_seq.pop_front();
    }
    lane.force_batch.push_back(std::move(frozen_sub));
    if (!lane.force_in_flight) {
      lane.force_in_flight = true;
      StartForce(s);
    }
  }
}

void ShardedCertifier::StartForce(ShardId shard) {
  Lane& lane = *lanes_[static_cast<size_t>(shard)];
  std::vector<WriteSetRef> batch;
  if (config_.max_force_batch > 0 &&
      lane.force_batch.size() > config_.max_force_batch) {
    const auto split = lane.force_batch.begin() +
                       static_cast<std::ptrdiff_t>(config_.max_force_batch);
    batch.assign(lane.force_batch.begin(), split);
    lane.force_batch.erase(lane.force_batch.begin(), split);
  } else {
    batch.swap(lane.force_batch);
  }
  lane.disk.Submit(config_.log_force_time,
                   [this, shard, batch = std::move(batch)]() {
                     Lane& l = *lanes_[static_cast<size_t>(shard)];
                     for (const WriteSetRef& sub : batch) {
                       l.wal.Append(*sub);
                       // A cross-shard commit announces only once its
                       // force completed in EVERY touched lane — joint
                       // durability before any replica hears of it.
                       auto it = force_remaining_.find(sub->txn_id);
                       SCREP_CHECK(it != force_remaining_.end());
                       if (--it->second > 0) continue;
                       force_remaining_.erase(it);
                       auto full = announcing_.find(sub->txn_id);
                       SCREP_CHECK(full != announcing_.end());
                       WriteSetRef ws = std::move(full->second);
                       announcing_.erase(full);
                       Announce(ws);
                     }
                     if (!l.force_batch.empty()) {
                       StartForce(shard);
                     } else {
                       l.force_in_flight = false;
                     }
                   });
}

void ShardedCertifier::Announce(const WriteSetRef& ws) {
  CertDecision decision;
  decision.txn_id = ws->txn_id;
  decision.commit = true;
  decision.commit_version = ws->commit_version;
  decision.shard_versions = ws->shard_versions;
  decision_cb_(ws->origin, decision);
  // Refresh fan-out, filtered to hosting replicas: each target gets the
  // writeset exactly once, on the lowest-numbered touched shard it
  // hosts (its proxy ingests it into every touched hosted stream).
  for (ReplicaId r = 0; r < replica_count_; ++r) {
    if (r == ws->origin) continue;
    for (const auto& [s, version] : ws->shard_versions) {
      (void)version;
      if (!Hosts(r, s)) continue;
      SendRefresh(s, r, ws);
      break;
    }
  }
}

void ShardedCertifier::SendRefresh(ShardId shard, ReplicaId replica,
                                   const WriteSetRef& ws) {
  if (config_.refresh_credit_window == 0) {
    refresh_cb_(shard, replica, RefreshBatch{{ws}});
    return;
  }
  const auto si = static_cast<size_t>(shard);
  const auto ri = static_cast<size_t>(replica);
  if (!deferred_[si][ri].empty() || credits_[si][ri] <= 0) {
    deferred_[si][ri].push_back(ws);
    return;
  }
  --credits_[si][ri];
  refresh_cb_(shard, replica, RefreshBatch{{ws}});
}

void ShardedCertifier::OnCreditReturned(ShardId shard, ReplicaId replica,
                                        int credits) {
  if (config_.refresh_credit_window == 0) return;
  SCREP_CHECK(shard >= 0 && shard < map_.shard_count());
  SCREP_CHECK(replica >= 0 && replica < replica_count_);
  const auto si = static_cast<size_t>(shard);
  const auto ri = static_cast<size_t>(replica);
  credits_[si][ri] =
      std::min(credits_[si][ri] + credits,
               static_cast<int64_t>(config_.refresh_credit_window));
  auto& deferred = deferred_[si][ri];
  if (deferred.empty()) return;
  RefreshBatch refresh;
  while (!deferred.empty() && credits_[si][ri] > 0) {
    refresh.writesets.push_back(std::move(deferred.front()));
    deferred.pop_front();
    --credits_[si][ri];
  }
  if (!refresh.writesets.empty()) refresh_cb_(shard, replica, refresh);
}

}  // namespace screp
