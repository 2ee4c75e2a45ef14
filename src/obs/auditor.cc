#include "obs/auditor.h"

#include <algorithm>
#include <sstream>

#include "obs/json.h"

namespace screp::obs {

namespace {
/// Retained certified-version / committed-update window.  Certify events
/// and the writesets they carry are only needed as long as some running
/// transaction's snapshot can still reach back to them, which in practice
/// is a few thousand versions; the window is generous so duplicate
/// verdicts re-announced after a certifier failover are still resolvable.
constexpr size_t kVersionWindow = 1 << 18;

}  // namespace

Auditor::Auditor(AuditorConfig config, MetricsRegistry* registry,
                 std::vector<int32_t> table_to_shard, int shard_count)
    : config_(config),
      registry_(registry),
      shard_count_(shard_count),
      table_to_shard_(std::move(table_to_shard)),
      max_version_(static_cast<size_t>(shard_count), 0),
      certified_(static_cast<size_t>(shard_count)),
      committed_updates_(static_cast<size_t>(shard_count)) {
  if (registry_ != nullptr) {
    version_lag_hist_ = registry_->GetHistogram(kVersionLagHistogram);
    snapshot_age_hist_ = registry_->GetHistogram(kSnapshotAgeHistogram);
  }
}

std::string Auditor::InShard(int32_t shard) const {
  return shard_count_ == 1 ? "" : " in shard " + std::to_string(shard);
}

void Auditor::AddViolation(const char* check, TxnId txn, TimePoint at,
                           std::string detail) {
  ++violation_count_;
  if (violations_.size() < config_.max_recorded_violations) {
    violations_.push_back(Violation{check, txn, at, std::move(detail)});
  }
}

void Auditor::OnEvent(const Event& event) {
  ++events_;
  switch (event.kind) {
    case EventKind::kRoute:
      // The tag the LB hands out is derived from acknowledged commits, so
      // it can never name a version the certifier has not issued.
      for (const auto& [s, req] :
           ShardCoords(event.shard_required, event.required_version)) {
        ++checks_;
        const DbVersion max = max_version_[static_cast<size_t>(s)];
        if (req <= max) continue;
        std::ostringstream detail;
        detail << "LB tagged txn " << event.txn << " with required version "
               << req << InShard(s) << " but the certifier has only "
               << "issued up to " << max;
        AddViolation("route", event.txn, event.at, detail.str());
      }
      break;
    case EventKind::kBeginAdmitted:
      OnBegin(event);
      break;
    case EventKind::kCertVerdict:
      OnCertVerdict(event);
      break;
    case EventKind::kApply:
      OnApply(event);
      break;
    case EventKind::kTxnFinished:
      OnFinished(event);
      break;
    case EventKind::kRecover:
      if (event.detail == "snapshot") OnSnapshotInstalled(event);
      break;
    case EventKind::kSessionUpdate:
    case EventKind::kCrash:
    case EventKind::kFailover:
    case EventKind::kShed:
    case EventKind::kTimeout:
    case EventKind::kHealth:
      // Overload shedding, client timeouts and health-state changes never
      // commit anything, so there is nothing to cross-check — consistency
      // is judged on the transactions that do finish.
      break;
  }
}

void Auditor::OnCertVerdict(const Event& e) {
  if (!e.committed) return;
  // Totality is per shard: each lane issues its own dense version
  // sequence, and a cross-shard commit takes the next version in every
  // touched lane.
  for (const auto& [s, v] : ShardCoords(e.shard_versions, e.commit_version)) {
    ++checks_;
    DbVersion& max = max_version_[static_cast<size_t>(s)];
    auto& certified = certified_[static_cast<size_t>(s)];
    if (v == max + 1) {
      max = v;
      certified[v] = {e.txn, e.at};
      while (certified.size() > kVersionWindow) {
        certified.erase(certified.begin());
      }
      continue;
    }
    if (v <= max) {
      // A certifier promoted mid-failover re-certifies forwarded writesets
      // it had already decided; the re-announcement names the same txn and
      // version and is benign.  A *different* txn claiming an issued
      // version is a broken total order.
      auto it = certified.find(v);
      if (it == certified.end() || it->second.first == e.txn) continue;
      std::ostringstream detail;
      detail << "commit version " << v << InShard(s) << " issued twice: txn "
             << it->second.first << " at t=" << it->second.second
             << " and txn " << e.txn;
      AddViolation("total-order", e.txn, e.at, detail.str());
      continue;
    }
    std::ostringstream detail;
    detail << "commit version " << v << InShard(s) << " for txn " << e.txn
           << " skips ahead of " << max << " (versions not dense)";
    AddViolation("total-order", e.txn, e.at, detail.str());
    max = v;  // resync so one gap does not cascade
    certified[v] = {e.txn, e.at};
  }
}

void Auditor::OnBegin(const Event& e) {
  // Admission: every required (shard, version) pair must be covered by
  // the replica's published version of that shard's stream.
  const ShardCoords snapshots(e.shard_snapshots, e.satisfied_version);
  for (const auto& [s, req] :
       ShardCoords(e.shard_required, e.required_version)) {
    ++checks_;
    const DbVersion snap = snapshots.Of(s);
    if (snap >= req) continue;
    std::ostringstream detail;
    detail << "txn " << e.txn << " admitted at replica " << e.replica
           << " with V_local=" << snap << InShard(s)
           << " below its version tag " << req << " ("
           << WaitCauseName(e.wait_cause) << " sync)";
    AddViolation("admission", e.txn, e.at, detail.str());
  }
  if (version_lag_hist_ != nullptr) {
    // Staleness attribution: the most-behind shard, with the snapshot's
    // age — how long ago the first version it is missing was certified
    // (0 when fully fresh) — read off that shard's certify log.
    DbVersion lag = 0;
    double age = 0;
    for (const auto& [s, snap] : snapshots) {
      const DbVersion max = max_version_[static_cast<size_t>(s)];
      if (max <= snap || max - snap < lag) continue;
      lag = max - snap;
      const auto& certified = certified_[static_cast<size_t>(s)];
      auto it = certified.find(snap + 1);
      age = it == certified.end()
                ? 0
                : static_cast<double>(e.at - it->second.second);
    }
    version_lag_hist_->Add(static_cast<double>(lag));
    snapshot_age_hist_->Add(age);
  }
}

void Auditor::OnApply(const Event& e) {
  // Each (replica, hosted shard) pair is its own dense apply stream.
  for (const auto& [s, v] : ShardCoords(e.shard_versions, e.commit_version)) {
    ++checks_;
    DbVersion& last =
        applied_[static_cast<int64_t>(e.replica) * shard_count_ + s];
    if (v != last + 1) {
      std::ostringstream detail;
      detail << "replica " << e.replica << " applied version " << v
             << InShard(s) << " after " << last << " (expected "
             << (last + 1) << "): writesets out of certification order";
      AddViolation("apply-order", e.txn, e.at, detail.str());
    }
    last = std::max(last, v);
  }
}

void Auditor::OnSnapshotInstalled(const Event& e) {
  // A replica rejoining from a peer's snapshot jumps its apply streams to
  // the snapshot's versions: legal only forward, and only to a version
  // the certifier has issued.  Its next apply must follow the snapshot.
  for (const auto& [s, v] : ShardCoords(e.shard_versions, e.commit_version)) {
    ++checks_;
    DbVersion& last =
        applied_[static_cast<int64_t>(e.replica) * shard_count_ + s];
    const DbVersion max = max_version_[static_cast<size_t>(s)];
    if (v < last || v > max) {
      std::ostringstream detail;
      detail << "replica " << e.replica << " installed a snapshot at version "
             << v << InShard(s) << " after applying " << last
             << " with the certifier at " << max;
      AddViolation("snapshot", e.txn, e.at, detail.str());
    }
    last = std::max(last, v);
  }
}

const Auditor::AckedWrite* Auditor::LatestAckedBefore(
    const AckedWriteLog& log, TimePoint deadline) {
  // Entries whose writer was acknowledged at or before `deadline`
  // (matching the offline checker's "ack_time > submit_time" exclusion).
  auto it = std::upper_bound(
      log.begin(), log.end(), deadline,
      [](TimePoint t, const AckedWrite& w) { return t < w.ack_time; });
  if (it == log.begin()) return nullptr;
  return &*(it - 1);
}

void Auditor::OnFinished(const Event& e) {
  if (!e.committed) return;
  const ShardCoords snapshots(e.shard_snapshots, e.snapshot);
  const ShardCoords commits(e.shard_versions, e.commit_version);
  auto shard_of = [this](TableId table) {
    return table_to_shard_.empty()
               ? 0
               : table_to_shard_[static_cast<size_t>(table)];
  };

  // No shard can be read past what its lane has certified.
  for (const auto& [s, snap] : snapshots) {
    const DbVersion max = max_version_[static_cast<size_t>(s)];
    if (snap <= max) continue;
    std::ostringstream detail;
    detail << "txn " << e.txn << " read snapshot " << snap << InShard(s)
           << " beyond the last certified version " << max;
    AddViolation("total-order", e.txn, e.at, detail.str());
  }

  const bool is_update = !e.read_only && e.commit_version != kNoVersion;
  if (is_update) {
    for (const auto& [s, cv] : commits) {
      ++checks_;
      const DbVersion snap = snapshots.Of(s);
      if (snap >= cv) {
        std::ostringstream detail;
        detail << "txn " << e.txn << " snapshot " << snap << InShard(s)
               << " not before its commit version " << cv;
        AddViolation("total-order", e.txn, e.at, detail.str());
      }
      // First-committer-wins within the shard: committed updates in this
      // lane's (snapshot, commit) interval are concurrent with this one;
      // the keys they wrote in this shard must not overlap ours.
      const auto& committed = committed_updates_[static_cast<size_t>(s)];
      for (auto it = committed.upper_bound(snap);
           it != committed.end() && it->first < cv; ++it) {
        ++checks_;
        const CommittedUpdate& prior = it->second;
        for (const auto& key : e.keys_written) {
          if (shard_of(key.first) != s ||
              std::find(prior.keys_written.begin(), prior.keys_written.end(),
                        key) == prior.keys_written.end()) {
            continue;
          }
          std::ostringstream detail;
          detail << "concurrent txns " << prior.txn << " @" << it->first
                 << " and " << e.txn << " @" << cv << InShard(s)
                 << " (snapshot " << snap << ") both wrote table "
                 << key.first << " key " << key.second
                 << ": first-committer-wins violated";
          AddViolation("fcw", e.txn, e.at, detail.str());
          break;
        }
      }
    }
  }

  // Definitions 1 and 2: per accessed table, the latest committed update
  // acknowledged before this transaction was submitted must be within the
  // snapshot it read of that table's shard.
  auto check_tables = [&](const std::unordered_map<TableId, AckedWriteLog>&
                              logs,
                          const char* check, const char* scope) {
    for (TableId table : e.table_set) {
      auto log_it = logs.find(table);
      if (log_it == logs.end()) continue;
      ++checks_;
      const AckedWrite* w = LatestAckedBefore(log_it->second, e.submit_time);
      if (w == nullptr) continue;
      const int32_t s = shard_of(table);
      const DbVersion snap = snapshots.Of(s);
      if (snap >= w->version) continue;
      std::ostringstream detail;
      detail << "txn " << e.txn << " (snapshot " << snap << InShard(s)
             << ", submitted at t=" << e.submit_time << ") misses " << scope
             << "txn " << w->txn << " @" << w->version
             << " acked at t=" << w->ack_time << " writing table " << table;
      AddViolation(check, e.txn, e.at, detail.str());
    }
  };
  if (config_.check_strong) {
    check_tables(acked_writes_, "definition1", "");
  }
  if (config_.check_session) {
    auto session_it = session_writes_.find(e.session);
    if (session_it != session_writes_.end()) {
      check_tables(session_it->second, "definition2", "own session's ");
    }
  }

  if (is_update) {
    for (const auto& [s, cv] : commits) {
      std::vector<std::pair<TableId, int64_t>> shard_keys;
      for (const auto& key : e.keys_written) {
        if (shard_of(key.first) == s) shard_keys.push_back(key);
      }
      auto& committed = committed_updates_[static_cast<size_t>(s)];
      committed[cv] =
          CommittedUpdate{e.txn, snapshots.Of(s), std::move(shard_keys)};
      while (committed.size() > kVersionWindow) {
        committed.erase(committed.begin());
      }
    }
    // This acknowledgment extends the per-table prefix-max logs with each
    // written table's shard-local version.  Finish events arrive in ack
    // order (simulator time is monotone), so appending keeps each log
    // sorted by ack_time.
    auto extend = [&](std::unordered_map<TableId, AckedWriteLog>& logs) {
      for (TableId table : e.tables_written) {
        AckedWriteLog& log = logs[table];
        DbVersion version = commits.Of(shard_of(table));
        TxnId txn = e.txn;
        if (!log.empty() && log.back().version > version) {
          version = log.back().version;
          txn = log.back().txn;
        }
        log.push_back(AckedWrite{e.at, version, txn});
      }
    };
    extend(acked_writes_);
    extend(session_writes_[e.session]);
  }
}

std::string Auditor::ToJson() const {
  std::ostringstream out;
  out << "{\"ok\":" << (ok() ? "true" : "false")
      << ",\"events\":" << events_ << ",\"checks\":" << checks_
      << ",\"max_commit_version\":" << max_commit_version();
  if (shard_count_ > 1) {
    out << ",\"shard_max_commit_versions\":[";
    for (int s = 0; s < shard_count_; ++s) {
      if (s > 0) out << ",";
      out << max_version_[static_cast<size_t>(s)];
    }
    out << "]";
  }
  out << ",\"violations_total\":" << violation_count_ << ",\"violations\":[";
  for (size_t i = 0; i < violations_.size(); ++i) {
    const Violation& v = violations_[i];
    if (i > 0) out << ",";
    out << "{\"check\":\"" << JsonEscape(v.check) << "\",\"txn\":" << v.txn
        << ",\"at\":" << v.at << ",\"detail\":\"" << JsonEscape(v.detail)
        << "\"}";
  }
  out << "]}";
  return out.str();
}

std::string Auditor::Summary() const {
  std::ostringstream out;
  if (ok()) {
    out << "audit OK: " << events_ << " events, " << checks_
        << " checks, no violations";
  } else {
    out << "audit FAILED: " << violation_count_ << " violation(s)";
    if (!violations_.empty()) {
      out << "; first: [" << violations_.front().check << "] "
          << violations_.front().detail;
    }
  }
  return out.str();
}

}  // namespace screp::obs
