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

/// Looks one shard's version up in a sparse (shard, version) event
/// vector; 0 when absent.  (Local clone of ShardVersionOf so the obs
/// layer stays independent of the replication library.)
DbVersion ShardEntry(
    const std::vector<std::pair<int32_t, DbVersion>>& versions,
    int32_t shard) {
  for (const auto& [s, v] : versions) {
    if (s == shard) return v;
  }
  return 0;
}
}  // namespace

Auditor::Auditor(AuditorConfig config, MetricsRegistry* registry)
    : config_(config), registry_(registry) {
  if (registry_ != nullptr) {
    version_lag_hist_ = registry_->GetHistogram(kVersionLagHistogram);
    snapshot_age_hist_ = registry_->GetHistogram(kSnapshotAgeHistogram);
  }
}

void Auditor::EnableSharding(std::vector<int32_t> table_to_shard,
                             int shard_count) {
  shard_count_ = shard_count;
  table_to_shard_ = std::move(table_to_shard);
  shard_max_version_.assign(static_cast<size_t>(shard_count), 0);
  shard_certified_.assign(static_cast<size_t>(shard_count), {});
  shard_committed_.assign(static_cast<size_t>(shard_count), {});
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
      if (sharded()) {
        for (const auto& [s, req] : event.shard_required) {
          ++checks_;
          if (req <= shard_max_version_[static_cast<size_t>(s)]) continue;
          std::ostringstream detail;
          detail << "LB tagged txn " << event.txn << " with shard " << s
                 << " required version " << req
                 << " but that lane has only issued up to "
                 << shard_max_version_[static_cast<size_t>(s)];
          AddViolation("route", event.txn, event.at, detail.str());
        }
        break;
      }
      ++checks_;
      if (event.required_version > max_version_) {
        std::ostringstream detail;
        detail << "LB tagged txn " << event.txn << " with required version "
               << event.required_version << " but the certifier has only "
               << "issued up to " << max_version_;
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
  if (sharded()) {
    // Totality is shard-local: each lane issues its own dense version
    // sequence, and a cross-shard commit takes the next version in every
    // touched lane.
    for (const auto& [s, v] : e.shard_versions) {
      ++checks_;
      DbVersion& max = shard_max_version_[static_cast<size_t>(s)];
      auto& certified = shard_certified_[static_cast<size_t>(s)];
      if (v == max + 1) {
        max = v;
        certified[v] = {e.txn, e.at};
        while (certified.size() > kVersionWindow) {
          certified.erase(certified.begin());
        }
        continue;
      }
      if (v <= max) {
        auto it = certified.find(v);
        if (it == certified.end() || it->second.first == e.txn) continue;
        std::ostringstream detail;
        detail << "shard " << s << " commit version " << v
               << " issued twice: txn " << it->second.first << " at t="
               << it->second.second << " and txn " << e.txn;
        AddViolation("total-order", e.txn, e.at, detail.str());
        continue;
      }
      std::ostringstream detail;
      detail << "shard " << s << " commit version " << v << " for txn "
             << e.txn << " skips ahead of " << max
             << " (lane versions not dense)";
      AddViolation("total-order", e.txn, e.at, detail.str());
      max = v;  // resync so one gap does not cascade
      certified[v] = {e.txn, e.at};
    }
    return;
  }
  ++checks_;
  const DbVersion v = e.commit_version;
  if (v == max_version_ + 1) {
    max_version_ = v;
    certified_[v] = {e.txn, e.at};
    while (certified_.size() > kVersionWindow) {
      certified_.erase(certified_.begin());
    }
    return;
  }
  if (v <= max_version_) {
    // A certifier promoted mid-failover re-certifies forwarded writesets
    // it had already decided; the re-announcement names the same txn and
    // version and is benign.  A *different* txn claiming an issued
    // version is a broken total order.
    auto it = certified_.find(v);
    if (it == certified_.end() || it->second.first == e.txn) return;
    std::ostringstream detail;
    detail << "commit version " << v << " issued twice: txn "
           << it->second.first << " at t=" << it->second.second
           << " and txn " << e.txn;
    AddViolation("total-order", e.txn, e.at, detail.str());
    return;
  }
  std::ostringstream detail;
  detail << "commit version " << v << " for txn " << e.txn
         << " skips ahead of " << max_version_ << " (versions not dense)";
  AddViolation("total-order", e.txn, e.at, detail.str());
  max_version_ = v;  // resync so one gap does not cascade
  certified_[v] = {e.txn, e.at};
}

void Auditor::OnBegin(const Event& e) {
  if (sharded()) {
    // Admission is per shard: every required (shard, version) pair must
    // be covered by the replica's published version of that stream.
    for (const auto& [s, req] : e.shard_required) {
      ++checks_;
      const DbVersion snap = ShardEntry(e.shard_snapshots, s);
      if (snap >= req) continue;
      std::ostringstream detail;
      detail << "txn " << e.txn << " admitted at replica " << e.replica
             << " with shard " << s << " published only to " << snap
             << ", below its version tag " << req << " ("
             << WaitCauseName(e.wait_cause) << " sync)";
      AddViolation("admission", e.txn, e.at, detail.str());
    }
    if (version_lag_hist_ != nullptr) {
      // Staleness attribution: the most-behind touched stream, with the
      // snapshot age read off that shard's certify log.
      DbVersion lag = 0;
      double age = 0;
      for (const auto& [s, snap] : e.shard_snapshots) {
        const DbVersion max = shard_max_version_[static_cast<size_t>(s)];
        if (max <= snap || max - snap < lag) continue;
        lag = max - snap;
        auto it = shard_certified_[static_cast<size_t>(s)].find(snap + 1);
        age = it == shard_certified_[static_cast<size_t>(s)].end()
                  ? 0
                  : static_cast<double>(e.at - it->second.second);
      }
      version_lag_hist_->Add(static_cast<double>(lag));
      snapshot_age_hist_->Add(age);
    }
    return;
  }
  ++checks_;
  if (e.satisfied_version < e.required_version) {
    std::ostringstream detail;
    detail << "txn " << e.txn << " admitted at replica " << e.replica
           << " with V_local=" << e.satisfied_version
           << " below its version tag " << e.required_version << " ("
           << WaitCauseName(e.wait_cause) << " sync)";
    AddViolation("admission", e.txn, e.at, detail.str());
  }
  if (version_lag_hist_ != nullptr) {
    const DbVersion lag = max_version_ > e.satisfied_version
                              ? max_version_ - e.satisfied_version
                              : 0;
    version_lag_hist_->Add(static_cast<double>(lag));
    // Age of the snapshot: how long ago the first version this BEGIN is
    // missing was certified (0 when fully fresh).
    double age = 0;
    if (e.satisfied_version < max_version_) {
      auto it = certified_.find(e.satisfied_version + 1);
      if (it != certified_.end()) {
        age = static_cast<double>(e.at - it->second.second);
      }
    }
    snapshot_age_hist_->Add(age);
  }
}

void Auditor::OnApply(const Event& e) {
  if (sharded()) {
    // Each (replica, hosted shard) pair is its own dense apply stream.
    for (const auto& [s, v] : e.shard_versions) {
      ++checks_;
      const int64_t key = static_cast<int64_t>(e.replica) * shard_count_ + s;
      DbVersion& last = shard_applied_[key];
      if (v != last + 1) {
        std::ostringstream detail;
        detail << "replica " << e.replica << " applied shard " << s
               << " version " << v << " after " << last << " (expected "
               << (last + 1) << "): stream out of certification order";
        AddViolation("apply-order", e.txn, e.at, detail.str());
      }
      last = std::max(last, v);
    }
    return;
  }
  ++checks_;
  DbVersion& last = applied_[e.replica];
  if (e.commit_version != last + 1) {
    std::ostringstream detail;
    detail << "replica " << e.replica << " applied version "
           << e.commit_version << " after " << last << " (expected "
           << (last + 1) << "): writesets out of certification order";
    AddViolation("apply-order", e.txn, e.at, detail.str());
  }
  last = std::max(last, e.commit_version);
}

void Auditor::OnSnapshotInstalled(const Event& e) {
  // A replica rejoining from a peer's snapshot jumps its apply stream to
  // the snapshot's version: legal only forward, and only to a version the
  // certifier has issued.  Its next apply must follow the snapshot.
  ++checks_;
  DbVersion& last = applied_[e.replica];
  if (e.commit_version < last || e.commit_version > max_version_) {
    std::ostringstream detail;
    detail << "replica " << e.replica << " installed a snapshot at version "
           << e.commit_version << " after applying " << last
           << " with the certifier at " << max_version_;
    AddViolation("snapshot", e.txn, e.at, detail.str());
  }
  last = std::max(last, e.commit_version);
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
  if (sharded()) {
    OnFinishedSharded(e);
    return;
  }

  if (e.snapshot > max_version_) {
    std::ostringstream detail;
    detail << "txn " << e.txn << " read snapshot " << e.snapshot
           << " beyond the last certified version " << max_version_;
    AddViolation("total-order", e.txn, e.at, detail.str());
  }

  const bool is_update = !e.read_only && e.commit_version != kNoVersion;
  if (is_update) {
    ++checks_;
    if (e.snapshot >= e.commit_version) {
      std::ostringstream detail;
      detail << "txn " << e.txn << " snapshot " << e.snapshot
             << " not before its commit version " << e.commit_version;
      AddViolation("total-order", e.txn, e.at, detail.str());
    }
    // First-committer-wins: any committed update in (snapshot, commit)
    // is concurrent with this one; their writesets must not overlap.
    for (auto it = committed_updates_.upper_bound(e.snapshot);
         it != committed_updates_.end() && it->first < e.commit_version;
         ++it) {
      ++checks_;
      const CommittedUpdate& prior = it->second;
      for (const auto& key : e.keys_written) {
        if (std::find(prior.keys_written.begin(), prior.keys_written.end(),
                      key) == prior.keys_written.end()) {
          continue;
        }
        std::ostringstream detail;
        detail << "concurrent txns " << prior.txn << " @" << it->first
               << " and " << e.txn << " @" << e.commit_version
               << " (snapshot " << e.snapshot << ") both wrote table "
               << key.first << " key " << key.second
               << ": first-committer-wins violated";
        AddViolation("fcw", e.txn, e.at, detail.str());
        break;
      }
    }
  }

  // Definitions 1 and 2: per accessed table, the latest committed update
  // acknowledged before this transaction was submitted must be within
  // its snapshot.
  auto check_tables = [&](const std::unordered_map<TableId, AckedWriteLog>&
                              logs,
                          const char* check, const char* scope) {
    for (TableId table : e.table_set) {
      auto log_it = logs.find(table);
      if (log_it == logs.end()) continue;
      ++checks_;
      const AckedWrite* w = LatestAckedBefore(log_it->second, e.submit_time);
      if (w == nullptr || e.snapshot >= w->version) continue;
      std::ostringstream detail;
      detail << "txn " << e.txn << " (snapshot " << e.snapshot
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
    committed_updates_[e.commit_version] =
        CommittedUpdate{e.txn, e.snapshot, e.keys_written};
    while (committed_updates_.size() > kVersionWindow) {
      committed_updates_.erase(committed_updates_.begin());
    }
    // This acknowledgment extends the per-table prefix-max logs.  Finish
    // events arrive in ack order (simulator time is monotone), so
    // appending keeps each log sorted by ack_time.
    auto extend = [&](std::unordered_map<TableId, AckedWriteLog>& logs) {
      for (TableId table : e.tables_written) {
        AckedWriteLog& log = logs[table];
        DbVersion version = e.commit_version;
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

void Auditor::OnFinishedSharded(const Event& e) {
  // Per-shard snapshot sanity: no stream can be read past what its lane
  // has certified.
  for (const auto& [s, snap] : e.shard_snapshots) {
    ++checks_;
    if (snap <= shard_max_version_[static_cast<size_t>(s)]) continue;
    std::ostringstream detail;
    detail << "txn " << e.txn << " read shard " << s << " snapshot " << snap
           << " beyond that lane's last certified version "
           << shard_max_version_[static_cast<size_t>(s)];
    AddViolation("total-order", e.txn, e.at, detail.str());
  }

  const bool is_update = !e.read_only && !e.shard_versions.empty();
  if (is_update) {
    for (const auto& [s, cv] : e.shard_versions) {
      ++checks_;
      const DbVersion snap = ShardEntry(e.shard_snapshots, s);
      if (snap >= cv) {
        std::ostringstream detail;
        detail << "txn " << e.txn << " shard " << s << " snapshot " << snap
               << " not before its shard commit version " << cv;
        AddViolation("total-order", e.txn, e.at, detail.str());
      }
      // First-committer-wins within the shard: committed updates in this
      // lane's (snapshot, commit) interval are concurrent with this one;
      // the keys they wrote in this shard must not overlap ours.
      auto& committed = shard_committed_[static_cast<size_t>(s)];
      for (auto it = committed.upper_bound(snap);
           it != committed.end() && it->first < cv; ++it) {
        ++checks_;
        const CommittedUpdate& prior = it->second;
        for (const auto& key : e.keys_written) {
          if (table_to_shard_[static_cast<size_t>(key.first)] != s) continue;
          if (std::find(prior.keys_written.begin(), prior.keys_written.end(),
                        key) == prior.keys_written.end()) {
            continue;
          }
          std::ostringstream detail;
          detail << "concurrent txns " << prior.txn << " @shard" << s << ":"
                 << it->first << " and " << e.txn << " @shard" << s << ":"
                 << cv << " (shard snapshot " << snap << ") both wrote table "
                 << key.first << " key " << key.second
                 << ": first-committer-wins violated";
          AddViolation("fcw", e.txn, e.at, detail.str());
          break;
        }
      }
    }
  }

  // Definitions 1 and 2 in shard-local version spaces: per accessed
  // table, the latest acknowledged committed update must be within the
  // snapshot this transaction read of *that table's* shard.
  auto check_tables = [&](const std::unordered_map<TableId, AckedWriteLog>&
                              logs,
                          const char* check, const char* scope) {
    for (TableId table : e.table_set) {
      auto log_it = logs.find(table);
      if (log_it == logs.end()) continue;
      ++checks_;
      const AckedWrite* w = LatestAckedBefore(log_it->second, e.submit_time);
      if (w == nullptr) continue;
      const int32_t s = table_to_shard_[static_cast<size_t>(table)];
      const DbVersion snap = ShardEntry(e.shard_snapshots, s);
      if (snap >= w->version) continue;
      std::ostringstream detail;
      detail << "txn " << e.txn << " (shard " << s << " snapshot " << snap
             << ", submitted at t=" << e.submit_time << ") misses " << scope
             << "txn " << w->txn << " @shard" << s << ":" << w->version
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
    for (const auto& [s, cv] : e.shard_versions) {
      std::vector<std::pair<TableId, int64_t>> shard_keys;
      for (const auto& key : e.keys_written) {
        if (table_to_shard_[static_cast<size_t>(key.first)] == s) {
          shard_keys.push_back(key);
        }
      }
      auto& committed = shard_committed_[static_cast<size_t>(s)];
      committed[cv] = CommittedUpdate{e.txn, ShardEntry(e.shard_snapshots, s),
                                      std::move(shard_keys)};
      while (committed.size() > kVersionWindow) {
        committed.erase(committed.begin());
      }
    }
    // Extend the per-table logs with the written table's shard-local
    // version; each table's log stays internally comparable because a
    // table never changes shard.
    auto extend = [&](std::unordered_map<TableId, AckedWriteLog>& logs) {
      for (TableId table : e.tables_written) {
        AckedWriteLog& log = logs[table];
        DbVersion version = ShardEntry(
            e.shard_versions, table_to_shard_[static_cast<size_t>(table)]);
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
      << ",\"max_commit_version\":" << max_version_;
  if (sharded()) {
    out << ",\"shard_max_commit_versions\":[";
    for (int s = 0; s < shard_count_; ++s) {
      if (s > 0) out << ",";
      out << shard_max_version_[static_cast<size_t>(s)];
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
