#include "obs/eventlog.h"

#include <fstream>
#include <sstream>

#include "obs/json.h"

namespace screp::obs {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kRoute:
      return "route";
    case EventKind::kBeginAdmitted:
      return "begin";
    case EventKind::kCertVerdict:
      return "cert";
    case EventKind::kApply:
      return "apply";
    case EventKind::kSessionUpdate:
      return "session";
    case EventKind::kTxnFinished:
      return "finish";
    case EventKind::kCrash:
      return "crash";
    case EventKind::kRecover:
      return "recover";
    case EventKind::kFailover:
      return "failover";
    case EventKind::kShed:
      return "shed";
    case EventKind::kTimeout:
      return "timeout";
    case EventKind::kHealth:
      return "health";
  }
  return "?";
}

const char* WaitCauseName(WaitCause cause) {
  switch (cause) {
    case WaitCause::kNone:
      return "none";
    case WaitCause::kSystemVersion:
      return "system_version";
    case WaitCause::kTableVersion:
      return "table_version";
    case WaitCause::kSessionVersion:
      return "session_version";
    case WaitCause::kStalenessBound:
      return "staleness_bound";
    case WaitCause::kEagerGlobal:
      return "eager_global";
  }
  return "?";
}

std::string Event::ToJson() const {
  std::ostringstream out;
  out << "{\"kind\":\"" << EventKindName(kind) << "\",\"at\":" << at;
  if (txn != 0) out << ",\"txn\":" << txn;
  if (session != 0) out << ",\"session\":" << session;
  if (replica != kNoReplica) out << ",\"replica\":" << replica;
  switch (kind) {
    case EventKind::kRoute:
      out << ",\"required\":" << required_version
          << ",\"v_system\":" << satisfied_version;
      break;
    case EventKind::kBeginAdmitted:
      out << ",\"required\":" << required_version
          << ",\"satisfied\":" << satisfied_version << ",\"cause\":\""
          << WaitCauseName(wait_cause) << "\",\"wait\":" << wait;
      break;
    case EventKind::kCertVerdict:
      out << ",\"committed\":" << (committed ? "true" : "false")
          << ",\"snapshot\":" << snapshot;
      if (committed) {
        out << ",\"version\":" << commit_version;
      } else {
        out << ",\"reason\":\"" << JsonEscape(detail) << "\"";
        if (conflict_version != kNoVersion) {
          out << ",\"conflict_version\":" << conflict_version
              << ",\"conflict_txn\":" << conflict_txn;
        }
      }
      break;
    case EventKind::kApply:
      out << ",\"version\":" << commit_version
          << ",\"local\":" << (local ? "true" : "false");
      break;
    case EventKind::kSessionUpdate:
      out << ",\"version\":" << satisfied_version;
      break;
    case EventKind::kTxnFinished: {
      out << ",\"committed\":" << (committed ? "true" : "false")
          << ",\"read_only\":" << (read_only ? "true" : "false")
          << ",\"snapshot\":" << snapshot << ",\"submit\":" << submit_time
          << ",\"start\":" << start_time;
      if (commit_version != kNoVersion) {
        out << ",\"version\":" << commit_version;
      }
      auto tables = [&out](const char* key, const std::vector<TableId>& ts) {
        out << ",\"" << key << "\":[";
        for (size_t i = 0; i < ts.size(); ++i) {
          if (i > 0) out << ",";
          out << ts[i];
        }
        out << "]";
      };
      tables("table_set", table_set);
      tables("tables_written", tables_written);
      out << ",\"keys_written\":[";
      for (size_t i = 0; i < keys_written.size(); ++i) {
        if (i > 0) out << ",";
        out << "[" << keys_written[i].first << "," << keys_written[i].second
            << "]";
      }
      out << "]";
      break;
    }
    case EventKind::kCrash:
    case EventKind::kRecover:
    case EventKind::kFailover:
      out << ",\"component\":\"" << JsonEscape(detail) << "\"";
      // A snapshot rejoin carries the version the replica jumped to.
      if (commit_version != kNoVersion) {
        out << ",\"version\":" << commit_version;
      }
      break;
    case EventKind::kShed:
      out << ",\"where\":\"" << JsonEscape(detail) << "\"";
      break;
    case EventKind::kTimeout:
      out << ",\"waited\":" << wait;
      break;
    case EventKind::kHealth:
      out << ",\"change\":\"" << JsonEscape(detail) << "\"";
      break;
  }
  // Sharded-configuration fields: all empty at K = 1, so omission keeps
  // single-stream JSONL output byte-identical.
  auto shard_pairs =
      [&out](const char* key,
             const std::vector<std::pair<int32_t, DbVersion>>& pairs) {
        if (pairs.empty()) return;
        out << ",\"" << key << "\":[";
        for (size_t i = 0; i < pairs.size(); ++i) {
          if (i > 0) out << ",";
          out << "[" << pairs[i].first << "," << pairs[i].second << "]";
        }
        out << "]";
      };
  shard_pairs("shard_versions", shard_versions);
  shard_pairs("shard_snapshots", shard_snapshots);
  shard_pairs("shard_required", shard_required);
  out << "}";
  return out.str();
}

EventLog::EventLog(size_t capacity) : ring_(capacity) {}

void EventLog::Append(Event event) {
  if (!enabled_) return;
  ++appended_;
  for (const Sink& sink : sinks_) sink(event);
  ring_.Push(std::move(event));
}

std::string EventLog::ToJsonl() const {
  std::string out;
  for (size_t i = 0; i < ring_.size(); ++i) {
    out += ring_[i].ToJson();
    out += '\n';
  }
  return out;
}

Status EventLog::WriteJsonl(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file.is_open()) {
    return Status::IOError("cannot open event-log output: " + path);
  }
  file << ToJsonl();
  file.close();
  if (!file.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

History EventLog::ReplayHistory() const {
  History history;
  for (size_t i = 0; i < ring_.size(); ++i) {
    const Event& e = ring_[i];
    if (e.kind != EventKind::kTxnFinished) continue;
    TxnRecord record;
    record.id = e.txn;
    record.session = e.session;
    record.replica = e.replica;
    record.submit_time = e.submit_time;
    record.start_time = e.start_time;
    record.ack_time = e.at;
    record.snapshot = e.snapshot;
    record.commit_version = e.commit_version;
    record.committed = e.committed;
    record.read_only = e.read_only;
    record.table_set = e.table_set;
    record.tables_written = e.tables_written;
    record.keys_written = e.keys_written;
    history.Add(std::move(record));
  }
  return history;
}

}  // namespace screp::obs
