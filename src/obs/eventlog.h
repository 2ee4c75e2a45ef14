// Structured event log: a bounded, append-only record of every middleware
// decision, stamped with virtual time.
//
// Where the tracer answers "where did the time go" and the registry
// answers "how much of everything happened", the event log answers "what
// exactly did the middleware decide, in what order":
//
//   kRoute          load balancer routed a transaction (replica chosen,
//                   required-version tag, the tracker's V_system)
//   kBeginAdmitted  proxy admitted BEGIN (requested vs. satisfied version,
//                   wait cause and duration)
//   kCertVerdict    certifier decision (commit version, or the conflicting
//                   committed version/txn on abort)
//   kApply          a writeset committed at one replica (version advance)
//   kSessionUpdate  the load balancer advanced a session's version
//   kTxnFinished    client acknowledgment, with everything a
//                   consistency-checker TxnRecord needs
//   kCrash/kRecover/kFailover
//                   component failure events; kRecover "snapshot" is a
//                   replica rejoining from a peer's snapshot (at
//                   commit_version)
//   kShed           overload protection refused a request (admission
//                   queue full, or the certifier's intake bound)
//   kTimeout        a client abandoned an unacknowledged request and
//                   will retry it with backoff
//   kHealth         the online health monitor changed state (detail names
//                   the old/new state and the triggering detector)
//
// The log is consumed three ways: live sinks (the online Auditor), JSONL
// export for offline tooling, and replay into consistency/history.h types
// so the offline checkers can audit exactly what the online auditor saw.
//
// Like the tracer, a disabled log (the default) rejects Append() after one
// branch and the instrumentation never perturbs virtual-time results.

#ifndef SCREP_OBS_EVENTLOG_H_
#define SCREP_OBS_EVENTLOG_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "common/types.h"
#include "consistency/history.h"
#include "obs/ring.h"

namespace screp::obs {

/// What a middleware decision was about.
enum class EventKind {
  kRoute = 0,
  kBeginAdmitted,
  kCertVerdict,
  kApply,
  kSessionUpdate,
  kTxnFinished,
  kCrash,
  kRecover,
  kFailover,
  kShed,
  kTimeout,
  kHealth,
};

const char* EventKindName(EventKind kind);

/// Why a BEGIN (or an eager commit acknowledgment) had to wait — the
/// consistency configuration determines which tracker the version tag
/// came from, and therefore where any blocked time is attributed.
enum class WaitCause {
  kNone = 0,       ///< no start synchronization (eager BEGINs)
  kSystemVersion,  ///< LSC: V_local must reach V_system
  kTableVersion,   ///< LFC: V_local must reach max V_t over the table-set
  kSessionVersion, ///< SC: V_local must reach the session's version
  kStalenessBound, ///< BSC: V_local must be within the bound of V_system
  kEagerGlobal,    ///< ESC: ack waits for the global commit
};

const char* WaitCauseName(WaitCause cause);

/// One middleware decision.  Field meaning depends on `kind`; unused
/// fields keep their zero defaults (and are omitted from the JSONL).
struct Event {
  EventKind kind = EventKind::kRoute;
  /// Virtual time of the decision.
  TimePoint at = 0;
  TxnId txn = 0;
  SessionId session = 0;
  ReplicaId replica = kNoReplica;

  /// kRoute/kBeginAdmitted: the version tag the transaction carries.
  DbVersion required_version = 0;
  /// kRoute: the LB tracker's V_system when the tag was computed.
  /// kSessionUpdate: the session's version after the update.
  /// kBeginAdmitted: V_local when BEGIN actually executed (the snapshot).
  DbVersion satisfied_version = 0;
  /// kCertVerdict/kApply/kTxnFinished: certified commit version.
  /// kRecover "snapshot": the version the replica's snapshot holds.
  DbVersion commit_version = kNoVersion;
  /// kCertVerdict/kTxnFinished: the snapshot the writeset was built at.
  DbVersion snapshot = 0;
  /// kCertVerdict abort: the committed version it conflicted with.
  DbVersion conflict_version = kNoVersion;
  /// kCertVerdict abort: the transaction that committed conflict_version.
  TxnId conflict_txn = 0;

  /// kBeginAdmitted: which tracker the version tag came from.
  WaitCause wait_cause = WaitCause::kNone;
  /// kBeginAdmitted: how long BEGIN was blocked (0 = admitted on arrival).
  Duration wait = 0;

  /// kCertVerdict/kTxnFinished: decision / outcome.
  bool committed = false;
  bool read_only = true;
  /// kApply: a local client commit (vs. a refresh writeset).
  bool local = false;

  /// kTxnFinished: client-side timeline (TxnRecord fields).
  TimePoint submit_time = 0;
  TimePoint start_time = 0;

  /// kCertVerdict abort / kCrash / kFailover: short reason tag
  /// ("ww" / "rw" / "window", "replica" / "certifier" / "lb").
  /// kShed: where the request was refused ("lb" / "certifier").
  std::string detail;

  /// kTxnFinished: declared table-set / written tables / written keys.
  std::vector<TableId> table_set;
  std::vector<TableId> tables_written;
  std::vector<std::pair<TableId, int64_t>> keys_written;

  /// Partitioned certification (K > 1 lanes only; all empty at K = 1, so
  /// single-stream JSONL output is byte-identical).  Versions are
  /// (shard, value) pairs in each shard's own version space.
  /// kCertVerdict commit / kApply / kTxnFinished: per touched shard, the
  /// shard-local commit version.
  std::vector<std::pair<int32_t, DbVersion>> shard_versions;
  /// kCertVerdict / kBeginAdmitted / kTxnFinished: per shard, the
  /// snapshot version the transaction read in that shard.
  std::vector<std::pair<int32_t, DbVersion>> shard_snapshots;
  /// kRoute / kBeginAdmitted: per touched shard, the version the replica
  /// must publish before BEGIN.
  std::vector<std::pair<int32_t, DbVersion>> shard_required;

  /// The event as one JSONL line (no trailing newline).
  std::string ToJson() const;
};

/// Bounded, append-only event collector with live sinks.  Storage grows
/// with the events retained (see obs/ring.h), not with `capacity`.
class EventLog {
 public:
  explicit EventLog(size_t capacity);

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Appends an event (no-op while disabled).  Live sinks see every event
  /// in append order, even ones later evicted from the bounded buffer.
  void Append(Event event);

  /// Registers a live consumer invoked synchronously on every Append.
  using Sink = std::function<void(const Event&)>;
  void AddSink(Sink sink) { sinks_.push_back(std::move(sink)); }

  /// Events currently retained, oldest first.
  std::vector<Event> Events() const { return ring_.ToVector(); }

  size_t size() const { return ring_.size(); }
  size_t capacity() const { return ring_.capacity(); }
  /// Events evicted because the ring was full (sinks still saw them).
  int64_t dropped() const { return ring_.dropped(); }
  /// Total events appended while enabled (retained + evicted).
  int64_t appended() const { return appended_; }

  /// The retained events as JSON Lines (one Event::ToJson() per line).
  std::string ToJsonl() const;

  /// Writes ToJsonl() to `path`.
  Status WriteJsonl(const std::string& path) const;

  /// Rebuilds a consistency-checker history from the retained
  /// kTxnFinished events, so the offline checkers in
  /// consistency/checker.h can audit what the event log saw.
  History ReplayHistory() const;

 private:
  bool enabled_ = false;
  Ring<Event> ring_;
  int64_t appended_ = 0;
  std::vector<Sink> sinks_;
};

}  // namespace screp::obs

#endif  // SCREP_OBS_EVENTLOG_H_
