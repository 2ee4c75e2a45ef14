// Message types exchanged between clients, the load balancer, replica
// proxies and the certifier.
//
// Components communicate through callbacks that the system wires with
// simulated network latency; these structs are the payloads.

#ifndef SCREP_REPLICATION_MESSAGE_H_
#define SCREP_REPLICATION_MESSAGE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/shard_coords.h"
#include "common/sim_time.h"
#include "common/types.h"
#include "storage/value.h"
#include "storage/write_set.h"

namespace screp {

/// A client's request to run one transaction instance of a registered
/// prepared-transaction type.
struct TxnRequest {
  TxnId txn_id = 0;
  /// Transaction type id — clients tag requests with it so the load
  /// balancer can look up the statically extracted table-set (§IV-B).
  TxnTypeId type = kUnknownTxnType;
  /// Session identifier (SID) for session-consistency accounting (§IV-C).
  SessionId session = 0;
  int client_id = 0;
  /// Positional parameters for each statement of the transaction type.
  std::vector<std::vector<Value>> params;
  /// Virtual time the client sent the request.
  TimePoint submit_time = 0;
  /// When set, the proxy copies each statement's result rows into
  /// TxnResponse::results (off by default: the simulated workloads only
  /// measure timing, and empty results keep message sizes unchanged).
  bool collect_results = false;
};

/// How a transaction ended.
enum class TxnOutcome {
  kCommitted = 0,
  /// Certifier found a write-write conflict (first-committer-wins).
  kCertificationAbort,
  /// Proxy's early certification aborted the transaction against a
  /// pending or arriving refresh writeset (hidden-deadlock avoidance).
  kEarlyAbort,
  /// A statement failed (e.g. inserting an existing key).
  kExecutionError,
  /// The replica serving the transaction crashed; the load balancer
  /// reports the failure so the client can retry elsewhere.
  kReplicaFailure,
  /// The middleware shed the request under overload (admission queue
  /// full or certifier intake bound reached); the client should back
  /// off and retry.
  kOverloaded,
};

const char* TxnOutcomeName(TxnOutcome outcome);

/// Per-stage latency breakdown, matching the paper's measurement stages
/// (§V-A): version / queries / certify / sync / commit / global.
struct StageTimes {
  Duration version = 0;  ///< synchronization start delay (not in ESC)
  Duration queries = 0;  ///< executing the transaction's SQL statements
  Duration certify = 0;  ///< certifier round trip (updates only)
  Duration sync = 0;     ///< waiting for global commit order locally
  Duration commit = 0;   ///< committing to the local DBMS
  Duration global = 0;   ///< global commit delay (ESC updates only)

  Duration Total() const {
    return version + queries + certify + sync + commit + global;
  }
  std::string ToString() const;
};

/// The proxy's reply for one transaction, relayed to the client by the
/// load balancer (which also reads the version tags off it).
struct TxnResponse {
  TxnId txn_id = 0;
  TxnTypeId type = kUnknownTxnType;
  SessionId session = 0;
  int client_id = 0;
  TxnOutcome outcome = TxnOutcome::kCommitted;
  bool read_only = true;
  ReplicaId replica = kNoReplica;

  /// Replica's database version when it acknowledged (the V_local tag).
  DbVersion v_local_after = 0;
  /// Snapshot the transaction read at.
  DbVersion snapshot = 0;
  /// Certified commit version (kNoVersion for read-only/aborted).
  DbVersion commit_version = kNoVersion;
  /// (table, new V_t) for each table written — the fine-grained tag.
  std::vector<std::pair<TableId, DbVersion>> written_table_versions;
  /// Record-level writes (for history checking).
  std::vector<std::pair<TableId, int64_t>> keys_written;

  StageTimes stages;
  TimePoint submit_time = 0;  ///< echoed from the request
  TimePoint start_time = 0;   ///< when BEGIN executed at the replica

  /// Per-shard coordinates, read through ShardCoords (empty at K = 1,
  /// where the scalars above say everything, so single-stream message
  /// contents are unchanged).
  /// Per touched shard: this transaction's shard-local commit version.
  std::vector<std::pair<int32_t, DbVersion>> shard_versions;
  /// Per hosted shard: the replica's published shard version when it
  /// acknowledged — the per-shard V_local tag, advancing the LB's
  /// per-shard system trackers.
  std::vector<std::pair<int32_t, DbVersion>> shard_locals;
  /// Per hosted shard: the shard version the transaction's snapshot
  /// included when BEGIN executed (its per-shard snapshot coordinates).
  std::vector<std::pair<int32_t, DbVersion>> shard_snapshots;

  /// Result rows per statement, filled only for committed transactions
  /// whose request set `collect_results` (empty otherwise).
  std::vector<std::vector<Row>> results;
};

/// Certifier's verdict on an update transaction.
struct CertDecision {
  TxnId txn_id = 0;
  bool commit = false;
  DbVersion commit_version = kNoVersion;
  /// The certifier refused the writeset at its intake bound without
  /// certifying it; the proxy surfaces TxnOutcome::kOverloaded instead
  /// of a certification abort so clients back off rather than blaming a
  /// conflict.
  bool overloaded = false;
  /// Per touched shard: the commit version assigned in that shard's
  /// version space (read through ShardCoords; empty at K = 1 and on
  /// aborts).  `commit_version` then holds the lowest-numbered touched
  /// shard's version for scalar consumers (stage tracking, logs).
  std::vector<std::pair<int32_t, DbVersion>> shard_versions = {};
};

/// A dispatch from the load balancer to a replica proxy: the client's
/// request plus the version tag enforcing the synchronization start
/// delay — per touched shard, the version the replica must publish in
/// that shard before BEGIN may execute (one pair at K = 1).
struct RoutedRequest {
  TxnRequest request;
  ShardVersions required;
};

/// One certifier -> replica refresh message: the writesets of one
/// group-commit force destined for that replica, in commit-version
/// order.  Without refresh batching every message carries exactly one
/// writeset (the original per-writeset fan-out schedule).
///
/// The batch holds *references* to the certifier's frozen writesets, so
/// fanning one group commit out to N targets (and every channel-delivery
/// copy along the way) is N refcount bumps, not N deep copies of every
/// row image.
struct RefreshBatch {
  std::vector<WriteSetRef> writesets;

  /// Total wire size (drives the refresh link's per-byte cost).  The
  /// per-writeset sizes come from the frozen writesets' memo, so batch
  /// assembly is O(writesets), not O(total row-image bytes).
  size_t SerializedBytes() const {
    size_t total = 8;  // batch header
    for (const WriteSetRef& ws : writesets) total += ws->SerializedBytes();
    return total;
  }
};

}  // namespace screp

#endif  // SCREP_REPLICATION_MESSAGE_H_
