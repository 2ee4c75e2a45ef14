// A standalone in-memory MVCC database instance providing snapshot
// isolation — the per-replica DBMS of the paper's architecture.
//
// Versioning matches the paper's model (§IV): the database starts at
// version 0 and the committed version advances by exactly one whenever an
// update transaction (local or refresh) commits.  The commit path applies
// certified writesets in the certifier's global order via ApplyWriteSet.

#ifndef SCREP_STORAGE_DATABASE_H_
#define SCREP_STORAGE_DATABASE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/table.h"
#include "storage/write_set.h"

namespace screp {

class Transaction;

/// Every table's live rows at one committed version: what a replica the
/// certifier's log no longer reaches back to installs to rejoin.
struct DatabaseSnapshot {
  DbVersion version = 0;
  /// Indexed by TableId: (key, row) in key order.
  std::vector<std::vector<std::pair<int64_t, Row>>> tables;
};

/// A collection of MVCC tables plus the local committed-version counter.
class Database {
 public:
  Database();
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates a table; the schema's column 0 must be the INT primary key.
  Result<TableId> CreateTable(const std::string& name, Schema schema);

  /// Id of a table by name, or NotFound.
  Result<TableId> FindTable(const std::string& name) const;

  /// Creates a secondary index on `table`.`column_name` (backfilled).
  /// Bumps the catalog epoch, invalidating cached execution plans.
  Status CreateIndex(TableId table, const std::string& column_name);

  /// Monotone counter bumped whenever index availability changes.
  /// Cached execution plans record the epoch they were built at and are
  /// re-planned when it has moved (sql/plan.h).
  uint64_t CatalogEpoch() const {
    return catalog_epoch_.load(std::memory_order_acquire);
  }

  /// Pre-condition: `id` was returned by CreateTable.
  Table* table(TableId id);
  const Table* table(TableId id) const;

  /// Name of a table by id.
  const std::string& TableName(TableId id) const;

  /// Number of tables.
  size_t TableCount() const;

  /// Names of all tables in creation order.
  std::vector<std::string> TableNames() const;

  /// The version of the latest committed update transaction (V_local when
  /// this database backs a replica).
  DbVersion CommittedVersion() const {
    return committed_version_.load(std::memory_order_acquire);
  }

  /// Begins a transaction reading at the current committed version.
  std::unique_ptr<Transaction> Begin();

  /// Begins a transaction reading at an explicit snapshot (must be
  /// <= CommittedVersion()).
  std::unique_ptr<Transaction> BeginAt(DbVersion snapshot);

  /// Applies a certified writeset and advances the committed version.
  /// `ws.commit_version` must be exactly CommittedVersion() + 1 — the
  /// caller (the proxy) is responsible for ordering — otherwise Internal
  /// is returned and nothing is applied.  Nothing is logged: replicas run
  /// with log forcing off because the certifier's log is the durability
  /// point (paper §V-A / Tashkent).
  Status ApplyWriteSet(const WriteSet& ws);

  /// Applies a certified writeset stamping the *local* next version:
  /// the rows are installed at CommittedVersion() + 1 regardless of the
  /// writeset's own commit_version.  Used by sharded (partial-
  /// replication) proxies, where commit versions are per shard and no
  /// single global counter matches the database's dense local sequence;
  /// the proxy enforces per-shard application order, this method only
  /// keeps local MVCC versioning dense.
  Status ApplyWriteSetLocal(const WriteSet& ws);

  /// Copies every table's rows at the current committed version.  An
  /// MVCC read under a registered snapshot: commits carry on meanwhile
  /// and GC cannot reclaim what it reads.
  DatabaseSnapshot TakeSnapshot();

  /// Replaces every table's contents with `snapshot`'s rows (rebuilding
  /// the secondary indexes) and sets CommittedVersion() to its version.
  /// Refused (nothing changed) while a transaction is live, when the
  /// snapshot is older than CommittedVersion(), or when its table count
  /// differs.
  Status InstallSnapshot(const DatabaseSnapshot& snapshot);

  /// Loads a row directly at a version — used only for bulk-population
  /// before the system starts (bypasses versioning checks).
  Status BulkLoad(TableId table, Row row);

  /// Garbage-collects versions invisible to snapshots >= oldest_active
  /// across all tables. Returns versions discarded.  The horizon is
  /// clamped to the oldest snapshot of any live Transaction, so a reader
  /// that began before this call never loses the versions it reads.
  size_t TruncateVersions(DbVersion oldest_active);

  /// Row versions stored across all tables (the replica's MVCC footprint).
  size_t VersionCount() const;

 private:
  friend class Transaction;

  /// Installs `ws`'s rows at `version` and publishes it as committed
  /// (caller holds commit_mutex_).
  void InstallLocked(const WriteSet& ws, DbVersion version);

  /// Called from ~Transaction; drops one registration of `snapshot`.
  void UnregisterSnapshot(DbVersion snapshot);

  mutable std::mutex catalog_mutex_;
  std::vector<std::unique_ptr<Table>> tables_;
  std::unordered_map<std::string, TableId> table_ids_;
  std::atomic<DbVersion> committed_version_{0};
  std::atomic<uint64_t> catalog_epoch_{0};
  std::mutex commit_mutex_;
  // Snapshots of live transactions; TruncateVersions never GCs past the
  // smallest one.
  mutable std::mutex snapshots_mutex_;
  std::multiset<DbVersion> active_snapshots_;
};

}  // namespace screp

#endif  // SCREP_STORAGE_DATABASE_H_
