// An MVCC table: per-key version chains read at a snapshot version.
//
// Readers never block writers and vice versa: a transaction reading at
// snapshot S sees, for each key, the newest committed version <= S (classic
// snapshot isolation visibility).  Writes are installed by the commit path
// (Database::ApplyWriteSet) with an explicit commit version so the replica
// can follow the certifier's global commit order.
//
// The table is thread-safe: the replicated system drives it from a single
// event loop, but the engine is also usable (and stress-tested) from
// multiple threads.

#ifndef SCREP_STORAGE_TABLE_H_
#define SCREP_STORAGE_TABLE_H_

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace screp {

/// One committed version of a row.
struct RowVersion {
  DbVersion version;
  bool deleted;
  Row row;  ///< empty when deleted
};

/// An MVCC table keyed by INT primary key.
class Table {
 public:
  Table(TableId id, std::string name, Schema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Reads the newest version of `key` visible at `snapshot`.
  /// Returns NotFound when the key does not exist (or is deleted) at that
  /// snapshot.
  Result<Row> Get(int64_t key, DbVersion snapshot) const;

  /// True when `key` has a live (non-deleted) version visible at snapshot.
  bool Exists(int64_t key, DbVersion snapshot) const;

  /// Installs a version with the given commit version. Versions for a key
  /// must be installed in non-decreasing version order (enforced).
  void Install(int64_t key, DbVersion version, bool deleted, Row row);

  /// Replaces the whole table with `rows` (key, row), each installed as
  /// the single version `version`, and rebuilds the secondary indexes
  /// from them.  Readers must not hold snapshots below `version`.
  void ReplaceContents(DbVersion version,
                       const std::vector<std::pair<int64_t, Row>>& rows);

  /// Creates a secondary index on column `column` (by ordinal), backfilled
  /// from all existing row versions. Idempotent.
  Status CreateIndex(int column);

  /// True when column `column` has a secondary index.
  bool HasIndex(int column) const;

  /// Visits live rows whose `column` equals `value` at `snapshot`, in
  /// primary-key order, using the secondary index. The index is a
  /// candidate structure over *all* versions, so each candidate is
  /// revalidated against the snapshot (standard MVCC index semantics).
  /// Pre-condition: HasIndex(column).
  void IndexLookup(int column, const Value& value, DbVersion snapshot,
                   const std::function<bool(int64_t key, const Row& row)>&
                       visitor) const;

  /// Visits every live row visible at `snapshot` in primary-key order;
  /// the visitor returns false to stop early.
  void Scan(DbVersion snapshot,
            const std::function<bool(int64_t key, const Row& row)>& visitor)
      const;

  /// Visits live rows with key in [lo, hi] at `snapshot`, in key order.
  void ScanRange(
      int64_t lo, int64_t hi, DbVersion snapshot,
      const std::function<bool(int64_t key, const Row& row)>& visitor) const;

  /// Number of distinct keys ever inserted (live or dead).
  size_t KeyCount() const;

  /// Number of live rows at `snapshot`.
  size_t LiveRowCount(DbVersion snapshot) const;

  /// Garbage-collects versions no longer visible to any snapshot >=
  /// `oldest_active`: for each key keeps the newest version <=
  /// oldest_active plus everything newer. Returns versions discarded.
  /// Visits only keys with more than one version or a tombstone, so a
  /// sweep costs O(keys written since the last one), not O(table).
  size_t TruncateVersions(DbVersion oldest_active);

  /// Total stored row-versions (for GC accounting/tests); O(1).
  size_t VersionCount() const;

 private:
  using Chain = std::vector<RowVersion>;  // ascending by version

  /// Newest entry in `chain` with version <= snapshot, or nullptr.
  static const RowVersion* VisibleIn(const Chain& chain, DbVersion snapshot);

  /// Adds `key` to the index candidate sets for `row`'s indexed values
  /// (caller holds the write lock).
  void IndexInsertLocked(int64_t key, const Row& row);

  TableId id_;
  std::string name_;
  Schema schema_;

  mutable std::shared_mutex mutex_;
  std::map<int64_t, Chain> rows_;  // ordered => deterministic scans
  /// Keys whose chain has more than one version or ends in a tombstone:
  /// the only keys TruncateVersions can shrink.
  std::unordered_set<int64_t> gc_candidates_;
  size_t version_count_ = 0;

  /// Secondary indexes: column ordinal -> (value -> candidate keys).
  /// Candidates are keys that at *some* version held the value; readers
  /// revalidate at their snapshot.
  std::unordered_map<int, std::map<Value, std::set<int64_t>>> indexes_;
};

}  // namespace screp

#endif  // SCREP_STORAGE_TABLE_H_
