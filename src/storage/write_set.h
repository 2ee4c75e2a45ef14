// Writesets: the unit of replication.
//
// When an update transaction commits at its host replica, the set of
// records it inserted, updated or deleted is extracted as a WriteSet,
// certified (checked for write-write conflicts), assigned a commit version
// by the certifier, and forwarded to the other replicas as a *refresh
// transaction* (paper §IV).

#ifndef SCREP_STORAGE_WRITE_SET_H_
#define SCREP_STORAGE_WRITE_SET_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "storage/value.h"

namespace screp {

/// Kind of a single write.
enum class WriteType : uint8_t { kInsert = 0, kUpdate = 1, kDelete = 2 };

/// One record-level write.
struct WriteOp {
  TableId table = 0;
  int64_t key = 0;
  WriteType type = WriteType::kUpdate;
  /// The full after-image of the row (absent for deletes).
  std::optional<Row> row;
};

/// A range of keys a transaction's scan covered (phantom protection in
/// serializable certification).
struct ReadRange {
  TableId table = 0;
  int64_t lo = 0;
  int64_t hi = 0;
};

/// The set of records a transaction wrote, plus replication metadata.
/// When the system runs in serializable certification mode the writeset
/// also carries the transaction's *read set* (keys and scanned ranges),
/// so the certifier can abort read-write conflicts — the standard way to
/// upgrade (G)SI to (update-)serializability for workloads that need it.
class WriteSet {
 public:
  WriteSet() = default;

  TxnId txn_id = 0;
  /// Database version the transaction read from (its snapshot).
  DbVersion snapshot_version = 0;
  /// Version assigned by the certifier at commit; kNoVersion before
  /// certification.
  DbVersion commit_version = kNoVersion;
  /// Replica that executed the transaction.
  ReplicaId origin = kNoReplica;

  std::vector<WriteOp> ops;

  /// Read set (only populated in serializable certification mode).
  std::vector<std::pair<TableId, int64_t>> read_keys;
  std::vector<ReadRange> read_ranges;

  /// Partitioned certification (K > 1 lanes only; empty otherwise).
  /// Per touched shard: the commit version assigned in that shard's own
  /// version space, and the snapshot the transaction read in it.
  /// Deliberately NOT part of EncodeTo()/SerializedBytes(): channels move
  /// writesets as C++ values so the vectors survive transport, while the
  /// wire format, the WAL, and the size/encode memos stay exactly as in
  /// the single-stream configuration (K = 1 byte-identity; log-based
  /// catch-up below a lane's window is not supported at K > 1).  A mutator of
  /// these fields therefore must NOT call InvalidateCaches().
  std::vector<std::pair<int32_t, DbVersion>> shard_versions;
  std::vector<std::pair<int32_t, DbVersion>> shard_snapshots;

  bool empty() const { return ops.empty(); }
  size_t size() const { return ops.size(); }

  /// Adds a write, coalescing with an earlier write to the same
  /// (table, key): the transaction's last write wins, and an update over an
  /// insert stays an insert.
  void Add(TableId table, int64_t key, WriteType type,
           std::optional<Row> row);

  /// True when the two writesets touch at least one common (table, key) —
  /// the write-write conflict test used by certification.
  bool ConflictsWith(const WriteSet& other) const;

  /// True when `other`'s writes intersect this writeset's *read set*
  /// (keys or scanned ranges) — the read-write conflict test used by
  /// serializable certification.
  bool ReadsConflictWith(const WriteSet& other) const;

  /// Sorted list of distinct tables written (the writeset's table-set,
  /// used to advance per-table versions in the fine-grained scheme).
  std::vector<TableId> TablesWritten() const;

  /// Approximate wire size in bytes (drives network/apply costs).
  size_t ByteSize() const;

  /// Exact size of the EncodeTo() serialization, computed without
  /// allocating — drives the transport layer's per-byte link costs.
  /// Memoized: the first call after a mutation walks the ops, later
  /// calls are O(1). A writeset crosses the refresh fan-out once per
  /// target replica plus once per WAL force, so the walk used to repeat
  /// O(replicas) times per commit.
  size_t SerializedBytes() const;

  /// The un-memoized size computation — the oracle SerializedBytes() is
  /// lockstep-tested (and microbenched) against.
  size_t SerializedBytesUncached() const;

  /// The full EncodeTo() serialization, memoized in a per-writeset
  /// arena: computed once after the certifier freezes the writeset and
  /// reused by every consumer that needs the bytes (WAL force, catch-up
  /// encode) instead of re-encoding into a fresh string each time.
  /// Invalidated when the header fields or the containers change.
  const std::string& EncodedBytes() const;

  /// Binary serialization (used by the WAL and message layer).
  void EncodeTo(std::string* out) const;
  /// Decodes a writeset encoded by EncodeTo. Returns false on corruption.
  static bool DecodeFrom(const std::string& data, size_t* offset,
                         WriteSet* out);

  std::string ToString() const;

 private:
  // Memo caches. Guarded two ways: Add()/DecodeFrom() invalidate
  // explicitly (coalescing can change a row in place without changing
  // any container size), and the stamps below catch direct container
  // pushes (tests build read sets by hand). Header scalars only affect
  // the encoding, not its size, so the size memo ignores them while the
  // encode memo fingerprints them (the certifier stamps commit_version
  // after the size was first queried).
  void InvalidateCaches() const {
    size_valid_ = false;
    enc_valid_ = false;
  }
  bool SizeStampMatches() const {
    return stamp_ops_ == ops.size() && stamp_keys_ == read_keys.size() &&
           stamp_ranges_ == read_ranges.size();
  }
  void RestampSizes() const {
    stamp_ops_ = ops.size();
    stamp_keys_ = read_keys.size();
    stamp_ranges_ = read_ranges.size();
  }

  mutable bool size_valid_ = false;
  mutable bool enc_valid_ = false;
  mutable size_t cached_bytes_ = 0;
  mutable size_t stamp_ops_ = 0, stamp_keys_ = 0, stamp_ranges_ = 0;
  mutable std::string encoded_;
  mutable TxnId enc_txn_ = 0;
  mutable DbVersion enc_snapshot_ = 0, enc_commit_ = 0;
  mutable ReplicaId enc_origin_ = 0;
};

/// A frozen (immutable, shared) writeset — the unit the refresh fan-out
/// passes around. The certifier freezes each committed writeset exactly
/// once; per-target refresh batches, the recent-commit window, and the
/// proxies' apply queues all share the one object by reference instead
/// of deep-copying it per hop.
using WriteSetRef = std::shared_ptr<const WriteSet>;

}  // namespace screp

#endif  // SCREP_STORAGE_WRITE_SET_H_
