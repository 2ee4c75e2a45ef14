// A minimal write-ahead log storing serialized writesets.
//
// In the paper's prototype transaction durability is enforced by the
// certifier, which appends each group-commit batch once its (simulated)
// force completes; replicas run with log forcing off and keep no log.
// The log is held in memory with explicit serialization so recovery
// genuinely re-decodes bytes.

#ifndef SCREP_STORAGE_WAL_H_
#define SCREP_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/write_set.h"

namespace screp {

/// Append-only log of certified writesets.
class Wal {
 public:
  /// One sparse-index entry per this many records: a version seek
  /// decodes at most this many records it then skips.
  static constexpr uint64_t kIndexStride = 64;

  Wal() = default;
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends a writeset durably; returns its 0-based sequence number.
  uint64_t Append(const WriteSet& ws);

  /// Number of records in the log.
  uint64_t DurableSize() const;

  /// Total bytes of serialized durable log.
  size_t DurableBytes() const;

  /// Decodes durable records in order into `out`. Returns IOError on a
  /// corrupt record.
  Status ReadAll(std::vector<WriteSet>* out) const;

  /// Streams every record with commit_version > `after` to `sink` in log
  /// order, decoding one at a time from the sparse (commit version ->
  /// byte offset) index's seek point.  Requires non-decreasing commit
  /// versions (the certifier's log).
  Status ReadSince(DbVersion after,
                   const std::function<void(const WriteSet&)>& sink) const;

  /// Where ReadSince(after) starts decoding: the indexed record nearest
  /// before the first one with commit_version > `after`.
  size_t SeekOffset(DbVersion after) const;

 private:
  size_t SeekOffsetLocked(DbVersion after) const;

  mutable std::mutex mutex_;
  std::string durable_;  // serialized records
  /// (commit version, byte offset) of every kIndexStride-th record.
  std::vector<std::pair<DbVersion, size_t>> index_;
  uint64_t durable_count_ = 0;
};

}  // namespace screp

#endif  // SCREP_STORAGE_WAL_H_
