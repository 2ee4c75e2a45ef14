// A minimal write-ahead log storing serialized writesets.
//
// In the paper's prototype transaction durability is enforced by the
// certifier, which appends each group-commit batch once its (simulated)
// force completes; replicas run with log forcing off and keep no log.
// The log is held in memory with explicit serialization so recovery
// genuinely re-decodes bytes.
//
// The log records a dense version sequence: the n-th record appended
// holds version n (a certifier lane's versions 1, 2, ...).  It is stored
// as fixed segments of kSegmentRecords records, and whole segments that
// no reader needs any more are dropped from the front (DropThrough), so
// the log retains a bounded suffix instead of the whole run.  A read
// below the first retained record is refused, never served with a gap.

#ifndef SCREP_STORAGE_WAL_H_
#define SCREP_STORAGE_WAL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/write_set.h"

namespace screp {

/// Segmented log of certified writesets, truncated from the front.
class Wal {
 public:
  /// Records per segment: the unit of truncation, and the most records a
  /// version seek decodes and skips.
  static constexpr uint64_t kSegmentRecords = 64;

  Wal() = default;
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends a writeset durably; returns its 0-based sequence number
  /// (the record holds version sequence number + 1).
  uint64_t Append(const WriteSet& ws);

  /// Number of records ever appended (the newest version in the log).
  uint64_t DurableSize() const;

  /// Bytes of serialized records still retained.
  size_t DurableBytes() const;

  /// The version of the oldest retained record (DurableSize() + 1 when
  /// nothing is retained).  ReadSince(after) needs after + 1 >= this.
  DbVersion FirstRetained() const;

  /// Drops every full segment whose records all hold versions <=
  /// `version`.  Monotone; the segment being appended to stays.
  void DropThrough(DbVersion version);

  /// Decodes every record in order into `out`.  OutOfRange once a
  /// segment has been dropped; IOError on a corrupt record.
  Status ReadAll(std::vector<WriteSet>* out) const;

  /// Streams every record holding a version > `after` to `sink` in log
  /// order, decoding one at a time from the segment that holds version
  /// after + 1.  OutOfRange, before any record is streamed, when that
  /// version was dropped.
  Status ReadSince(DbVersion after,
                   const std::function<void(const WriteSet&)>& sink) const;

 private:
  struct Segment {
    std::string bytes;  // serialized records, back to back
    uint64_t records = 0;
  };

  mutable std::mutex mutex_;
  /// Retained segments; the front one holds version first_retained_.
  std::deque<Segment> segments_;
  DbVersion first_retained_ = 1;
  uint64_t durable_count_ = 0;
  size_t retained_bytes_ = 0;
};

}  // namespace screp

#endif  // SCREP_STORAGE_WAL_H_
