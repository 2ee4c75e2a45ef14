#include "storage/wal.h"

#include <algorithm>
#include <iterator>
#include <limits>

namespace screp {

uint64_t Wal::Append(const WriteSet& ws) {
  std::lock_guard lock(mutex_);
  if (durable_count_ % kIndexStride == 0) {
    index_.emplace_back(ws.commit_version, durable_.size());
  }
  // The record bytes come straight from the writeset's memoized encode
  // arena — encoded once when the certifier froze it, appended here
  // without a per-record temporary.
  durable_ += ws.EncodedBytes();
  return durable_count_++;
}

uint64_t Wal::DurableSize() const {
  std::lock_guard lock(mutex_);
  return durable_count_;
}

size_t Wal::DurableBytes() const {
  std::lock_guard lock(mutex_);
  return durable_.size();
}

Status Wal::ReadAll(std::vector<WriteSet>* out) const {
  return ReadSince(std::numeric_limits<DbVersion>::min(),
                   [out](const WriteSet& ws) { out->push_back(ws); });
}

size_t Wal::SeekOffsetLocked(DbVersion after) const {
  // Last indexed record whose version is <= after: every record before
  // it has a version <= after too (non-decreasing order), so it is safe
  // to start there.
  auto it = std::upper_bound(
      index_.begin(), index_.end(), after,
      [](DbVersion v, const std::pair<DbVersion, size_t>& entry) {
        return v < entry.first;
      });
  return it == index_.begin() ? 0 : std::prev(it)->second;
}

size_t Wal::SeekOffset(DbVersion after) const {
  std::lock_guard lock(mutex_);
  return SeekOffsetLocked(after);
}

Status Wal::ReadSince(
    DbVersion after,
    const std::function<void(const WriteSet&)>& sink) const {
  std::lock_guard lock(mutex_);
  size_t offset = SeekOffsetLocked(after);
  WriteSet ws;
  while (offset < durable_.size()) {
    if (!WriteSet::DecodeFrom(durable_, &offset, &ws)) {
      return Status::IOError("corrupt WAL record at offset " +
                             std::to_string(offset));
    }
    if (ws.commit_version > after) sink(ws);
  }
  return Status::OK();
}

}  // namespace screp
