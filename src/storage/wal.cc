#include "storage/wal.h"

namespace screp {

uint64_t Wal::Append(const WriteSet& ws) {
  std::lock_guard lock(mutex_);
  if (segments_.empty() || segments_.back().records == kSegmentRecords) {
    segments_.emplace_back();
  }
  Segment& tail = segments_.back();
  // The record bytes come straight from the writeset's memoized encode
  // arena — encoded once when the certifier froze it, appended here
  // without a per-record temporary.
  const std::string& bytes = ws.EncodedBytes();
  tail.bytes += bytes;
  ++tail.records;
  retained_bytes_ += bytes.size();
  return durable_count_++;
}

uint64_t Wal::DurableSize() const {
  std::lock_guard lock(mutex_);
  return durable_count_;
}

size_t Wal::DurableBytes() const {
  std::lock_guard lock(mutex_);
  return retained_bytes_;
}

DbVersion Wal::FirstRetained() const {
  std::lock_guard lock(mutex_);
  return first_retained_;
}

void Wal::DropThrough(DbVersion version) {
  std::lock_guard lock(mutex_);
  while (!segments_.empty() && segments_.front().records == kSegmentRecords &&
         first_retained_ + static_cast<DbVersion>(kSegmentRecords) - 1 <=
             version) {
    retained_bytes_ -= segments_.front().bytes.size();
    segments_.pop_front();
    first_retained_ += static_cast<DbVersion>(kSegmentRecords);
  }
}

Status Wal::ReadAll(std::vector<WriteSet>* out) const {
  return ReadSince(0, [out](const WriteSet& ws) { out->push_back(ws); });
}

Status Wal::ReadSince(
    DbVersion after,
    const std::function<void(const WriteSet&)>& sink) const {
  std::lock_guard lock(mutex_);
  if (after + 1 < first_retained_) {
    return Status::OutOfRange(
        "log read from version " + std::to_string(after + 1) +
        " but the log retains only from " + std::to_string(first_retained_));
  }
  // Record n of segment i holds version first_retained_ + i * kSegmentRecords
  // + n; start at the segment holding after + 1 and skip to it.
  const auto skip = static_cast<uint64_t>(after + 1 - first_retained_);
  WriteSet ws;
  uint64_t to_skip = skip % kSegmentRecords;
  for (size_t i = static_cast<size_t>(skip / kSegmentRecords);
       i < segments_.size(); ++i) {
    const std::string& bytes = segments_[i].bytes;
    size_t offset = 0;
    while (offset < bytes.size()) {
      if (!WriteSet::DecodeFrom(bytes, &offset, &ws)) {
        return Status::IOError("corrupt WAL record in segment " +
                               std::to_string(i) + " at offset " +
                               std::to_string(offset));
      }
      if (to_skip > 0) {
        --to_skip;
        continue;
      }
      sink(ws);
    }
  }
  return Status::OK();
}

}  // namespace screp
