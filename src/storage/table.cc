#include "storage/table.h"

#include <algorithm>

#include <mutex>

#include "common/logging.h"

namespace screp {

Table::Table(TableId id, std::string name, Schema schema)
    : id_(id), name_(std::move(name)), schema_(std::move(schema)) {}

const RowVersion* Table::VisibleIn(const Chain& chain, DbVersion snapshot) {
  // Chains are short (GC keeps them trimmed); scan from the newest end.
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (it->version <= snapshot) return &*it;
  }
  return nullptr;
}

Result<Row> Table::Get(int64_t key, DbVersion snapshot) const {
  std::shared_lock lock(mutex_);
  auto it = rows_.find(key);
  if (it == rows_.end()) {
    return Status::NotFound(name_ + "#" + std::to_string(key));
  }
  const RowVersion* v = VisibleIn(it->second, snapshot);
  if (v == nullptr || v->deleted) {
    return Status::NotFound(name_ + "#" + std::to_string(key));
  }
  return v->row;
}

bool Table::Exists(int64_t key, DbVersion snapshot) const {
  std::shared_lock lock(mutex_);
  auto it = rows_.find(key);
  if (it == rows_.end()) return false;
  const RowVersion* v = VisibleIn(it->second, snapshot);
  return v != nullptr && !v->deleted;
}

Status Table::CreateIndex(int column) {
  std::unique_lock lock(mutex_);
  if (column <= 0 || static_cast<size_t>(column) >= schema_.num_columns()) {
    return Status::InvalidArgument("bad index column " +
                                   std::to_string(column) + " for table '" +
                                   name_ + "'");
  }
  if (indexes_.count(column) != 0) return Status::OK();  // idempotent
  auto& index = indexes_[column];
  for (const auto& [key, chain] : rows_) {
    for (const RowVersion& v : chain) {
      if (v.deleted) continue;
      index[v.row[static_cast<size_t>(column)]].insert(key);
    }
  }
  return Status::OK();
}

bool Table::HasIndex(int column) const {
  std::shared_lock lock(mutex_);
  return indexes_.count(column) != 0;
}

void Table::IndexLookup(
    int column, const Value& value, DbVersion snapshot,
    const std::function<bool(int64_t, const Row&)>& visitor) const {
  std::shared_lock lock(mutex_);
  auto iit = indexes_.find(column);
  SCREP_CHECK_MSG(iit != indexes_.end(),
                  "no index on column " << column << " of " << name_);
  auto vit = iit->second.find(value);
  if (vit == iit->second.end()) return;
  // std::set iterates keys in order => deterministic primary-key order.
  for (int64_t key : vit->second) {
    auto rit = rows_.find(key);
    if (rit == rows_.end()) continue;  // candidate GC'd away
    const RowVersion* v = VisibleIn(rit->second, snapshot);
    if (v == nullptr || v->deleted) continue;
    // Revalidate: the candidate may hold a different value at this
    // snapshot (the index covers every version ever written).
    if (v->row[static_cast<size_t>(column)] != value) continue;
    if (!visitor(key, v->row)) return;
  }
}

void Table::IndexInsertLocked(int64_t key, const Row& row) {
  for (auto& [column, index] : indexes_) {
    index[row[static_cast<size_t>(column)]].insert(key);
  }
}

void Table::Install(int64_t key, DbVersion version, bool deleted, Row row) {
  std::unique_lock lock(mutex_);
  if (!deleted && !indexes_.empty()) IndexInsertLocked(key, row);
  Chain& chain = rows_[key];
  SCREP_CHECK_MSG(chain.empty() || chain.back().version <= version,
                  "out-of-order install on " << name_ << "#" << key << ": "
                                             << version << " after "
                                             << chain.back().version);
  if (!chain.empty() && chain.back().version == version) {
    // Same-version overwrite: a transaction's own commit applying on top of
    // a refresh duplicate; last write wins.
    chain.back().deleted = deleted;
    chain.back().row = std::move(row);
  } else {
    chain.push_back(RowVersion{version, deleted, std::move(row)});
    ++version_count_;
  }
  if (chain.size() > 1 || deleted) gc_candidates_.insert(key);
}

void Table::ReplaceContents(
    DbVersion version, const std::vector<std::pair<int64_t, Row>>& rows) {
  std::unique_lock lock(mutex_);
  rows_.clear();
  gc_candidates_.clear();
  for (auto& [column, index] : indexes_) index.clear();
  for (const auto& [key, row] : rows) {
    if (!indexes_.empty()) IndexInsertLocked(key, row);
    rows_[key] = Chain{RowVersion{version, /*deleted=*/false, row}};
  }
  version_count_ = rows_.size();
}

void Table::Scan(
    DbVersion snapshot,
    const std::function<bool(int64_t, const Row&)>& visitor) const {
  std::shared_lock lock(mutex_);
  for (const auto& [key, chain] : rows_) {
    const RowVersion* v = VisibleIn(chain, snapshot);
    if (v == nullptr || v->deleted) continue;
    if (!visitor(key, v->row)) return;
  }
}

void Table::ScanRange(
    int64_t lo, int64_t hi, DbVersion snapshot,
    const std::function<bool(int64_t, const Row&)>& visitor) const {
  std::shared_lock lock(mutex_);
  for (auto it = rows_.lower_bound(lo); it != rows_.end() && it->first <= hi;
       ++it) {
    const RowVersion* v = VisibleIn(it->second, snapshot);
    if (v == nullptr || v->deleted) continue;
    if (!visitor(it->first, v->row)) return;
  }
}

size_t Table::KeyCount() const {
  std::shared_lock lock(mutex_);
  return rows_.size();
}

size_t Table::LiveRowCount(DbVersion snapshot) const {
  std::shared_lock lock(mutex_);
  size_t n = 0;
  for (const auto& [key, chain] : rows_) {
    (void)key;
    const RowVersion* v = VisibleIn(chain, snapshot);
    if (v != nullptr && !v->deleted) ++n;
  }
  return n;
}

size_t Table::TruncateVersions(DbVersion oldest_active) {
  std::unique_lock lock(mutex_);
  size_t discarded = 0;
  for (auto cit = gc_candidates_.begin(); cit != gc_candidates_.end();) {
    auto it = rows_.find(*cit);
    SCREP_CHECK(it != rows_.end());
    Chain& chain = it->second;
    // Find the newest version <= oldest_active; everything before it is
    // unreachable.
    size_t keep_from = 0;
    for (size_t i = 0; i < chain.size(); ++i) {
      if (chain[i].version <= oldest_active) keep_from = i;
    }
    if (keep_from > 0) {
      discarded += keep_from;
      chain.erase(chain.begin(),
                  chain.begin() + static_cast<ptrdiff_t>(keep_from));
    }
    // Drop keys whose only surviving version is an old tombstone.
    if (chain.size() == 1 && chain[0].deleted &&
        chain[0].version <= oldest_active) {
      discarded += 1;
      rows_.erase(it);
      cit = gc_candidates_.erase(cit);
    } else if (chain.size() == 1 && !chain[0].deleted) {
      // Back to one version: release the room the updates grew the chain
      // to, or every key ever updated keeps it for good and the table's
      // footprint climbs with the number of distinct keys written.
      chain.shrink_to_fit();
      cit = gc_candidates_.erase(cit);
    } else {
      ++cit;
    }
  }
  version_count_ -= discarded;
  return discarded;
}

size_t Table::VersionCount() const {
  std::shared_lock lock(mutex_);
  return version_count_;
}

}  // namespace screp
