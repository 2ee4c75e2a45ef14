#include "storage/database.h"

#include <algorithm>

#include "common/logging.h"
#include "storage/transaction.h"

namespace screp {

Database::Database() = default;
Database::~Database() = default;

Result<TableId> Database::CreateTable(const std::string& name,
                                      Schema schema) {
  std::lock_guard lock(catalog_mutex_);
  if (table_ids_.count(name) != 0) {
    return Status::AlreadyExists("table '" + name + "'");
  }
  const TableId id = static_cast<TableId>(tables_.size());
  tables_.push_back(std::make_unique<Table>(id, name, std::move(schema)));
  table_ids_[name] = id;
  return id;
}

Result<TableId> Database::FindTable(const std::string& name) const {
  std::lock_guard lock(catalog_mutex_);
  auto it = table_ids_.find(name);
  if (it == table_ids_.end()) {
    return Status::NotFound("table '" + name + "'");
  }
  return it->second;
}

Status Database::CreateIndex(TableId table_id,
                             const std::string& column_name) {
  Table* t = table(table_id);
  const int column = t->schema().ColumnIndex(column_name);
  if (column < 0) {
    return Status::NotFound("column '" + column_name + "' in table '" +
                            t->name() + "'");
  }
  SCREP_RETURN_NOT_OK(t->CreateIndex(column));
  catalog_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Table* Database::table(TableId id) {
  std::lock_guard lock(catalog_mutex_);
  SCREP_CHECK_MSG(id >= 0 && static_cast<size_t>(id) < tables_.size(),
                  "bad table id " << id);
  return tables_[static_cast<size_t>(id)].get();
}

const Table* Database::table(TableId id) const {
  std::lock_guard lock(catalog_mutex_);
  SCREP_CHECK_MSG(id >= 0 && static_cast<size_t>(id) < tables_.size(),
                  "bad table id " << id);
  return tables_[static_cast<size_t>(id)].get();
}

const std::string& Database::TableName(TableId id) const {
  return table(id)->name();
}

size_t Database::TableCount() const {
  std::lock_guard lock(catalog_mutex_);
  return tables_.size();
}

std::vector<std::string> Database::TableNames() const {
  std::lock_guard lock(catalog_mutex_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& t : tables_) names.push_back(t->name());
  return names;
}

std::unique_ptr<Transaction> Database::Begin() {
  // Read the committed version and register it as active under one lock
  // so a concurrent TruncateVersions cannot slip between the two and GC
  // the snapshot before it is pinned.
  std::lock_guard lock(snapshots_mutex_);
  const DbVersion snapshot = CommittedVersion();
  active_snapshots_.insert(snapshot);
  return std::unique_ptr<Transaction>(new Transaction(this, snapshot));
}

std::unique_ptr<Transaction> Database::BeginAt(DbVersion snapshot) {
  SCREP_CHECK_MSG(snapshot <= CommittedVersion(),
                  "snapshot " << snapshot << " beyond committed version "
                              << CommittedVersion());
  std::lock_guard lock(snapshots_mutex_);
  active_snapshots_.insert(snapshot);
  return std::unique_ptr<Transaction>(new Transaction(this, snapshot));
}

void Database::UnregisterSnapshot(DbVersion snapshot) {
  std::lock_guard lock(snapshots_mutex_);
  auto it = active_snapshots_.find(snapshot);
  SCREP_CHECK_MSG(it != active_snapshots_.end(),
                  "unregistering unknown snapshot " << snapshot);
  active_snapshots_.erase(it);
}

Status Database::ApplyWriteSet(const WriteSet& ws) {
  std::lock_guard lock(commit_mutex_);
  const DbVersion expected = CommittedVersion() + 1;
  if (ws.commit_version != expected) {
    return Status::Internal(
        "out-of-order commit: writeset version " +
        std::to_string(ws.commit_version) + ", expected " +
        std::to_string(expected));
  }
  InstallLocked(ws, expected);
  return Status::OK();
}

Status Database::ApplyWriteSetLocal(const WriteSet& ws) {
  std::lock_guard lock(commit_mutex_);
  InstallLocked(ws, CommittedVersion() + 1);
  return Status::OK();
}

void Database::InstallLocked(const WriteSet& ws, DbVersion version) {
  for (const WriteOp& op : ws.ops) {
    Table* t = table(op.table);
    if (op.type == WriteType::kDelete) {
      t->Install(op.key, version, /*deleted=*/true, Row{});
    } else {
      SCREP_CHECK_MSG(op.row.has_value(), "insert/update without row");
      t->Install(op.key, version, /*deleted=*/false, *op.row);
    }
  }
  committed_version_.store(version, std::memory_order_release);
}

DatabaseSnapshot Database::TakeSnapshot() {
  const std::unique_ptr<Transaction> reader = Begin();
  DatabaseSnapshot snapshot;
  snapshot.version = reader->snapshot();
  snapshot.tables.resize(TableCount());
  for (size_t t = 0; t < snapshot.tables.size(); ++t) {
    auto& rows = snapshot.tables[t];
    table(static_cast<TableId>(t))
        ->Scan(snapshot.version, [&rows](int64_t key, const Row& row) {
          rows.emplace_back(key, row);
          return true;
        });
  }
  return snapshot;
}

Status Database::InstallSnapshot(const DatabaseSnapshot& snapshot) {
  std::lock_guard lock(commit_mutex_);
  if (snapshot.version < CommittedVersion()) {
    return Status::InvalidArgument(
        "snapshot at version " + std::to_string(snapshot.version) +
        " is older than committed version " +
        std::to_string(CommittedVersion()));
  }
  if (snapshot.tables.size() != TableCount()) {
    return Status::InvalidArgument("snapshot has " +
                                   std::to_string(snapshot.tables.size()) +
                                   " tables, database has " +
                                   std::to_string(TableCount()));
  }
  // Held to the end: no transaction may begin on the half-replaced rows.
  std::lock_guard snapshots_lock(snapshots_mutex_);
  if (!active_snapshots_.empty()) {
    return Status::Aborted("cannot install a snapshot under " +
                           std::to_string(active_snapshots_.size()) +
                           " live transaction(s)");
  }
  for (size_t t = 0; t < snapshot.tables.size(); ++t) {
    table(static_cast<TableId>(t))
        ->ReplaceContents(snapshot.version, snapshot.tables[t]);
  }
  committed_version_.store(snapshot.version, std::memory_order_release);
  return Status::OK();
}

Status Database::BulkLoad(TableId table_id, Row row) {
  Table* t = table(table_id);
  SCREP_RETURN_NOT_OK(t->schema().ValidateRow(row));
  if (row.empty() || row[0].type() != ValueType::kInt64) {
    return Status::InvalidArgument("bulk load row needs INT key");
  }
  const int64_t key = row[0].AsInt();
  t->Install(key, /*version=*/0, /*deleted=*/false, std::move(row));
  return Status::OK();
}

size_t Database::TruncateVersions(DbVersion oldest_active) {
  {
    // Never GC past a live transaction's snapshot.  Transactions that
    // begin after this point read at the current committed version, which
    // is >= any horizon a caller can legitimately pass.
    std::lock_guard lock(snapshots_mutex_);
    if (!active_snapshots_.empty()) {
      oldest_active = std::min(oldest_active, *active_snapshots_.begin());
    }
  }
  size_t discarded = 0;
  size_t n;
  {
    std::lock_guard lock(catalog_mutex_);
    n = tables_.size();
  }
  for (size_t i = 0; i < n; ++i) {
    discarded += table(static_cast<TableId>(i))->TruncateVersions(
        oldest_active);
  }
  return discarded;
}

size_t Database::VersionCount() const {
  std::lock_guard lock(catalog_mutex_);
  size_t total = 0;
  for (const auto& t : tables_) total += t->VersionCount();
  return total;
}

}  // namespace screp
