#include "storage/transaction.h"

#include <gtest/gtest.h>

#include "storage/database.h"
#include "storage/wal.h"

namespace screp {
namespace {

class TransactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto id = db_.CreateTable(
        "t", Schema({{"id", ValueType::kInt64}, {"val", ValueType::kInt64}}));
    ASSERT_TRUE(id.ok());
    table_ = *id;
    for (int64_t k = 1; k <= 5; ++k) {
      ASSERT_TRUE(db_.BulkLoad(table_, {Value(k), Value(k * 10)}).ok());
    }
  }

  /// Commits a transaction's writes at the next version (standalone-DBMS
  /// style, bypassing the certifier).
  void CommitLocal(Transaction* txn) {
    WriteSet ws = txn->BuildWriteSet();
    ws.commit_version = db_.CommittedVersion() + 1;
    ASSERT_TRUE(db_.ApplyWriteSet(ws).ok());
  }

  Database db_;
  TableId table_ = -1;
};

TEST_F(TransactionTest, ReadCommittedData) {
  auto txn = db_.Begin();
  Result<Row> row = txn->Get(table_, 3);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsInt(), 30);
  EXPECT_TRUE(txn->read_only());
}

TEST_F(TransactionTest, ReadYourOwnWrites) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Update(table_, 1, {Value(1), Value(111)}).ok());
  EXPECT_EQ((*txn->Get(table_, 1))[1].AsInt(), 111);
  EXPECT_FALSE(txn->read_only());
  // Another transaction does not see uncommitted writes.
  auto other = db_.Begin();
  EXPECT_EQ((*other->Get(table_, 1))[1].AsInt(), 10);
}

TEST_F(TransactionTest, InsertVisibleAfterCommitOnly) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Insert(table_, {Value(100), Value(1)}).ok());
  EXPECT_TRUE(txn->Exists(table_, 100));
  auto concurrent = db_.Begin();
  EXPECT_FALSE(concurrent->Exists(table_, 100));
  CommitLocal(txn.get());
  auto after = db_.Begin();
  EXPECT_TRUE(after->Exists(table_, 100));
}

TEST_F(TransactionTest, InsertDuplicateFails) {
  auto txn = db_.Begin();
  EXPECT_TRUE(txn->Insert(table_, {Value(1), Value(0)})
                  .code() == StatusCode::kAlreadyExists);
  ASSERT_TRUE(txn->Insert(table_, {Value(50), Value(0)}).ok());
  EXPECT_TRUE(txn->Insert(table_, {Value(50), Value(1)})
                  .code() == StatusCode::kAlreadyExists);
}

TEST_F(TransactionTest, UpdateMissingRowFails) {
  auto txn = db_.Begin();
  EXPECT_TRUE(txn->Update(table_, 99, {Value(99), Value(1)}).IsNotFound());
}

TEST_F(TransactionTest, UpdateCannotChangeKey) {
  auto txn = db_.Begin();
  EXPECT_FALSE(txn->Update(table_, 1, {Value(2), Value(1)}).ok());
}

TEST_F(TransactionTest, UpdateColumns) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->UpdateColumns(table_, 2, {{1, Value(999)}}).ok());
  EXPECT_EQ((*txn->Get(table_, 2))[1].AsInt(), 999);
  EXPECT_FALSE(txn->UpdateColumns(table_, 2, {{0, Value(1)}}).ok());
  EXPECT_FALSE(txn->UpdateColumns(table_, 2, {{9, Value(1)}}).ok());
}

TEST_F(TransactionTest, DeleteThenReadIsNotFound) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Delete(table_, 1).ok());
  EXPECT_TRUE(txn->Get(table_, 1).status().IsNotFound());
  EXPECT_FALSE(txn->Exists(table_, 1));
  // Deleting again fails.
  EXPECT_TRUE(txn->Delete(table_, 1).IsNotFound());
}

TEST_F(TransactionTest, InsertThenDeleteIsNoop) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Insert(table_, {Value(70), Value(7)}).ok());
  ASSERT_TRUE(txn->Delete(table_, 70).ok());
  EXPECT_TRUE(txn->read_only());
  EXPECT_EQ(txn->BuildWriteSet().size(), 0u);
}

TEST_F(TransactionTest, InsertThenUpdateStaysInsert) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Insert(table_, {Value(70), Value(7)}).ok());
  ASSERT_TRUE(txn->Update(table_, 70, {Value(70), Value(8)}).ok());
  WriteSet ws = txn->BuildWriteSet();
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_EQ(ws.ops[0].type, WriteType::kInsert);
  EXPECT_EQ((*ws.ops[0].row)[1].AsInt(), 8);
}

TEST_F(TransactionTest, SnapshotIgnoresLaterCommits) {
  auto reader = db_.Begin();
  auto writer = db_.Begin();
  ASSERT_TRUE(writer->Update(table_, 1, {Value(1), Value(77)}).ok());
  CommitLocal(writer.get());
  // The reader's snapshot predates the commit.
  EXPECT_EQ((*reader->Get(table_, 1))[1].AsInt(), 10);
  auto late = db_.Begin();
  EXPECT_EQ((*late->Get(table_, 1))[1].AsInt(), 77);
}

TEST_F(TransactionTest, ScanMergesOwnWrites) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Insert(table_, {Value(0), Value(0)}).ok());     // before
  ASSERT_TRUE(txn->Insert(table_, {Value(10), Value(100)}).ok());  // after
  ASSERT_TRUE(txn->Update(table_, 3, {Value(3), Value(333)}).ok());
  ASSERT_TRUE(txn->Delete(table_, 5).ok());
  std::vector<std::pair<int64_t, int64_t>> seen;
  txn->Scan(table_, [&](int64_t key, const Row& row) {
    seen.emplace_back(key, row[1].AsInt());
    return true;
  });
  const std::vector<std::pair<int64_t, int64_t>> expected = {
      {0, 0}, {1, 10}, {2, 20}, {3, 333}, {4, 40}, {10, 100}};
  EXPECT_EQ(seen, expected);
}

TEST_F(TransactionTest, ScanRangeMergesOwnWritesWithinBounds) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Insert(table_, {Value(7), Value(70)}).ok());
  std::vector<int64_t> keys;
  txn->ScanRange(table_, 3, 7, [&](int64_t key, const Row&) {
    keys.push_back(key);
    return true;
  });
  EXPECT_EQ(keys, (std::vector<int64_t>{3, 4, 5, 7}));
}

TEST_F(TransactionTest, ScanEarlyStopInBufferedTail) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Insert(table_, {Value(100), Value(1)}).ok());
  ASSERT_TRUE(txn->Insert(table_, {Value(101), Value(1)}).ok());
  int count = 0;
  txn->Scan(table_, [&](int64_t, const Row&) { return ++count < 6; });
  EXPECT_EQ(count, 6);  // 5 committed + first buffered, then stop
}

TEST_F(TransactionTest, BuildWriteSetReflectsSnapshot) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Update(table_, 1, {Value(1), Value(11)}).ok());
  WriteSet ws = txn->BuildWriteSet();
  EXPECT_EQ(ws.snapshot_version, 0);
  EXPECT_EQ(ws.size(), 1u);
  EXPECT_EQ(ws.commit_version, kNoVersion);
}

TEST_F(TransactionTest, AbortDiscardsWrites) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Update(table_, 1, {Value(1), Value(11)}).ok());
  txn->Abort();
  EXPECT_TRUE(txn->read_only());
  EXPECT_EQ(txn->WriteCount(), 0u);
}

TEST_F(TransactionTest, BeginAtHistoricalSnapshot) {
  auto writer = db_.Begin();
  ASSERT_TRUE(writer->Update(table_, 1, {Value(1), Value(111)}).ok());
  CommitLocal(writer.get());
  auto historical = db_.BeginAt(0);
  EXPECT_EQ((*historical->Get(table_, 1))[1].AsInt(), 10);
}

TEST_F(TransactionTest, ApplyWriteSetRejectsOutOfOrderVersions) {
  WriteSet ws;
  ws.commit_version = 5;  // expected 1
  EXPECT_FALSE(db_.ApplyWriteSet(ws).ok());
  EXPECT_EQ(db_.CommittedVersion(), 0);
}

TEST_F(TransactionTest, RecoverFromWalRebuildsState) {
  // Commit two transactions, logging each writeset the way the certifier
  // does (replicas keep no log of their own).
  Wal wal;
  auto t1 = db_.Begin();
  ASSERT_TRUE(t1->Update(table_, 1, {Value(1), Value(101)}).ok());
  WriteSet ws1 = t1->BuildWriteSet();
  ws1.commit_version = 1;
  ASSERT_TRUE(db_.ApplyWriteSet(ws1).ok());
  wal.Append(ws1);
  auto t2 = db_.Begin();
  ASSERT_TRUE(t2->Delete(table_, 2).ok());
  WriteSet ws2 = t2->BuildWriteSet();
  ws2.commit_version = 2;
  ASSERT_TRUE(db_.ApplyWriteSet(ws2).ok());
  wal.Append(ws2);

  // Fresh database with the same schema, rebuilt by replaying the log.
  Database recovered;
  auto id = recovered.CreateTable(
      "t", Schema({{"id", ValueType::kInt64}, {"val", ValueType::kInt64}}));
  ASSERT_TRUE(id.ok());
  for (int64_t k = 1; k <= 5; ++k) {
    ASSERT_TRUE(recovered.BulkLoad(*id, {Value(k), Value(k * 10)}).ok());
  }
  Status apply = Status::OK();
  ASSERT_TRUE(wal.ReadSince(0, [&](const WriteSet& ws) {
                   if (apply.ok()) apply = recovered.ApplyWriteSet(ws);
                 }).ok());
  ASSERT_TRUE(apply.ok()) << apply.ToString();
  EXPECT_EQ(recovered.CommittedVersion(), 2);
  auto txn = recovered.Begin();
  EXPECT_EQ((*txn->Get(*id, 1))[1].AsInt(), 101);
  EXPECT_FALSE(txn->Exists(*id, 2));
}

}  // namespace
}  // namespace screp
