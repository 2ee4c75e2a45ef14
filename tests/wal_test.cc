#include "storage/wal.h"

#include <gtest/gtest.h>

namespace screp {
namespace {

WriteSet MakeWs(TxnId id, DbVersion version) {
  WriteSet ws;
  ws.txn_id = id;
  ws.commit_version = version;
  ws.Add(0, static_cast<int64_t>(id), WriteType::kUpdate,
         Row{Value(static_cast<int64_t>(id)), Value(version)});
  return ws;
}

TEST(WalTest, AppendForcedIsImmediatelyDurable) {
  Wal wal;
  EXPECT_EQ(wal.Append(MakeWs(1, 1)), 0u);
  EXPECT_EQ(wal.DurableSize(), 1u);
  EXPECT_GT(wal.DurableBytes(), 0u);
}

TEST(WalTest, ReadAllDecodesContent) {
  Wal wal;
  for (int i = 1; i <= 5; ++i) {
    wal.Append(MakeWs(static_cast<TxnId>(i), i));
  }
  std::vector<WriteSet> records;
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(records[static_cast<size_t>(i)].commit_version, i + 1);
    EXPECT_EQ(records[static_cast<size_t>(i)].size(), 1u);
  }
}

TEST(WalTest, EmptyReadAllOk) {
  Wal wal;
  std::vector<WriteSet> records;
  EXPECT_TRUE(wal.ReadAll(&records).ok());
  EXPECT_TRUE(records.empty());
}

TEST(WalTest, ReadSinceStreamsOnlyTheSuffix) {
  Wal wal;
  constexpr int kRecords = 300;
  for (int i = 1; i <= kRecords; ++i) {
    wal.Append(MakeWs(static_cast<TxnId>(i), i));
  }
  for (DbVersion after : {DbVersion{0}, DbVersion{1}, DbVersion{63},
                          DbVersion{64}, DbVersion{65}, DbVersion{200},
                          DbVersion{299}, DbVersion{300}}) {
    std::vector<DbVersion> got;
    ASSERT_TRUE(wal.ReadSince(after, [&got](const WriteSet& ws) {
                     got.push_back(ws.commit_version);
                   }).ok());
    ASSERT_EQ(got.size(), static_cast<size_t>(kRecords - after)) << after;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], after + 1 + static_cast<DbVersion>(i));
    }
  }
}

TEST(WalTest, SeekSkipsThePrefixViaTheSparseIndex) {
  Wal wal;
  std::vector<size_t> offsets;  // byte offset of each record
  for (int i = 1; i <= 300; ++i) {
    offsets.push_back(wal.DurableBytes());
    wal.Append(MakeWs(static_cast<TxnId>(i), i));
  }
  EXPECT_EQ(wal.SeekOffset(0), 0u);
  for (DbVersion after : {DbVersion{64}, DbVersion{100}, DbVersion{250}}) {
    // The seek lands at most one index stride before the first record
    // with a version above `after` (record i holds version i + 1).
    const size_t first = static_cast<size_t>(after);
    const size_t seek = wal.SeekOffset(after);
    EXPECT_LE(seek, offsets[first]);
    EXPECT_GE(seek, offsets[first - Wal::kIndexStride]);
  }
}

}  // namespace
}  // namespace screp
