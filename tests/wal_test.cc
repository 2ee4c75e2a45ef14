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

std::vector<DbVersion> VersionsSince(const Wal& wal, DbVersion after) {
  std::vector<DbVersion> got;
  EXPECT_TRUE(wal.ReadSince(after, [&got](const WriteSet& ws) {
                   got.push_back(ws.commit_version);
                 }).ok());
  return got;
}

TEST(WalTest, ReadSinceCrossesSegmentBoundaries) {
  Wal wal;
  constexpr auto kSegment = static_cast<DbVersion>(Wal::kSegmentRecords);
  for (DbVersion v = 1; v <= 3 * kSegment + 5; ++v) {
    wal.Append(MakeWs(static_cast<TxnId>(v), v));
  }
  // Reads starting just before, at and just after each boundary stream
  // the whole dense suffix, across every later segment.
  for (DbVersion after : {kSegment - 1, kSegment, kSegment + 1,
                          2 * kSegment - 1, 2 * kSegment, 3 * kSegment}) {
    const std::vector<DbVersion> got = VersionsSince(wal, after);
    ASSERT_EQ(got.size(), static_cast<size_t>(3 * kSegment + 5 - after))
        << after;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], after + 1 + static_cast<DbVersion>(i));
    }
  }
}

TEST(WalTest, DropThroughDropsOnlyWholeSegmentsAtOrBelowTheMark) {
  Wal wal;
  constexpr auto kSegment = static_cast<DbVersion>(Wal::kSegmentRecords);
  for (DbVersion v = 1; v <= 2 * kSegment + 10; ++v) {
    wal.Append(MakeWs(static_cast<TxnId>(v), v));
  }
  const size_t all_bytes = wal.DurableBytes();
  EXPECT_EQ(wal.FirstRetained(), 1);
  // A mark inside the first segment drops nothing.
  wal.DropThrough(kSegment - 1);
  EXPECT_EQ(wal.FirstRetained(), 1);
  EXPECT_EQ(wal.DurableBytes(), all_bytes);
  // A mark at the first segment's last record drops exactly it.
  wal.DropThrough(kSegment);
  EXPECT_EQ(wal.FirstRetained(), kSegment + 1);
  EXPECT_LT(wal.DurableBytes(), all_bytes);
  // The segment still being appended to stays, whatever the mark.
  wal.DropThrough(10 * kSegment);
  EXPECT_EQ(wal.FirstRetained(), 2 * kSegment + 1);
  EXPECT_EQ(wal.DurableSize(), static_cast<uint64_t>(2 * kSegment + 10));
  EXPECT_EQ(VersionsSince(wal, 2 * kSegment).size(), 10u);
  // Monotone: a lower mark later changes nothing.
  wal.DropThrough(1);
  EXPECT_EQ(wal.FirstRetained(), 2 * kSegment + 1);
  // Appends continue the dense sequence after a drop.
  for (DbVersion v = 2 * kSegment + 11; v <= 3 * kSegment + 1; ++v) {
    wal.Append(MakeWs(static_cast<TxnId>(v), v));
  }
  const std::vector<DbVersion> got = VersionsSince(wal, 2 * kSegment + 5);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.front(), 2 * kSegment + 6);
  EXPECT_EQ(got.back(), 3 * kSegment + 1);
}

TEST(WalTest, ReadBelowTheRetainedLogIsRefusedWithoutAPartialStream) {
  Wal wal;
  constexpr auto kSegment = static_cast<DbVersion>(Wal::kSegmentRecords);
  for (DbVersion v = 1; v <= 2 * kSegment; ++v) {
    wal.Append(MakeWs(static_cast<TxnId>(v), v));
  }
  wal.DropThrough(kSegment);
  for (DbVersion after : {DbVersion{0}, DbVersion{1}, kSegment - 1}) {
    int streamed = 0;
    const Status st =
        wal.ReadSince(after, [&streamed](const WriteSet&) { ++streamed; });
    EXPECT_TRUE(st.IsOutOfRange()) << after << ": " << st.ToString();
    EXPECT_EQ(streamed, 0) << after;
  }
  std::vector<WriteSet> all;
  EXPECT_TRUE(wal.ReadAll(&all).IsOutOfRange());
  EXPECT_TRUE(all.empty());
  // The first retained record itself is still readable.
  EXPECT_EQ(VersionsSince(wal, kSegment).size(),
            static_cast<size_t>(kSegment));
}

}  // namespace
}  // namespace screp
