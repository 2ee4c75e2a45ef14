#include "core/sync_policy.h"

#include <gtest/gtest.h>

namespace screp {
namespace {

// One-shard shorthands: shard 0's requirement, and an acknowledgment
// tagged with shard 0's V_local.
DbVersion Required(const SyncPolicy& policy, SessionId session,
                   const std::vector<TableId>& table_set) {
  return policy.RequiredStartVersion(session, {0}, table_set).at(0).second;
}
void Ack(SyncPolicy* policy, SessionId session, DbVersion v_local,
         const std::vector<std::pair<TableId, DbVersion>>& written) {
  policy->OnCommitAcknowledged(session, {{0, v_local}}, written);
}

constexpr TableId kA = 0, kB = 1;

TEST(SyncPolicyTest, EagerNeverDelaysStart) {
  SyncPolicy policy(ConsistencyLevel::kEager, 2);
  Ack(&policy, 1, 50, {{kA, 50}});
  EXPECT_EQ(Required(policy, 1, {kA}), 0);
  EXPECT_EQ(Required(policy, 2, {kA, kB}), 0);
}

TEST(SyncPolicyTest, CoarseRequiresSystemVersionForEveryone) {
  SyncPolicy policy(ConsistencyLevel::kLazyCoarse, 2);
  Ack(&policy, 1, 7, {{kA, 7}});
  // Session 2 never committed anything but still must see version 7.
  EXPECT_EQ(Required(policy, 2, {}), 7);
  EXPECT_EQ(Required(policy, 1, {kB}), 7);
}

TEST(SyncPolicyTest, FineRequiresOnlyTableSetVersions) {
  SyncPolicy policy(ConsistencyLevel::kLazyFine, 2);
  Ack(&policy, 1, 7, {{kA, 7}});
  // Transactions on B need nothing; transactions on A need version 7.
  EXPECT_EQ(Required(policy, 2, {kB}), 0);
  EXPECT_EQ(Required(policy, 2, {kA}), 7);
  EXPECT_EQ(Required(policy, 2, {kA, kB}), 7);
}

TEST(SyncPolicyTest, SessionRequiresOwnHistoryOnly) {
  SyncPolicy policy(ConsistencyLevel::kSession, 2);
  Ack(&policy, 1, 7, {{kA, 7}});
  EXPECT_EQ(Required(policy, 1, {kA}), 7);
  EXPECT_EQ(Required(policy, 2, {kA}), 0);  // other session
}

TEST(SyncPolicyTest, ReadOnlyAcksAdvanceVersionsWithoutTables) {
  SyncPolicy policy(ConsistencyLevel::kLazyCoarse, 2);
  // A read-only commit tagged with the replica's V_local = 4.
  Ack(&policy, 1, 4, {});
  EXPECT_EQ(Required(policy, 2, {}), 4);
  EXPECT_EQ(policy.table_versions().TableVersion(kA), 0);
}

TEST(SyncPolicyTest, AllTrackersMaintainedRegardlessOfLevel) {
  SyncPolicy policy(ConsistencyLevel::kSession, 2);
  Ack(&policy, 3, 9, {{kB, 9}});
  EXPECT_EQ(policy.system_version().SystemVersion(), 9);
  EXPECT_EQ(policy.table_versions().TableVersion(kB), 9);
  EXPECT_EQ(policy.sessions().RequiredVersion(3), 9);
}

// The paper's §III-C observation: a transaction on a read-only table can
// start immediately under LFC even though LSC and SC would wait.
TEST(SyncPolicyTest, FineBeatsSessionOnColdTables) {
  SyncPolicy fine(ConsistencyLevel::kLazyFine, 2);
  SyncPolicy session(ConsistencyLevel::kSession, 2);
  // The same client committed an update to table A at version 12.
  Ack(&fine, 1, 12, {{kA, 12}});
  Ack(&session, 1, 12, {{kA, 12}});
  // Its next transaction reads only table B.
  EXPECT_EQ(Required(fine, 1, {kB}), 0);      // immediate
  EXPECT_EQ(Required(session, 1, {kB}), 12);  // must wait
}

}  // namespace
}  // namespace screp
