#include "replication/proxy.h"
#include "runtime/sim_runtime.h"

#include <gtest/gtest.h>

namespace screp {
namespace {

/// Drives a single Proxy directly, playing the roles of load balancer and
/// certifier.
class ProxyTest : public ::testing::Test {
 protected:
  /// `shards` > 1 partitions the two tables t and u round-robin (t in
  /// shard 0, u in shard 1), one apply stream per shard.
  void Build(bool eager = false, ProxyConfig config = ProxyConfig{},
             int shards = 1) {
    auto table = db_.CreateTable(
        "t", Schema({{"id", ValueType::kInt64}, {"val", ValueType::kInt64}}));
    ASSERT_TRUE(table.ok());
    table_ = *table;
    auto t2 = db_.CreateTable(
        "u", Schema({{"id", ValueType::kInt64}, {"val", ValueType::kInt64}}));
    ASSERT_TRUE(t2.ok());
    table2_ = *t2;
    for (int64_t k = 0; k < 10; ++k) {
      ASSERT_TRUE(db_.BulkLoad(table_, {Value(k), Value(0)}).ok());
      ASSERT_TRUE(db_.BulkLoad(table2_, {Value(k), Value(0)}).ok());
    }

    auto add = [&](const char* name, const char* text) {
      sql::PreparedTransaction txn;
      txn.name = name;
      auto stmt = sql::PreparedStatement::Prepare(db_, text);
      ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
      txn.statements.push_back(std::move(stmt).value());
      registry_.Register(std::move(txn));
    };
    add("read", "SELECT val FROM t WHERE id = ?");
    add("write", "UPDATE t SET val = val + ? WHERE id = ?");
    {
      sql::PreparedTransaction txn;
      txn.name = "write2";
      for (const char* text :
           {"UPDATE t SET val = val + ? WHERE id = ?",
            "UPDATE u SET val = val + ? WHERE id = ?"}) {
        auto stmt = sql::PreparedStatement::Prepare(db_, text);
        ASSERT_TRUE(stmt.ok());
        txn.statements.push_back(std::move(stmt).value());
      }
      registry_.Register(std::move(txn));
    }

    const ShardMap map(db_.TableCount(), shards);
    proxy_ = std::make_unique<Proxy>(&rt_, 0, &db_, &registry_, config,
                                     eager, &map);
    proxy_->SetCertRequestCallback(
        [this](const WriteSet& ws) { cert_requests_.push_back(ws); });
    proxy_->SetResponseCallback(
        [this](const TxnResponse& r) { responses_.push_back(r); });
    proxy_->SetReplicaCommittedCallback(
        [this](TxnId txn) { commit_reports_.push_back(txn); });
  }

  TxnRequest MakeRequest(TxnId id, const char* type,
                         std::vector<std::vector<Value>> params) {
    TxnRequest req;
    req.txn_id = id;
    req.type = *registry_.Find(type);
    req.session = 1;
    req.params = std::move(params);
    return req;
  }

  WriteSet MakeRefresh(TxnId id, DbVersion version, int64_t key,
                       TableId table = -1) {
    WriteSet ws;
    ws.txn_id = id;
    ws.origin = 1;  // another replica
    ws.commit_version = version;
    ws.Add(table < 0 ? table_ : table, key, WriteType::kUpdate,
           Row{Value(key), Value(version * 1000)});
    return ws;
  }

  Simulator sim_;
  runtime::SimRuntime rt_{&sim_};
  Database db_;
  TableId table_ = -1, table2_ = -1;
  sql::TransactionRegistry registry_;
  std::unique_ptr<Proxy> proxy_;
  std::vector<WriteSet> cert_requests_;
  std::vector<TxnResponse> responses_;
  std::vector<TxnId> commit_reports_;
};

TEST_F(ProxyTest, ReadOnlyFastPath) {
  Build();
  proxy_->OnTxnRequest(MakeRequest(1, "read", {{Value(3)}}), {{0, 0}});
  sim_.RunAll();
  ASSERT_EQ(responses_.size(), 1u);
  const TxnResponse& r = responses_[0];
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_TRUE(r.read_only);
  EXPECT_EQ(r.commit_version, kNoVersion);
  EXPECT_TRUE(r.written_table_versions.empty());
  EXPECT_TRUE(cert_requests_.empty());  // never touched the certifier
  EXPECT_GT(r.stages.queries, 0);
  EXPECT_GT(r.stages.commit, 0);
  EXPECT_EQ(r.stages.version, 0);
}

TEST_F(ProxyTest, UpdateGoesThroughCertification) {
  Build();
  proxy_->OnTxnRequest(MakeRequest(1, "write", {{Value(5), Value(3)}}),
                       {{0, 0}});
  sim_.RunAll();
  ASSERT_EQ(cert_requests_.size(), 1u);
  EXPECT_EQ(cert_requests_[0].txn_id, 1u);
  EXPECT_EQ(cert_requests_[0].origin, 0);
  EXPECT_EQ(cert_requests_[0].size(), 1u);
  EXPECT_TRUE(responses_.empty());  // waiting for the decision

  proxy_->OnCertDecision(CertDecision{1, true, 1});
  sim_.RunAll();
  ASSERT_EQ(responses_.size(), 1u);
  const TxnResponse& r = responses_[0];
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_FALSE(r.read_only);
  EXPECT_EQ(r.commit_version, 1);
  EXPECT_EQ(r.v_local_after, 1);
  ASSERT_EQ(r.written_table_versions.size(), 1u);
  EXPECT_EQ(r.written_table_versions[0].first, table_);
  EXPECT_EQ(r.written_table_versions[0].second, 1);
  // The write is in the local database.
  EXPECT_EQ((*db_.Begin()->Get(table_, 3))[1].AsInt(), 5);
}

TEST_F(ProxyTest, CertificationAbortRollsBack) {
  Build();
  proxy_->OnTxnRequest(MakeRequest(1, "write", {{Value(5), Value(3)}}),
                       {{0, 0}});
  sim_.RunAll();
  proxy_->OnCertDecision(CertDecision{1, false, kNoVersion});
  sim_.RunAll();
  ASSERT_EQ(responses_.size(), 1u);
  EXPECT_EQ(responses_[0].outcome, TxnOutcome::kCertificationAbort);
  EXPECT_EQ(db_.CommittedVersion(), 0);
  EXPECT_EQ((*db_.Begin()->Get(table_, 3))[1].AsInt(), 0);
  EXPECT_EQ(proxy_->active_transactions(), 0u);
}

TEST_F(ProxyTest, SynchronizationStartDelay) {
  Build();
  // The load balancer demands version 2; the replica is at 0.
  proxy_->OnTxnRequest(MakeRequest(1, "read", {{Value(3)}}), {{0, 2}});
  sim_.RunAll();
  EXPECT_TRUE(responses_.empty());  // blocked at BEGIN
  proxy_->OnRefresh(MakeRefresh(10, 1, 7));
  sim_.RunAll();
  EXPECT_TRUE(responses_.empty());  // still short of version 2
  proxy_->OnRefresh(MakeRefresh(11, 2, 8));
  sim_.RunAll();
  ASSERT_EQ(responses_.size(), 1u);
  EXPECT_EQ(responses_[0].outcome, TxnOutcome::kCommitted);
  EXPECT_GT(responses_[0].stages.version, 0);
  EXPECT_EQ(responses_[0].snapshot, 2);  // reads the synchronized state
}

TEST_F(ProxyTest, RefreshesApplyInVersionOrder) {
  Build();
  // Deliver out of order: 3, then 1, then 2.
  proxy_->OnRefresh(MakeRefresh(13, 3, 3));
  sim_.RunAll();
  EXPECT_EQ(proxy_->v_local(), 0);  // cannot apply v3 first
  EXPECT_EQ(proxy_->pending_writesets(), 1u);
  proxy_->OnRefresh(MakeRefresh(11, 1, 1));
  sim_.RunAll();
  EXPECT_EQ(proxy_->v_local(), 1);
  proxy_->OnRefresh(MakeRefresh(12, 2, 2));
  sim_.RunAll();
  EXPECT_EQ(proxy_->v_local(), 3);
  EXPECT_EQ(proxy_->refresh_applied_count(), 3);
  // All three rows reflect their refresh values.
  auto txn = db_.Begin();
  EXPECT_EQ((*txn->Get(table_, 1))[1].AsInt(), 1000);
  EXPECT_EQ((*txn->Get(table_, 3))[1].AsInt(), 3000);
}

TEST_F(ProxyTest, LocalCommitInterleavesWithRefreshOrder) {
  Build();
  // Local update certified at version 2; refresh v1 arrives afterwards.
  proxy_->OnTxnRequest(MakeRequest(1, "write", {{Value(5), Value(3)}}),
                       {{0, 0}});
  sim_.RunAll();
  proxy_->OnCertDecision(CertDecision{1, true, 2});
  sim_.RunAll();
  // Must wait: v1 has not been applied yet.
  EXPECT_TRUE(responses_.empty());
  proxy_->OnRefresh(MakeRefresh(11, 1, 7));
  sim_.RunAll();
  ASSERT_EQ(responses_.size(), 1u);
  EXPECT_EQ(proxy_->v_local(), 2);
  EXPECT_GT(responses_[0].stages.sync, 0);
}

TEST_F(ProxyTest, EarlyCertificationAgainstPendingRefresh) {
  Build();
  // A pending refresh (v2, not yet applicable) writes key 3.
  proxy_->OnRefresh(MakeRefresh(12, 2, 3));
  sim_.RunAll();
  ASSERT_EQ(proxy_->pending_writesets(), 1u);
  // A client update on key 3 must be aborted early.
  proxy_->OnTxnRequest(MakeRequest(1, "write", {{Value(5), Value(3)}}),
                       {{0, 0}});
  sim_.RunAll();
  ASSERT_EQ(responses_.size(), 1u);
  EXPECT_EQ(responses_[0].outcome, TxnOutcome::kEarlyAbort);
  EXPECT_TRUE(cert_requests_.empty());
  EXPECT_GE(proxy_->early_abort_count(), 1);
}

TEST_F(ProxyTest, EarlyCertificationDisabledLetsCertifierDecide) {
  ProxyConfig config;
  config.early_certification = false;
  Build(false, config);
  proxy_->OnRefresh(MakeRefresh(12, 2, 3));
  sim_.RunAll();
  proxy_->OnTxnRequest(MakeRequest(1, "write", {{Value(5), Value(3)}}),
                       {{0, 0}});
  sim_.RunAll();
  EXPECT_TRUE(responses_.empty());
  EXPECT_EQ(cert_requests_.size(), 1u);  // went to the certifier instead
}

TEST_F(ProxyTest, ArrivingRefreshAbortsConflictingActiveTxn) {
  Build();
  // Two-statement update transaction: after statement 1 it is still
  // active when the conflicting refresh arrives.
  proxy_->OnTxnRequest(
      MakeRequest(1, "write2", {{Value(5), Value(3)}, {Value(5), Value(4)}}),
      {{0, 0}});
  // Let statement 1 execute but not the whole transaction.
  sim_.RunUntil(Micros(100));
  EXPECT_EQ(proxy_->active_transactions(), 1u);
  proxy_->OnRefresh(MakeRefresh(11, 1, 3));  // conflicts with statement 1
  sim_.RunAll();
  ASSERT_EQ(responses_.size(), 1u);
  EXPECT_EQ(responses_[0].outcome, TxnOutcome::kEarlyAbort);
}

TEST_F(ProxyTest, NonConflictingRefreshLeavesActiveTxnAlone) {
  Build();
  proxy_->OnTxnRequest(
      MakeRequest(1, "write2", {{Value(5), Value(3)}, {Value(5), Value(4)}}),
      {{0, 0}});
  sim_.RunUntil(Micros(100));
  proxy_->OnRefresh(MakeRefresh(11, 1, 9));  // different key
  sim_.RunAll();
  // The transaction proceeds to certification.
  ASSERT_EQ(cert_requests_.size(), 1u);
  EXPECT_EQ(cert_requests_[0].size(), 2u);
}

TEST_F(ProxyTest, EagerHoldsResponseUntilGlobalCommit) {
  Build(/*eager=*/true);
  proxy_->OnTxnRequest(MakeRequest(1, "write", {{Value(5), Value(3)}}),
                       {{0, 0}});
  sim_.RunAll();
  proxy_->OnCertDecision(CertDecision{1, true, 1});
  sim_.RunAll();
  // Local commit happened (reported to the certifier), but the client has
  // no answer yet.
  ASSERT_EQ(commit_reports_.size(), 1u);
  EXPECT_EQ(commit_reports_[0], 1u);
  EXPECT_TRUE(responses_.empty());
  proxy_->OnGlobalCommit(1);
  sim_.RunAll();
  ASSERT_EQ(responses_.size(), 1u);
  EXPECT_EQ(responses_[0].outcome, TxnOutcome::kCommitted);
  EXPECT_GE(responses_[0].stages.global, 0);
}

TEST_F(ProxyTest, EagerReportsRefreshCommitsToo) {
  Build(/*eager=*/true);
  proxy_->OnRefresh(MakeRefresh(11, 1, 7));
  sim_.RunAll();
  ASSERT_EQ(commit_reports_.size(), 1u);
  EXPECT_EQ(commit_reports_[0], 11u);
}

TEST_F(ProxyTest, ExecutionErrorRespondsWithoutCertification) {
  Build();
  // Updating a missing key: 0 rows affected is fine, so use an insert
  // conflict instead — "write" on key 3 twice in one txn is legal, so
  // craft a read of a missing row via a type that fails: parameter arity
  // mismatch triggers the execution error path.
  proxy_->OnTxnRequest(MakeRequest(1, "write", {{Value(5)}}), {{0, 0}});
  sim_.RunAll();
  ASSERT_EQ(responses_.size(), 1u);
  EXPECT_EQ(responses_[0].outcome, TxnOutcome::kExecutionError);
  EXPECT_TRUE(cert_requests_.empty());
}

TEST_F(ProxyTest, StageTimingsSumBelowTotalLatency) {
  Build();
  proxy_->OnTxnRequest(MakeRequest(1, "write", {{Value(5), Value(3)}}),
                       {{0, 0}});
  sim_.RunAll();
  const SimTime decision_at = sim_.Now();
  proxy_->OnCertDecision(CertDecision{1, true, 1});
  sim_.RunAll();
  const TxnResponse& r = responses_.at(0);
  // certify stage covers the decision wait measured at the proxy.
  EXPECT_GE(r.stages.certify, decision_at - r.start_time - r.stages.queries);
  EXPECT_GT(r.stages.Total(), 0);
}

/// Deterministic service times + `lanes` apply lanes, for the pipeline
/// tests below (refresh cost = refresh_base + refresh_per_op * size).
ProxyConfig LaneConfig(int lanes) {
  ProxyConfig config;
  config.apply_lanes = lanes;
  config.cpu_cores = 4;
  config.service_spread = 0.0;
  config.stall_probability = 0.0;
  return config;
}

TEST_F(ProxyTest, LanesExecuteOutOfOrderButPublishInOrder) {
  Build(false, LaneConfig(4));
  // Version 1 is an 8-op refresh (1 + 2.5*8 = 21ms); versions 2..4 are
  // 1-op refreshes (3.5ms) on distinct keys.
  WriteSet big = MakeRefresh(101, 1, 0);
  for (int64_t k = 1; k < 8; ++k) {
    big.Add(table_, k, WriteType::kUpdate, Row{Value(k), Value(1000)});
  }
  proxy_->OnRefresh(big);
  proxy_->OnRefresh(MakeRefresh(102, 2, 8));
  proxy_->OnRefresh(MakeRefresh(103, 3, 9));
  proxy_->OnRefresh(MakeRefresh(104, 4, 8, table2_));
  // Mid-flight: the three small writesets have executed out of order but
  // must not be visible — version 1 is still running.
  sim_.RunUntil(Millis(10));
  EXPECT_EQ(proxy_->v_local(), 0);
  EXPECT_EQ(proxy_->publish_backlog(), 3u);
  // Once version 1 finishes, all four publish back-to-back: the makespan
  // is the longest writeset, not the sum.
  sim_.RunAll();
  EXPECT_EQ(proxy_->v_local(), 4);
  EXPECT_EQ(proxy_->publish_backlog(), 0u);
  EXPECT_EQ(proxy_->pending_writesets(), 0u);
  EXPECT_EQ(sim_.Now(), Millis(21));
  EXPECT_EQ(proxy_->refresh_applied_count(), 4);
}

TEST_F(ProxyTest, SerialLaneMatchesSequentialMakespan) {
  Build(false, LaneConfig(1));
  proxy_->OnRefresh(MakeRefresh(101, 1, 0));
  proxy_->OnRefresh(MakeRefresh(102, 2, 1));
  proxy_->OnRefresh(MakeRefresh(103, 3, 2));
  sim_.RunAll();
  EXPECT_EQ(proxy_->v_local(), 3);
  // One lane: 3 * 3.5ms, strictly sequential.
  EXPECT_EQ(sim_.Now(), Millis(10.5));
}

TEST_F(ProxyTest, ConflictingWritesetsNeverOverlapInLanes) {
  Build(false, LaneConfig(4));
  // Both write key 5: version 2 must wait for version 1 to publish.
  proxy_->OnRefresh(MakeRefresh(101, 1, 5));
  proxy_->OnRefresh(MakeRefresh(102, 2, 5));
  sim_.RunUntil(Millis(5));
  EXPECT_EQ(proxy_->v_local(), 1);  // v2 not even dispatched at 3.5ms
  sim_.RunAll();
  EXPECT_EQ(proxy_->v_local(), 2);
  EXPECT_EQ(sim_.Now(), Millis(7));  // sequential: 3.5 + 3.5
  // In-order apply: the surviving value is version 2's.
  auto txn = db_.Begin();
  Result<Row> row = txn->Get(table_, 5);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsInt(), 2000);
}

TEST_F(ProxyTest, VersionGapBlocksDispatch) {
  Build(false, LaneConfig(4));
  // Version 2 arrives first: it may not execute — an unseen version 1
  // could conflict with it.
  proxy_->OnRefresh(MakeRefresh(102, 2, 1));
  sim_.RunAll();
  EXPECT_EQ(proxy_->v_local(), 0);
  EXPECT_EQ(proxy_->pending_writesets(), 1u);
  proxy_->OnRefresh(MakeRefresh(101, 1, 0));
  sim_.RunAll();
  EXPECT_EQ(proxy_->v_local(), 2);
}

TEST_F(ProxyTest, CrashReleasesApplyLanes) {
  Build(false, LaneConfig(2));
  proxy_->OnRefresh(MakeRefresh(101, 1, 0));
  proxy_->OnRefresh(MakeRefresh(102, 2, 1));
  sim_.RunUntil(Millis(1));  // both mid-execution in their lanes
  proxy_->Crash();
  sim_.RunAll();
  proxy_->Restart();
  // Recovery re-delivers everything after the crash point; the lanes
  // must all be free again or this stalls below 3.
  proxy_->OnRefresh(MakeRefresh(101, 1, 0));
  proxy_->OnRefresh(MakeRefresh(102, 2, 1));
  proxy_->OnRefresh(MakeRefresh(103, 3, 2));
  sim_.RunAll();
  EXPECT_EQ(proxy_->v_local(), 3);
  EXPECT_EQ(proxy_->apply_lanes()->Busy(), 0);
}

// ---------------------------------------------------------------------
// Two shards (t in shard 0, u in shard 1), two apply lanes per stream.
// ---------------------------------------------------------------------

/// `ws` placed at per-shard versions `versions` (the first is also the
/// scalar commit version, as the certifier assigns it).
WriteSet AtShardVersions(WriteSet ws, ShardVersions versions) {
  ws.commit_version = versions.front().second;
  ws.shard_versions = std::move(versions);
  return ws;
}

/// An audited observability layer for a two-shard proxy: the auditor
/// checks each (replica, shard) apply stream and every BEGIN admission.
obs::ObsConfig AuditedConfig() {
  obs::ObsConfig config;
  config.audit = true;
  return config;
}

TEST_F(ProxyTest, TwoShardLanesExecuteAheadButPublishInStreamOrder) {
  Build(false, LaneConfig(2), /*shards=*/2);
  obs::Observability obs(&rt_, AuditedConfig());
  obs.ConfigureAuditor(true, true, {0, 1}, 2);
  proxy_->SetObservability(&obs);
  // Shard 0's version 1 is an 8-op refresh (21 ms); its version 2 is a
  // 1-op refresh (3.5 ms) on another key — it runs in the stream's
  // second lane while version 1 is still executing.
  WriteSet big = MakeRefresh(101, 1, 0);
  for (int64_t k = 1; k < 8; ++k) {
    big.Add(table_, k, WriteType::kUpdate, Row{Value(k), Value(1000)});
  }
  proxy_->OnRefresh(AtShardVersions(big, {{0, 1}}));
  proxy_->OnRefresh(AtShardVersions(MakeRefresh(102, 2, 8), {{0, 2}}));
  // Shard 1 runs its own stream meanwhile.
  proxy_->OnRefresh(
      AtShardVersions(MakeRefresh(103, 1, 8, table2_), {{1, 1}}));
  sim_.RunUntil(Millis(10));
  // Shard 0's version 2 has executed but waits for version 1 to publish;
  // shard 1 is not held back by shard 0.
  EXPECT_EQ(proxy_->ShardPublished(0), 0);
  EXPECT_EQ(proxy_->ShardPublished(1), 1);
  EXPECT_EQ(proxy_->publish_backlog(), 1u);
  sim_.RunAll();
  EXPECT_EQ(proxy_->ShardPublished(0), 2);
  EXPECT_EQ(proxy_->publish_backlog(), 0u);
  EXPECT_EQ(proxy_->pending_writesets(), 0u);
  // The makespan is the long writeset, not the sum of the stream's two.
  EXPECT_EQ(sim_.Now(), Millis(21));
  EXPECT_EQ(proxy_->refresh_applied_count(), 3);
  EXPECT_GT(obs.auditor()->checks_performed(), 0);
  EXPECT_TRUE(obs.auditor()->ok()) << obs.auditor()->Summary();
}

TEST_F(ProxyTest, CrossShardWritesetPublishesInBothStreamsAtOnce) {
  Build(false, LaneConfig(2), /*shards=*/2);
  obs::Observability obs(&rt_, AuditedConfig());
  obs.ConfigureAuditor(true, true, {0, 1}, 2);
  proxy_->SetObservability(&obs);
  // Shard 0's version 1 is an 8-op refresh (21 ms).  The cross-shard
  // writeset at (0:2, 1:1) writes t and u (2 ops, 6 ms) and shard 1's
  // version 2 another u key (3.5 ms): both execute ahead of shard 0's
  // version 1, and the cross-shard one — next in shard 1 — must still
  // wait until it is next in shard 0 too.
  WriteSet big = MakeRefresh(101, 1, 1);
  for (int64_t k = 2; k < 9; ++k) {
    big.Add(table_, k, WriteType::kUpdate, Row{Value(k), Value(1000)});
  }
  proxy_->OnRefresh(AtShardVersions(big, {{0, 1}}));
  WriteSet cross = MakeRefresh(102, 2, 0);
  cross.Add(table2_, 0, WriteType::kUpdate, Row{Value(0), Value(2000)});
  proxy_->OnRefresh(AtShardVersions(cross, {{0, 2}, {1, 1}}));
  proxy_->OnRefresh(
      AtShardVersions(MakeRefresh(103, 2, 5, table2_), {{1, 2}}));
  // Whenever a BEGIN could run, the cross-shard writeset is visible in
  // both streams or in neither.
  for (SimTime t = Micros(500); t < Millis(21); t += Micros(500)) {
    sim_.RunUntil(t);
    EXPECT_EQ(proxy_->ShardPublished(0), 0) << "at " << t;
    EXPECT_EQ(proxy_->ShardPublished(1), 0) << "at " << t;
  }
  EXPECT_EQ(proxy_->publish_backlog(), 2u);
  // A BEGIN tagged with shard 1's version 2 waits for it, and reads the
  // cross-shard writeset in shard 0 too.
  proxy_->OnTxnRequest(MakeRequest(1, "read", {{Value(0)}}), {{1, 2}});
  sim_.RunAll();
  ASSERT_EQ(responses_.size(), 1u);
  EXPECT_EQ(responses_[0].shard_snapshots, (ShardVersions{{0, 2}, {1, 2}}));
  EXPECT_EQ(proxy_->ShardPublished(0), 2);
  EXPECT_EQ(proxy_->ShardPublished(1), 2);
  EXPECT_EQ(proxy_->v_local(), 3);
  EXPECT_TRUE(obs.auditor()->ok()) << obs.auditor()->Summary();
}

}  // namespace
}  // namespace screp
