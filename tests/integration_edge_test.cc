// Integration edge cases across modules: cold-start replica join from a
// peer's snapshot plus the certifier's suffix, duplicate message
// delivery, and interactions between begin-waiters and version waiters.

#include <gtest/gtest.h>

#include "consistency/checker.h"
#include "runtime/sim_runtime.h"
#include "workload/experiment.h"
#include "workload/micro.h"

namespace screp {
namespace {

MicroConfig SmallMicro() {
  MicroConfig config;
  config.rows_per_table = 100;
  config.update_fraction = 1.0;
  return config;
}

class IntegrationEdgeTest : public ::testing::Test {
 protected:
  void Build(int replicas) {
    workload_ = std::make_unique<MicroWorkload>(SmallMicro());
    sim_ = std::make_unique<Simulator>();
    rt_ = std::make_unique<runtime::SimRuntime>(sim_.get());
    responses_.clear();
    SystemConfig config;
    config.replica_count = replicas;
    config.level = ConsistencyLevel::kLazyCoarse;
    auto system = ReplicatedSystem::Create(
        rt_.get(), config,
        [this](Database* db) { return workload_->BuildSchema(db); },
        [this](const Database& db, sql::TransactionRegistry* reg) {
          return workload_->DefineTransactions(db, reg);
        });
    ASSERT_TRUE(system.ok());
    system_ = std::move(system).value();
    system_->SetClientCallback(
        [this](const TxnResponse& r) { responses_.push_back(r); });
  }

  void SubmitUpdate(int64_t key, int64_t delta = 1) {
    TxnRequest req;
    req.txn_id = system_->NextTxnId();
    req.type = *system_->registry().Find("update_item0");
    req.session = 1;
    req.params = {{Value(delta), Value(key)}};
    system_->Submit(std::move(req));
  }

  std::unique_ptr<MicroWorkload> workload_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<runtime::SimRuntime> rt_;
  std::unique_ptr<ReplicatedSystem> system_;
  std::vector<TxnResponse> responses_;
};

// A brand-new node joins from a live replica's snapshot plus the
// certifier's suffix after it — the cold-start join path.  The log no
// longer reaches back to version 0, so that is the only way in.
TEST_F(IntegrationEdgeTest, ColdStartReplicaFromPeerSnapshotAndLogSuffix) {
  Build(2);
  auto commit_updates = [this](int n) {
    for (int i = 0; i < n; ++i) {
      SubmitUpdate(i % 100);
      sim_->RunAll();
    }
  };
  commit_updates(300);
  const DatabaseSnapshot snapshot =
      system_->replica(0)->db()->TakeSnapshot();
  // More commits while the snapshot is in transit, then the join.
  commit_updates(50);
  ASSERT_EQ(system_->certifier()->CommitVersion(), 350);
  const Certifier* certifier = system_->certifier();
  EXPECT_TRUE(certifier->FetchSince(0, 0, [](const WriteSet&) {})
                  .IsOutOfRange());
  ASSERT_GE(snapshot.version, certifier->FetchFloor());

  // The new node knows the schema (tables and the table-set catalog);
  // every row comes from the snapshot.
  Database fresh;
  ASSERT_TRUE(workload_->BuildSchema(&fresh).ok());
  ASSERT_TRUE(system_->registry().PersistCatalog(&fresh).ok());
  const Status installed = fresh.InstallSnapshot(snapshot);
  ASSERT_TRUE(installed.ok()) << installed.ToString();
  EXPECT_EQ(fresh.CommittedVersion(), snapshot.version);
  Status apply = Status::OK();
  ASSERT_TRUE(certifier
                  ->FetchSince(0, snapshot.version,
                               [&](const WriteSet& ws) {
                                 if (apply.ok()) {
                                   apply = fresh.ApplyWriteSet(ws);
                                 }
                               })
                  .ok());
  ASSERT_TRUE(apply.ok()) << apply.ToString();
  EXPECT_EQ(fresh.CommittedVersion(),
            system_->replica(0)->db()->CommittedVersion());
  // Content equals an existing replica's, row by row.
  const TableId t = *fresh.FindTable("item0");
  const DbVersion v = fresh.CommittedVersion();
  std::vector<std::string> fresh_rows, live_rows;
  fresh.table(t)->Scan(v, [&](int64_t, const Row& row) {
    fresh_rows.push_back(RowToString(row));
    return true;
  });
  system_->replica(0)->db()->table(t)->Scan(v, [&](int64_t,
                                                   const Row& row) {
    live_rows.push_back(RowToString(row));
    return true;
  });
  EXPECT_EQ(fresh_rows, live_rows);
}

TEST_F(IntegrationEdgeTest, DuplicateRefreshDeliveryIsIdempotent) {
  Build(2);
  SubmitUpdate(7, 5);
  sim_->RunAll();
  ASSERT_EQ(responses_.size(), 1u);
  const DbVersion v = system_->replica(1)->db()->CommittedVersion();
  ASSERT_EQ(v, 1);
  // Re-deliver the same refresh writeset (failover overlap): dropped.
  std::vector<WriteSet> log;
  ASSERT_TRUE(system_->certifier()->wal(0).ReadAll(&log).ok());
  ASSERT_EQ(log.size(), 1u);
  system_->replica(1)->proxy()->OnRefresh(log[0]);
  sim_->RunAll();
  EXPECT_EQ(system_->replica(1)->db()->CommittedVersion(), 1);
  const TableId t = *system_->replica(1)->db()->FindTable("item0");
  auto row = system_->replica(1)->db()->table(t)->Get(7, 1);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsInt(), (7 % 997) + 5);
}

TEST_F(IntegrationEdgeTest, VersionWaiterFiresExactlyOnce) {
  Build(2);
  int fired = 0;
  system_->replica(1)->proxy()->CallWhenVersionReached(
      2, [&fired]() { ++fired; });
  EXPECT_EQ(fired, 0);
  SubmitUpdate(1);
  sim_->RunAll();
  EXPECT_EQ(fired, 0);  // only at version 1
  SubmitUpdate(2);
  sim_->RunAll();
  EXPECT_EQ(fired, 1);
  SubmitUpdate(3);
  sim_->RunAll();
  EXPECT_EQ(fired, 1);  // not again
}

TEST_F(IntegrationEdgeTest, VersionWaiterImmediateWhenCurrent) {
  Build(2);
  int fired = 0;
  system_->replica(0)->proxy()->CallWhenVersionReached(
      0, [&fired]() { ++fired; });
  EXPECT_EQ(fired, 1);
}

TEST_F(IntegrationEdgeTest, ManyConcurrentClientsConvergeAndAudit) {
  // Heavier concurrency than the harness defaults: 24 clients on 3
  // replicas, hot 100-row table, pure updates — then audit everything.
  MicroWorkload workload(SmallMicro());
  History history;
  ExperimentConfig config;
  config.system.level = ConsistencyLevel::kLazyCoarse;
  config.system.replica_count = 3;
  config.client_count = 24;
  config.warmup = 0;
  config.duration = Seconds(2);
  config.history = &history;
  auto result = RunExperiment(workload, config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->cert_aborts + result->early_aborts, 0)
      << "hot table should produce conflicts";
  CheckResult check = CheckAll(history, /*expect_strong=*/true);
  EXPECT_TRUE(check.ok) << check.ToString();
}

TEST_F(IntegrationEdgeTest, ReadOnlyTransactionsNeverTouchCertifier) {
  MicroConfig micro;
  micro.update_fraction = 0.0;
  MicroWorkload workload(micro);
  ExperimentConfig config;
  config.system.replica_count = 4;
  config.client_count = 8;
  config.warmup = 0;
  config.duration = Seconds(1);
  auto result = RunExperiment(workload, config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->committed, 100);
  EXPECT_EQ(result->committed_updates, 0);
  EXPECT_EQ(result->certify_ms, 0.0);
  EXPECT_EQ(result->sync_ms, 0.0);
}

TEST_F(IntegrationEdgeTest, StageTimesSumMatchesServerSideLatency) {
  Build(3);
  SubmitUpdate(5);
  sim_->RunAll();
  ASSERT_EQ(responses_.size(), 1u);
  const TxnResponse& r = responses_[0];
  // Client response time = network hops + stage total; stages alone are
  // strictly less but in the same order of magnitude.
  const SimTime total = r.stages.Total();
  EXPECT_GT(total, 0);
  EXPECT_GT(Millis(1000), total);
  EXPECT_EQ(r.stages.version, 0);  // nothing to wait for on first txn
  EXPECT_GT(r.stages.queries, 0);
  EXPECT_GT(r.stages.certify, 0);
  EXPECT_GT(r.stages.commit, 0);
}

TEST_F(IntegrationEdgeTest, TxnIdsAreUniqueAndMonotonic) {
  Build(2);
  TxnId prev = 0;
  for (int i = 0; i < 100; ++i) {
    const TxnId id = system_->NextTxnId();
    EXPECT_GT(id, prev);
    prev = id;
  }
}

}  // namespace
}  // namespace screp
