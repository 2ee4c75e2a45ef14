// Routing-policy and MVCC-garbage-collection behaviour at system level.
#include "runtime/sim_runtime.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "consistency/checker.h"
#include "workload/experiment.h"
#include "workload/micro.h"

namespace screp {
namespace {

TEST(RoutingPolicyTest, RoundRobinCycles) {
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  LoadBalancer lb(&rt, ConsistencyLevel::kLazyCoarse, 1, 3,
                  RoutingPolicy::kRoundRobin);
  std::vector<ReplicaId> picks;
  lb.SetDispatchCallback(
      [&picks](ReplicaId replica, const TxnRequest&, const ShardVersions&) {
        picks.push_back(replica);
      });
  lb.SetClientResponseCallback([](const TxnResponse&) {});
  for (TxnId t = 0; t < 6; ++t) {
    TxnRequest req;
    req.txn_id = t;
    lb.OnClientRequest(req);
  }
  EXPECT_EQ(picks, (std::vector<ReplicaId>{0, 1, 2, 0, 1, 2}));
}

TEST(RoutingPolicyTest, RoundRobinSkipsDownReplicas) {
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  LoadBalancer lb(&rt, ConsistencyLevel::kLazyCoarse, 1, 3,
                  RoutingPolicy::kRoundRobin);
  std::vector<ReplicaId> picks;
  lb.SetDispatchCallback(
      [&picks](ReplicaId replica, const TxnRequest&, const ShardVersions&) {
        picks.push_back(replica);
      });
  lb.SetClientResponseCallback([](const TxnResponse&) {});
  lb.MarkReplicaDown(1);
  for (TxnId t = 0; t < 4; ++t) {
    TxnRequest req;
    req.txn_id = t;
    lb.OnClientRequest(req);
  }
  for (ReplicaId r : picks) EXPECT_NE(r, 1);
}

TEST(RoutingPolicyTest, LeastActiveBeatsRoundRobinOnSkewedWork) {
  // A workload where some transactions are far heavier than others: the
  // load-aware policy should achieve at least the throughput of blind
  // round-robin (usually more).
  MicroConfig micro;
  micro.update_fraction = 0.5;
  MicroWorkload workload(micro);
  double tps[2];
  int i = 0;
  for (RoutingPolicy routing :
       {RoutingPolicy::kLeastActive, RoutingPolicy::kRoundRobin}) {
    ExperimentConfig config;
    config.system.level = ConsistencyLevel::kLazyCoarse;
    config.system.replica_count = 4;
    config.system.routing = routing;
    config.client_count = 16;
    config.warmup = Seconds(0.5);
    config.duration = Seconds(4);
    auto result = RunExperiment(workload, config);
    ASSERT_TRUE(result.ok());
    tps[i++] = result->throughput_tps;
  }
  EXPECT_GE(tps[0], tps[1] * 0.95);
}

TEST(GcTest, VersionCountBoundedWithGc) {
  // A tiny hot table hammered with updates: every commit adds a version,
  // and the always-on low-water-mark sweep (once per kSweepEveryCommits
  // commits) keeps the chains near the live row count throughout the
  // run, not just at its end.
  MicroConfig micro;
  micro.table_count = 1;
  micro.rows_per_table = 10;  // hot rows: many versions each
  micro.update_fraction = 1.0;
  MicroWorkload workload(micro);

  Simulator sim;
  runtime::SimRuntime rt{&sim};
  SystemConfig config;
  config.replica_count = 2;
  config.level = ConsistencyLevel::kLazyCoarse;
  auto system_or = ReplicatedSystem::Create(
      &rt, config,
      [&workload](Database* db) { return workload.BuildSchema(db); },
      [&workload](const Database& db, sql::TransactionRegistry* reg) {
        return workload.DefineTransactions(db, reg);
      });
  ASSERT_TRUE(system_or.ok());
  auto system = std::move(system_or).value();
  int committed = 0;
  system->SetClientCallback([&committed](const TxnResponse& r) {
    if (r.outcome == TxnOutcome::kCommitted) ++committed;
  });
  const Table* table =
      system->replica(0)->db()->table(*system->replica(0)->db()->FindTable(
          "item0"));
  Rng rng(3);
  size_t peak = 0;
  for (int n = 0; n < 500; ++n) {
    TxnRequest req;
    req.txn_id = system->NextTxnId();
    req.type = *system->registry().Find("update_item0");
    req.session = 1;
    req.params = {{Value(1), Value(rng.NextInRange(0, 9))}};
    system->Submit(std::move(req));
    sim.RunUntil(sim.Now() + Millis(5));
    peak = std::max(peak, table->VersionCount());
  }
  sim.RunUntil(sim.Now() + Seconds(1));
  EXPECT_GT(committed, 400);
  // Without GC every update leaves a version (500 + the initial 10); with
  // the sweep the table never holds more than the live rows, one sweep
  // interval of new versions and the few versions still above the
  // horizon at the last sweep (the committing transaction's own snapshot
  // and the other replica's apply lag).
  EXPECT_LT(peak, 60u);
}

TEST(GcTest, GcPreservesCorrectResults) {
  MicroConfig micro;
  micro.rows_per_table = 50;
  micro.update_fraction = 0.5;
  MicroWorkload workload(micro);
  ExperimentConfig config;
  config.system.level = ConsistencyLevel::kLazyCoarse;
  config.system.replica_count = 3;
  // The low-water-mark sweep is always on: GC runs every
  // kSweepEveryCommits commits while readers hold snapshots.
  config.client_count = 6;
  config.warmup = Seconds(0.5);
  config.duration = Seconds(3);
  History history;
  config.history = &history;
  auto result = RunExperiment(workload, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->exec_errors, 0);
  CheckResult check = CheckAll(history, /*expect_strong=*/true);
  EXPECT_TRUE(check.ok) << check.ToString();
}

}  // namespace
}  // namespace screp
