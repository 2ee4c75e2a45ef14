// High-availability failover of the middleware components themselves:
#include "runtime/sim_runtime.h"
// the certifier (state-machine-replicated hot standby) and the load
// balancer (stateless standby with conservative re-initialization) —
// the paper's §IV fault-tolerance design, made executable.

#include <gtest/gtest.h>

#include "consistency/checker.h"
#include "workload/experiment.h"
#include "workload/micro.h"

namespace screp {
namespace {

MicroConfig SmallMicro(double update_fraction) {
  MicroConfig config;
  config.rows_per_table = 200;
  config.update_fraction = update_fraction;
  return config;
}

class HaFailoverTest : public ::testing::Test {
 protected:
  void Build(ConsistencyLevel level, int replicas, bool standby_certifier) {
    workload_ = std::make_unique<MicroWorkload>(SmallMicro(1.0));
    sim_ = std::make_unique<Simulator>();
    rt_ = std::make_unique<runtime::SimRuntime>(sim_.get());
    responses_.clear();
    SystemConfig config;
    config.replica_count = replicas;
    config.level = level;
    config.standby_certifier = standby_certifier;
    auto system = ReplicatedSystem::Create(
        rt_.get(), config,
        [this](Database* db) { return workload_->BuildSchema(db); },
        [this](const Database& db, sql::TransactionRegistry* reg) {
          return workload_->DefineTransactions(db, reg);
        });
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    system_ = std::move(system).value();
    system_->SetClientCallback(
        [this](const TxnResponse& r) { responses_.push_back(r); });
  }

  void SubmitUpdate(SessionId session, int64_t key) {
    TxnRequest req;
    req.txn_id = system_->NextTxnId();
    req.type = *system_->registry().Find("update_item0");
    req.session = session;
    req.params = {{Value(1), Value(key)}};
    system_->Submit(std::move(req));
  }

  int CountCommitted() const {
    int n = 0;
    for (const auto& r : responses_) {
      if (r.outcome == TxnOutcome::kCommitted) ++n;
    }
    return n;
  }

  void ExpectConverged() {
    const DbVersion v = system_->replica(0)->db()->CommittedVersion();
    for (int r = 1; r < system_->replica_count(); ++r) {
      EXPECT_EQ(system_->replica(r)->db()->CommittedVersion(), v);
    }
  }

  std::unique_ptr<MicroWorkload> workload_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<runtime::SimRuntime> rt_;
  std::unique_ptr<ReplicatedSystem> system_;
  std::vector<TxnResponse> responses_;
};

TEST_F(HaFailoverTest, StandbyTracksPrimaryState) {
  Build(ConsistencyLevel::kLazyCoarse, 3, /*standby_certifier=*/true);
  for (int i = 0; i < 20; ++i) {
    SubmitUpdate(1, i % 50);
  }
  sim_->RunAll();
  EXPECT_EQ(CountCommitted(), 20);
  EXPECT_EQ(system_->certifier()->CommitVersion(), 20);
  // Promote and verify the standby reached the identical state.
  system_->CrashCertifier();
  sim_->RunAll();
  EXPECT_TRUE(system_->CertifierFailedOver());
  EXPECT_EQ(system_->certifier()->CommitVersion(), 20);
  std::vector<WriteSet> log;
  ASSERT_TRUE(system_->certifier()->wal(0).ReadAll(&log).ok());
  EXPECT_EQ(log.size(), 20u);
}

TEST_F(HaFailoverTest, CommitsContinueAfterCertifierFailover) {
  Build(ConsistencyLevel::kLazyCoarse, 3, true);
  for (int i = 0; i < 10; ++i) SubmitUpdate(1, i);
  sim_->RunAll();
  system_->CrashCertifier();
  for (int i = 10; i < 30; ++i) SubmitUpdate(1, i);
  sim_->RunAll();
  EXPECT_EQ(CountCommitted(), 30);
  EXPECT_EQ(system_->certifier()->CommitVersion(), 30);
  ExpectConverged();
}

TEST_F(HaFailoverTest, InFlightCertificationSurvivesFailover) {
  Build(ConsistencyLevel::kLazyCoarse, 2, true);
  SubmitUpdate(1, 0);
  // Crash the certifier while the transaction is mid-flight: either the
  // decision was lost (resubmission handles it) or not yet made (the
  // forwarded request reaches the promoted standby).
  sim_->RunUntil(Millis(2.5));
  system_->CrashCertifier();
  sim_->RunAll();
  ASSERT_EQ(responses_.size(), 1u);
  EXPECT_EQ(responses_[0].outcome, TxnOutcome::kCommitted);
  ExpectConverged();
}

TEST_F(HaFailoverTest, FailoverMidLoadPreservesStrongConsistency) {
  MicroWorkload workload(SmallMicro(0.5));
  History history;
  ExperimentConfig config;
  config.system.level = ConsistencyLevel::kLazyFine;
  config.system.replica_count = 4;
  config.system.standby_certifier = true;
  config.client_count = 8;
  config.warmup = 0;
  config.duration = Seconds(4);
  config.history = &history;
  // No FaultEvent plumbing for the certifier: drive it via a scheduled
  // callback through a custom run instead.
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  auto system_or = ReplicatedSystem::Create(
      &rt, config.system,
      [&workload](Database* db) { return workload.BuildSchema(db); },
      [&workload](const Database& db, sql::TransactionRegistry* reg) {
        return workload.DefineTransactions(db, reg);
      });
  ASSERT_TRUE(system_or.ok());
  auto system = std::move(system_or).value();
  system->SetHistory(&history);
  MetricsCollector metrics(0);
  std::vector<std::unique_ptr<ClientDriver>> clients;
  Rng rng(9);
  for (int c = 0; c < config.client_count; ++c) {
    clients.push_back(std::make_unique<ClientDriver>(
        system.get(), &metrics,
        workload.CreateGenerator(system->registry(), c, rng.Fork()), c,
        ClientConfig{}, rng.Fork()));
  }
  system->SetClientCallback([&clients](const TxnResponse& r) {
    clients[static_cast<size_t>(r.client_id)]->OnResponse(r);
  });
  for (auto& client : clients) client->Start();
  sim.Schedule(Seconds(2), [&system]() { system->CrashCertifier(); });
  sim.Schedule(Seconds(4), [&clients]() {
    for (auto& client : clients) client->Stop();
  });
  sim.RunUntil(Seconds(4));
  sim.RunAll();
  ASSERT_GT(history.size(), 300u);
  CheckResult strong = CheckStrongConsistency(history);
  EXPECT_TRUE(strong.ok) << strong.ToString();
  CheckResult fcw = CheckFirstCommitterWins(history);
  EXPECT_TRUE(fcw.ok) << fcw.ToString();
}

TEST_F(HaFailoverTest, CertifierCrashWithoutStandbyRefused) {
  Build(ConsistencyLevel::kLazyCoarse, 2, /*standby_certifier=*/false);
  EXPECT_DEATH(system_->CrashCertifier(), "no standby certifier");
}

TEST_F(HaFailoverTest, StandbyWithEagerRejected) {
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  SystemConfig config;
  config.replica_count = 2;
  config.level = ConsistencyLevel::kEager;
  config.standby_certifier = true;
  MicroWorkload workload(SmallMicro(0.5));
  auto result = ReplicatedSystem::Create(
      &rt, config,
      [&workload](Database* db) { return workload.BuildSchema(db); },
      [&workload](const Database& db, sql::TransactionRegistry* reg) {
        return workload.DefineTransactions(db, reg);
      });
  EXPECT_FALSE(result.ok());
}

TEST_F(HaFailoverTest, LoadBalancerFailoverContinuesService) {
  Build(ConsistencyLevel::kLazyCoarse, 3, false);
  for (int i = 0; i < 10; ++i) SubmitUpdate(1, i);
  sim_->RunAll();
  system_->CrashLoadBalancer();
  EXPECT_EQ(system_->load_balancer_failovers(), 1);
  EXPECT_TRUE(system_->load_balancer()->promoted());
  for (int i = 10; i < 20; ++i) SubmitUpdate(2, i);
  sim_->RunAll();
  EXPECT_EQ(CountCommitted(), 20);
  ExpectConverged();
}

TEST_F(HaFailoverTest, PromotedBalancerIsConservative) {
  Build(ConsistencyLevel::kSession, 3, false);
  for (int i = 0; i < 10; ++i) SubmitUpdate(1, i);
  sim_->RunAll();
  system_->CrashLoadBalancer();
  // The new balancer lost the session map; its conservative floor must be
  // at least the certifier's commit version, so session guarantees hold.
  EXPECT_GE(system_->load_balancer()->policy().conservative_floor(), 10);
  EXPECT_GE(system_->load_balancer()
                ->policy()
                .RequiredStartVersion(1, {0}, {})
                .at(0)
                .second,
            10);
}

TEST_F(HaFailoverTest, InFlightResponsesRelayedAfterLbFailover) {
  Build(ConsistencyLevel::kLazyCoarse, 2, false);
  SubmitUpdate(1, 0);
  // Crash the balancer while the transaction is in flight; the response
  // from the replica lands at the promoted standby and is relayed.
  sim_->RunUntil(Millis(1));
  system_->CrashLoadBalancer();
  sim_->RunAll();
  ASSERT_EQ(responses_.size(), 1u);
  EXPECT_EQ(responses_[0].outcome, TxnOutcome::kCommitted);
}

TEST_F(HaFailoverTest, SessionGuaranteeHoldsAcrossLbFailover) {
  MicroWorkload workload(SmallMicro(0.5));
  History history;
  SystemConfig sys_config;
  sys_config.level = ConsistencyLevel::kSession;
  sys_config.replica_count = 4;
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  auto system_or = ReplicatedSystem::Create(
      &rt, sys_config,
      [&workload](Database* db) { return workload.BuildSchema(db); },
      [&workload](const Database& db, sql::TransactionRegistry* reg) {
        return workload.DefineTransactions(db, reg);
      });
  ASSERT_TRUE(system_or.ok());
  auto system = std::move(system_or).value();
  system->SetHistory(&history);
  MetricsCollector metrics(0);
  std::vector<std::unique_ptr<ClientDriver>> clients;
  Rng rng(13);
  for (int c = 0; c < 8; ++c) {
    clients.push_back(std::make_unique<ClientDriver>(
        system.get(), &metrics,
        workload.CreateGenerator(system->registry(), c, rng.Fork()), c,
        ClientConfig{}, rng.Fork()));
  }
  system->SetClientCallback([&clients](const TxnResponse& r) {
    clients[static_cast<size_t>(r.client_id)]->OnResponse(r);
  });
  for (auto& client : clients) client->Start();
  sim.Schedule(Seconds(1), [&system]() { system->CrashLoadBalancer(); });
  sim.Schedule(Seconds(2.5), [&system]() { system->CrashLoadBalancer(); });
  sim.Schedule(Seconds(4), [&clients]() {
    for (auto& client : clients) client->Stop();
  });
  sim.RunUntil(Seconds(4));
  sim.RunAll();
  ASSERT_GT(history.size(), 300u);
  CheckResult session = CheckSessionConsistency(history);
  EXPECT_TRUE(session.ok) << session.ToString();
  EXPECT_TRUE(CheckFirstCommitterWins(history).ok);
}

}  // namespace
}  // namespace screp
