// End-to-end audit tests: every consistency configuration passes the
#include "runtime/sim_runtime.h"
// online auditor on real runs (with and without faults), the event log
// replays into a history the offline checkers accept, the audit report
// JSON is well-formed, turning auditing on does not perturb the
// simulation, and the test-only version-check fault knob proves the
// auditor actually fires on a real violation.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "consistency/checker.h"
#include "obs/json.h"
#include "replication/system.h"
#include "sim/simulator.h"
#include "workload/client.h"
#include "workload/experiment.h"
#include "workload/metrics.h"
#include "workload/micro.h"

namespace screp {
namespace {

MicroConfig SmallMicro(double update_fraction) {
  MicroConfig config;
  config.rows_per_table = 200;
  config.update_fraction = update_fraction;
  return config;
}

ExperimentConfig ShortRun(ConsistencyLevel level, int replicas,
                          int clients) {
  ExperimentConfig config;
  config.system.level = level;
  config.system.replica_count = replicas;
  config.client_count = clients;
  config.warmup = Seconds(0.5);
  config.duration = Seconds(3);
  config.seed = 7;
  return config;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(AuditIntegrationTest, AllLevelsAuditCleanly) {
  const MicroWorkload workload(SmallMicro(0.25));
  for (ConsistencyLevel level : kAllConsistencyLevels) {
    ExperimentConfig config = ShortRun(level, 4, 8);
    config.audit = true;
    auto result = RunExperiment(workload, config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(result->audit.enabled) << ConsistencyLevelName(level);
    EXPECT_TRUE(result->audit.ok)
        << ConsistencyLevelName(level) << ": " << result->audit.ToString();
    EXPECT_GT(result->audit.events, 0);
    EXPECT_GT(result->audit.checks, 0);
    EXPECT_TRUE(result->audit.first_violation.empty());
  }
}

TEST(AuditIntegrationTest, BoundedStalenessAuditsCleanly) {
  const MicroWorkload workload(SmallMicro(0.5));
  ExperimentConfig config =
      ShortRun(ConsistencyLevel::kBoundedStaleness, 4, 8);
  config.system.staleness_bound = 10;
  config.audit = true;
  auto result = RunExperiment(workload, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->audit.enabled);
  EXPECT_TRUE(result->audit.ok) << result->audit.ToString();
}

TEST(AuditIntegrationTest, AuditSurvivesReplicaCrashAndRecovery) {
  const MicroWorkload workload(SmallMicro(0.5));
  ExperimentConfig config = ShortRun(ConsistencyLevel::kLazyCoarse, 4, 8);
  config.audit = true;
  config.faults.push_back(FaultEvent{1, Seconds(1), Seconds(2)});
  auto result = RunExperiment(workload, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->audit.ok) << result->audit.ToString();
}

TEST(AuditIntegrationTest, AuditOnDoesNotPerturbTheRun) {
  const MicroWorkload workload(SmallMicro(0.25));
  const ExperimentConfig plain_config =
      ShortRun(ConsistencyLevel::kLazyCoarse, 3, 6);
  auto plain = RunExperiment(workload, plain_config);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_FALSE(plain->audit.enabled);

  ExperimentConfig audited_config = plain_config;
  audited_config.audit = true;
  auto audited = RunExperiment(workload, audited_config);
  ASSERT_TRUE(audited.ok()) << audited.status().ToString();
  ASSERT_TRUE(audited->audit.enabled);
  EXPECT_TRUE(audited->audit.ok) << audited->audit.ToString();

  // Virtual-time results are identical; the report line (which excludes
  // the audit block precisely for this reason) is byte-identical.
  EXPECT_EQ(plain->committed, audited->committed);
  EXPECT_EQ(plain->cert_aborts, audited->cert_aborts);
  EXPECT_DOUBLE_EQ(plain->mean_response_ms, audited->mean_response_ms);
  EXPECT_EQ(plain->ToLine(), audited->ToLine());
}

TEST(AuditIntegrationTest, AuditReportJsonIsValid) {
  const MicroWorkload workload(SmallMicro(0.25));
  ExperimentConfig config = ShortRun(ConsistencyLevel::kLazyCoarse, 3, 6);
  config.audit_json_path = ::testing::TempDir() + "/audit_report.json";
  auto result = RunExperiment(workload, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto doc = obs::JsonValue::Parse(ReadFileOrDie(config.audit_json_path));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue* auditor = doc->Find("auditor");
  ASSERT_NE(auditor, nullptr);
  EXPECT_TRUE(auditor->Find("ok")->boolean());
  EXPECT_GT(auditor->Find("events")->number(), 0);
  EXPECT_GT(auditor->Find("checks")->number(), 0);
  EXPECT_EQ(auditor->Find("violations_total")->number(), 0);
  const obs::JsonValue* staleness = doc->Find("staleness");
  ASSERT_NE(staleness, nullptr);
  const obs::JsonValue* lag =
      staleness->Find(obs::kVersionLagHistogram);
  ASSERT_NE(lag, nullptr);
  EXPECT_GT(lag->Find("count")->number(), 0);
  ASSERT_NE(staleness->Find(obs::kSnapshotAgeHistogram), nullptr);

  // The machine-readable result JSON parses too and carries the verdict.
  auto result_doc = obs::JsonValue::Parse(result->ToJson());
  ASSERT_TRUE(result_doc.ok()) << result_doc.status().ToString();
  EXPECT_TRUE(result_doc->Find("audit")->Find("ok")->boolean());
  EXPECT_GE(result_doc->Find("response_ms")->Find("p99")->number(),
            result_doc->Find("response_ms")->Find("p50")->number());
}

// Stands up a system by hand so the event log is still alive after the
// run: its replayed history must agree with the directly recorded one,
// and the offline checkers must accept it — the online auditor and the
// offline suite see the same world.
TEST(AuditIntegrationTest, ReplayedHistoryAgreesWithOfflineCheckers) {
  const MicroWorkload workload(SmallMicro(0.25));
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  SystemConfig system_config;
  system_config.replica_count = 3;
  system_config.level = ConsistencyLevel::kLazyCoarse;
  system_config.obs.audit = true;
  system_config.obs.event_log_capacity = size_t{1} << 20;
  auto system_or = ReplicatedSystem::Create(
      &rt, system_config,
      [&workload](Database* db) { return workload.BuildSchema(db); },
      [&workload](const Database& db, sql::TransactionRegistry* reg) {
        return workload.DefineTransactions(db, reg);
      });
  ASSERT_TRUE(system_or.ok()) << system_or.status().ToString();
  auto system = std::move(*system_or);

  History recorded;
  system->SetHistory(&recorded);
  MetricsCollector metrics(/*warmup=*/0);
  Rng seed_rng(7);
  std::vector<std::unique_ptr<ClientDriver>> clients;
  for (int c = 0; c < 6; ++c) {
    clients.push_back(std::make_unique<ClientDriver>(
        system.get(), &metrics,
        workload.CreateGenerator(system->registry(), c, seed_rng.Fork()), c,
        ClientConfig{}, seed_rng.Fork()));
  }
  system->SetClientCallback([&clients](const TxnResponse& r) {
    clients[static_cast<size_t>(r.client_id)]->OnResponse(r);
  });
  for (auto& client : clients) client->Start();
  const SimTime end = Seconds(2);
  sim.Schedule(end, [&clients, &system]() {
    for (auto& client : clients) client->Stop();
    system->obs()->StopSampling();
  });
  sim.RunUntil(end);
  sim.RunAll();

  const obs::EventLog* log = system->obs()->event_log();
  ASSERT_EQ(log->dropped(), 0);
  const History replayed = log->ReplayHistory();
  ASSERT_GT(replayed.size(), 0u);
  ASSERT_EQ(replayed.size(), recorded.size());
  for (size_t i = 0; i < replayed.size(); ++i) {
    const TxnRecord& a = replayed.records()[i];
    const TxnRecord& b = recorded.records()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.snapshot, b.snapshot);
    EXPECT_EQ(a.commit_version, b.commit_version);
    EXPECT_EQ(a.submit_time, b.submit_time);
    EXPECT_EQ(a.ack_time, b.ack_time);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.keys_written, b.keys_written);
  }

  const CheckResult offline = CheckAll(replayed, /*expect_strong=*/true);
  EXPECT_TRUE(offline.ok) << offline.ToString();
  const obs::Auditor* auditor = system->obs()->auditor();
  ASSERT_NE(auditor, nullptr);
  EXPECT_TRUE(auditor->ok()) << auditor->Summary();
}

// The reason the auditor is trustworthy: with the test-only knob that
// makes proxies skip the version admission check, stale BEGINs slip
// through and the auditor reports them — with the causal chain intact.
TEST(AuditIntegrationTest, VersionCheckFaultKnobTripsTheAuditor) {
  const MicroWorkload workload(SmallMicro(0.5));
  ExperimentConfig config = ShortRun(ConsistencyLevel::kLazyCoarse, 4, 8);
  config.audit = true;
  config.system.proxy.test_skip_version_check = true;
  auto result = RunExperiment(workload, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->audit.enabled);
  EXPECT_FALSE(result->audit.ok)
      << "the fault knob should have produced admission violations";
  EXPECT_GT(result->audit.violations, 0);
  EXPECT_NE(result->audit.first_violation.find("admission"),
            std::string::npos)
      << result->audit.first_violation;
  // The summary line surfaces the failure for humans too.
  EXPECT_NE(result->audit.ToString().find("FAILED"), std::string::npos);
}

}  // namespace
}  // namespace screp
