// End-to-end observability tests: the spans recorded by the middleware
#include "runtime/sim_runtime.h"
// must agree with the client-side MetricsCollector stage accumulators,
// the sampler must capture real version lag under LSC, the JSON
// artifacts written by the experiment harness must be well-formed, and
// turning observability on must not perturb the simulation.

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Stands up a traced + sampled LSC system by hand (mirroring the
// experiment harness) so the test can see both sides of the ledger: the
// spans in the tracer and the stage times the clients recorded.
TEST(ObsIntegrationTest, SpanDurationsMatchStageAccumulators) {
  const MicroWorkload workload(SmallMicro(0.25));
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  SystemConfig system_config;
  system_config.replica_count = 2;
  system_config.level = ConsistencyLevel::kLazyCoarse;
  system_config.obs.tracing = true;
  system_config.obs.trace_capacity = size_t{1} << 20;  // retain everything
  system_config.obs.sample_period = Millis(100);
  auto system_or = ReplicatedSystem::Create(
      &rt, system_config,
      [&workload](Database* db) { return workload.BuildSchema(db); },
      [&workload](const Database& db, sql::TransactionRegistry* reg) {
        return workload.DefineTransactions(db, reg);
      });
  ASSERT_TRUE(system_or.ok()) << system_or.status().ToString();
  auto system = std::move(*system_or);

  MetricsCollector metrics(/*warmup=*/0);
  Rng seed_rng(7);
  std::vector<std::unique_ptr<ClientDriver>> clients;
  for (int c = 0; c < 4; ++c) {
    clients.push_back(std::make_unique<ClientDriver>(
        system.get(), &metrics,
        workload.CreateGenerator(system->registry(), c, seed_rng.Fork()), c,
        ClientConfig{}, seed_rng.Fork()));
  }

  const SimTime end = Seconds(2);
  // Capture exactly the responses MetricsCollector records: the stop
  // event below is scheduled before any response at ts == end, so the
  // clients' stopped_ flag and the `Now() < end` filter agree.
  std::map<TxnId, bool> committed_read_only;
  system->SetClientCallback(
      [&clients, &committed_read_only, &rt, end](const TxnResponse& r) {
        if (rt.Now() < end && r.outcome == TxnOutcome::kCommitted) {
          committed_read_only[r.txn_id] = r.read_only;
        }
        clients[static_cast<size_t>(r.client_id)]->OnResponse(r);
      });
  for (auto& client : clients) client->Start();
  sim.Schedule(end, [&clients, &system]() {
    for (auto& client : clients) client->Stop();
    system->obs()->StopSampling();
  });
  sim.RunUntil(end);
  metrics.Finish(end);
  sim.RunAll();

  ASSERT_GT(metrics.committed(), 0);
  ASSERT_GT(metrics.committed_updates(), 0);
  ASSERT_EQ(static_cast<int64_t>(committed_read_only.size()),
            metrics.committed());

  const obs::Tracer* tracer = system->obs()->tracer();
  ASSERT_EQ(tracer->dropped(), 0);
  std::map<std::string, double> span_sums;
  for (const obs::TraceSpan& span : tracer->Spans()) {
    if (committed_read_only.count(span.txn) == 0) continue;
    span_sums[span.name] += static_cast<double>(span.duration);
  }

  // Each per-stage span family, summed over the recorded committed
  // transactions, must reproduce the matching stage accumulator.
  const auto near = [](double stage_sum) {
    return stage_sum * 1e-9 + 0.5;  // float noise from incremental means
  };
  EXPECT_NEAR(span_sums["proxy.start_delay"], metrics.version_stage().sum(),
              near(metrics.version_stage().sum()));
  EXPECT_NEAR(span_sums["proxy.exec"], metrics.queries_stage().sum(),
              near(metrics.queries_stage().sum()));
  EXPECT_NEAR(span_sums["proxy.certify"], metrics.certify_stage().sum(),
              near(metrics.certify_stage().sum()));
  // The ordering wait is now decomposed: gap wait + lane wait for locally
  // applied commits, the whole claim wait for decisions that raced the
  // refresh stream.  Together they still equal the sync stage.
  EXPECT_NEAR(span_sums["proxy.gap_wait"] + span_sums["proxy.lane_wait"] +
                  span_sums["proxy.claim_wait"],
              metrics.sync_stage().sum(), near(metrics.sync_stage().sum()));
  // Likewise the commit stage: apply service + publish wait for updates,
  // plus the read-only commit span.
  EXPECT_NEAR(span_sums["proxy.apply"] + span_sums["proxy.publish_wait"] +
                  span_sums["proxy.commit"],
              metrics.commit_stage().sum(),
              near(metrics.commit_stage().sum()));

  // Under LSC at 25% updates the replicas visibly lag V_system: the
  // sampled per-replica version-lag series must show it.
  const auto& series = system->obs()->sampler()->series();
  ASSERT_FALSE(system->obs()->sampler()->timestamps().empty());
  double max_lag = 0;
  int lag_series = 0;
  for (const auto& [name, values] : series) {
    if (name.find(".version_lag") == std::string::npos) continue;
    ++lag_series;
    for (double v : values) max_lag = std::max(max_lag, v);
  }
  EXPECT_EQ(lag_series, system_config.replica_count);
  EXPECT_GT(max_lag, 0);

  // Certifier-side counters reconcile with the client-side view:
  // every committed update passed certification.
  EXPECT_GE(
      system->obs()->registry()->GetCounter("certifier.certified")->value(),
      metrics.committed_updates());
}

// A certifier failover mid-run must not tear the sampled time series:
// the gauges read through the system, so the promoted standby continues
// every certifier series in place and all series stay aligned with the
// timestamp grid.
TEST(ObsIntegrationTest, SamplerSeriesStayAlignedAcrossCertifierFailover) {
  const MicroWorkload workload(SmallMicro(0.5));
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  SystemConfig system_config;
  system_config.replica_count = 3;
  system_config.level = ConsistencyLevel::kLazyCoarse;
  system_config.standby_certifier = true;
  system_config.obs.sample_period = Millis(100);
  auto system_or = ReplicatedSystem::Create(
      &rt, system_config,
      [&workload](Database* db) { return workload.BuildSchema(db); },
      [&workload](const Database& db, sql::TransactionRegistry* reg) {
        return workload.DefineTransactions(db, reg);
      });
  ASSERT_TRUE(system_or.ok()) << system_or.status().ToString();
  auto system = std::move(*system_or);

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

  sim.Schedule(Seconds(1), [&system]() { system->CrashCertifier(); });
  const SimTime end = Seconds(2);
  sim.Schedule(end, [&clients, &system]() {
    for (auto& client : clients) client->Stop();
    system->obs()->StopSampling();
  });
  sim.RunUntil(end);
  sim.RunAll();

  ASSERT_TRUE(system->CertifierFailedOver());
  ASSERT_GT(metrics.committed(), 0);

  const obs::Sampler* sampler = system->obs()->sampler();
  const size_t ticks = sampler->timestamps().size();
  // The sampler ran on both sides of the failover.
  ASSERT_GT(ticks, size_t{12});
  size_t certifier_series = 0;
  for (const auto& [name, values] : sampler->series()) {
    EXPECT_EQ(values.size(), ticks) << "series " << name << " misaligned";
    if (name.rfind("certifier.", 0) == 0) ++certifier_series;
  }
  EXPECT_GE(certifier_series, 3u);  // queue_depth, force_pending, disk_util

  // The promoted standby keeps certifying: commits keep landing after the
  // crash, so the post-failover half of the run shows certifier activity.
  EXPECT_GT(
      system->obs()->registry()->GetCounter("certifier.certified")->value(),
      0);
}

TEST(ObsIntegrationTest, ExperimentWritesValidJsonWithoutPerturbingRun) {
  const MicroWorkload workload(SmallMicro(0.25));
  ExperimentConfig config;
  config.system.level = ConsistencyLevel::kLazyCoarse;
  config.system.replica_count = 2;
  config.client_count = 6;
  config.warmup = Seconds(0.5);
  config.duration = Seconds(2);
  config.seed = 7;

  // Baseline: observability off.
  auto plain = RunExperiment(workload, config);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  // Same run with tracing + sampling + JSON export enabled.
  config.system.obs.trace_capacity = size_t{1} << 20;
  config.metrics_json_path = ::testing::TempDir() + "/obs_metrics.json";
  config.trace_json_path = ::testing::TempDir() + "/obs_trace.json";
  auto traced = RunExperiment(workload, config);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();

  // Observability must not perturb the simulation.
  EXPECT_EQ(plain->committed, traced->committed);
  EXPECT_EQ(plain->committed_updates, traced->committed_updates);
  EXPECT_EQ(plain->cert_aborts, traced->cert_aborts);
  EXPECT_EQ(plain->early_aborts, traced->early_aborts);
  EXPECT_DOUBLE_EQ(plain->mean_response_ms, traced->mean_response_ms);

  // The trace file is valid Chrome trace-event JSON, and every fully
  // captured committed update (it has both certify and commit spans)
  // went through at least 5 distinct span phases.
  auto trace = obs::JsonValue::Parse(ReadFileOrDie(config.trace_json_path));
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace->Find("displayTimeUnit")->str(), "ms");
  const obs::JsonValue* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::map<int64_t, std::set<std::string>> phases_by_tid;
  for (const obs::JsonValue& event : events->array()) {
    if (event.Find("ph")->str() != "X") continue;
    const int64_t tid = static_cast<int64_t>(event.Find("tid")->number());
    if (tid == 0) continue;  // batch-level spans (log forces)
    phases_by_tid[tid].insert(event.Find("name")->str());
  }
  int committed_updates_traced = 0;
  for (const auto& [tid, phases] : phases_by_tid) {
    if (phases.count("proxy.certify") == 0 ||
        phases.count("proxy.apply") == 0) {
      continue;  // aborted or only partially captured
    }
    ++committed_updates_traced;
    EXPECT_GE(phases.size(), 5u) << "txn " << tid;
  }
  EXPECT_GT(committed_updates_traced, 0);

  // The metrics file carries the registry snapshot and the sampled
  // series, including a positive per-replica version lag under LSC.
  auto doc = obs::JsonValue::Parse(ReadFileOrDie(config.metrics_json_path));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue* counters =
      doc->Find("registry")->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GT(counters->Find("certifier.certified")->number(), 0);
  EXPECT_GT(counters->Find("lb.dispatched")->number(), 0);
  const obs::JsonValue* series = doc->Find("sampler")->Find("series");
  ASSERT_NE(series, nullptr);
  double max_lag = 0;
  for (int r = 0; r < config.system.replica_count; ++r) {
    const obs::JsonValue* lag =
        series->Find("replica" + std::to_string(r) + ".version_lag");
    ASSERT_NE(lag, nullptr) << "replica " << r;
    for (const obs::JsonValue& v : lag->array()) {
      max_lag = std::max(max_lag, v.number());
    }
  }
  EXPECT_GT(max_lag, 0);
}

}  // namespace
}  // namespace screp
