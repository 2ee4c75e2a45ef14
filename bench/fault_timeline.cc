// Availability timeline (extension, not a paper figure): throughput and
#include "runtime/sim_runtime.h"
// response time per half-second around a replica crash and recovery,
// and around a certifier failover — making the crash-recovery design of
// §IV visible as a time series.
//
// --health-sweep turns the driver into the end-to-end self-check of the
// online health monitor: one run per fault class (each must trip its
// matching detector within a bounded number of samples) plus one clean
// default-config run per figure driver (each must stay detector-quiet),
// written as BENCH_health.json for tools/bench_gate.py.

#include "bench/bench_util.h"
#include "workload/micro.h"
#include "workload/tpcw.h"

namespace screp::bench {
namespace {

void PrintTimeline(const MetricsCollector& metrics, SimTime crash_at,
                   SimTime recover_at) {
  const double width_s = ToSeconds(metrics.timeline_bucket_width());
  std::printf("%8s %10s %10s %9s  %s\n", "t(s)", "TPS", "resp(ms)",
              "failures", "events");
  const auto& timeline = metrics.timeline();
  for (size_t i = 0; i < timeline.size(); ++i) {
    const auto& bucket = timeline[i];
    const double t0 = static_cast<double>(i) * width_s;
    std::string note;
    if (crash_at >= Seconds(t0) && crash_at < Seconds(t0 + width_s)) {
      note += "  <- replica crash";
    }
    if (recover_at >= Seconds(t0) && recover_at < Seconds(t0 + width_s)) {
      note += "  <- recovery";
    }
    std::printf("%8.1f %10.1f %10.2f %9lld%s\n", t0,
                static_cast<double>(bucket.committed) / width_s,
                bucket.MeanResponseMs(),
                static_cast<long long>(bucket.failures), note.c_str());
  }
}

// Network-sensitivity sweep (--net-sweep): instead of a crash, replica 1
// is *partitioned* at t=4s (links cut, process alive) and healed at
// t=8s, optionally under --net-jitter / --net-loss.  Verifies that the
// LB fails the silent replica over, that the healed replica catches
// back up to the survivors, and that the run stays audit-clean.
int NetSweep(const BenchOptions& options) {
  PrintHeader("Network sweep: replica partition at t=4s, heal at t=8s "
              "(LSC, 4 replicas, 16 clients)",
              "the crash-recovery design of §IV (extension)");
  std::printf("link jitter mean: %.0fus, refresh loss: %.2f, refresh "
              "batching: %s\n",
              static_cast<double>(options.net_jitter), options.net_loss,
              options.refresh_batch ? "on" : "off");

  MicroConfig micro;
  micro.update_fraction = 0.5;
  MicroWorkload workload(micro);

  Simulator sim;
  runtime::SimRuntime rt{&sim};
  SystemConfig sys_config;
  sys_config.level = ConsistencyLevel::kLazyCoarse;
  sys_config.replica_count = 4;
  sys_config.obs.audit = true;
  if (options.health) sys_config.obs.health = true;
  ApplyNetworkOptions(options, &sys_config);
  auto system_or = ReplicatedSystem::Create(
      &rt, sys_config,
      [&workload](Database* db) { return workload.BuildSchema(db); },
      [&workload](const Database& db, sql::TransactionRegistry* reg) {
        return workload.DefineTransactions(db, reg);
      });
  if (!system_or.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 system_or.status().ToString().c_str());
    return 1;
  }
  auto system = std::move(system_or).value();

  MetricsCollector metrics(0);
  metrics.EnableTimeline(Millis(500));
  std::vector<std::unique_ptr<ClientDriver>> clients;
  Rng rng(17);
  for (int c = 0; c < 16; ++c) {
    clients.push_back(std::make_unique<ClientDriver>(
        system.get(), &metrics,
        workload.CreateGenerator(system->registry(), c, rng.Fork()), c,
        ClientConfig{}, rng.Fork()));
  }
  system->SetClientCallback([&clients](const TxnResponse& r) {
    clients[static_cast<size_t>(r.client_id)]->OnResponse(r);
  });
  for (auto& client : clients) client->Start();

  const SimTime partition_at = Seconds(4);
  const SimTime heal_at = Seconds(8);
  sim.Schedule(partition_at, [&system]() { system->PartitionReplica(1); });
  sim.Schedule(heal_at, [&system]() { system->HealReplicaPartition(1); });
  sim.Schedule(Seconds(12), [&clients, &system]() {
    for (auto& client : clients) client->Stop();
    system->obs()->StopSampling();
  });
  sim.RunUntil(Seconds(12));
  sim.RunAll();

  PrintTimeline(metrics, partition_at, heal_at);

  // The partition must have been detected (transactions failed over) and
  // fully repaired (the healed replica converged with the survivors).
  int64_t failures = 0;
  for (const auto& bucket : metrics.timeline()) failures += bucket.failures;
  const DbVersion v_healed = system->replica(1)->db()->CommittedVersion();
  const DbVersion v_survivor = system->replica(0)->db()->CommittedVersion();
  const auto& refresh = system->refresh_channel(1)->stats();
  std::printf("\nfailed-over transactions: %lld\n",
              static_cast<long long>(failures));
  std::printf("healed replica version: %lld (survivor: %lld)\n",
              static_cast<long long>(v_healed),
              static_cast<long long>(v_survivor));
  std::printf("refresh link to healed replica: %s\n",
              refresh.ToString().c_str());
  bool ok = true;
  if (failures == 0) {
    std::printf("FAIL: no transaction failed over at the partition\n");
    ok = false;
  }
  if (v_healed != v_survivor) {
    std::printf("FAIL: healed replica did not converge\n");
    ok = false;
  }
  const obs::Auditor* auditor = system->obs()->auditor();
  std::printf("\n---- audit report ----\n%s\n", auditor->Summary().c_str());
  if (!auditor->ok()) ok = false;
  if (const obs::HealthMonitor* monitor = system->obs()->health_monitor()) {
    std::printf("---- health ----\n%s\n", monitor->Summary().c_str());
  }
  std::printf("%s\n", ok ? "net sweep: OK" : "net sweep: FAILED");
  return ok ? 0 : 1;
}

// ---- Health sweep -------------------------------------------------------

/// One fault scenario's verdict.
struct FaultOutcome {
  std::string fault;
  std::string detector;  ///< the detector this fault must trip
  SimTime injected_at = 0;
  SimTime first_fired_at = -1;
  bool detected = false;
  /// Samples from injection to the first firing of the matching detector.
  int64_t detection_samples = 0;
  /// Ceiling the gate enforces on detection_samples.
  int64_t bound_samples = 0;
  /// Every detector that fired during the run (context, not gated).
  std::string fired;
  bool audit_ok = true;
};

/// One clean run's verdict.
struct CleanOutcome {
  std::string run;
  int64_t firings = 0;
  double p99_ms = 0;  ///< to sanity-check the latency objective's headroom
  std::string fired;  ///< names, to diagnose a false positive
  bool audit_ok = true;
};

/// Stands up a hand-built LSC system with health monitoring on, runs
/// `clients` closed-loop micro clients for `duration`, applying
/// `mutate` to the config and `inject` to the running simulation.
struct ScenarioResult {
  SimTime first_fired_at = -1;
  int64_t firings_of_detector = 0;
  int64_t total_firings = 0;
  std::string fired;
  bool audit_ok = true;
  SimTime sample_period = 0;
};

template <typename Mutate, typename Inject>
ScenarioResult RunFaultScenario(const BenchOptions& options, int clients,
                                int start_clients, double update_fraction,
                                SimTime duration,
                                obs::HealthDetector detector, Mutate mutate,
                                Inject inject) {
  MicroConfig micro;
  micro.update_fraction = update_fraction;
  MicroWorkload workload(micro);

  Simulator sim;
  runtime::SimRuntime rt{&sim};
  SystemConfig sys_config;
  sys_config.level = ConsistencyLevel::kLazyCoarse;
  sys_config.replica_count = 4;
  sys_config.obs.audit = true;
  sys_config.obs.health = true;
  sys_config.seed = options.seed;
  ApplyNetworkOptions(options, &sys_config);
  mutate(&sys_config);
  auto system_or = ReplicatedSystem::Create(
      &rt, sys_config,
      [&workload](Database* db) { return workload.BuildSchema(db); },
      [&workload](const Database& db, sql::TransactionRegistry* reg) {
        return workload.DefineTransactions(db, reg);
      });
  if (!system_or.ok()) {
    std::fprintf(stderr, "health sweep setup failed: %s\n",
                 system_or.status().ToString().c_str());
    std::exit(1);
  }
  auto system = std::move(system_or).value();

  MetricsCollector metrics(0);
  std::vector<std::unique_ptr<ClientDriver>> clients_vec;
  Rng rng(options.seed ^ 0x9e3779b9);
  for (int c = 0; c < clients; ++c) {
    clients_vec.push_back(std::make_unique<ClientDriver>(
        system.get(), &metrics,
        workload.CreateGenerator(system->registry(), c, rng.Fork()), c,
        ClientConfig{}, rng.Fork()));
  }
  system->SetClientCallback([&clients_vec](const TxnResponse& r) {
    clients_vec[static_cast<size_t>(r.client_id)]->OnResponse(r);
  });
  // Clients beyond `start_clients` are left idle for the injector to
  // start later (the overload burst).
  for (int c = 0; c < start_clients; ++c) {
    clients_vec[static_cast<size_t>(c)]->Start();
  }

  inject(&sim, system.get(), &clients_vec);

  sim.Schedule(duration, [&clients_vec, &system]() {
    for (auto& client : clients_vec) client->Stop();
    system->obs()->StopSampling();
  });
  sim.RunUntil(duration);
  sim.RunAll();

  const obs::HealthMonitor* monitor = system->obs()->health_monitor();
  ScenarioResult result;
  result.first_fired_at = monitor->first_fired_at(detector);
  result.firings_of_detector = monitor->firings(detector);
  result.total_firings = monitor->total_firings();
  result.fired = monitor->FiredDetectorNames();
  result.audit_ok = system->obs()->auditor()->ok();
  result.sample_period = system->obs()->sampler()->period();
  if (!options.timeline_json.empty()) {
    const std::string path = TaggedPath(
        options.timeline_json, obs::HealthDetectorName(detector));
    const Status st = system->obs()->WriteTimelineJson(path);
    if (!st.ok()) {
      std::fprintf(stderr, "timeline write failed: %s\n",
                   st.ToString().c_str());
      std::exit(1);
    }
  }
  return result;
}

/// Samples between injection and first firing (1 = the first sample after
/// injection already fired).
int64_t SamplesBetween(SimTime injected_at, SimTime fired_at,
                       SimTime period) {
  if (fired_at < injected_at || period <= 0) return 0;
  return (fired_at - injected_at + period - 1) / period;
}

int HealthSweep(const BenchOptions& options) {
  PrintHeader("Health sweep: every fault class must trip its detector; "
              "clean runs must stay quiet",
              "the online health monitor (extension)");
  const SimTime kDuration = Seconds(12);
  std::vector<FaultOutcome> faults;

  struct FaultSpec {
    const char* name;
    obs::HealthDetector detector;
    SimTime injected_at;
    int64_t bound_samples;
  };

  // -- crash: replica 1 crash-stops and its version lag diverges from
  // the cluster median.
  {
    const FaultSpec spec{"crash", obs::HealthDetector::kLagDivergence,
                         Seconds(4), 16};
    const ScenarioResult r = RunFaultScenario(
        options, 16, 16, 0.5, kDuration, spec.detector,
        [](SystemConfig*) {},
        [&](Simulator* sim, ReplicatedSystem* system, auto*) {
          sim->Schedule(spec.injected_at,
                        [system]() { system->CrashReplica(1); });
        });
    faults.push_back({spec.name, obs::HealthDetectorName(spec.detector),
                      spec.injected_at, r.first_fired_at,
                      r.firings_of_detector > 0,
                      SamplesBetween(spec.injected_at, r.first_fired_at,
                                     r.sample_period),
                      spec.bound_samples, r.fired, r.audit_ok});
  }

  // -- partition: links cut (process alive); same divergence signature,
  // healed before the end so the run finishes audit-clean.
  {
    const FaultSpec spec{"partition", obs::HealthDetector::kLagDivergence,
                         Seconds(4), 16};
    const ScenarioResult r = RunFaultScenario(
        options, 16, 16, 0.5, kDuration, spec.detector,
        [](SystemConfig*) {},
        [&](Simulator* sim, ReplicatedSystem* system, auto*) {
          sim->Schedule(spec.injected_at,
                        [system]() { system->PartitionReplica(1); });
          sim->Schedule(Seconds(9),
                        [system]() { system->HealReplicaPartition(1); });
        });
    faults.push_back({spec.name, obs::HealthDetectorName(spec.detector),
                      spec.injected_at, r.first_fired_at,
                      r.firings_of_detector > 0,
                      SamplesBetween(spec.injected_at, r.first_fired_at,
                                     r.sample_period),
                      spec.bound_samples, r.fired, r.audit_ok});
  }

  // -- overload burst: 96 extra clients arrive over ~2.4s starting at
  // t=4s against a tight admission window with a deep queue, so the
  // admission queue ramps (trend detector) before shedding would kick in.
  {
    const FaultSpec spec{"overload", obs::HealthDetector::kQueueGrowth,
                         Seconds(4), 16};
    const ScenarioResult r = RunFaultScenario(
        options, 16 + 96, 16, 0.5, kDuration, spec.detector,
        [](SystemConfig* sys) {
          sys->admission.max_outstanding_per_replica = 4;
          sys->admission.admission_queue_limit = 4096;
        },
        [&](Simulator* sim, ReplicatedSystem*, auto* clients_vec) {
          // The burst: clients 16.. submit their first request one every
          // 25 ms from t=4s (~40 new clients per second).
          for (size_t c = 16; c < clients_vec->size(); ++c) {
            sim->Schedule(
                spec.injected_at + Millis(25) * static_cast<int64_t>(c - 16),
                [clients_vec, c]() { (*clients_vec)[c]->Start(); });
          }
        });
    faults.push_back({spec.name, obs::HealthDetectorName(spec.detector),
                      spec.injected_at, r.first_fired_at,
                      r.firings_of_detector > 0,
                      SamplesBetween(spec.injected_at, r.first_fired_at,
                                     r.sample_period),
                      spec.bound_samples, r.fired, r.audit_ok});
  }

  // -- loss: 30% refresh-stream drop probability from t=0; the reliable
  // channel retransmits (audit-clean) but the drop-rate series spikes.
  {
    const FaultSpec spec{"loss", obs::HealthDetector::kRefreshLoss, 0, 16};
    const ScenarioResult r = RunFaultScenario(
        options, 16, 16, 0.5, kDuration, spec.detector,
        [](SystemConfig* sys) {
          sys->network.refresh.drop_probability = 0.3;
        },
        [](Simulator*, ReplicatedSystem*, auto*) {});
    faults.push_back({spec.name, obs::HealthDetectorName(spec.detector),
                      spec.injected_at, r.first_fired_at,
                      r.firings_of_detector > 0,
                      SamplesBetween(spec.injected_at, r.first_fired_at,
                                     r.sample_period),
                      spec.bound_samples, r.fired, r.audit_ok});
  }

  // -- stall: replica 1 crashes, recovers at t=6s, and is partitioned
  // right after the recovery catch-up — so its lag never converges below
  // the done-threshold and the catch-up stall detector must notice.
  {
    const FaultSpec spec{"stall", obs::HealthDetector::kCatchupStall,
                         Seconds(6), 24};
    const ScenarioResult r = RunFaultScenario(
        options, 16, 16, 0.5, kDuration, spec.detector,
        [](SystemConfig*) {},
        [&](Simulator* sim, ReplicatedSystem* system, auto*) {
          sim->Schedule(Seconds(3), [system]() { system->CrashReplica(1); });
          sim->Schedule(spec.injected_at,
                        [system]() { system->RecoverReplica(1); });
          sim->Schedule(spec.injected_at + Millis(50),
                        [system]() { system->PartitionReplica(1); });
        });
    faults.push_back({spec.name, obs::HealthDetectorName(spec.detector),
                      spec.injected_at, r.first_fired_at,
                      r.firings_of_detector > 0,
                      SamplesBetween(spec.injected_at, r.first_fired_at,
                                     r.sample_period),
                      spec.bound_samples, r.fired, r.audit_ok});
  }

  // -- credit squeeze: a tiny refresh-credit window under update-heavy
  // load with expensive refresh application pins every replica's credits
  // at zero while the certifier holds deferred fan-out.
  {
    const FaultSpec spec{"credit", obs::HealthDetector::kCreditStarvation,
                         0, 24};
    const ScenarioResult r = RunFaultScenario(
        options, 32, 32, 1.0, kDuration, spec.detector,
        [](SystemConfig* sys) {
          sys->certifier.refresh_credit_window = 1;
          sys->proxy.refresh_base = Millis(6);
          sys->proxy.refresh_per_op = Millis(6);
        },
        [](Simulator*, ReplicatedSystem*, auto*) {});
    faults.push_back({spec.name, obs::HealthDetectorName(spec.detector),
                      spec.injected_at, r.first_fired_at,
                      r.firings_of_detector > 0,
                      SamplesBetween(spec.injected_at, r.first_fired_at,
                                     r.sample_period),
                      spec.bound_samples, r.fired, r.audit_ok});
  }

  // -- certifier saturation: certification is made the bottleneck (slow
  // certify CPU, unbounded intake, update-only load) so the intake queue
  // climbs past the critical depth.
  {
    const FaultSpec spec{"certsat",
                         obs::HealthDetector::kCertifierSaturation, 0, 24};
    const ScenarioResult r = RunFaultScenario(
        options, 96, 96, 1.0, kDuration, spec.detector,
        [](SystemConfig* sys) {
          sys->certifier.certify_cpu_time = Millis(4);
        },
        [](Simulator*, ReplicatedSystem*, auto*) {});
    faults.push_back({spec.name, obs::HealthDetectorName(spec.detector),
                      spec.injected_at, r.first_fired_at,
                      r.firings_of_detector > 0,
                      SamplesBetween(spec.injected_at, r.first_fired_at,
                                     r.sample_period),
                      spec.bound_samples, r.fired, r.audit_ok});
  }

  // ---- Clean runs: one default-config run in the shape of each figure
  // driver; every one must stay detector-quiet.
  std::vector<CleanOutcome> cleans;
  const auto run_clean = [&](const std::string& name,
                             const Workload& workload,
                             ExperimentConfig config) {
    config.health = true;
    config.audit = true;
    config.warmup = options.warmup;
    config.duration = options.duration;
    config.seed = options.seed;
    if (!options.timeline_json.empty()) {
      config.timeline_json_path =
          TaggedPath(options.timeline_json, "clean_" + name);
    }
    const ExperimentResult result = MustRun(workload, config);
    CleanOutcome clean;
    clean.run = name;
    clean.firings = result.health.firings;
    clean.p99_ms = result.p99_response_ms;
    clean.fired = result.health.detectors;
    clean.audit_ok = result.audit.ok;
    cleans.push_back(clean);
  };

  {
    MicroConfig micro;
    micro.update_fraction = 0.25;
    ExperimentConfig config;
    config.system.replica_count = 8;
    config.client_count = 8;
    run_clean("fig3", MicroWorkload(micro), config);
  }
  {
    ExperimentConfig config;
    config.system.proxy = TpcwProxyConfig();
    config.system.replica_count = 4;
    config.client_count =
        4 * TpcwClientsPerReplica(TpcwMix::kShopping);
    config.mean_think_time = Millis(200);
    run_clean("fig5", TpcwWorkload(TpcwScale{}, TpcwMix::kShopping),
              config);
  }
  {
    ExperimentConfig config;
    config.system.proxy = TpcwProxyConfig();
    config.system.level = ConsistencyLevel::kSession;
    config.system.replica_count = 4;
    config.client_count =
        4 * TpcwClientsPerReplica(TpcwMix::kBrowsing);
    config.mean_think_time = Millis(200);
    run_clean("fig6", TpcwWorkload(TpcwScale{}, TpcwMix::kBrowsing),
              config);
  }
  {
    ExperimentConfig config;
    config.system.proxy = TpcwProxyConfig();
    config.system.level = ConsistencyLevel::kEager;
    config.system.replica_count = 4;
    config.client_count = TpcwClientsPerReplica(TpcwMix::kOrdering);
    config.mean_think_time = Millis(200);
    run_clean("fig7", TpcwWorkload(TpcwScale{}, TpcwMix::kOrdering),
              config);
  }
  {
    MicroConfig micro;
    micro.update_fraction = 0.2;
    ExperimentConfig config;
    config.system.replica_count = 4;
    config.system.admission.max_outstanding_per_replica = 16;
    config.system.admission.admission_queue_limit = 64;
    config.system.certifier.max_intake = 128;
    config.system.certifier.refresh_credit_window = 64;
    config.client.backoff_base = Millis(1);
    config.client.backoff_cap = Millis(32);
    config.client.request_timeout = Seconds(1);
    config.client_count = 32;
    run_clean("saturation", MicroWorkload(micro), config);
  }

  // ---- Report + verdict.
  std::printf("\n%-10s %-22s %11s %11s %9s %7s  %s\n", "fault",
              "detector", "injected(s)", "detected(s)", "samples",
              "bound", "fired");
  bool ok = true;
  for (const FaultOutcome& f : faults) {
    std::printf("%-10s %-22s %11.2f %11.2f %9lld %7lld  %s\n",
                f.fault.c_str(), f.detector.c_str(),
                ToSeconds(f.injected_at),
                f.detected ? ToSeconds(f.first_fired_at) : -1.0,
                static_cast<long long>(f.detection_samples),
                static_cast<long long>(f.bound_samples), f.fired.c_str());
    if (!f.detected) {
      std::printf("FAIL: fault '%s' never tripped %s\n", f.fault.c_str(),
                  f.detector.c_str());
      ok = false;
    } else if (f.detection_samples > f.bound_samples) {
      std::printf("FAIL: fault '%s' took %lld samples (> bound %lld)\n",
                  f.fault.c_str(),
                  static_cast<long long>(f.detection_samples),
                  static_cast<long long>(f.bound_samples));
      ok = false;
    }
    if (!f.audit_ok) {
      std::printf("FAIL: fault '%s' violated consistency\n",
                  f.fault.c_str());
      ok = false;
    }
  }
  std::printf("\n%-12s %9s %9s  %s\n", "clean run", "firings", "p99(ms)",
              "fired");
  for (const CleanOutcome& c : cleans) {
    std::printf("%-12s %9lld %9.1f  %s\n", c.run.c_str(),
                static_cast<long long>(c.firings), c.p99_ms,
                c.firings == 0 ? "(quiet)" : c.fired.c_str());
    if (c.firings != 0) {
      std::printf("FAIL: clean run '%s' fired %s\n", c.run.c_str(),
                  c.fired.c_str());
      ok = false;
    }
    if (!c.audit_ok) {
      std::printf("FAIL: clean run '%s' violated consistency\n",
                  c.run.c_str());
      ok = false;
    }
  }

  if (!options.bench_json.empty()) {
    const std::string path = options.bench_json == "auto"
                                 ? "BENCH_health.json"
                                 : options.bench_json;
    std::ofstream out(path);
    out << "{\"driver\":\"fault_timeline_health\",\"faults\":[";
    for (size_t i = 0; i < faults.size(); ++i) {
      const FaultOutcome& f = faults[i];
      if (i > 0) out << ",";
      out << "{\"fault\":\"" << f.fault << "\",\"detector\":\""
          << f.detector << "\",\"injected_at_ms\":"
          << ToMillis(f.injected_at)
          << ",\"detected\":" << (f.detected ? "true" : "false")
          << ",\"detection_samples\":" << f.detection_samples
          << ",\"bound_samples\":" << f.bound_samples << ",\"fired\":\""
          << f.fired << "\"}";
    }
    out << "],\"clean\":[";
    for (size_t i = 0; i < cleans.size(); ++i) {
      const CleanOutcome& c = cleans[i];
      if (i > 0) out << ",";
      out << "{\"run\":\"" << c.run << "\",\"firings\":" << c.firings
          << ",\"fired\":\"" << c.fired << "\"}";
    }
    out << "]}\n";
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::printf("\nwrote %s (%zu faults, %zu clean runs)\n", path.c_str(),
                faults.size(), cleans.size());
  }

  std::printf("\nhealth sweep: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  const BenchOptions options = ParseOptions(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--net-sweep") == 0) return NetSweep(options);
    if (std::strcmp(argv[i], "--health-sweep") == 0) {
      return HealthSweep(options);
    }
  }
  PrintHeader("Availability timeline: replica crash at t=4s, recovery at "
              "t=8s (LSC, 4 replicas, 16 clients)",
              "the crash-recovery design of §IV (extension)");

  MicroConfig micro;
  micro.update_fraction = 0.5;
  MicroWorkload workload(micro);

  Simulator sim;
  runtime::SimRuntime rt{&sim};
  SystemConfig sys_config;
  sys_config.level = ConsistencyLevel::kLazyCoarse;
  sys_config.replica_count = 4;
  if (!options.trace_json.empty()) {
    sys_config.obs.tracing = true;
    sys_config.obs.trace_capacity = kTraceWholeRun;
  }
  if (!options.metrics_json.empty()) sys_config.obs.sample_period = Millis(500);
  if (options.audit) sys_config.obs.audit = true;
  if (options.health) sys_config.obs.health = true;
  ApplyNetworkOptions(options, &sys_config);
  auto system_or = ReplicatedSystem::Create(
      &rt, sys_config,
      [&workload](Database* db) { return workload.BuildSchema(db); },
      [&workload](const Database& db, sql::TransactionRegistry* reg) {
        return workload.DefineTransactions(db, reg);
      });
  if (!system_or.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 system_or.status().ToString().c_str());
    return 1;
  }
  auto system = std::move(system_or).value();

  MetricsCollector metrics(0);
  metrics.EnableTimeline(Millis(500));
  std::vector<std::unique_ptr<ClientDriver>> clients;
  Rng rng(17);
  for (int c = 0; c < 16; ++c) {
    clients.push_back(std::make_unique<ClientDriver>(
        system.get(), &metrics,
        workload.CreateGenerator(system->registry(), c, rng.Fork()), c,
        ClientConfig{}, rng.Fork()));
  }
  system->SetClientCallback([&clients](const TxnResponse& r) {
    clients[static_cast<size_t>(r.client_id)]->OnResponse(r);
  });
  for (auto& client : clients) client->Start();

  const SimTime crash_at = Seconds(4);
  const SimTime recover_at = Seconds(8);
  sim.Schedule(crash_at, [&system]() { system->CrashReplica(1); });
  sim.Schedule(recover_at, [&system]() { system->RecoverReplica(1); });
  sim.Schedule(Seconds(12), [&clients, &system]() {
    for (auto& client : clients) client->Stop();
    system->obs()->StopSampling();
  });
  sim.RunUntil(Seconds(12));
  sim.RunAll();

  if (!options.metrics_json.empty()) {
    const Status st = system->obs()->WriteMetricsJson(options.metrics_json);
    if (!st.ok()) {
      std::fprintf(stderr, "metrics write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  if (!options.trace_json.empty()) {
    const Status st = system->obs()->WriteTraceJson(options.trace_json);
    if (!st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  PrintTimeline(metrics, crash_at, recover_at);
  std::printf(
      "\nThe failure spike at the crash is the failed-over in-flight\n"
      "transactions (clients retried them on the survivors); the cluster\n"
      "keeps serving throughout, and the recovered replica rejoins after\n"
      "catching up from the certifier's log, or from a peer's snapshot\n"
      "once the log no longer reaches back to it.\n");

  if (!options.audit_json.empty()) {
    const Status st = system->obs()->WriteAuditJson(options.audit_json);
    if (!st.ok()) {
      std::fprintf(stderr, "audit write failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (!options.health_json.empty()) {
    const Status st = system->obs()->WriteHealthJson(options.health_json);
    if (!st.ok()) {
      std::fprintf(stderr, "health write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  if (!options.timeline_json.empty()) {
    const Status st =
        system->obs()->WriteTimelineJson(options.timeline_json);
    if (!st.ok()) {
      std::fprintf(stderr, "timeline write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  if (const obs::HealthMonitor* monitor = system->obs()->health_monitor()) {
    std::printf("\n---- health ----\n%s\n", monitor->Summary().c_str());
  }
  if (const obs::Auditor* auditor = system->obs()->auditor()) {
    std::printf("\n---- audit report ----\n%s\n",
                auditor->Summary().c_str());
    return auditor->ok() ? 0 : 1;
  }
  return 0;
}

}  // namespace
}  // namespace screp::bench

int main(int argc, char** argv) { return screp::bench::Main(argc, argv); }
