#include "workload/experiment.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/json.h"
#include "runtime/sim_runtime.h"

namespace screp {

std::string AuditSummary::ToString() const {
  if (!enabled) return "audit: off";
  std::ostringstream out;
  if (ok) {
    out << "audit: OK (" << events << " events, " << checks << " checks)";
  } else {
    out << "audit: FAILED with " << violations << " violation(s)";
    if (!first_violation.empty()) out << "; first: " << first_violation;
  }
  out << "; version lag at BEGIN p50/p95/p99 = " << version_lag_p50 << "/"
      << version_lag_p95 << "/" << version_lag_p99
      << ", snapshot age p95 = " << snapshot_age_p95_ms << " ms";
  return out.str();
}

std::string HealthSummary::ToString() const {
  if (!enabled) return "health: off";
  std::ostringstream out;
  out << "health: " << final_state << " (worst " << worst_state << ", "
      << transitions << " transition(s), " << firings << " firing(s)";
  if (!detectors.empty()) out << ": " << detectors;
  out << ")";
  return out.str();
}

std::string ExperimentResult::Header() {
  return "config  repl cli |    TPS  resp(ms) p99(ms) syncd(ms) | "
         "version queries certify    sync  commit  global | "
         "commits  aborts util";
}

std::string ExperimentResult::ToLine() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "%-7s %4d %3d | %6.1f %9.2f %7.2f %9.2f | %7.2f %7.2f %7.2f %7.2f "
      "%7.2f %7.2f | %7lld %7lld %4.2f",
      ConsistencyLevelName(level), replicas, clients, throughput_tps,
      mean_response_ms, p99_response_ms, sync_delay_ms, version_ms,
      queries_ms, certify_ms, sync_ms, commit_ms, global_ms,
      static_cast<long long>(committed),
      static_cast<long long>(cert_aborts + early_aborts + exec_errors),
      replica_cpu_utilization);
  return buf;
}

std::string ExperimentResult::ToJson() const {
  std::ostringstream out;
  out << "{\"workload\":\"" << obs::JsonEscape(workload) << "\""
      << ",\"level\":\"" << ConsistencyLevelName(level) << "\""
      << ",\"replicas\":" << replicas << ",\"clients\":" << clients
      << ",\"throughput_tps\":" << throughput_tps
      << ",\"response_ms\":{\"mean\":" << mean_response_ms
      << ",\"p50\":" << p50_response_ms << ",\"p95\":" << p95_response_ms
      << ",\"p99\":" << p99_response_ms << "}"
      << ",\"sync_delay_ms\":" << sync_delay_ms
      << ",\"stages_ms\":{\"version\":" << version_ms
      << ",\"queries\":" << queries_ms << ",\"certify\":" << certify_ms
      << ",\"sync\":" << sync_ms << ",\"commit\":" << commit_ms
      << ",\"global\":" << global_ms << "}"
      << ",\"committed\":" << committed
      << ",\"committed_updates\":" << committed_updates
      << ",\"cert_aborts\":" << cert_aborts
      << ",\"early_aborts\":" << early_aborts
      << ",\"exec_errors\":" << exec_errors
      << ",\"replica_failures\":" << replica_failures
      << ",\"overloaded\":" << overloaded
      << ",\"client_timeouts\":" << client_timeouts
      << ",\"lb_shed\":" << lb_shed
      << ",\"certifier_shed\":" << certifier_shed
      << ",\"peak_admission_queue\":" << peak_admission_queue
      << ",\"peak_pending_writesets\":" << peak_pending_writesets
      << ",\"replica_cpu_utilization\":" << replica_cpu_utilization
      << ",\"certifier_disk_utilization\":" << certifier_disk_utilization;
  if (audit.enabled) {
    out << ",\"audit\":{\"ok\":" << (audit.ok ? "true" : "false")
        << ",\"events\":" << audit.events << ",\"checks\":" << audit.checks
        << ",\"violations\":" << audit.violations;
    if (!audit.first_violation.empty()) {
      out << ",\"first_violation\":\""
          << obs::JsonEscape(audit.first_violation) << "\"";
    }
    out << ",\"staleness\":{\"version_lag\":{\"p50\":"
        << audit.version_lag_p50 << ",\"p95\":" << audit.version_lag_p95
        << ",\"p99\":" << audit.version_lag_p99
        << "},\"snapshot_age_ms\":{\"p50\":" << audit.snapshot_age_p50_ms
        << ",\"p95\":" << audit.snapshot_age_p95_ms
        << ",\"p99\":" << audit.snapshot_age_p99_ms << "}}}";
  } else {
    out << ",\"audit\":null";
  }
  // Omitted entirely (not null) when off: profile-off BENCH JSON is
  // byte-identical to output from before the profiler existed.
  if (profile.enabled) out << ",\"profile\":" << profile.json;
  // Likewise for health: off-runs carry no "health" member at all.
  if (health.enabled) {
    out << ",\"health\":{\"state\":\"" << obs::JsonEscape(health.final_state)
        << "\",\"worst\":\"" << obs::JsonEscape(health.worst_state)
        << "\",\"transitions\":" << health.transitions
        << ",\"firings\":" << health.firings << ",\"detectors\":\""
        << obs::JsonEscape(health.detectors)
        << "\",\"first_transition_at\":" << health.first_transition_at
        << "}";
  }
  out << "}";
  return out.str();
}

Result<ExperimentResult> RunExperiment(const Workload& workload,
                                       const ExperimentConfig& config) {
  runtime::SimRuntime rt;
  Simulator& sim = *rt.sim();
  SystemConfig system_config = config.system;
  system_config.seed = config.seed;
  if (!config.trace_json_path.empty()) system_config.obs.tracing = true;
  if (!config.metrics_json_path.empty() &&
      system_config.obs.sample_period == 0) {
    system_config.obs.sample_period = Millis(500);
  }
  if (config.audit || !config.audit_json_path.empty()) {
    system_config.obs.audit = true;
  }
  if (config.profile || !config.profile_json_path.empty()) {
    system_config.obs.profile = true;
  }
  if (config.health || !config.health_json_path.empty() ||
      !config.timeline_json_path.empty()) {
    system_config.obs.health = true;
  }
  SCREP_ASSIGN_OR_RETURN(
      auto system,
      ReplicatedSystem::Create(
          &rt, system_config,
          [&workload](Database* db) { return workload.BuildSchema(db); },
          [&workload](const Database& db, sql::TransactionRegistry* reg) {
            return workload.DefineTransactions(db, reg);
          }));
  if (config.history != nullptr) system->SetHistory(config.history);
  if (obs::Profiler* profiler = system->obs()->profiler()) {
    profiler->set_measure_from(config.warmup);
  }

  MetricsCollector metrics(config.warmup);
  Rng seed_rng(config.seed);

  ClientConfig client_config = config.client;
  client_config.mean_think_time = config.mean_think_time;

  std::vector<std::unique_ptr<ClientDriver>> clients;
  clients.reserve(static_cast<size_t>(config.client_count));
  for (int c = 0; c < config.client_count; ++c) {
    clients.push_back(std::make_unique<ClientDriver>(
        system.get(), &metrics,
        workload.CreateGenerator(system->registry(), c, seed_rng.Fork()), c,
        client_config, seed_rng.Fork()));
  }
  system->SetClientCallback([&clients](const TxnResponse& response) {
    clients[static_cast<size_t>(response.client_id)]->OnResponse(response);
  });
  for (auto& client : clients) client->Start();

  // Reset resource statistics at the end of warm-up so utilization covers
  // only the measurement window.
  rt.Schedule(config.warmup, [&system]() {
    for (int r = 0; r < system->replica_count(); ++r) {
      system->replica(r)->proxy()->cpu()->ResetStats();
    }
    Certifier* certifier = system->certifier();
    for (ShardId s = 0; s < certifier->lane_count(); ++s) {
      certifier->cpu(s)->ResetStats();
      certifier->disk(s)->ResetStats();
    }
  });

  for (const FaultEvent& fault : config.faults) {
    rt.Schedule(fault.crash_at, [&system, fault]() {
      system->CrashReplica(fault.replica);
    });
    if (fault.recover_at != FaultEvent::kNoRecovery) {
      rt.Schedule(fault.recover_at, [&system, fault]() {
        system->RecoverReplica(fault.replica);
      });
    }
  }

  const TimePoint end = config.warmup + config.duration;
  // Stop the closed loops at the end of the window, then drain in-flight
  // transactions so recorded histories are complete (commit versions with
  // no response would otherwise look like gaps in the total order).
  rt.Schedule(end, [&clients, &system]() {
    for (auto& client : clients) client->Stop();
    system->obs()->StopSampling();  // else the daemon keeps the queue alive
  });
  sim.RunUntil(end);
  metrics.Finish(end);
  sim.RunAll();

  if (!config.metrics_json_path.empty()) {
    SCREP_RETURN_NOT_OK(
        system->obs()->WriteMetricsJson(config.metrics_json_path));
  }
  if (!config.trace_json_path.empty()) {
    SCREP_RETURN_NOT_OK(
        system->obs()->WriteTraceJson(config.trace_json_path));
  }
  if (!config.audit_json_path.empty()) {
    SCREP_RETURN_NOT_OK(
        system->obs()->WriteAuditJson(config.audit_json_path));
  }
  if (!config.profile_json_path.empty()) {
    SCREP_RETURN_NOT_OK(
        system->obs()->WriteProfileJson(config.profile_json_path));
  }
  if (!config.metrics_prom_path.empty()) {
    SCREP_RETURN_NOT_OK(
        system->obs()->WriteMetricsProm(config.metrics_prom_path));
  }
  if (!config.health_json_path.empty()) {
    SCREP_RETURN_NOT_OK(
        system->obs()->WriteHealthJson(config.health_json_path));
  }
  if (!config.timeline_json_path.empty()) {
    SCREP_RETURN_NOT_OK(
        system->obs()->WriteTimelineJson(config.timeline_json_path));
  }

  ExperimentResult result;
  result.workload = workload.name();
  result.level = config.system.level;
  result.replicas = config.system.replica_count;
  result.clients = config.client_count;
  result.throughput_tps = metrics.Throughput();
  result.mean_response_ms = metrics.MeanResponseMs();
  result.p50_response_ms = metrics.response_histogram().Percentile(0.5) / 1e3;
  result.p95_response_ms = metrics.response_histogram().Percentile(0.95) / 1e3;
  result.p99_response_ms = metrics.P99ResponseMs();
  result.sync_delay_ms = metrics.MeanSyncDelayMs();
  result.version_ms =
      ToMillis(static_cast<Duration>(metrics.version_stage().mean()));
  result.queries_ms =
      ToMillis(static_cast<Duration>(metrics.queries_stage().mean()));
  result.certify_ms =
      ToMillis(static_cast<Duration>(metrics.certify_stage().mean()));
  result.sync_ms =
      ToMillis(static_cast<Duration>(metrics.sync_stage().mean()));
  result.commit_ms =
      ToMillis(static_cast<Duration>(metrics.commit_stage().mean()));
  result.global_ms =
      ToMillis(static_cast<Duration>(metrics.global_stage().mean()));
  result.committed = metrics.committed();
  result.committed_updates = metrics.committed_updates();
  result.cert_aborts = metrics.cert_aborts();
  result.early_aborts = metrics.early_aborts();
  result.exec_errors = metrics.exec_errors();
  result.replica_failures = metrics.replica_failures();
  result.overloaded = metrics.overloaded();
  for (const auto& client : clients) {
    result.client_timeouts += client->timeouts();
  }
  result.lb_shed = system->load_balancer()->shed_count();
  result.peak_admission_queue =
      static_cast<int64_t>(system->load_balancer()->peak_admission_queue());
  result.certifier_shed = system->certifier()->shed_count();
  for (int r = 0; r < system->replica_count(); ++r) {
    result.peak_pending_writesets = std::max(
        result.peak_pending_writesets,
        static_cast<int64_t>(
            system->replica(r)->proxy()->peak_pending_writesets()));
  }

  double cpu_total = 0;
  for (int r = 0; r < system->replica_count(); ++r) {
    cpu_total += system->replica(r)->proxy()->cpu()->Utilization();
  }
  result.replica_cpu_utilization =
      cpu_total / static_cast<double>(system->replica_count());
  // The busiest lane: the WAL bottleneck of a partitioned certifier.
  for (ShardId s = 0; s < system->certifier()->lane_count(); ++s) {
    result.certifier_disk_utilization =
        std::max(result.certifier_disk_utilization,
                 system->certifier()->disk(s)->Utilization());
  }

  if (const obs::Auditor* auditor = system->obs()->auditor()) {
    result.audit.enabled = true;
    result.audit.ok = auditor->ok();
    result.audit.events = auditor->events_consumed();
    result.audit.checks = auditor->checks_performed();
    result.audit.violations = auditor->violation_count();
    if (!auditor->violations().empty()) {
      const auto& v = auditor->violations().front();
      result.audit.first_violation = "[" + v.check + "] " + v.detail;
    }
    obs::MetricsRegistry* registry = system->obs()->registry();
    const Histogram* lag = registry->GetHistogram(obs::kVersionLagHistogram);
    result.audit.version_lag_p50 = lag->Percentile(0.5);
    result.audit.version_lag_p95 = lag->Percentile(0.95);
    result.audit.version_lag_p99 = lag->Percentile(0.99);
    const Histogram* age = registry->GetHistogram(obs::kSnapshotAgeHistogram);
    result.audit.snapshot_age_p50_ms = age->Percentile(0.5) / 1e3;
    result.audit.snapshot_age_p95_ms = age->Percentile(0.95) / 1e3;
    result.audit.snapshot_age_p99_ms = age->Percentile(0.99) / 1e3;
  }

  if (const obs::Profiler* profiler = system->obs()->profiler()) {
    result.profile.enabled = true;
    result.profile.measured = profiler->measured();
    result.profile.conservation_checked = profiler->conservation_checked();
    result.profile.conservation_violations =
        profiler->conservation_violations();
    result.profile.first_violation = profiler->first_violation();
    for (int s = 0; s < obs::kProfileSegmentCount; ++s) {
      result.profile.segment_mean_ms[static_cast<size_t>(s)] =
          profiler->MeanSegmentMs(static_cast<obs::ProfileSegment>(s));
    }
    result.profile.json = profiler->ToJson();
  }

  if (const obs::HealthMonitor* monitor = system->obs()->health_monitor()) {
    result.health.enabled = true;
    result.health.final_state = obs::HealthStateName(monitor->state());
    result.health.worst_state = obs::HealthStateName(monitor->worst_state());
    result.health.transitions =
        static_cast<int64_t>(monitor->transitions().size());
    result.health.firings = monitor->total_firings();
    result.health.detectors = monitor->FiredDetectorNames();
    result.health.first_transition_at =
        monitor->transitions().empty() ? -1
                                       : monitor->transitions().front().at;
  }
  return result;
}

}  // namespace screp
