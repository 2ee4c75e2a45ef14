// The observability facade owned by ReplicatedSystem: one MetricsRegistry,
// one span Tracer and one gauge Sampler per system, handed to every
// middleware component at wiring time.
//
// Everything is off by default (ObsConfig{}) and the instrumentation in
// the components is null-/enabled-guarded, so the default configuration
// never perturbs virtual-time results.  What it costs is one branch per
// instrumentation site and a few KiB of empty bookkeeping: the span and
// event rings allocate only as they retain (obs/ring.h), so the
// capacities below are bounds, not up-front allocations.

#ifndef SCREP_OBS_OBSERVABILITY_H_
#define SCREP_OBS_OBSERVABILITY_H_

#include <memory>
#include <string>

#include "common/sim_time.h"
#include "common/status.h"
#include "obs/auditor.h"
#include "obs/eventlog.h"
#include "obs/health.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/sampler.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "runtime/runtime.h"

namespace screp::obs {

/// What to collect during a run.
struct ObsConfig {
  /// Record per-transaction spans into the trace ring buffer.
  bool tracing = false;
  /// Span ring-buffer capacity (oldest spans evicted beyond it).
  size_t trace_capacity = 1 << 16;
  /// Gauge sampling period (0 = sampler off).
  Duration sample_period = 0;
  /// Record middleware decisions into the structured event log.
  bool event_log = false;
  /// Event ring-buffer capacity (oldest events evicted beyond it; live
  /// sinks — the auditor — still see every event).
  size_t event_log_capacity = 1 << 16;
  /// Attach the online consistency auditor to the event stream (implies
  /// event logging).
  bool audit = false;
  /// Attach the critical-path profiler to the span + event streams
  /// (implies event logging; the trace ring buffer itself stays off
  /// unless `tracing` is also set — the profiler consumes spans live).
  bool profile = false;
  /// Attach the online health monitor: a streaming time-series store fed
  /// by the sampler plus SLO/anomaly detectors over it (implies event
  /// logging, and defaults `sample_period` to 250 ms if unset — the
  /// monitor is driven by sampler ticks).
  bool health = false;
  /// Objectives and detector thresholds for the health monitor.
  HealthConfig health_config;
};

/// Bundles the three observability pieces for one system.
class Observability {
 public:
  Observability(runtime::Runtime* rt, const ObsConfig& config);

  MetricsRegistry* registry() { return &registry_; }
  Tracer* tracer() { return &tracer_; }
  Sampler* sampler() { return &sampler_; }
  const Sampler* sampler() const { return &sampler_; }
  EventLog* event_log() { return &event_log_; }
  const EventLog* event_log() const { return &event_log_; }

  /// The online auditor; null unless the config asked for auditing and
  /// ConfigureAuditor ran.
  Auditor* auditor() { return auditor_.get(); }
  const Auditor* auditor() const { return auditor_.get(); }
  bool audit_enabled() const { return config_.audit; }

  /// The critical-path profiler; null unless the config asked for it.
  Profiler* profiler() { return profiler_.get(); }
  const Profiler* profiler() const { return profiler_.get(); }

  /// The online health monitor; null unless the config asked for health
  /// and ConfigureHealth ran.
  HealthMonitor* health_monitor() { return health_monitor_.get(); }
  const HealthMonitor* health_monitor() const {
    return health_monitor_.get();
  }
  /// The streaming windowed series store behind the monitor; null unless
  /// ConfigureHealth ran.
  const TimeSeriesStore* timeseries() const { return timeseries_.get(); }
  bool health_enabled() const { return config_.health; }

  /// Creates the auditor and subscribes it to the event log (no-op when
  /// the config did not ask for auditing).  Called by the system at
  /// wiring time, once it knows what the consistency configuration
  /// promises: Definition 1 (strong) and/or Definition 2 (session —
  /// everything but bounded staleness, which bounds lag without
  /// consulting session versions).
  /// `table_to_shard` / `shard_count` describe a partitioned
  /// configuration's shards (empty / 1: one shard holding every table).
  void ConfigureAuditor(bool expect_strong, bool expect_session,
                        std::vector<int32_t> table_to_shard = {},
                        int shard_count = 1);

  /// Creates the time-series store and health monitor and subscribes them
  /// to the sampler and the event log (no-op when the config did not ask
  /// for health).  Called by the system at wiring time, once it knows the
  /// replica count.
  void ConfigureHealth(int replica_count);

  /// Starts the periodic sampler if the config asked for one.
  void StartSampling();

  /// Stops the sampler daemon so the event queue can drain.
  void StopSampling() { sampler_.Stop(); }

  /// The registry snapshot plus the sampled time series as one JSON
  /// object: {"registry":{...},"sampler":{...}}.
  std::string MetricsJson() const;

  /// Writes MetricsJson() to `path`.
  Status WriteMetricsJson(const std::string& path) const;

  /// Writes the trace in Chrome trace-event JSON to `path`, warning when
  /// the ring buffer overflowed and the file is silently incomplete.
  Status WriteTraceJson(const std::string& path) const;

  /// Writes the registry snapshot in Prometheus text format to `path`.
  Status WriteMetricsProm(const std::string& path) const;

  /// Writes the profiler report to `path` (error if profiling is off).
  Status WriteProfileJson(const std::string& path) const;

  /// The health monitor's full report (error text via Status if health
  /// monitoring is off).
  Status WriteHealthJson(const std::string& path) const;

  /// Everything a timeline dashboard needs as one JSON object:
  /// {"sampler":{...},"health":{...}|null,"faults":[{kind,at,component}]}
  /// — faults are the crash/recover/failover events retained in the log.
  std::string TimelineJson() const;

  /// Writes TimelineJson() to `path`.
  Status WriteTimelineJson(const std::string& path) const;

  /// The end-of-run audit report as one JSON object:
  /// {"auditor":{...}|null,"staleness":{histogram name:{count,...}}}
  /// — the staleness block pulls every "staleness."-prefixed histogram
  /// out of the registry snapshot.
  std::string AuditJson() const;

  /// Writes AuditJson() to `path`.
  Status WriteAuditJson(const std::string& path) const;

  /// Writes the retained event log as JSONL to `path`.
  Status WriteEventsJsonl(const std::string& path) const {
    return event_log_.WriteJsonl(path);
  }

 private:
  ObsConfig config_;
  MetricsRegistry registry_;
  Tracer tracer_;
  Sampler sampler_;
  EventLog event_log_;
  std::unique_ptr<Auditor> auditor_;
  std::unique_ptr<Profiler> profiler_;
  std::unique_ptr<TimeSeriesStore> timeseries_;
  std::unique_ptr<HealthMonitor> health_monitor_;
};

}  // namespace screp::obs

#endif  // SCREP_OBS_OBSERVABILITY_H_
