#include "obs/observability.h"

#include <algorithm>
#include <fstream>

#include "common/logging.h"
#include "obs/json.h"

namespace screp::obs {

Observability::Observability(runtime::Runtime* rt, const ObsConfig& config)
    : config_(config),
      tracer_(config.trace_capacity),
      sampler_(rt, &registry_),
      event_log_(config.event_log_capacity) {
  // The health monitor is driven by sampler ticks; give it a period if
  // the caller asked for health but left the sampler off.
  if (config_.health && config_.sample_period == 0) {
    config_.sample_period = Millis(250);
  }
  tracer_.set_enabled(config.tracing);
  event_log_.set_enabled(config.event_log || config.audit ||
                         config.profile || config.health);
  if (config.tracing) {
    // Drops are invisible in the exported trace itself; surface them so a
    // silently truncated trace can be spotted from the metrics.
    registry_.RegisterCallbackGauge("trace.dropped_spans", [this]() {
      return static_cast<double>(tracer_.dropped());
    });
  }
  if (config.profile) {
    profiler_ = std::make_unique<Profiler>();
    tracer_.AddSink([profiler = profiler_.get()](const TraceSpan& span) {
      profiler->OnSpan(span);
    });
    event_log_.AddSink([profiler = profiler_.get()](const Event& e) {
      profiler->OnEvent(e);
    });
  }
}

void Observability::ConfigureAuditor(bool expect_strong, bool expect_session,
                                     std::vector<int32_t> table_to_shard,
                                     int shard_count) {
  if (!config_.audit || auditor_ != nullptr) return;
  AuditorConfig auditor_config;
  auditor_config.check_strong = expect_strong;
  auditor_config.check_session = expect_session;
  auditor_ = std::make_unique<Auditor>(auditor_config, &registry_,
                                       std::move(table_to_shard), shard_count);
  event_log_.AddSink(
      [auditor = auditor_.get()](const Event& e) { auditor->OnEvent(e); });
}

void Observability::ConfigureHealth(int replica_count) {
  if (!config_.health || health_monitor_ != nullptr) return;
  // Keep enough window for the slowest consumer: the monitor's slow burn
  // window plus the trend detectors' lookback.
  TimeSeriesConfig ts_config;
  ts_config.window = static_cast<size_t>(
      std::max({config_.health_config.slow_window + 1, 16, 1}));
  timeseries_ = std::make_unique<TimeSeriesStore>(ts_config);
  health_monitor_ = std::make_unique<HealthMonitor>(
      config_.health_config, replica_count, timeseries_.get(), &registry_,
      &event_log_);
  event_log_.AddSink([monitor = health_monitor_.get()](const Event& e) {
    monitor->OnEvent(e);
  });
  // Series store ingests the tick first, then the monitor judges it; sink
  // order makes that sequencing explicit.
  sampler_.AddSink([store = timeseries_.get(), monitor =
                        health_monitor_.get()](
                       TimePoint at, Duration period,
                       const std::map<std::string, double>& gauges,
                       const std::map<std::string, double>& deltas) {
    store->Ingest(at, period, gauges, deltas);
    monitor->OnSample(at);
  });
}

void Observability::StartSampling() {
  if (config_.sample_period > 0 && !sampler_.running()) {
    sampler_.Start(config_.sample_period);
  }
}

std::string Observability::MetricsJson() const {
  std::string out = "{\"registry\":";
  out += registry_.ToJson();
  out += ",\"sampler\":";
  out += sampler_.ToJson();
  out += "}";
  return out;
}

std::string Observability::AuditJson() const {
  std::string out = "{\"auditor\":";
  out += auditor_ != nullptr ? auditor_->ToJson() : "null";
  out += ",\"staleness\":{";
  const auto snapshot = registry_.TakeSnapshot();
  bool first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    if (name.rfind("staleness.", 0) != 0) continue;
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":{\"count\":" +
           std::to_string(h.count) + ",\"mean\":" + std::to_string(h.mean) +
           ",\"p50\":" + std::to_string(h.p50) +
           ",\"p95\":" + std::to_string(h.p95) +
           ",\"p99\":" + std::to_string(h.p99) +
           ",\"max\":" + std::to_string(h.max) + "}";
  }
  out += "}}";
  return out;
}

Status Observability::WriteAuditJson(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file.is_open()) {
    return Status::IOError("cannot open audit output: " + path);
  }
  file << AuditJson();
  file.close();
  if (!file.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Status Observability::WriteMetricsJson(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file.is_open()) {
    return Status::IOError("cannot open metrics output: " + path);
  }
  file << MetricsJson();
  file.close();
  if (!file.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Status Observability::WriteTraceJson(const std::string& path) const {
  if (tracer_.dropped() > 0) {
    SCREP_LOG(kWarn) << "trace ring buffer overflowed: " << tracer_.dropped()
                     << " span(s) dropped; " << path
                     << " is incomplete (raise ObsConfig::trace_capacity)";
  }
  return tracer_.WriteChromeJson(path);
}

Status Observability::WriteMetricsProm(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file.is_open()) {
    return Status::IOError("cannot open metrics output: " + path);
  }
  file << registry_.ToPrometheusText();
  file.close();
  if (!file.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Status Observability::WriteProfileJson(const std::string& path) const {
  if (profiler_ == nullptr) {
    return Status::InvalidArgument(
        "profiling is off (set ObsConfig::profile)");
  }
  return profiler_->WriteJson(path);
}

Status Observability::WriteHealthJson(const std::string& path) const {
  if (health_monitor_ == nullptr) {
    return Status::InvalidArgument(
        "health monitoring is off (set ObsConfig::health)");
  }
  std::ofstream file(path, std::ios::trunc);
  if (!file.is_open()) {
    return Status::IOError("cannot open health output: " + path);
  }
  file << health_monitor_->ToJson();
  file.close();
  if (!file.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

std::string Observability::TimelineJson() const {
  std::string out = "{\"sampler\":";
  out += sampler_.ToJson();
  out += ",\"health\":";
  out += health_monitor_ != nullptr ? health_monitor_->TimelineJson()
                                    : "null";
  out += ",\"faults\":[";
  bool first = true;
  for (const Event& event : event_log_.Events()) {
    // Injected faults only: a snapshot rejoin is a recovery step, not a
    // fault of its own.
    if ((event.kind != EventKind::kCrash &&
         event.kind != EventKind::kRecover &&
         event.kind != EventKind::kFailover) ||
        event.detail == "snapshot") {
      continue;
    }
    if (!first) out += ",";
    first = false;
    out += "{\"kind\":\"" + std::string(EventKindName(event.kind)) +
           "\",\"at\":" + std::to_string(event.at) + ",\"component\":\"" +
           JsonEscape(event.detail) + "\"";
    if (event.replica != kNoReplica) {
      out += ",\"replica\":" + std::to_string(event.replica);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

Status Observability::WriteTimelineJson(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file.is_open()) {
    return Status::IOError("cannot open timeline output: " + path);
  }
  file << TimelineJson();
  file.close();
  if (!file.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace screp::obs
