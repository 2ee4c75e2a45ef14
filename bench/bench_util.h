// Shared helpers for the figure-reproduction drivers.
//
// Every driver prints the rows/series of one table or figure from the
// paper.  Simulated runs replace the paper's 10-minute measurement
// intervals with (configurable) tens of simulated seconds; pass --quick
// for an even shorter smoke run, --full for longer windows.

#ifndef SCREP_BENCH_BENCH_UTIL_H_
#define SCREP_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "workload/experiment.h"

namespace screp::bench {

/// Run-length profile selected on the command line.
struct BenchOptions {
  SimTime warmup = Seconds(2);
  SimTime duration = Seconds(20);
  uint64_t seed = 42;
  /// --metrics-json <path>: write each run's metrics snapshot + sampled
  /// time series as JSON (multi-run drivers tag the path per run).
  std::string metrics_json;
  /// --trace-json <path>: write each run's per-transaction trace in
  /// Chrome trace-event JSON (open in chrome://tracing or Perfetto).
  std::string trace_json;
  /// --audit: run the online consistency auditor during every run and
  /// print the per-run verdict + staleness attribution (exit 1 on any
  /// violation).
  bool audit = false;
  /// --audit-json <path>: additionally write each run's audit report as
  /// JSON (tagged per run; implies --audit).
  std::string audit_json;
  /// --bench-json [path]: write the machine-readable run summary
  /// (throughput, latency percentiles, staleness percentiles).  The bare
  /// flag defaults to BENCH_<driver>.json in the working directory.
  std::string bench_json;
  /// --profile: run the critical-path profiler during every run, print
  /// the per-run segment breakdown, and embed the full report in the
  /// bench JSON.  The driver exits 1 if any run's segment sums fail the
  /// conservation self-check.
  bool profile = false;
  /// --profile-json <path>: additionally write each run's full profiler
  /// report as JSON (tagged per run; implies --profile).
  std::string profile_json;
  /// --metrics-prom <path>: write each run's end-of-run metrics snapshot
  /// in Prometheus text exposition format (tagged per run).
  std::string metrics_prom;
  /// --apply-lanes=N: how many certified writesets each replica may
  /// execute concurrently (out-of-order execution, in-order version
  /// publish).  0 keeps the driver's own default (the paper's serial
  /// apply, N=1).
  int apply_lanes = 0;
  /// --net-jitter=<us>: mean exponential jitter added to every cluster
  /// link (FIFO per link is preserved; 0 keeps the deterministic
  /// latencies).
  SimTime net_jitter = 0;
  /// --net-loss=<p>: drop probability injected on the certifier->replica
  /// refresh stream (the reliable channel retransmits, so runs finish
  /// audit-clean — slower, not wrong).
  double net_loss = 0;
  /// --refresh-batch: coalesce each group commit's refresh fan-out into
  /// one message per target replica.
  bool refresh_batch = false;
  /// --health: run the online health monitor during every run and print
  /// the per-run verdict (state transitions, detector firings).  Does
  /// not affect the exit code — detection policy belongs to the health
  /// sweep, not the figure drivers.
  bool health = false;
  /// --health-json <path>: additionally write each run's health report as
  /// JSON (tagged per run; implies --health).
  std::string health_json;
  /// --timeline-json <path>: write each run's timeline bundle (sampled
  /// series + health track + fault markers) as JSON for
  /// tools/render_timeline.py (tagged per run; implies --health).
  std::string timeline_json;
};

inline BenchOptions ParseOptions(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      options.warmup = Seconds(0.5);
      options.duration = Seconds(4);
    } else if (std::strcmp(argv[i], "--full") == 0) {
      options.warmup = Seconds(5);
      options.duration = Seconds(60);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      options.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--metrics-json=", 15) == 0) {
      options.metrics_json = argv[i] + 15;
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      options.metrics_json = argv[++i];
    } else if (std::strncmp(argv[i], "--trace-json=", 13) == 0) {
      options.trace_json = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--trace-json") == 0 && i + 1 < argc) {
      options.trace_json = argv[++i];
    } else if (std::strcmp(argv[i], "--audit") == 0) {
      options.audit = true;
    } else if (std::strncmp(argv[i], "--audit-json=", 13) == 0) {
      options.audit_json = argv[i] + 13;
      options.audit = true;
    } else if (std::strcmp(argv[i], "--audit-json") == 0 && i + 1 < argc) {
      options.audit_json = argv[++i];
      options.audit = true;
    } else if (std::strncmp(argv[i], "--apply-lanes=", 14) == 0) {
      options.apply_lanes = static_cast<int>(std::strtol(argv[i] + 14,
                                                         nullptr, 10));
    } else if (std::strncmp(argv[i], "--net-jitter=", 13) == 0) {
      options.net_jitter = Micros(std::strtod(argv[i] + 13, nullptr));
    } else if (std::strncmp(argv[i], "--net-loss=", 11) == 0) {
      options.net_loss = std::strtod(argv[i] + 11, nullptr);
    } else if (std::strcmp(argv[i], "--refresh-batch") == 0) {
      options.refresh_batch = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      options.profile = true;
    } else if (std::strncmp(argv[i], "--profile-json=", 15) == 0) {
      options.profile_json = argv[i] + 15;
      options.profile = true;
    } else if (std::strcmp(argv[i], "--profile-json") == 0 && i + 1 < argc) {
      options.profile_json = argv[++i];
      options.profile = true;
    } else if (std::strcmp(argv[i], "--health") == 0) {
      options.health = true;
    } else if (std::strncmp(argv[i], "--health-json=", 14) == 0) {
      options.health_json = argv[i] + 14;
      options.health = true;
    } else if (std::strcmp(argv[i], "--health-json") == 0 && i + 1 < argc) {
      options.health_json = argv[++i];
      options.health = true;
    } else if (std::strncmp(argv[i], "--timeline-json=", 16) == 0) {
      options.timeline_json = argv[i] + 16;
      options.health = true;
    } else if (std::strcmp(argv[i], "--timeline-json") == 0 && i + 1 < argc) {
      options.timeline_json = argv[++i];
      options.health = true;
    } else if (std::strncmp(argv[i], "--metrics-prom=", 15) == 0) {
      options.metrics_prom = argv[i] + 15;
    } else if (std::strcmp(argv[i], "--metrics-prom") == 0 && i + 1 < argc) {
      options.metrics_prom = argv[++i];
    } else if (std::strncmp(argv[i], "--bench-json=", 13) == 0) {
      options.bench_json = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--bench-json") == 0) {
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        options.bench_json = argv[++i];
      } else {
        options.bench_json = "auto";  // resolved per driver by BenchReport
      }
    }
  }
  return options;
}

/// Inserts `tag` before the path's extension ("out.json" + "lsc25" ->
/// "out.lsc25.json") so multi-run drivers write one file per run.
inline std::string TaggedPath(const std::string& path,
                              const std::string& tag) {
  if (tag.empty()) return path;
  const size_t dot = path.find_last_of('.');
  const size_t slash = path.find_last_of('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + "." + tag;
  }
  return path.substr(0, dot) + "." + tag + path.substr(dot);
}

/// Applies the --net-jitter / --net-loss / --refresh-batch knobs to one
/// system config (used directly by drivers that build a SystemConfig by
/// hand; ApplyObservability calls it for the experiment-based drivers).
inline void ApplyNetworkOptions(const BenchOptions& options,
                                SystemConfig* system) {
  if (options.net_jitter > 0) {
    system->network.client_lb.jitter_mean = options.net_jitter;
    system->network.lb_replica.jitter_mean = options.net_jitter;
    system->network.replica_certifier.jitter_mean = options.net_jitter;
    system->network.refresh.jitter_mean = options.net_jitter;
  }
  if (options.net_loss > 0) {
    system->network.refresh.drop_probability = options.net_loss;
  }
  if (options.refresh_batch) system->certifier.refresh_batching = true;
}

/// Span-ring capacity for a run whose trace is exported: every span of the
/// run.  The ring allocates only what it retains (obs/ring.h), so keeping
/// the whole run costs what the trace file holds anyway, and the exported
/// trace starts at the run's start instead of wherever a fixed ring had
/// wrapped to.
inline constexpr size_t kTraceWholeRun = std::numeric_limits<size_t>::max();

/// Copies the observability output options into one run's config, tagging
/// the paths with a per-run label.
inline void ApplyObservability(const BenchOptions& options,
                               const std::string& tag,
                               ExperimentConfig* config) {
  if (!options.metrics_json.empty()) {
    config->metrics_json_path = TaggedPath(options.metrics_json, tag);
  }
  if (!options.trace_json.empty()) {
    config->trace_json_path = TaggedPath(options.trace_json, tag);
    config->system.obs.trace_capacity = kTraceWholeRun;
  }
  if (options.audit) config->audit = true;
  if (!options.audit_json.empty()) {
    config->audit_json_path = TaggedPath(options.audit_json, tag);
  }
  if (options.profile) config->profile = true;
  if (!options.profile_json.empty()) {
    config->profile_json_path = TaggedPath(options.profile_json, tag);
  }
  if (!options.metrics_prom.empty()) {
    config->metrics_prom_path = TaggedPath(options.metrics_prom, tag);
  }
  if (options.health) config->health = true;
  if (!options.health_json.empty()) {
    config->health_json_path = TaggedPath(options.health_json, tag);
  }
  if (!options.timeline_json.empty()) {
    config->timeline_json_path = TaggedPath(options.timeline_json, tag);
  }
  if (options.apply_lanes > 0) {
    config->system.proxy.apply_lanes = options.apply_lanes;
  }
  ApplyNetworkOptions(options, &config->system);
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("(reproduces %s; simulated cluster, shapes comparable, absolute\n",
              paper_ref);
  std::printf(" numbers depend on the simulated service-time model)\n");
  std::printf("================================================================\n");
}

/// "segment=mean_ms ..." over the nonzero segments of one profiled run
/// (population means, so the printed values sum to the mean response).
inline std::string ProfileBreakdownLine(const ProfileSummary& profile) {
  char buf[64];
  std::string out;
  for (int s = 0; s < obs::kProfileSegmentCount; ++s) {
    const double ms = profile.segment_mean_ms[static_cast<size_t>(s)];
    if (ms <= 0) continue;
    std::snprintf(buf, sizeof(buf), "%s%s=%.2f", out.empty() ? "" : " ",
                  obs::ProfileSegmentName(static_cast<obs::ProfileSegment>(s)),
                  ms);
    out += buf;
  }
  return out.empty() ? "(all segments zero)" : out;
}

/// Runs one experiment, aborting the binary on setup failure.
inline ExperimentResult MustRun(const Workload& workload,
                                const ExperimentConfig& config) {
  Result<ExperimentResult> result = RunExperiment(workload, config);
  if (!result.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Collects every run of a driver into the machine-readable BENCH_*.json
/// summary and the end-of-run audit report.  Usage:
///
///   BenchReport report("fig3", options);
///   ... per run: report.Add(tag, MustRun(workload, config));
///   return report.Finish();
///
/// With auditing off this adds nothing to stdout (runs stay
/// byte-identical); with --audit it prints one verdict line per run plus
/// a final summary, and Finish() returns 1 if any run saw a violation.
class BenchReport {
 public:
  BenchReport(std::string driver, const BenchOptions& options)
      : driver_(std::move(driver)), options_(options) {}

  /// Records one run under a per-run tag; returns the result untouched so
  /// callers can keep using it.
  const ExperimentResult& Add(const std::string& tag,
                              const ExperimentResult& result) {
    runs_.emplace_back(tag, result.ToJson());
    if (result.audit.enabled) {
      audited_ = true;
      audit_events_ += result.audit.events;
      audit_checks_ += result.audit.checks;
      audit_violations_ += result.audit.violations;
      if (!result.audit.ok && first_violation_tag_.empty()) {
        first_violation_tag_ = tag;
        first_violation_ = result.audit.first_violation;
      }
      audit_lines_.push_back("  [" + tag + "] " + result.audit.ToString());
    }
    if (result.profile.enabled) {
      profiled_ = true;
      profile_checked_ += result.profile.conservation_checked;
      profile_violations_ += result.profile.conservation_violations;
      if (result.profile.conservation_violations > 0 &&
          first_profile_violation_tag_.empty()) {
        first_profile_violation_tag_ = tag;
        first_profile_violation_ = result.profile.first_violation;
      }
      profile_lines_.push_back("  [" + tag + "] " +
                               ProfileBreakdownLine(result.profile));
    }
    if (result.health.enabled) {
      health_monitored_ = true;
      health_firings_ += result.health.firings;
      health_lines_.push_back("  [" + tag + "] " +
                              result.health.ToString());
    }
    return results_.emplace_back(result);
  }

  /// Writes the BENCH JSON (when requested), prints the end-of-run audit
  /// report, and returns the driver's exit code (1 on any violation).
  int Finish() {
    if (!options_.bench_json.empty()) {
      const std::string path = options_.bench_json == "auto"
                                   ? "BENCH_" + driver_ + ".json"
                                   : options_.bench_json;
      std::ofstream out(path);
      out << "{\"driver\":\"" << driver_ << "\",\"runs\":[";
      for (size_t i = 0; i < runs_.size(); ++i) {
        if (i > 0) out << ",";
        out << "{\"tag\":\"" << runs_[i].first
            << "\",\"result\":" << runs_[i].second << "}";
      }
      out << "]}\n";
      if (!out) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
      }
      std::printf("\nwrote %s (%zu runs)\n", path.c_str(), runs_.size());
    }
    if (audited_) {
      std::printf("\n---- audit report (%zu runs) ----\n", runs_.size());
      for (const std::string& line : audit_lines_) {
        std::printf("%s\n", line.c_str());
      }
      std::printf("events consumed: %lld, checks performed: %lld\n",
                  static_cast<long long>(audit_events_),
                  static_cast<long long>(audit_checks_));
      if (audit_violations_ == 0) {
        std::printf("consistency: OK — no violations in any run\n");
      } else {
        std::printf("consistency: FAILED — %lld violation(s); first in "
                    "run [%s]: %s\n",
                    static_cast<long long>(audit_violations_),
                    first_violation_tag_.c_str(), first_violation_.c_str());
      }
    }
    if (profiled_) {
      std::printf("\n---- critical-path profile (%zu runs; mean ms per "
                  "segment) ----\n", runs_.size());
      for (const std::string& line : profile_lines_) {
        std::printf("%s\n", line.c_str());
      }
      if (profile_violations_ == 0) {
        std::printf("conservation: OK — segments sum to the response time "
                    "on all %lld checked attempt(s)\n",
                    static_cast<long long>(profile_checked_));
      } else {
        std::printf("conservation: FAILED — %lld of %lld checked "
                    "attempt(s); first in run [%s]: %s\n",
                    static_cast<long long>(profile_violations_),
                    static_cast<long long>(profile_checked_),
                    first_profile_violation_tag_.c_str(),
                    first_profile_violation_.c_str());
      }
    }
    if (health_monitored_) {
      std::printf("\n---- health report (%zu runs) ----\n", runs_.size());
      for (const std::string& line : health_lines_) {
        std::printf("%s\n", line.c_str());
      }
      if (health_firings_ == 0) {
        std::printf("health: quiet — no detector fired in any run\n");
      } else {
        std::printf("health: %lld detector firing(s) across runs (see "
                    "per-run lines; not an error for figure drivers)\n",
                    static_cast<long long>(health_firings_));
      }
    }
    return (audit_violations_ > 0 || profile_violations_ > 0) ? 1 : 0;
  }

  const std::vector<ExperimentResult>& results() const { return results_; }

 private:
  std::string driver_;
  const BenchOptions& options_;
  std::vector<std::pair<std::string, std::string>> runs_;  // tag -> json
  std::vector<ExperimentResult> results_;
  bool audited_ = false;
  std::vector<std::string> audit_lines_;
  int64_t audit_events_ = 0;
  int64_t audit_checks_ = 0;
  int64_t audit_violations_ = 0;
  std::string first_violation_tag_;
  std::string first_violation_;
  bool profiled_ = false;
  std::vector<std::string> profile_lines_;
  int64_t profile_checked_ = 0;
  int64_t profile_violations_ = 0;
  std::string first_profile_violation_tag_;
  std::string first_profile_violation_;
  bool health_monitored_ = false;
  std::vector<std::string> health_lines_;
  int64_t health_firings_ = 0;
};

}  // namespace screp::bench

#endif  // SCREP_BENCH_BENCH_UTIL_H_
