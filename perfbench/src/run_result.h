// Shared pieces of one benchmark run: options, the result line, phase
// accounting and the open-loop validity rule.

#ifndef PERFBENCH_RUN_RESULT_H_
#define PERFBENCH_RUN_RESULT_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// screp_server binary (kv_tcp).
  std::string server;
  /// Where trace files and server logs go.
  std::string out_dir = ".";
};

/// The run's verdict and metrics, printed as the last output line.
class RunResult {
 public:
  void Fail(const std::string& why) { errors_.push_back(why); }
  bool correct() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

  void Put(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      Fail(name + " is not a finite number");
      value = 0;
    }
    metrics_.push_back({name, value, unit});
  }
  /// Puts dist's q-quantile; a percentile without enough samples beyond
  /// it fails the run rather than printing a guess.
  void PutPercentile(const std::string& name, Distribution& dist, double q,
                     const std::string& unit) {
    const auto value = dist.Percentile(q);
    if (!value) {
      Fail(name + ": " + std::to_string(dist.count()) +
           " samples are too few for this percentile");
    }
    Put(name, value.value_or(0), unit);
  }

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  std::string Json() const;

  int64_t attempted = 0;
  int64_t failed = 0;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

/// Accounting of one closed- or open-loop phase.  A logical transaction
/// is retried until it commits; `attempts` counts every submission.
struct PhaseStats {
  int64_t logical = 0;
  int64_t logical_failed = 0;
  int64_t attempts = 0;
  int64_t failed_attempts = 0;
  /// Closed loop: commits acknowledged inside the window, and the time
  /// from the first send to the last of them.
  int64_t commits_in_window = 0;
  double window_s = 0;
  /// Open loop: latency from scheduled send to committed ack.
  Distribution read_ms;
  Distribution update_ms;
  /// Open loop: how late the generator sent a request it was free to send.
  Distribution gen_late_us;
  /// Open loop: (scheduled, done) steady-clock ns per logical transaction.
  std::vector<std::pair<int64_t, int64_t>> sched_done;

  double Throughput() const {
    return window_s > 0 ? static_cast<double>(commits_in_window) / window_s
                        : 0.0;
  }
};

/// Attempts before a logical transaction counts as failed.
inline constexpr int kMaxAttempts = 100;

/// Wait before retrying after `failed` aborted attempts: 1 ms doubling to
/// 64 ms.  Retrying at once would spin an abort loop against a writeset
/// held up by a stall, and count that spinning in failed_frac.
inline int64_t RetryBackoffNs(int failed) {
  return int64_t{1'000'000} << std::min(failed - 1, 6);
}

/// Set-ups per timed run; setup_s is their median.  The last one serves
/// the closed loop.
inline constexpr int kSetupReps = 7;

double Median(std::vector<double> values);

/// Puts a timed run's end-to-end metrics: closed-loop throughput, median
/// set-up time and the peak RSS of the process hosting the middleware.
void PutEndToEnd(const PhaseStats& closed, std::vector<double> setup_s,
                 double peak_rss_mb, RunResult* result);

/// Puts the traced run's open-loop metrics: read/update latency p50 and
/// p99 and how late the generator ran; fails the run when the open loop
/// is invalid.
void PutOpenLoop(PhaseStats& open, double rate, RunResult* result);

/// Empty when the open-loop phase is valid; otherwise why its latencies
/// must not be reported: the generator fell behind its schedule, or the
/// in-flight backlog grew across the window (offered load above capacity).
std::string OpenLoopInvalid(PhaseStats& phase, double rate);

/// Arrival offsets (ns from phase start) of a Poisson stream at `rate`/s
/// over `seconds`, drawn from `seed`: equal seeds give equal schedules.
std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate,
                                     double seconds);

/// Peak resident set (VmHWM) of `pid` ("self" for this process), in MB;
/// negative when unreadable.
double PeakRssMb(const std::string& pid);

}  // namespace perfbench

#endif  // PERFBENCH_RUN_RESULT_H_
