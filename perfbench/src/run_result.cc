#include "run_result.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/rng.h"

namespace perfbench {

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string RunResult::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? ", " : "") << Quote(m.name) << ": {\"value\": "
        << Number(m.value)
        << ", \"unit\": " << Quote(m.unit) << "}";
  }
  out << "}}";
  return out.str();
}

std::string OpenLoopInvalid(PhaseStats& phase, double rate) {
  // A generator that is typically 1 ms late is not offering the schedule
  // it claims to.  (Its tail is host scheduling noise, and every latency
  // is timed from the schedule anyway.)
  if (const auto p50 = phase.gen_late_us.Percentile(0.50); p50 && *p50 > 1000) {
    return "generator fell behind schedule (median " + std::to_string(*p50) +
           " us late)";
  }
  // Backlog at each arrival = arrivals so far minus completions so far.
  auto& sd = phase.sched_done;
  if (sd.size() < 2) return "";
  std::sort(sd.begin(), sd.end());
  std::vector<int64_t> done;
  done.reserve(sd.size());
  for (const auto& p : sd) done.push_back(p.second);
  std::sort(done.begin(), done.end());
  double first = 0, second = 0;
  size_t completed = 0;
  const size_t half = sd.size() / 2;
  for (size_t i = 0; i < sd.size(); ++i) {
    while (completed < done.size() && done[completed] <= sd[i].first) {
      ++completed;
    }
    const double backlog = static_cast<double>(i + 1 - completed);
    (i < half ? first : second) += backlog;
  }
  first /= static_cast<double>(half);
  second /= static_cast<double>(sd.size() - half);
  // A queue that only absorbs stalls stays level; one fed faster than it
  // drains grows with time.  The slack is 50 ms worth of arrivals.
  if (second > 2 * first + 0.05 * rate) {
    return "in-flight backlog grew across the window (mean " +
           std::to_string(first) + " -> " + std::to_string(second) + ")";
  }
  return "";
}

std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate,
                                     double seconds) {
  screp::Rng rng(seed);
  std::vector<int64_t> offsets;
  double t = 0;
  for (;;) {
    t += rng.NextExponential(1e9 / rate);
    if (t >= seconds * 1e9) break;
    offsets.push_back(static_cast<int64_t>(t));
  }
  return offsets;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void PutEndToEnd(const PhaseStats& closed, std::vector<double> setup_s,
                 double peak_rss_mb, RunResult* result) {
  result->attempted += closed.logical;
  result->failed += closed.logical_failed;
  if (peak_rss_mb <= 0) {
    result->Fail("cannot read the middleware host's VmHWM");
  }
  std::fprintf(stderr, "perfbench: %lld commits in %.3f s; %zu set-ups\n",
               static_cast<long long>(closed.commits_in_window),
               closed.window_s, setup_s.size());
  result->Put("throughput_ops_s", closed.Throughput(), "1/s");
  result->Put("setup_s", Median(std::move(setup_s)), "s");
  result->Put("peak_rss_mb", peak_rss_mb, "MB");
}

void PutOpenLoop(PhaseStats& open, double rate, RunResult* result) {
  result->attempted += open.logical;
  result->failed += open.logical_failed;
  if (const std::string why = OpenLoopInvalid(open, rate); !why.empty()) {
    result->Fail("open loop invalid: " + why);
  }
  std::fprintf(stderr, "perfbench: open loop: %lld reads, %lld updates\n",
               static_cast<long long>(open.read_ms.count()),
               static_cast<long long>(open.update_ms.count()));
  result->PutPercentile("read_p50_ms", open.read_ms, 0.50, "ms");
  result->PutPercentile("read_p99_ms", open.read_ms, 0.99, "ms");
  result->PutPercentile("update_p50_ms", open.update_ms, 0.50, "ms");
  result->PutPercentile("update_p99_ms", open.update_ms, 0.99, "ms");
  result->PutPercentile("bench.gen_late_us.p99", open.gen_late_us, 0.99,
                        "us");
}

double PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return -1;
}

}  // namespace perfbench
