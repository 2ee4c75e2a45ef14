// The benchmark's own tests: the percentile rule, open-loop validity, and
// that the end-to-end metrics see planted faults — an overloaded response
// in failed_frac, an event-loop slowdown in throughput_ops_s.
//
// Build and run:
//   cmake --build <build> --target perfbench_test && <build>/perfbench_test

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "inprocess.h"
#include "run_result.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Percentile, RequiresTenSamplesBeyond) {
  Distribution d;
  for (int i = 1; i <= 999; ++i) d.Add(i);
  // Rank ceil(0.99 * 999) = 990 leaves 9 samples beyond it.
  EXPECT_FALSE(d.Percentile(0.99).has_value());
  d.Add(1000);
  // Rank 990 of 1000 leaves exactly 10.
  ASSERT_TRUE(d.Percentile(0.99).has_value());
  EXPECT_EQ(*d.Percentile(0.99), 990);

  Distribution small;
  for (int i = 1; i <= 19; ++i) small.Add(i);
  EXPECT_FALSE(small.Percentile(0.5).has_value());
  small.Add(20);
  ASSERT_TRUE(small.Percentile(0.5).has_value());
  EXPECT_EQ(*small.Percentile(0.5), 10);
}

TEST(Percentile, MissingPercentileFailsTheRun) {
  Distribution d;
  for (int i = 0; i < 50; ++i) d.Add(i);
  RunResult result;
  result.PutPercentile("x_p99", d, 0.99, "ms");
  EXPECT_FALSE(result.correct());
}

TEST(OpenLoop, SameSeedSameSchedule) {
  EXPECT_EQ(PoissonSchedule(7, 1000, 1), PoissonSchedule(7, 1000, 1));
  EXPECT_NE(PoissonSchedule(7, 1000, 1), PoissonSchedule(8, 1000, 1));
  const auto arrivals = PoissonSchedule(7, 1000, 2).size();
  EXPECT_GT(arrivals, 1800u);
  EXPECT_LT(arrivals, 2200u);
}

TEST(OpenLoop, GrowingBacklogIsInvalid) {
  // 1000 arrivals, 1 ms apart.  Served in 100 µs: valid.  Served at half
  // the arrival rate: the backlog grows and the run is invalid.
  PhaseStats keeps_up;
  PhaseStats falls_behind;
  for (int64_t i = 0; i < 1000; ++i) {
    const int64_t sched = i * 1'000'000;
    keeps_up.sched_done.emplace_back(sched, sched + 100'000);
    falls_behind.sched_done.emplace_back(sched, (i + 1) * 2'000'000);
  }
  EXPECT_EQ(OpenLoopInvalid(keeps_up, 1000), "");
  EXPECT_NE(OpenLoopInvalid(falls_behind, 1000), "");

  PhaseStats late;
  for (int i = 0; i < 1000; ++i) late.gen_late_us.Add(20000);
  EXPECT_NE(OpenLoopInvalid(late, 1000), "");
}

TEST(PlantedFailure, OverloadedResponsesShowInFailedFrac) {
  const WorkloadSpec* spec = FindWorkload("kv_tcp");  // run in-process here
  ASSERT_NE(spec, nullptr);
  ClusterOptions options;
  options.plant_overload_every = 10;
  RunResult result;
  auto cluster = Cluster::Start(*spec, options, 1, &result);
  ASSERT_NE(cluster, nullptr);
  const PhaseStats phase = cluster->RunClosed(0.5);
  cluster->Finish(&result);
  EXPECT_TRUE(result.correct());
  EXPECT_EQ(phase.logical_failed, 0);
  const double failed_frac = static_cast<double>(phase.failed_attempts) /
                             static_cast<double>(phase.attempts);
  EXPECT_GT(failed_frac, 0.09);
  EXPECT_LT(failed_frac, 0.11);
}

/// The throughput_ops_s bound from BENCHMARK.json.
double ThroughputBound() {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  std::stringstream text;
  text << in.rdbuf();
  const std::string s = text.str();
  const size_t metric = s.find("\"throughput_ops_s\"");
  const size_t bound = s.find("\"bound\":", metric);
  if (metric == std::string::npos || bound == std::string::npos) return -1;
  return std::stod(s.substr(bound + 8));
}

TEST(PlantedSlowdown, BusyLoopLowersThroughputBeyondTheBound) {
  const double bound = ThroughputBound();
  ASSERT_GT(bound, 0);
  const WorkloadSpec* spec = FindWorkload("kv_eager_writes");
  ASSERT_NE(spec, nullptr);
  auto throughput = [&](int64_t spin_ns) {
    ClusterOptions options;
    options.spin_ns = spin_ns;
    RunResult result;
    auto cluster = Cluster::Start(*spec, options, 1, &result);
    EXPECT_NE(cluster, nullptr);
    const double ops = cluster->RunClosed(2.0).Throughput();
    cluster->Finish(&result);
    EXPECT_TRUE(result.correct());
    return ops;
  };
  const double base = throughput(0);
  const double slowed = throughput(50'000);
  EXPECT_LT(slowed, base * (1.0 - bound))
      << "base " << base << " ops/s, slowed " << slowed << " ops/s";
}

}  // namespace
}  // namespace perfbench
