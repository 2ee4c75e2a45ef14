// perfbench: the wall-clock benchmark of the replicated middleware.
//
//   perfbench --workload <kv_tcp|tpcw_shopping|kv_eager_writes>
//             --seed N --seconds S --trace <0|1>
//             --server <screp_server binary> --out-dir <dir>
//
// --trace 0 (timed run) prints the end-to-end metrics; tracing and
// auditing are off.  --trace 1 (traced run) prints the per-layer metrics
// and writes the spans to <out-dir>/<workload>.seed<N>.trace.json.
// Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}, and the exit code is
// nonzero when an output check failed.  README.md in this directory
// explains the workloads and what each metric should move.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "inprocess.h"
#include "run_result.h"
#include "tcp.h"

namespace perfbench {
namespace {

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--seed") {
      opt->seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt->seconds = std::stod(value);
    } else if (arg == "--trace") {
      opt->trace = value == "1";
    } else if (arg == "--server") {
      opt->server = value;
    } else if (arg == "--out-dir") {
      opt->out_dir = value;
    } else {
      return false;
    }
  }
  return opt->seconds > 0;
}

void RunInProcessTimed(const WorkloadSpec& spec, const Options& opt,
                       RunResult* result) {
  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cluster;
  for (int i = 0; i < kSetupReps; ++i) {
    cluster.reset();
    const int64_t begin = NowNs();
    cluster = Cluster::Start(spec, ClusterOptions(), opt.seed, result);
    if (!cluster) return;
    setup_s.push_back(static_cast<double>(NowNs() - begin) / 1e9);
  }
  const PhaseStats closed = cluster->RunClosed(opt.seconds);
  cluster->Finish(result);
  PutEndToEnd(closed, std::move(setup_s), PeakRssMb("self"), result);
}

/// The traced in-process part: an untraced closed loop for the tracing
/// overhead, then a traced, audited cluster through a closed and an open
/// loop.  Puts every per-layer metric that is measured in-process and
/// returns the open loop.
PhaseStats RunInProcessTraced(const WorkloadSpec& spec, const Options& opt,
                              double seconds, RunResult* result) {
  double untraced_ops_s = 0;
  {
    auto plain = Cluster::Start(spec, ClusterOptions(), opt.seed, result);
    if (!plain) return {};
    untraced_ops_s = plain->RunClosed(seconds).Throughput();
    plain->Finish(result);
  }
  ClusterOptions traced;
  traced.traced = true;
  auto cluster = Cluster::Start(spec, traced, opt.seed, result);
  if (!cluster) return {};
  cluster->BeginLayerWindow();
  const PhaseStats closed = cluster->RunClosed(seconds);
  cluster->EndBusyWindow();
  PhaseStats open = cluster->RunOpen(seconds, spec.open_rate);
  cluster->Finish(result);
  cluster->PutLayerMetrics(result);

  result->attempted += closed.logical;
  result->failed += closed.logical_failed;
  result->Put("failed_frac",
              static_cast<double>(closed.failed_attempts +
                                  open.failed_attempts) /
                  static_cast<double>(closed.attempts + open.attempts),
              "fraction");
  result->Put("bench.trace_overhead_frac",
              untraced_ops_s > 0 ? 1.0 - closed.Throughput() / untraced_ops_s
                                 : 0.0,
              "fraction");
  const std::string path = opt.out_dir + "/" + spec.name + ".seed" +
                           std::to_string(opt.seed) + ".trace.json";
  if (!cluster->WriteTrace(path)) result->Fail("cannot write " + path);
  return open;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --server PATH --out-dir DIR\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(opt.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
    return 2;
  }
  RunResult result;
  if (!opt.trace) {
    if (spec->tcp) {
      RunTcpTimed(*spec, opt, &result);
    } else {
      RunInProcessTimed(*spec, opt, &result);
    }
  } else if (spec->tcp) {
    // The server's event loop is out of reach, so the middleware layers
    // are measured on an in-process twin: the same RealtimeSystemConfig,
    // kv table and request mix screp_server runs, minus the TCP front end.
    // The latencies are the server's, over TCP.
    PhaseStats open = RunTcpTraced(*spec, opt, opt.seconds / 4, &result);
    PhaseStats twin = RunInProcessTraced(*spec, opt, opt.seconds / 4, &result);
    result.attempted += twin.logical;
    result.failed += twin.logical_failed;
    if (const std::string why = OpenLoopInvalid(twin, spec->open_rate);
        !why.empty()) {
      result.Fail("twin open loop invalid: " + why);
    }
    PutOpenLoop(open, spec->open_rate, &result);
  } else {
    PhaseStats open = RunInProcessTraced(*spec, opt, opt.seconds / 3, &result);
    PutOpenLoop(open, spec->open_rate, &result);
    for (const char* name :
         {"frontend.stmt_rtt_us.p50", "frontend.stmt_rtt_us.p99",
          "frontend.commit_rtt_us.p50", "frontend.commit_rtt_us.p99"}) {
      result.Put(name, 0.0, "us");  // in-process workloads bypass it
    }
  }
  for (const std::string& error : result.errors()) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", error.c_str());
  }
  std::printf("%s\n", result.Json().c_str());
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
