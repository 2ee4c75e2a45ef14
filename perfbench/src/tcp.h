// kv_tcp: the kv micro-benchmark over screp_server's line protocol, driven
// through tools/screp_client from at most `spec.sessions` connections.

#ifndef PERFBENCH_TCP_H_
#define PERFBENCH_TCP_H_

#include "run_result.h"
#include "workloads.h"

namespace perfbench {

/// Timed run: set-up (screp_server start to first PING reply, median of
/// several starts), the closed loop, then the output checks.
void RunTcpTimed(const WorkloadSpec& spec, const Options& opt,
                 RunResult* result);

/// Traced run, front-end part: an audited server through the open loop
/// with every command's round trip timed.  Puts the frontend.* metrics
/// and returns the open loop for the latency metrics.
PhaseStats RunTcpTraced(const WorkloadSpec& spec, const Options& opt,
                        double seconds, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_TCP_H_
