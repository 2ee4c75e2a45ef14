// In-process driver: the replicated system on a ThreadRuntime in this
// process, fed by the calling thread through Runtime::Post — the same
// ingress screp_server's connection threads use.
//
// One generator thread (the caller) runs every session.  A closed loop
// keeps each session's next transaction back until the previous one is
// acknowledged; an open loop sends on a seeded Poisson schedule and times
// each transaction from its scheduled send.  Aborted attempts are retried
// until they commit.

#ifndef PERFBENCH_INPROCESS_H_
#define PERFBENCH_INPROCESS_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "run_result.h"
#include "timed_runtime.h"
#include "workloads.h"

namespace perfbench {

struct ClusterOptions {
  /// Wrap the runtime in TimedRuntime, attach the online auditor and
  /// record per-request layer samples.
  bool traced = false;
  /// Test hooks: a busy-wait added to every loop callback (a planted
  /// loop slowdown), and every N-th attempt answered kOverloaded without
  /// reaching the system (a planted failure).
  int64_t spin_ns = 0;
  int64_t plant_overload_every = 0;
};

/// Per-layer samples built from committed responses (traced clusters).
struct LayerSamples {
  Distribution lb_dispatch_us;
  Distribution version_us;
  Distribution exec_us;
  Distribution commit_us;
  Distribution sync_us;       ///< updates
  Distribution certify_us;    ///< updates
  Distribution global_us;     ///< updates
  Distribution unattributed_us;
  Distribution handoff_us;
  /// Committed attempts whose stages exceed the loop-side response time.
  int64_t negative_residuals = 0;
};

/// One committed request, for the trace file (runtime-clock µs).
struct RequestSpan {
  screp::TxnId txn = 0;
  bool read_only = true;
  screp::TimePoint submit = 0;
  screp::TimePoint start = 0;
  screp::TimePoint ack = 0;
  screp::StageTimes stages;
};

class Cluster {
 public:
  /// Creates runtime and system and serves one request through them; the
  /// time this takes is the workload's set-up time.  Null on failure,
  /// with the reason recorded in `result`.
  static std::unique_ptr<Cluster> Start(const WorkloadSpec& spec,
                                        const ClusterOptions& options,
                                        uint64_t seed, RunResult* result);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  PhaseStats RunClosed(double seconds);
  PhaseStats RunOpen(double seconds, double rate);

  /// Traced clusters: starts the TimedRuntime window over the phases.
  void BeginLayerWindow();
  /// Traced clusters: closes the loop-busy window (closed loop).
  void EndBusyWindow();
  /// Traced clusters: puts every per-layer metric measured in-process.
  void PutLayerMetrics(RunResult* result);

  /// Drains outstanding work, stops the runtime and runs the output
  /// checks: one response per attempt, update commits equal
  /// certifier.certified, every replica's tables equal replica 0's, and
  /// (traced) zero audit violations and stage conservation.
  void Finish(RunResult* result);

  /// Writes the request and callback spans as a Chrome trace file.
  bool WriteTrace(const std::string& path) const;

 private:
  struct Completion {
    int session = 0;
    screp::TxnResponse response;
    screp::TimePoint ack_rt = 0;
    int64_t ack_ns = 0;
  };
  struct Session {
    std::unique_ptr<screp::TxnGenerator> gen;
    screp::TxnSpec spec;
    bool busy = false;
    int attempts = 0;
    int64_t sched_ns = 0;  ///< when the logical transaction was due
    int64_t post_ns = 0;   ///< when the current attempt was posted
    std::deque<int64_t> queued;  ///< open loop: arrivals waiting
  };

  Cluster(const WorkloadSpec& spec, const ClusterOptions& options,
          uint64_t seed);

  /// Adds `count` sessions; returns the first index.
  int AddSessions(int count);
  void NewTxn(int s, int64_t sched_ns, PhaseStats* phase);
  void PostAttempt(int s);
  /// Loop thread: the system's client callback.
  void OnResponse(const screp::TxnResponse& r);
  /// Waits for completions until `until_ns` (0 = until at least one).
  std::vector<Completion> Wait(int64_t until_ns);
  /// Posts the retries that are due; returns when the next one is (0 if
  /// none is waiting).
  int64_t PumpRetries();
  /// Accounts one completion; true when the logical transaction is done
  /// (committed or given up), false when a retry was scheduled.
  bool Account(const Completion& c, PhaseStats* phase);
  /// Runs `fn` on the loop thread and waits for it.
  void OnLoop(const std::function<void()>& fn);

  const WorkloadSpec& spec_;
  const ClusterOptions options_;
  screp::Rng rng_;
  std::unique_ptr<screp::runtime::ThreadRuntime> thread_rt_;
  std::unique_ptr<TimedRuntime> timed_rt_;
  screp::runtime::Runtime* rt_ = nullptr;
  std::unique_ptr<screp::ReplicatedSystem> system_;
  std::vector<Session> sessions_;
  /// Aborted attempts waiting out their backoff: (due ns, session).
  std::priority_queue<std::pair<int64_t, int>,
                      std::vector<std::pair<int64_t, int>>, std::greater<>>
      retries_;
  bool stopped_ = false;

  // Generator-thread state.
  int64_t attempts_posted_ = 0;
  int64_t committed_ = 0;
  int64_t committed_updates_ = 0;
  screp::DbVersion max_commit_version_ = 0;
  bool recording_ = false;
  LayerSamples layers_;
  std::vector<RequestSpan> request_spans_;
  TimedRuntime::Tally busy_window_;
  int64_t busy_window_ns_ = 0;
  int64_t busy_window_start_ns_ = 0;
  TimedRuntime::Tally layer_window_;
  int64_t layer_window_commits_ = 0;
  int64_t layer_window_start_commits_ = 0;
  /// Runtime clock minus steady clock, µs (for the trace file).
  int64_t rt_offset_us_ = 0;

  // Read from the stopped system by Finish().
  std::map<std::string, int64_t> counters_;
  int64_t audit_checks_ = 0;
  int64_t audit_violations_ = 0;
  int64_t peak_pending_ = 0;

  // Loop-thread state.
  std::unordered_map<screp::TxnId, int> outstanding_;
  int64_t stray_responses_ = 0;

  // Loop -> generator handoff.
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Completion> completions_;
  /// Set with each push, cleared with each take (lets Wait spin lock-free).
  std::atomic<int> pending_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_INPROCESS_H_
