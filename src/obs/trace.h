// Per-transaction tracing into a bounded ring buffer.
//
// Each transaction carries its TxnId as the trace id; components emit
// spans for every stage it passes through (lb.route, proxy.start_delay,
// per-statement execution, certifier.certify, certifier.log_force,
// proxy.commit, eager.global_wait).  Timestamps are simulator virtual
// time (already microseconds, the unit Chrome tracing expects), so a
// whole run can be dumped as Chrome trace-event JSON and opened in
// chrome://tracing or Perfetto.
//
// The buffer is a bounded ring (obs/ring.h): when full, the oldest spans
// are overwritten and counted as dropped; until then its storage holds
// only the spans recorded.  A disabled tracer (the default) ignores Add()
// after one branch, so instrumentation can stay in place permanently.

#ifndef SCREP_OBS_TRACE_H_
#define SCREP_OBS_TRACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/ring.h"

namespace screp::obs {

/// Chrome-trace process ids used for the middleware components; replica
/// r maps to kReplicaPidBase + r.
constexpr int32_t kLbPid = 1;
constexpr int32_t kCertifierPid = 2;
constexpr int32_t kReplicaPidBase = 10;

/// One completed span.  Name/category/arg_name must be string literals
/// (spans are recorded on hot paths; no allocation happens per span).
struct TraceSpan {
  const char* name = "";
  const char* category = "";
  int32_t pid = 0;
  /// Chrome-trace thread id; per-transaction spans use the transaction id
  /// so each transaction renders as its own row.
  int64_t tid = 0;
  TimePoint start = 0;
  Duration duration = 0;
  /// Transaction this span belongs to (0 = none, e.g. a group-commit
  /// batch force).
  TxnId txn = 0;
  /// Optional extra argument (statement index, batch size, replica id).
  const char* arg_name = nullptr;
  int64_t arg_value = 0;
};

/// Bounded ring buffer of spans.
class Tracer {
 public:
  /// A live span consumer; sinks see every span, including those the
  /// ring later evicts, and even while the ring itself is disabled.
  using Sink = std::function<void(const TraceSpan&)>;

  explicit Tracer(size_t capacity);

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Whether spans go anywhere at all — the guard instrumentation sites
  /// use to decide if emitting spans is worth the bookkeeping.
  bool active() const { return enabled_ || !sinks_.empty(); }

  /// Subscribes a live consumer (e.g. the critical-path profiler).
  void AddSink(Sink sink) { sinks_.push_back(std::move(sink)); }

  /// Records a span: sinks always see it; the ring retains it only while
  /// enabled.  When the ring is full the oldest span is evicted.
  void Add(const TraceSpan& span);

  /// Names a Chrome-trace process id (emitted as metadata events).
  void SetProcessName(int32_t pid, std::string name);

  /// Spans currently retained, oldest first.
  std::vector<TraceSpan> Spans() const { return ring_.ToVector(); }

  size_t size() const { return ring_.size(); }
  size_t capacity() const { return ring_.capacity(); }
  /// Spans evicted because the ring was full.
  int64_t dropped() const { return ring_.dropped(); }

  /// Discards all recorded spans and the drop count (not the process
  /// names).
  void Clear() { ring_.Clear(); }

  /// The trace as Chrome trace-event JSON (the {"traceEvents":[...]}
  /// object form).
  std::string ToChromeJson() const;

  /// Writes ToChromeJson() to `path`.
  Status WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Sink> sinks_;
  Ring<TraceSpan> ring_;
  std::map<int32_t, std::string> process_names_;
};

}  // namespace screp::obs

#endif  // SCREP_OBS_TRACE_H_
