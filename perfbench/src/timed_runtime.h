// TimedRuntime: a runtime::Runtime decorator that forwards every call to a
// ThreadRuntime and times each callback it runs on the event loop.
//
// The middleware only ever sees the runtime::Runtime interface, so
// wrapping it measures the event loop from outside the program: how many
// callbacks a commit costs, how long each waited past its due time, how
// long it ran, and how much modeled delay was injected through timers
// (Schedule with delay > 0).  Under RealtimeSystemConfig every such delay
// is modeled service time played out on the wall clock.
//
// Threading: Schedule/ScheduleAt/Post may be called from any thread, so
// the timer tallies are atomics; everything a wrapped callback records is
// written on the loop thread only and read after a loop-thread barrier or
// after the runtime stopped.

#ifndef PERFBENCH_TIMED_RUNTIME_H_
#define PERFBENCH_TIMED_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "runtime/thread_runtime.h"
#include "stats.h"

namespace perfbench {

/// Steady-clock nanoseconds (the benchmark's own clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One executed callback, for the trace file.
struct CallbackSpan {
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  int64_t queue_ns = 0;
};

class TimedRuntime final : public screp::runtime::Runtime {
 public:
  /// `spin_ns` > 0 adds a busy-wait of that length to every callback (a
  /// planted loop slowdown the benchmark's own test must detect).
  TimedRuntime(screp::runtime::ThreadRuntime* inner, int64_t spin_ns,
               size_t span_capacity)
      : inner_(inner), spin_ns_(spin_ns), span_capacity_(span_capacity) {}

  TimedRuntime(const TimedRuntime&) = delete;
  TimedRuntime& operator=(const TimedRuntime&) = delete;

  screp::TimePoint Now() const override { return inner_->Now(); }

  void Schedule(screp::Duration delay, Callback fn) override {
    if (delay > 0) NoteTimer(delay);
    inner_->Schedule(delay, Wrap(delay, std::move(fn)));
  }

  void ScheduleAt(screp::TimePoint when, Callback fn) override {
    const screp::Duration delay = when - inner_->Now();
    if (delay > 0) NoteTimer(delay);
    inner_->ScheduleAt(when, Wrap(delay, std::move(fn)));
  }

  void Post(Callback fn) override { inner_->Post(Wrap(0, std::move(fn))); }
  void Spawn(Callback fn) override { inner_->Spawn(std::move(fn)); }
  void Stop() override { inner_->Stop(); }
  bool deterministic() const override { return false; }
  screp::Rng* entropy() override { return inner_->entropy(); }

  /// Loop-thread (or stopped-runtime) view of what the loop did since the
  /// last Reset().
  struct Tally {
    int64_t callbacks = 0;
    int64_t busy_ns = 0;
    int64_t timers = 0;
    int64_t timer_delay_us = 0;
  };
  Tally tally() const {
    Tally t = loop_;
    t.timers = timers_.load(std::memory_order_relaxed);
    t.timer_delay_us = timer_delay_us_.load(std::memory_order_relaxed);
    return t;
  }
  Distribution& queue_delay_us() { return queue_delay_us_; }
  Distribution& callback_us() { return callback_us_; }
  const std::vector<CallbackSpan>& spans() const { return spans_; }

  /// Starts a fresh measurement window.  Call on the loop thread.
  void Reset() {
    loop_ = Tally{};
    timers_.store(0, std::memory_order_relaxed);
    timer_delay_us_.store(0, std::memory_order_relaxed);
    queue_delay_us_ = Distribution();
    callback_us_ = Distribution();
    spans_.clear();
  }

 private:
  void NoteTimer(screp::Duration delay) {
    timers_.fetch_add(1, std::memory_order_relaxed);
    timer_delay_us_.fetch_add(delay, std::memory_order_relaxed);
  }

  Callback Wrap(screp::Duration delay, Callback fn) {
    const int64_t due_ns = NowNs() + (delay > 0 ? delay * 1000 : 0);
    return [this, due_ns, fn = std::move(fn)]() {
      const int64_t start = NowNs();
      fn();
      if (spin_ns_ > 0) {
        while (NowNs() - start < spin_ns_) {
        }
      }
      const int64_t end = NowNs();
      const int64_t queue_ns = start > due_ns ? start - due_ns : 0;
      ++loop_.callbacks;
      loop_.busy_ns += end - start;
      queue_delay_us_.Add(static_cast<double>(queue_ns) / 1e3);
      callback_us_.Add(static_cast<double>(end - start) / 1e3);
      if (spans_.size() < span_capacity_) {
        spans_.push_back({start, end - start, queue_ns});
      }
    };
  }

  screp::runtime::ThreadRuntime* inner_;
  const int64_t spin_ns_;
  const size_t span_capacity_;
  std::atomic<int64_t> timers_{0};
  std::atomic<int64_t> timer_delay_us_{0};
  // Loop-thread only.
  Tally loop_;
  Distribution queue_delay_us_;
  Distribution callback_us_;
  std::vector<CallbackSpan> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_RUNTIME_H_
