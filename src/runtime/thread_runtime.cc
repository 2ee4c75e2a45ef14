#include "runtime/thread_runtime.h"

#include <mutex>
#include <random>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/logging.h"

namespace screp::runtime {

namespace {
uint64_t DrawSystemSeed() {
  std::random_device rd;
  return (static_cast<uint64_t>(rd()) << 32) ^ rd();
}

/// Puts every thread of the process on glibc's main malloc arena.  The
/// system is usually built (schema, bulk load) on the caller's thread and
/// then rewritten row by row on the loop thread.  With per-thread arenas
/// each rewritten row leaves a hole in the builder's arena that the loop
/// thread cannot reuse and grows the loop's arena instead, so resident
/// memory climbs with run length until every row has been rewritten once.
/// One arena reuses those holes; the loop does nearly all the allocating
/// anyway, and per-thread caches keep small allocations off the arena
/// lock.  Only threads that start afterwards are affected.
void ShareOneMallocArena() {
#if defined(__GLIBC__)
  static std::once_flag once;
  std::call_once(once, []() { mallopt(M_ARENA_MAX, 1); });
#endif
}
}  // namespace

ThreadRuntime::ThreadRuntime(ThreadRuntimeConfig config)
    : config_(config),
      start_(std::chrono::steady_clock::now()),
      entropy_(config.entropy_seed != 0 ? config.entropy_seed
                                        : DrawSystemSeed()) {
  SCREP_CHECK(config_.worker_threads >= 0);
  ShareOneMallocArena();
  workers_.reserve(static_cast<size_t>(config_.worker_threads));
  for (int i = 0; i < config_.worker_threads; ++i) {
    workers_.emplace_back([this]() { WorkerMain(); });
  }
  loop_thread_ = std::thread([this]() { LoopMain(); });
}

ThreadRuntime::~ThreadRuntime() { Stop(); }

TimePoint ThreadRuntime::Now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void ThreadRuntime::EnqueueLocked(TimePoint due, Callback fn) {
  queue_.push(TimedEvent{due, next_seq_++, std::move(fn)});
}

void ThreadRuntime::Schedule(Duration delay, Callback fn) {
  if (delay < 0) delay = 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_ && Now() + delay > drain_deadline_) {
    ++discarded_;
    return;
  }
  EnqueueLocked(Now() + delay, std::move(fn));
  cv_.notify_all();
}

void ThreadRuntime::ScheduleAt(TimePoint when, Callback fn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_ && when > drain_deadline_) {
    ++discarded_;
    return;
  }
  EnqueueLocked(when, std::move(fn));
  cv_.notify_all();
}

void ThreadRuntime::Post(Callback fn) { Schedule(0, std::move(fn)); }

void ThreadRuntime::Spawn(Callback fn) {
  SCREP_CHECK_MSG(config_.worker_threads > 0,
                  "ThreadRuntime::Spawn with no worker threads");
  {
    std::lock_guard<std::mutex> lock(spawn_mu_);
    SCREP_CHECK_MSG(!spawn_closed_, "ThreadRuntime::Spawn after Stop");
    spawn_queue_.push_back(std::move(fn));
  }
  spawn_cv_.notify_one();
}

void ThreadRuntime::LoopMain() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (queue_.empty()) {
      if (draining_) break;
      cv_.wait(lock, [this]() { return !queue_.empty() || draining_; });
      continue;
    }
    const TimePoint due = queue_.top().due;
    const TimePoint now = Now();
    if (draining_ && due > drain_deadline_) {
      // Everything left is beyond the drain window: discard in bulk.
      // (The queue is due-ordered, so the top being late means all are.)
      while (!queue_.empty()) {
        queue_.pop();
        ++discarded_;
      }
      break;
    }
    if (due > now) {
      // Wait until the event is due or an earlier one / drain arrives.
      cv_.wait_for(lock, std::chrono::microseconds(due - now));
      continue;
    }
    // Due: pop and run outside the lock so the callback can schedule.
    Callback fn = std::move(const_cast<TimedEvent&>(queue_.top()).fn);
    queue_.pop();
    ++executed_;
    lock.unlock();
    fn();
    lock.lock();
  }
  loop_done_ = true;
  cv_.notify_all();
}

void ThreadRuntime::WorkerMain() {
  std::unique_lock<std::mutex> lock(spawn_mu_);
  for (;;) {
    spawn_cv_.wait(lock,
                   [this]() { return !spawn_queue_.empty() || spawn_closed_; });
    if (spawn_queue_.empty()) {
      if (spawn_closed_) return;
      continue;
    }
    Callback fn = std::move(spawn_queue_.front());
    spawn_queue_.pop_front();
    lock.unlock();
    fn();
    lock.lock();
  }
}

void ThreadRuntime::Stop() {
  {
    std::lock_guard<std::mutex> stop_lock(stop_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    drain_deadline_ = Now() + config_.drain_grace;
    cv_.notify_all();
  }
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(spawn_mu_);
    spawn_closed_ = true;
  }
  spawn_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

uint64_t ThreadRuntime::executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return executed_;
}

uint64_t ThreadRuntime::discarded_on_stop() const {
  std::lock_guard<std::mutex> lock(mu_);
  return discarded_;
}

bool ThreadRuntime::stopped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

}  // namespace screp::runtime
