// SimRuntime: the deterministic Runtime backend, wrapping the
// discrete-event simulator.
//
// Every Runtime call delegates 1:1 to the wrapped Simulator, so a system
// built over SimRuntime schedules exactly the event sequence the
// pre-seam code did — default-config bench output is byte-identical, and
// the auditor / profiler / regression-gate infrastructure keeps its
// determinism.  Post() and Spawn() degrade to immediate events: there is
// one thread, and "as soon as possible" is a zero-delay event in FIFO
// order.

#ifndef SCREP_RUNTIME_SIM_RUNTIME_H_
#define SCREP_RUNTIME_SIM_RUNTIME_H_

#include <memory>

#include "runtime/runtime.h"
#include "sim/simulator.h"

namespace screp::runtime {

class SimRuntime : public Runtime {
 public:
  /// Owns a fresh Simulator.
  SimRuntime() : owned_(std::make_unique<Simulator>()), sim_(owned_.get()) {}

  /// Wraps an externally-owned Simulator (the harness/test drives it).
  explicit SimRuntime(Simulator* sim) : sim_(sim) {}

  /// The wrapped simulator — the harness drives the event loop through
  /// it (RunUntil/RunAll/Step).
  Simulator* sim() { return sim_; }
  const Simulator* sim() const { return sim_; }

  TimePoint Now() const override { return sim_->Now(); }

  void Schedule(Duration delay, Callback fn) override {
    sim_->Schedule(delay, std::move(fn));
  }

  void ScheduleAt(TimePoint when, Callback fn) override {
    sim_->ScheduleAt(when, std::move(fn));
  }

  void Post(Callback fn) override { sim_->Schedule(0, std::move(fn)); }

  void Spawn(Callback fn) override { sim_->Schedule(0, std::move(fn)); }

  /// The deterministic backend cannot "drain" — the harness must have run
  /// the queue dry (StopSampling exists precisely so it can).  A
  /// non-empty queue at Stop() is a harness bug: some daemon would leak
  /// its continuation.
  void Stop() override {
    SCREP_CHECK_MSG(sim_->Empty(),
                    "SimRuntime::Stop with " << sim_->PendingEvents()
                                             << " pending event(s)");
  }

  bool deterministic() const override { return true; }

  Rng* entropy() override { return &entropy_; }

  /// Reseeds the runtime entropy stream (deterministic by default).
  void SeedEntropy(uint64_t seed) { entropy_.Seed(seed); }

 private:
  std::unique_ptr<Simulator> owned_;  // null when wrapping external
  Simulator* sim_;
  Rng entropy_{0x52554e54494d45ULL};  // "RUNTIME"
};

}  // namespace screp::runtime

#endif  // SCREP_RUNTIME_SIM_RUNTIME_H_
