// Allocation footprint of the observability layer and of a wall-clock
// system at setup.  A counting global operator new/delete (this file is
// its own executable, so no other test sees it) records how many bytes
// each region allocates and how many of them it still owns at the end:
//
//   - the default ObsConfig{} must cost a few KiB, not the span and event
//     rings' configured capacities;
//   - an enabled log with a huge capacity owns only what it retains;
//   - ReplicatedSystem::Create for the kv_tcp server configuration stays
//     under a measured bound.
//
// Bytes are counted with malloc_usable_size, so the numbers include the
// allocator's rounding; the sanitizer runtimes round differently, which
// the bounds leave room for.

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "obs/observability.h"
#include "replication/system.h"
#include "runtime/sim_runtime.h"
#include "sim/simulator.h"
#include "workload/realtime.h"

namespace {

std::atomic<int64_t> g_allocations{0};
std::atomic<int64_t> g_allocated_bytes{0};
std::atomic<int64_t> g_live_bytes{0};

void* CountedAlloc(size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  const auto usable = static_cast<int64_t>(malloc_usable_size(p));
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(usable, std::memory_order_relaxed);
  g_live_bytes.fetch_add(usable, std::memory_order_relaxed);
  return p;
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }

namespace screp {
namespace {

constexpr int64_t kKiB = 1024;
constexpr int64_t kMiB = 1024 * kKiB;

/// What a region allocated: calls, bytes, and bytes still owned at the
/// end (allocated minus freed within the region).
struct Footprint {
  int64_t allocations = 0;
  int64_t allocated_bytes = 0;
  int64_t owned_bytes = 0;
};

class FootprintMeter {
 public:
  FootprintMeter()
      : allocations_(g_allocations.load()),
        allocated_(g_allocated_bytes.load()),
        live_(g_live_bytes.load()) {}

  Footprint Read() const {
    return {g_allocations.load() - allocations_,
            g_allocated_bytes.load() - allocated_,
            g_live_bytes.load() - live_};
  }

 private:
  int64_t allocations_;
  int64_t allocated_;
  int64_t live_;
};

TEST(ObsFootprintTest, CounterSeesHeapAllocations) {
  FootprintMeter meter;
  auto block = std::make_unique<char[]>(100 * kKiB);
  const Footprint held = meter.Read();
  EXPECT_EQ(held.allocations, 1);
  EXPECT_GE(held.owned_bytes, 100 * kKiB);
  block.reset();
  EXPECT_LT(meter.Read().owned_bytes, 1 * kKiB);
}

TEST(ObsFootprintTest, DefaultObservabilityAllocatesAlmostNothing) {
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  FootprintMeter meter;
  auto obs = std::make_unique<obs::Observability>(&rt, obs::ObsConfig{});
  const Footprint fp = meter.Read();
  std::printf("ObsConfig{}: %lld allocations, %lld bytes\n",
              static_cast<long long>(fp.allocations),
              static_cast<long long>(fp.allocated_bytes));
  // The rings' default capacities are 1 << 16 each: allocated eagerly
  // they would be ~24 MB here.
  EXPECT_LT(fp.allocated_bytes, 64 * kKiB);
  EXPECT_EQ(obs->tracer()->capacity(), size_t{1} << 16);
  EXPECT_EQ(obs->event_log()->capacity(), size_t{1} << 16);
}

TEST(ObsFootprintTest, EnabledLogOwnsOnlyWhatItRetains) {
  FootprintMeter meter;
  auto log = std::make_unique<obs::EventLog>(size_t{1} << 20);
  log->set_enabled(true);
  for (TxnId t = 1; t <= 100; ++t) {
    obs::Event e;
    e.kind = obs::EventKind::kCertVerdict;
    e.txn = t;
    e.detail = "ww";
    log->Append(std::move(e));
  }
  EXPECT_EQ(log->size(), 100u);
  EXPECT_EQ(log->capacity(), size_t{1} << 20);
  const Footprint fp = meter.Read();
  // 1 << 20 value-initialized events would be ~320 MB.
  EXPECT_LT(fp.owned_bytes, 1 * kMiB);
  EXPECT_LT(fp.allocated_bytes, 1 * kMiB);

  log.reset();
  EXPECT_LT(meter.Read().owned_bytes, 1 * kKiB);
}

TEST(ObsFootprintTest, EnabledTracerOwnsOnlyWhatItRetains) {
  FootprintMeter meter;
  auto tracer = std::make_unique<obs::Tracer>(size_t{1} << 20);
  tracer->set_enabled(true);
  for (int64_t i = 0; i < 100; ++i) tracer->Add({.name = "s", .start = i});
  EXPECT_EQ(tracer->size(), 100u);
  EXPECT_LT(meter.Read().owned_bytes, 64 * kKiB);
}

// The kv_tcp server's system: RealtimeSystemConfig(2, LSC) over the
// 10k-row kv grid, observability off.  Measured on x86-64 glibc
// (RelWithDebInfo): 4.26 MiB allocated in 62 889 calls, 4.04 MiB still
// owned after Create.  With the span and event rings allocated eagerly
// it was ~28 MiB.  The bounds leave ~2x for allocator and sanitizer
// differences and still catch either ring coming back.
TEST(ObsFootprintTest, KvTcpSystemCreateStaysUnderItsBound) {
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  KvGridWorkload workload(KvGridConfig{});
  const SystemConfig config =
      RealtimeSystemConfig(/*replicas=*/2, ConsistencyLevel::kLazyCoarse);

  FootprintMeter meter;
  auto system_or = ReplicatedSystem::Create(
      &rt, config, [&](Database* db) { return workload.BuildSchema(db); },
      [&](const Database& db, sql::TransactionRegistry* reg) {
        return workload.DefineTransactions(db, reg);
      });
  ASSERT_TRUE(system_or.ok()) << system_or.status().ToString();
  const Footprint fp = meter.Read();
  std::printf("kv_tcp Create: %lld allocations, %.2f MiB allocated, "
              "%.2f MiB owned\n",
              static_cast<long long>(fp.allocations),
              static_cast<double>(fp.allocated_bytes) / kMiB,
              static_cast<double>(fp.owned_bytes) / kMiB);
  EXPECT_LT(fp.allocations, 128'000);
  EXPECT_LT(fp.allocated_bytes, 8 * kMiB);
  EXPECT_LT(fp.owned_bytes, 8 * kMiB);
}

}  // namespace
}  // namespace screp
