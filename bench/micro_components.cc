// Component microbenchmarks (google-benchmark): storage engine point
#include "runtime/sim_runtime.h"
// operations, SQL parse/execute, writeset certification, version
// trackers, and the discrete-event core. These are sanity/ablation
// benches, not paper figures.
//
// `--bench-json[=path]` switches to a self-measured summary mode instead:
// it times indexed certification vs. the linear-scan reference
// (tests/linear_scan_oracle.h) across conflict-window sizes and the
// apply-lane pipeline across lane counts, prints the speedups, and
// writes them as JSON (default BENCH_certifier.json).
//
// `--net-json[=path]` measures the certifier->replica refresh fan-out
// over real channels, batched vs unbatched, and writes the message/byte
// counts as JSON (default BENCH_network.json).
//
// `--hotpath-json[=path]` A/B-measures the three hot paths this repo
// optimizes in place — cached execution plans vs per-call planning,
// zero-copy (frozen-reference) refresh fan-out vs deep-copy batches, and
// arena-backed group-commit WAL appends vs per-record re-encoding — and
// writes the per-path speedups plus a byte-identity verdict as JSON
// (default BENCH_hotpath.json).
//
// `--shard-sweep[=path]` measures partitioned certification: certified
// throughput (in simulated time, so the numbers are deterministic) of a
// shard-disjoint update stream at K = 1, 2, 4, 8 certifier lanes, plus
// an audited end-to-end run at K = 4 with partial replication.  Writes
// BENCH_shards.json and fails unless K = 4 reaches the scaling floor and
// the audit is clean.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>

#include "common/rng.h"
#include "core/table_version_tracker.h"
#include "net/channel.h"
#include "replication/certifier.h"
#include "replication/proxy.h"
#include "workload/experiment.h"
#include "workload/micro.h"
#include "sim/simulator.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/plan.h"
#include "storage/database.h"
#include "storage/transaction.h"
#include "storage/wal.h"
#include "tests/linear_scan_oracle.h"

namespace screp {
namespace {

std::unique_ptr<Database> MakeDb(int rows) {
  auto db = std::make_unique<Database>();
  auto id = db->CreateTable("item", Schema({{"i_id", ValueType::kInt64},
                                            {"i_val", ValueType::kInt64},
                                            {"i_pad", ValueType::kString}}));
  SCREP_CHECK(id.ok());
  const std::string pad(100, 'x');
  for (int64_t k = 0; k < rows; ++k) {
    SCREP_CHECK(db->BulkLoad(*id, {Value(k), Value(k), Value(pad)}).ok());
  }
  return db;
}

void BM_StorageGet(benchmark::State& state) {
  auto db = MakeDb(10000);
  const TableId t = *db->FindTable("item");
  auto txn = db->Begin();
  int64_t key = 0;
  for (auto _ : state) {
    auto row = txn->Get(t, key);
    benchmark::DoNotOptimize(row);
    key = (key + 7919) % 10000;
  }
}
BENCHMARK(BM_StorageGet);

void BM_StorageInsertCommit(benchmark::State& state) {
  auto db = MakeDb(0);
  const TableId t = *db->FindTable("item");
  int64_t key = 0;
  const std::string pad(100, 'x');
  for (auto _ : state) {
    auto txn = db->Begin();
    SCREP_CHECK(txn->Insert(t, {Value(key), Value(key), Value(pad)}).ok());
    WriteSet ws = txn->BuildWriteSet();
    ws.commit_version = db->CommittedVersion() + 1;
    SCREP_CHECK(db->ApplyWriteSet(ws).ok());
    ++key;
  }
}
BENCHMARK(BM_StorageInsertCommit);

void BM_StorageScan1000(benchmark::State& state) {
  auto db = MakeDb(1000);
  const TableId t = *db->FindTable("item");
  auto txn = db->Begin();
  for (auto _ : state) {
    int64_t sum = 0;
    txn->Scan(t, [&](int64_t key, const Row&) {
      sum += key;
      return true;
    });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_StorageScan1000);

void BM_SqlParse(benchmark::State& state) {
  const std::string text =
      "SELECT i_id, i_val FROM item WHERE i_id BETWEEN ? AND ? ORDER BY "
      "i_val DESC LIMIT 20";
  for (auto _ : state) {
    auto ast = sql::Parse(text);
    benchmark::DoNotOptimize(ast);
  }
}
BENCHMARK(BM_SqlParse);

void BM_SqlPointSelect(benchmark::State& state) {
  auto db = MakeDb(10000);
  auto stmt = sql::PreparedStatement::Prepare(
      *db, "SELECT i_val FROM item WHERE i_id = ?");
  SCREP_CHECK(stmt.ok());
  auto txn = db->Begin();
  int64_t key = 0;
  for (auto _ : state) {
    auto rs = sql::Execute(txn.get(), **stmt, {Value(key)});
    benchmark::DoNotOptimize(rs);
    key = (key + 7919) % 10000;
  }
}
BENCHMARK(BM_SqlPointSelect);

void BM_SqlUpdate(benchmark::State& state) {
  auto db = MakeDb(10000);
  auto stmt = sql::PreparedStatement::Prepare(
      *db, "UPDATE item SET i_val = i_val + ? WHERE i_id = ?");
  SCREP_CHECK(stmt.ok());
  auto txn = db->Begin();
  int64_t key = 0;
  for (auto _ : state) {
    auto rs = sql::Execute(txn.get(), **stmt, {Value(1), Value(key)});
    benchmark::DoNotOptimize(rs);
    key = (key + 7919) % 10000;
  }
}
BENCHMARK(BM_SqlUpdate);

void BM_WriteSetConflictCheck(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<WriteSet> committed(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    committed[static_cast<size_t>(i)].Add(0, i, WriteType::kUpdate,
                                          Row{Value(i)});
  }
  WriteSet probe;
  probe.Add(0, -1, WriteType::kUpdate, Row{Value(-1)});
  for (auto _ : state) {
    bool conflict = false;
    for (const WriteSet& ws : committed) {
      conflict |= probe.ConflictsWith(ws);
    }
    benchmark::DoNotOptimize(conflict);
  }
}
BENCHMARK(BM_WriteSetConflictCheck)->Arg(64)->Arg(1024);

void BM_WriteSetEncodeDecode(benchmark::State& state) {
  WriteSet ws;
  for (int64_t i = 0; i < 8; ++i) {
    ws.Add(0, i, WriteType::kUpdate,
           Row{Value(i), Value(std::string(100, 'x'))});
  }
  for (auto _ : state) {
    std::string buf;
    ws.EncodeTo(&buf);
    WriteSet decoded;
    size_t offset = 0;
    SCREP_CHECK(WriteSet::DecodeFrom(buf, &offset, &decoded));
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_WriteSetEncodeDecode);

void BM_TableVersionTracker(benchmark::State& state) {
  TableVersionTracker tracker(10);
  std::vector<TableId> table_set = {2, 5, 7};
  DbVersion v = 0;
  for (auto _ : state) {
    tracker.OnCommit(++v, {static_cast<TableId>(v % 10)});
    benchmark::DoNotOptimize(tracker.RequiredVersion(table_set));
  }
}
BENCHMARK(BM_TableVersionTracker);

void BM_SimulatorEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    runtime::SimRuntime rt{&sim};
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(i, [&fired] { ++fired; });
    }
    sim.RunAll();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_SimulatorEventLoop);

void BM_CertifierThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    runtime::SimRuntime rt{&sim};
    Certifier certifier(&rt, CertifierConfig{}, 4, /*eager=*/false);
    int decisions = 0;
    certifier.SetDecisionCallback(
        [&decisions](ReplicaId, const CertDecision&) { ++decisions; });
    certifier.SetRefreshCallback(
        [](ShardId, ReplicaId, const RefreshBatch&) {});
    for (TxnId t = 1; t <= 500; ++t) {
      WriteSet ws;
      ws.txn_id = t;
      ws.origin = static_cast<ReplicaId>(t % 4);
      ws.snapshot_version = static_cast<DbVersion>(t) - 1;
      ws.Add(0, static_cast<int64_t>(t), WriteType::kUpdate,
             Row{Value(static_cast<int64_t>(t))});
      certifier.SubmitCertification(std::move(ws));
    }
    sim.RunAll();
    SCREP_CHECK(decisions == 500);
    benchmark::DoNotOptimize(decisions);
  }
}
BENCHMARK(BM_CertifierThroughput);

// A certifier (or the linear-scan reference) with its conflict window
// pre-filled with distinct-key commits, fed probe writesets whose
// snapshots sit at the far edge of the window — the linear scan must
// rescan the entire window per decision while the indexed path does
// O(|writeset|) lookups.
class CertifierHarness {
 public:
  CertifierHarness(size_t window, bool linear_scan, int ws_size)
      : ws_size_(ws_size), window_(static_cast<DbVersion>(window)) {
    CertifierConfig config;
    config.conflict_window = window;
    if (linear_scan) {
      oracle_ = std::make_unique<LinearScanOracle>(config.mode, window);
    } else {
      certifier_ = std::make_unique<Certifier>(&rt_, config, 4,
                                               /*eager=*/false);
      certifier_->SetDecisionCallback([](ReplicaId, const CertDecision&) {});
      certifier_->SetRefreshCallback(
          [](ShardId, ReplicaId, const RefreshBatch&) {});
    }
    for (size_t i = 0; i < window; ++i) Submit(CommitVersion());
    sim_.RunAll();
    SCREP_CHECK((oracle_ ? oracle_->abort_count()
                         : certifier_->abort_count()) == 0);
  }

  /// Submits and decides `count` non-conflicting probes.  Probe i is
  /// certified at commit version v+i with snapshot v+i-window: the oldest
  /// snapshot that escapes the conservative window abort, so the whole
  /// window is eligible for conflicts.
  void RunProbes(int count) {
    const DbVersion v = CommitVersion();
    for (int i = 0; i < count; ++i) {
      Submit(v - window_ + static_cast<DbVersion>(i));
    }
    sim_.RunAll();
    SCREP_CHECK((oracle_ ? oracle_->window_abort_count()
                         : certifier_->window_abort_count()) == 0);
  }

 private:
  DbVersion CommitVersion() const {
    return oracle_ ? oracle_->CommitVersion() : certifier_->CommitVersion();
  }

  void Submit(DbVersion snapshot) {
    WriteSet ws;
    ws.txn_id = next_txn_++;
    ws.origin = 0;
    ws.snapshot_version = snapshot;
    for (int i = 0; i < ws_size_; ++i) {
      ws.Add(0, next_key_++, WriteType::kUpdate, Row{Value(int64_t{1})});
    }
    if (oracle_) {
      oracle_->Decide(ws);
    } else {
      certifier_->SubmitCertification(std::move(ws));
    }
  }

  Simulator sim_;
  runtime::SimRuntime rt_{&sim_};
  std::unique_ptr<Certifier> certifier_;
  std::unique_ptr<LinearScanOracle> oracle_;
  int ws_size_;
  DbVersion window_;
  TxnId next_txn_ = 1;
  int64_t next_key_ = 0;
};

void BM_CertifierDecisionIndexed(benchmark::State& state) {
  CertifierHarness harness(static_cast<size_t>(state.range(0)),
                           /*linear_scan=*/false,
                           static_cast<int>(state.range(1)));
  for (auto _ : state) harness.RunProbes(32);
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_CertifierDecisionIndexed)
    ->Args({1024, 2})
    ->Args({1024, 8})
    ->Args({4096, 8})
    ->Args({16384, 8})
    ->Args({4096, 32});

void BM_CertifierDecisionLinearScan(benchmark::State& state) {
  CertifierHarness harness(static_cast<size_t>(state.range(0)),
                           /*linear_scan=*/true,
                           static_cast<int>(state.range(1)));
  for (auto _ : state) harness.RunProbes(32);
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_CertifierDecisionLinearScan)
    ->Args({1024, 2})
    ->Args({1024, 8})
    ->Args({4096, 8})
    ->Args({16384, 8})
    ->Args({4096, 32});

// One proxy fed a backlog of distinct-key refresh writesets under a
// deterministic service-time model; the interesting number is the
// *simulated* makespan, which shrinks as lanes are added.
class ApplyLaneHarness {
 public:
  ApplyLaneHarness(int lanes, int64_t refreshes) : refreshes_(refreshes) {
    auto table = db_.CreateTable(
        "t", Schema({{"id", ValueType::kInt64}, {"val", ValueType::kInt64}}));
    SCREP_CHECK(table.ok());
    table_ = *table;
    for (int64_t k = 0; k < refreshes; ++k) {
      SCREP_CHECK(db_.BulkLoad(table_, {Value(k), Value(int64_t{0})}).ok());
    }
    ProxyConfig config;
    config.apply_lanes = lanes;
    config.cpu_cores = 16;        // lanes, not cores, are the bottleneck
    config.service_spread = 0.0;  // deterministic apply cost
    config.stall_probability = 0.0;
    proxy_ = std::make_unique<Proxy>(&rt_, 0, &db_, &registry_, config,
                                     /*eager=*/false);
    proxy_->SetCertRequestCallback([](const WriteSet&) {});
    proxy_->SetResponseCallback([](const TxnResponse&) {});
    proxy_->SetReplicaCommittedCallback([](TxnId) {});
  }

  /// Feeds the whole refresh backlog at time 0 and returns the simulated
  /// makespan of applying (and publishing) all of it.
  SimTime Run() {
    for (int64_t i = 0; i < refreshes_; ++i) {
      WriteSet ws;
      ws.txn_id = static_cast<TxnId>(1000 + i);
      ws.origin = 1;
      ws.commit_version = i + 1;
      ws.Add(table_, i, WriteType::kUpdate, Row{Value(i), Value(int64_t{1})});
      proxy_->OnRefresh(ws);
    }
    sim_.RunAll();
    SCREP_CHECK(proxy_->v_local() == refreshes_);
    return sim_.Now();
  }

 private:
  Simulator sim_;
  runtime::SimRuntime rt_{&sim_};
  Database db_;
  TableId table_ = -1;
  sql::TransactionRegistry registry_;
  std::unique_ptr<Proxy> proxy_;
  int64_t refreshes_;
};

void BM_ApplyLaneMakespan(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  SimTime makespan = 0;
  for (auto _ : state) {
    ApplyLaneHarness harness(lanes, 256);
    makespan = harness.Run();
    benchmark::DoNotOptimize(makespan);
  }
  state.counters["sim_makespan_ms"] =
      static_cast<double>(makespan) / 1000.0;
}
BENCHMARK(BM_ApplyLaneMakespan)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// ---------------------------------------------------------------------
// --bench-json summary mode.

double MeasureDecisionsPerSec(size_t window, bool linear_scan, int ws_size,
                              int probes) {
  CertifierHarness harness(window, linear_scan, ws_size);
  const auto start = std::chrono::steady_clock::now();
  harness.RunProbes(probes);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return probes / std::max(elapsed.count(), 1e-9);
}

int RunBenchJson(const std::string& path) {
  std::string json = "{\"driver\":\"micro_components\",\"certifier\":[";
  std::printf("certifier decision throughput (indexed vs linear-scan "
              "oracle, ws_size=8)\n");
  std::printf("%10s %14s %14s %9s\n", "window", "indexed/s", "linear/s",
              "speedup");
  bool first = true;
  double speedup_at_4096 = 0.0;
  for (const size_t window : {size_t{1024}, size_t{4096}, size_t{16384}}) {
    // The linear scan is O(window) per decision: shrink its probe count
    // with the window to keep the run short.
    const int linear_probes =
        std::max(128, static_cast<int>((1 << 21) / window));
    const double indexed =
        MeasureDecisionsPerSec(window, /*linear_scan=*/false, 8, 8192);
    const double linear = MeasureDecisionsPerSec(window, /*linear_scan=*/true,
                                                 8, linear_probes);
    const double speedup = indexed / linear;
    if (window == 4096) speedup_at_4096 = speedup;
    std::printf("%10zu %14.0f %14.0f %8.1fx\n", window, indexed, linear,
                speedup);
    if (!first) json += ",";
    first = false;
    json += "{\"window\":" + std::to_string(window) +
            ",\"ws_size\":8,\"indexed_per_sec\":" +
            std::to_string(indexed) +
            ",\"linear_per_sec\":" + std::to_string(linear) +
            ",\"speedup\":" + std::to_string(speedup) + "}";
  }
  json += "],\"apply_lanes\":[";
  std::printf("\napply-lane pipeline (256 distinct-key refreshes, "
              "simulated makespan)\n");
  std::printf("%10s %14s %9s\n", "lanes", "makespan_ms", "speedup");
  SimTime serial_makespan = 0;
  first = true;
  for (const int lanes : {1, 2, 4, 8}) {
    ApplyLaneHarness harness(lanes, 256);
    const SimTime makespan = harness.Run();
    if (lanes == 1) serial_makespan = makespan;
    const double speedup = static_cast<double>(serial_makespan) /
                           static_cast<double>(makespan);
    std::printf("%10d %14.2f %8.2fx\n", lanes,
                static_cast<double>(makespan) / 1000.0, speedup);
    if (!first) json += ",";
    first = false;
    json += "{\"lanes\":" + std::to_string(lanes) + ",\"makespan_ms\":" +
            std::to_string(static_cast<double>(makespan) / 1000.0) +
            ",\"speedup_vs_serial\":" + std::to_string(speedup) + "}";
  }
  json += "]}\n";
  std::ofstream out(path);
  out << json;
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", path.c_str());
  if (speedup_at_4096 < 5.0) {
    std::fprintf(stderr,
                 "FAIL: indexed certification only %.1fx faster than the "
                 "linear-scan oracle at window 4096 (expected >= 5x)\n",
                 speedup_at_4096);
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------
// --net-json: refresh fan-out over real channels, batched vs unbatched.

struct FanOutResult {
  int64_t messages = 0;   // RefreshBatch messages across all targets
  int64_t bytes = 0;      // modelled wire bytes across all targets
  int64_t writesets = 0;  // writeset copies delivered to proxies
};

/// Drives one certifier through `txns` back-to-back distinct-key commits
/// (so group commits carry batches larger than one) with the refresh
/// fan-out wired over per-target channels, and returns the message and
/// byte counts the channels observed.
FanOutResult MeasureFanOut(bool batching, int replicas, int txns) {
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  FanOutResult out;
  CertifierConfig config;
  config.refresh_batching = batching;
  Certifier certifier(&rt, config, replicas, /*eager=*/false);
  certifier.SetDecisionCallback([](ReplicaId, const CertDecision&) {});
  std::vector<std::unique_ptr<net::Channel<RefreshBatch>>> channels;
  for (int r = 0; r < replicas; ++r) {
    auto ch = std::make_unique<net::Channel<RefreshBatch>>(
        &rt, "fanout.r" + std::to_string(r), net::LinkConfig{Micros(120)},
        static_cast<uint64_t>(r) + 1);
    ch->SetSizeFn(
        [](const RefreshBatch& b) { return b.SerializedBytes(); });
    ch->SetHandler([&out](const RefreshBatch& b) {
      out.writesets += static_cast<int64_t>(b.writesets.size());
    });
    channels.push_back(std::move(ch));
  }
  certifier.SetRefreshCallback(
      [&channels](ShardId, ReplicaId target, const RefreshBatch& batch) {
        channels[static_cast<size_t>(target)]->Send(batch);
      });
  for (TxnId t = 1; t <= static_cast<TxnId>(txns); ++t) {
    WriteSet ws;
    ws.txn_id = t;
    ws.origin = static_cast<ReplicaId>(t % replicas);
    ws.snapshot_version = static_cast<DbVersion>(t) - 1;
    ws.Add(0, static_cast<int64_t>(t), WriteType::kUpdate,
           Row{Value(static_cast<int64_t>(t))});
    certifier.SubmitCertification(std::move(ws));
  }
  sim.RunAll();
  for (const auto& ch : channels) {
    out.messages += ch->stats().sent;
    out.bytes += ch->stats().bytes;
  }
  return out;
}

int RunNetJson(const std::string& path) {
  constexpr int kReplicas = 4;
  constexpr int kTxns = 2000;
  const FanOutResult unbatched = MeasureFanOut(false, kReplicas, kTxns);
  const FanOutResult batched = MeasureFanOut(true, kReplicas, kTxns);
  std::printf("refresh fan-out, %d replicas, %d back-to-back commits "
              "(group commit batches the log forces)\n",
              kReplicas, kTxns);
  std::printf("%12s %10s %12s %11s %12s\n", "mode", "messages", "bytes",
              "writesets", "ws/message");
  const auto print_row = [](const char* mode, const FanOutResult& r) {
    std::printf("%12s %10lld %12lld %11lld %12.2f\n", mode,
                static_cast<long long>(r.messages),
                static_cast<long long>(r.bytes),
                static_cast<long long>(r.writesets),
                static_cast<double>(r.writesets) /
                    static_cast<double>(r.messages));
  };
  print_row("unbatched", unbatched);
  print_row("batched", batched);
  const double message_reduction =
      static_cast<double>(unbatched.messages) /
      static_cast<double>(batched.messages);
  std::printf("message reduction: %.1fx\n", message_reduction);

  std::ofstream out(path);
  out << "{\"driver\":\"micro_components_network\",\"replicas\":"
      << kReplicas << ",\"txns\":" << kTxns << ",\"unbatched\":{\"messages\":"
      << unbatched.messages << ",\"bytes\":" << unbatched.bytes
      << ",\"writesets\":" << unbatched.writesets
      << "},\"batched\":{\"messages\":" << batched.messages
      << ",\"bytes\":" << batched.bytes << ",\"writesets\":"
      << batched.writesets << "},\"message_reduction\":"
      << message_reduction << "}\n";
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());

  // Self-checks: batching must not change what the proxies receive, and
  // must strictly shrink the message (and thus framing-byte) count.
  if (batched.writesets != unbatched.writesets ||
      unbatched.writesets !=
          static_cast<int64_t>(kTxns) * (kReplicas - 1)) {
    std::fprintf(stderr, "FAIL: writeset delivery mismatch\n");
    return 1;
  }
  if (batched.messages >= unbatched.messages ||
      batched.bytes >= unbatched.bytes) {
    std::fprintf(stderr,
                 "FAIL: batching did not reduce refresh messages/bytes\n");
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------
// --hotpath-json: A/B of the three optimized hot paths.

/// Statements executed per second with the plan cache on or off (off is
/// exactly the original per-call planning path).
double MeasurePlanCache(bool cached, int iters) {
  sql::SetPlanCacheEnabled(cached);
  auto db = MakeDb(10000);
  auto select = sql::PreparedStatement::Prepare(
      *db, "SELECT i_val FROM item WHERE i_id = ?");
  auto update = sql::PreparedStatement::Prepare(
      *db, "UPDATE item SET i_val = i_val + ? WHERE i_id = ?");
  SCREP_CHECK(select.ok() && update.ok());
  auto txn = db->Begin();
  int64_t key = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    auto rs = sql::Execute(txn.get(), **select, {Value(key)});
    SCREP_CHECK(rs.ok() && rs->rows.size() == 1);
    auto ru = sql::Execute(txn.get(), **update, {Value(1), Value(key)});
    SCREP_CHECK(ru.ok() && ru->rows_affected == 1);
    key = (key + 7919) % 10000;
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  sql::SetPlanCacheEnabled(true);
  return 2.0 * iters / std::max(elapsed.count(), 1e-9);
}

/// Builds `count` committed-looking writesets (8 ops, 100-byte pads) as
/// frozen refs.
std::vector<WriteSetRef> MakeFrozenWritesets(int count) {
  std::vector<WriteSetRef> frozen;
  const std::string pad(100, 'x');
  for (int i = 0; i < count; ++i) {
    WriteSet ws;
    ws.txn_id = static_cast<TxnId>(i + 1);
    ws.origin = static_cast<ReplicaId>(i % 4);
    ws.snapshot_version = static_cast<DbVersion>(i);
    ws.commit_version = static_cast<DbVersion>(i + 1);
    for (int64_t k = 0; k < 8; ++k) {
      ws.Add(0, i * 8 + k, WriteType::kUpdate, Row{Value(k), Value(pad)});
    }
    frozen.push_back(std::make_shared<const WriteSet>(std::move(ws)));
  }
  return frozen;
}

/// The pre-zero-copy fan-out batch: deep writeset copies and a wire size
/// recomputed by walking every row image.
struct LegacyBatch {
  std::vector<WriteSet> writesets;
  size_t SerializedBytes() const {
    size_t total = 8;
    for (const WriteSet& ws : writesets) total += ws.SerializedBytesUncached();
    return total;
  }
};

/// Writesets fanned out per second: assemble one batch per target from
/// the force batch, then model the channel's send copy and wire-size
/// query — deep copies + re-walked sizes (legacy) vs refcount bumps +
/// memoized sizes (optimized).
double MeasureFanOutAssembly(bool zero_copy, int targets, int iters) {
  const std::vector<WriteSetRef> frozen = MakeFrozenWritesets(64);
  size_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    for (int r = 0; r < targets; ++r) {
      if (zero_copy) {
        RefreshBatch batch;
        batch.writesets.reserve(frozen.size());
        for (const WriteSetRef& ws : frozen) batch.writesets.push_back(ws);
        RefreshBatch delivered = batch;  // Channel::Send copies the message
        sink += delivered.SerializedBytes();
      } else {
        LegacyBatch batch;
        batch.writesets.reserve(frozen.size());
        for (const WriteSetRef& ws : frozen) batch.writesets.push_back(*ws);
        LegacyBatch delivered = batch;
        sink += delivered.SerializedBytes();
      }
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  SCREP_CHECK(sink > 0);
  return static_cast<double>(iters) * targets * frozen.size() /
         std::max(elapsed.count(), 1e-9);
}

/// Group-commit WAL appends per second.  Legacy: encode every record into
/// a fresh temporary, buffer it, concatenate on force.  Optimized: the
/// real Wal appending each writeset's encode arena as the force lands.
double MeasureWalAppend(bool arena, int iters) {
  const std::vector<WriteSetRef> frozen = MakeFrozenWritesets(64);
  size_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    if (arena) {
      Wal wal;
      for (const WriteSetRef& ws : frozen) wal.Append(*ws);
      sink += wal.DurableBytes();
    } else {
      std::vector<std::string> buffered;
      std::string durable;
      for (size_t k = 0; k + 1 < frozen.size(); ++k) {
        std::string rec;
        frozen[k]->EncodeTo(&rec);
        buffered.push_back(std::move(rec));
      }
      std::string rec;
      frozen.back()->EncodeTo(&rec);
      for (const std::string& b : buffered) durable += b;
      durable += rec;
      sink += durable.size();
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  SCREP_CHECK(sink > 0);
  return static_cast<double>(iters) * frozen.size() /
         std::max(elapsed.count(), 1e-9);
}

/// Byte-identity checks over randomized writesets: the memoized size must
/// equal the re-walked size through arbitrary mutate/query interleavings,
/// the encode arena must hold exactly EncodeTo's bytes, and a WAL fed
/// from arenas must be byte-identical to one built by per-record
/// encoding.
bool CheckByteIdentity() {
  Rng rng(42);
  Wal arena_wal;
  std::string legacy_durable;
  for (int i = 0; i < 200; ++i) {
    WriteSet ws;
    ws.txn_id = static_cast<TxnId>(i + 1);
    ws.origin = static_cast<ReplicaId>(rng.NextBounded(4));
    ws.snapshot_version = rng.NextBounded(1000);
    const int ops = 1 + static_cast<int>(rng.NextBounded(12));
    for (int k = 0; k < ops; ++k) {
      Row row;
      const int cols = 1 + static_cast<int>(rng.NextBounded(3));
      for (int c = 0; c < cols; ++c) {
        switch (rng.NextBounded(3)) {
          case 0: row.push_back(Value(static_cast<int64_t>(rng.Next()))); break;
          case 1: row.push_back(Value(rng.NextDouble())); break;
          default:
            row.push_back(Value(std::string(rng.NextBounded(64), 'y')));
        }
      }
      // Interleave size queries with mutations so the memo's invalidation
      // is exercised, including coalescing rewrites of the same key.
      ws.Add(0, static_cast<int64_t>(rng.NextBounded(8)), WriteType::kUpdate,
             std::move(row));
      if (rng.NextBool(0.5) &&
          ws.SerializedBytes() != ws.SerializedBytesUncached()) {
        return false;
      }
    }
    // The certifier stamps the commit version after sizes may have been
    // queried — the arena must notice.
    ws.commit_version = static_cast<DbVersion>(i + 1);
    if (ws.SerializedBytes() != ws.SerializedBytesUncached()) return false;
    std::string fresh;
    ws.EncodeTo(&fresh);
    if (ws.EncodedBytes() != fresh) return false;
    if (ws.EncodedBytes().size() != ws.SerializedBytes()) return false;
    arena_wal.Append(ws);
    legacy_durable += fresh;
  }
  std::vector<WriteSet> replay;
  if (!arena_wal.ReadAll(&replay).ok() || replay.size() != 200) return false;
  std::string arena_durable;
  for (const WriteSet& ws : replay) ws.EncodeTo(&arena_durable);
  return arena_durable == legacy_durable &&
         arena_wal.DurableBytes() == legacy_durable.size();
}

int RunHotpathJson(const std::string& path) {
  struct PathResult {
    const char* name;
    double base_per_sec;
    double opt_per_sec;
    double speedup() const { return opt_per_sec / base_per_sec; }
  };
  std::printf("hot-path A/B (optimized vs pre-optimization behavior)\n");
  const PathResult results[] = {
      {"plan_cache", MeasurePlanCache(false, 200000),
       MeasurePlanCache(true, 200000)},
      {"writeset_encode", MeasureFanOutAssembly(false, 4, 2000),
       MeasureFanOutAssembly(true, 4, 2000)},
      {"group_commit_wal", MeasureWalAppend(false, 5000),
       MeasureWalAppend(true, 5000)},
  };
  const bool byte_identity = CheckByteIdentity();
  std::printf("%18s %14s %14s %9s\n", "path", "base/s", "opt/s", "speedup");
  std::string json = "{\"driver\":\"micro_components_hotpath\",\"paths\":{";
  bool first = true;
  double max_speedup = 0.0;
  for (const PathResult& r : results) {
    std::printf("%18s %14.0f %14.0f %8.2fx\n", r.name, r.base_per_sec,
                r.opt_per_sec, r.speedup());
    max_speedup = std::max(max_speedup, r.speedup());
    if (!first) json += ",";
    first = false;
    json += "\"" + std::string(r.name) +
            "\":{\"base_per_sec\":" + std::to_string(r.base_per_sec) +
            ",\"opt_per_sec\":" + std::to_string(r.opt_per_sec) +
            ",\"speedup\":" + std::to_string(r.speedup()) + "}";
  }
  json += "},\"byte_identity\":";
  json += byte_identity ? "true" : "false";
  json += "}\n";
  std::printf("byte identity (memo vs fresh encode, WAL bytes): %s\n",
              byte_identity ? "OK" : "FAIL");
  std::ofstream out(path);
  out << json;
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  if (!byte_identity) {
    std::fprintf(stderr, "FAIL: memoized serialization diverged from the "
                         "fresh encoder\n");
    return 1;
  }
  if (max_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: no hot path reached a 2x speedup (best %.2fx)\n",
                 max_speedup);
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------
// --shard-sweep: partitioned certification scaling in K.

/// Certified throughput, in simulated time, of `txns` shard-disjoint
/// single-table updates (round-robin over eight tables, all keys
/// distinct) through a K-lane certifier.  K = 1 is the single stream a
/// default configuration runs.  Simulated time makes the sweep
/// deterministic: the bottleneck is the per-lane certify CPU and WAL
/// force stream, which is precisely what partitioning splits.
double MeasureCertifiedTps(int lanes, int txns) {
  constexpr size_t kSweepTables = 8;
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  const CertifierConfig config;
  int64_t decisions = 0;
  int64_t aborted = 0;
  auto on_decision = [&](ReplicaId, const CertDecision& d) {
    ++decisions;
    if (!d.commit) ++aborted;
  };
  Certifier certifier(&rt, config, /*replica_count=*/4, /*eager=*/false,
                      ShardMap(kSweepTables, lanes));
  certifier.SetDecisionCallback(on_decision);
  certifier.SetRefreshCallback([](ShardId, ReplicaId, const RefreshBatch&) {});
  for (TxnId t = 1; t <= static_cast<TxnId>(txns); ++t) {
    WriteSet ws;
    ws.txn_id = t;
    ws.origin = static_cast<ReplicaId>(t % 4);
    ws.snapshot_version = 0;
    ws.Add(static_cast<TableId>(t % kSweepTables), static_cast<int64_t>(t),
           WriteType::kUpdate, Row{Value(static_cast<int64_t>(t))});
    certifier.SubmitCertification(std::move(ws));
  }
  sim.RunAll();
  SCREP_CHECK(decisions == txns);
  SCREP_CHECK(aborted == 0);
  const double seconds = static_cast<double>(sim.Now()) / 1e6;
  return txns / std::max(seconds, 1e-9);
}

int RunShardSweep(const std::string& path) {
  constexpr int kTxns = 4096;
  std::printf("partitioned certification sweep (shard-disjoint stream, "
              "%d txns, simulated time)\n",
              kTxns);
  std::printf("%8s %18s %9s\n", "lanes", "certified_tps", "speedup");
  std::string json = "{\"driver\":\"micro_components_shards\",\"sweep\":[";
  double single = 0.0;
  double speedup_at_4 = 0.0;
  bool first = true;
  for (const int lanes : {1, 2, 4, 8}) {
    const double tps = MeasureCertifiedTps(lanes, kTxns);
    if (lanes == 1) single = tps;
    const double speedup = tps / single;
    if (lanes == 4) speedup_at_4 = speedup;
    std::printf("%8d %18.0f %8.2fx\n", lanes, tps, speedup);
    if (!first) json += ",";
    first = false;
    json += "{\"lanes\":" + std::to_string(lanes) +
            ",\"certified_per_sec\":" + std::to_string(tps) +
            ",\"speedup_vs_single\":" + std::to_string(speedup) + "}";
  }

  // End-to-end: K = 4 with partial replication (each replica hosts two
  // of the four shards), audited.  The sweep is only honest if the
  // partitioned path still produces 1SR-equivalent histories.
  MicroConfig micro;
  micro.rows_per_table = 200;
  micro.update_fraction = 0.5;
  const MicroWorkload workload(micro);
  ExperimentConfig config;
  config.system.level = ConsistencyLevel::kLazyFine;
  config.system.replica_count = 4;
  config.system.certifier.shard_lanes = 4;
  config.system.hosted_shards = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  config.client_count = 8;
  config.warmup = Seconds(0.5);
  config.duration = Seconds(2);
  config.seed = 7;
  config.audit = true;
  auto result = RunExperiment(workload, config);
  SCREP_CHECK_MSG(result.ok(), result.status().ToString());
  const bool audit_ok = result->audit.enabled && result->audit.ok;
  std::printf("e2e lanes=4 partial replication: committed=%lld audit=%s "
              "(%lld checks)\n",
              static_cast<long long>(result->committed),
              audit_ok ? "ok" : "VIOLATION",
              static_cast<long long>(result->audit.checks));

  json += "],\"e2e\":{\"lanes\":4,\"committed\":" +
          std::to_string(result->committed) +
          ",\"audit_checks\":" + std::to_string(result->audit.checks) +
          ",\"audit_ok\":";
  json += audit_ok ? "true" : "false";
  json += "}}\n";
  std::ofstream out(path);
  out << json;
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  if (!audit_ok) {
    std::fprintf(stderr, "FAIL: K=4 partial-replication run is not "
                         "audit-clean\n");
    return 1;
  }
  if (speedup_at_4 < 2.5) {
    std::fprintf(stderr,
                 "FAIL: 4-lane certification only %.2fx the single-stream "
                 "throughput (floor 2.5x)\n",
                 speedup_at_4);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace screp

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--bench-json=", 13) == 0) {
      return screp::RunBenchJson(argv[i] + 13);
    }
    if (std::strcmp(argv[i], "--bench-json") == 0) {
      return screp::RunBenchJson("BENCH_certifier.json");
    }
    if (std::strncmp(argv[i], "--net-json=", 11) == 0) {
      return screp::RunNetJson(argv[i] + 11);
    }
    if (std::strcmp(argv[i], "--net-json") == 0) {
      return screp::RunNetJson("BENCH_network.json");
    }
    if (std::strncmp(argv[i], "--hotpath-json=", 15) == 0) {
      return screp::RunHotpathJson(argv[i] + 15);
    }
    if (std::strcmp(argv[i], "--hotpath-json") == 0) {
      return screp::RunHotpathJson("BENCH_hotpath.json");
    }
    if (std::strncmp(argv[i], "--shard-sweep=", 14) == 0) {
      return screp::RunShardSweep(argv[i] + 14);
    }
    if (std::strcmp(argv[i], "--shard-sweep") == 0) {
      return screp::RunShardSweep("BENCH_shards.json");
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
