// Property tests for the keyed conflict index: the certifier must make
// exactly the decisions of the linear-scan reference
// (linear_scan_oracle.h) — same verdicts, same commit versions, same
// counters, same conflict attribution (version, transaction and
// ww/rw/window reason) — over randomized workloads that exercise
// write-write conflicts, serializable read-key and read-range conflicts,
// and conservative window aborts, at one lane and across three.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "linear_scan_oracle.h"
#include "obs/observability.h"
#include "replication/certifier.h"
#include "runtime/sim_runtime.h"

namespace screp {
namespace {

/// A certifier under a simulator, recording its decisions and verdict
/// events.
struct Harness {
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  std::unique_ptr<obs::Observability> obs;
  std::unique_ptr<Certifier> certifier;
  std::vector<CertDecision> decisions;
  obs::Event last_verdict;

  Harness(CertifierConfig config, ShardMap map) {
    obs::ObsConfig obs_config;
    obs_config.event_log = true;
    obs = std::make_unique<obs::Observability>(&rt, obs_config);
    obs->event_log()->AddSink([this](const obs::Event& e) {
      SCREP_CHECK(e.kind == obs::EventKind::kCertVerdict);
      last_verdict = e;
    });
    certifier = std::make_unique<Certifier>(&rt, config, 3, /*eager=*/false,
                                            std::move(map));
    certifier->SetDecisionCallback(
        [this](ReplicaId, const CertDecision& decision) {
          decisions.push_back(decision);
        });
    certifier->SetRefreshCallback(
        [](ShardId, ReplicaId, const RefreshBatch&) {});
    certifier->SetObservability(obs.get());
  }

  /// Submits one writeset and processes it to its decision (its verdict
  /// event is then `last_verdict`).
  const CertDecision& Decide(const WriteSet& ws) {
    certifier->SubmitCertification(ws);
    sim.RunAll();
    SCREP_CHECK(!decisions.empty() && decisions.back().txn_id == ws.txn_id);
    SCREP_CHECK(last_verdict.txn == ws.txn_id);
    return decisions.back();
  }
};

class CertifierOracleTest : public ::testing::Test {
 protected:
  void Build(CertifierConfig config) {
    certifier_ = std::make_unique<Harness>(config, ShardMap(0, 1));
    oracle_ = std::make_unique<LinearScanOracle>(config.mode,
                                                 config.conflict_window);
  }

  /// Lockstep: the certifier and the reference decide the identical
  /// writeset; verdict, commit version and attribution must agree.
  void Submit(const WriteSet& ws) {
    const CertDecision& decision = certifier_->Decide(ws);
    const LinearScanOracle::Verdict want = oracle_->Decide(ws);
    ASSERT_EQ(decision.commit, want.commit) << "txn " << ws.txn_id;
    EXPECT_EQ(decision.commit_version, want.commit_version)
        << "txn " << ws.txn_id;
    const obs::Event& verdict = certifier_->last_verdict;
    EXPECT_EQ(verdict.txn, ws.txn_id);
    EXPECT_EQ(verdict.committed, want.commit);
    EXPECT_EQ(verdict.commit_version, want.commit_version);
    if (want.commit) return;
    ++aborts_seen_;
    // The heart of the property: aborts blame the identical committed
    // version, transaction and reason either way.
    EXPECT_EQ(verdict.conflict_version, want.conflict_version)
        << "txn " << ws.txn_id;
    EXPECT_EQ(verdict.conflict_txn, want.conflict_txn) << "txn " << ws.txn_id;
    EXPECT_EQ(verdict.detail, want.reason) << "txn " << ws.txn_id;
  }

  /// Builds one random writeset against the current commit version:
  /// small key space (to make conflicts common), random snapshot lag
  /// (sometimes beyond the window), and — when `with_reads` — random
  /// read keys and read ranges for the serializable mode.
  WriteSet RandomWs(Rng* rng, bool with_reads, int max_lag) {
    const DbVersion v = oracle_->CommitVersion();
    WriteSet ws;
    ws.txn_id = next_txn_++;
    ws.origin = static_cast<ReplicaId>(rng->NextInRange(0, 2));
    ws.snapshot_version =
        std::max<DbVersion>(0, v - rng->NextInRange(0, max_lag));
    const int ops = static_cast<int>(rng->NextInRange(1, 4));
    for (int i = 0; i < ops; ++i) {
      const TableId table = static_cast<TableId>(rng->NextInRange(0, 2));
      const int64_t key = rng->NextInRange(0, 199);
      ws.Add(table, key, WriteType::kUpdate, Row{Value(key), Value(0)});
    }
    if (with_reads) {
      const int reads = static_cast<int>(rng->NextInRange(0, 3));
      for (int i = 0; i < reads; ++i) {
        ws.read_keys.emplace_back(static_cast<TableId>(rng->NextInRange(0, 2)),
                                  rng->NextInRange(0, 199));
      }
      if (rng->NextBool(0.4)) {
        const int64_t lo = rng->NextInRange(0, 180);
        ws.read_ranges.push_back(
            ReadRange{static_cast<TableId>(rng->NextInRange(0, 2)), lo,
                      lo + rng->NextInRange(0, 30)});
      }
    }
    return ws;
  }

  /// The certifier's counters agree with the reference's.
  void ExpectIdenticalCounters() {
    const Certifier& c = *certifier_->certifier;
    EXPECT_EQ(c.CommitVersion(), oracle_->CommitVersion());
    EXPECT_EQ(c.certified_count(), oracle_->certified_count());
    EXPECT_EQ(c.abort_count(), oracle_->abort_count());
    EXPECT_EQ(c.rw_abort_count(), oracle_->rw_abort_count());
    EXPECT_EQ(c.window_abort_count(), oracle_->window_abort_count());
  }

  std::unique_ptr<Harness> certifier_;
  std::unique_ptr<LinearScanOracle> oracle_;
  TxnId next_txn_ = 1;
  int aborts_seen_ = 0;
};

TEST_F(CertifierOracleTest, GsiRandomizedWorkloadMatchesOracle) {
  CertifierConfig config;
  config.conflict_window = 64;  // small: window aborts actually occur
  Build(config);
  Rng rng(20260806);
  for (int i = 0; i < 1500; ++i) {
    Submit(RandomWs(&rng, /*with_reads=*/false, /*max_lag=*/80));
    if (HasFatalFailure()) return;
  }
  ExpectIdenticalCounters();
  // The workload must actually have exercised the abort paths.
  const Certifier& c = *certifier_->certifier;
  EXPECT_GT(aborts_seen_, 0);
  EXPECT_GT(c.window_abort_count(), 0);
  EXPECT_GT(c.abort_count(), c.window_abort_count());
}

TEST_F(CertifierOracleTest, SerializableRandomizedWorkloadMatchesOracle) {
  CertifierConfig config;
  config.conflict_window = 64;
  config.mode = CertificationMode::kSerializable;
  Build(config);
  Rng rng(987654321);
  for (int i = 0; i < 1500; ++i) {
    Submit(RandomWs(&rng, /*with_reads=*/true, /*max_lag=*/80));
    if (HasFatalFailure()) return;
  }
  ExpectIdenticalCounters();
  EXPECT_GT(aborts_seen_, 0);
  // Read-write (including read-range) conflicts must have occurred.
  EXPECT_GT(certifier_->certifier->rw_abort_count(), 0);
}

TEST_F(CertifierOracleTest, LargeWindowNoWindowAborts) {
  CertifierConfig config;
  config.conflict_window = 4096;
  Build(config);
  Rng rng(7);
  for (int i = 0; i < 800; ++i) {
    Submit(RandomWs(&rng, /*with_reads=*/false, /*max_lag=*/40));
    if (HasFatalFailure()) return;
  }
  ExpectIdenticalCounters();
  EXPECT_EQ(certifier_->certifier->window_abort_count(), 0);
  // The index prunes with the window, so it is bounded by the window's
  // key footprint.
  EXPECT_GT(certifier_->certifier->conflict_index_size(), 0u);
}

// ---------------------------------------------------------------------
// Three lanes vs. the single-stream reference: over a randomized
// multi-shard workload, the K-lane certifier must reach exactly the
// verdicts of one linear-scan certifier consuming the same history —
// same commits, same aborts, same conflict attribution (the blamed
// transaction and ww/rw reason), with the blamed version mapped into the
// conflicting transaction's shard-local coordinates.
//
// The lockstep works because snapshots are generated as *consistent
// prefixes* of the committed history: a snapshot "after the first p
// commits" is global version p for the single-stream twin and, for the
// sharded twin, each lane's commit count within that same prefix.  A
// committed writeset then conflicts in the global version space iff it
// conflicts in its shard's — both mean "committed after the prefix and
// overlapping".  (Window aborts are excluded by a wide window: a
// per-lane window of W versions and a global window of W versions
// retain genuinely different histories, so equivalence only holds where
// neither window prunes.)
// ---------------------------------------------------------------------

class ShardedOracleTest : public ::testing::Test {
 protected:
  static constexpr int kTables = 6;
  static constexpr int kShards = 3;

  void Build(CertifierConfig config) {
    oracle_ = std::make_unique<LinearScanOracle>(config.mode,
                                                 config.conflict_window);
    config.shard_lanes = kShards;
    sharded_ = std::make_unique<Harness>(config, ShardMap(kTables, kShards));
    lane_at_prefix_.push_back(std::vector<DbVersion>(kShards, 0));
  }

  /// A random multi-shard writeset whose snapshot is a consistent prefix
  /// of the committed history, expressed in both version spaces.
  WriteSet RandomWs(Rng* rng, bool with_reads, int max_lag) {
    const auto committed = static_cast<DbVersion>(lane_at_prefix_.size() - 1);
    const DbVersion prefix =
        std::max<DbVersion>(0, committed - rng->NextInRange(0, max_lag));
    WriteSet ws;
    ws.txn_id = next_txn_++;
    ws.origin = static_cast<ReplicaId>(rng->NextInRange(0, 2));
    ws.snapshot_version = prefix;
    for (int s = 0; s < kShards; ++s) {
      ws.shard_snapshots.emplace_back(
          s, lane_at_prefix_[static_cast<size_t>(prefix)][static_cast<size_t>(
                 s)]);
    }
    const int ops = static_cast<int>(rng->NextInRange(1, 4));
    for (int i = 0; i < ops; ++i) {
      const TableId table =
          static_cast<TableId>(rng->NextInRange(0, kTables - 1));
      const int64_t key = rng->NextInRange(0, 149);
      ws.Add(table, key, WriteType::kUpdate, Row{Value(key), Value(0)});
    }
    if (with_reads) {
      const int reads = static_cast<int>(rng->NextInRange(0, 3));
      for (int i = 0; i < reads; ++i) {
        ws.read_keys.emplace_back(
            static_cast<TableId>(rng->NextInRange(0, kTables - 1)),
            rng->NextInRange(0, 149));
      }
      if (rng->NextBool(0.4)) {
        const int64_t lo = rng->NextInRange(0, 130);
        ws.read_ranges.push_back(
            ReadRange{static_cast<TableId>(rng->NextInRange(0, kTables - 1)),
                      lo, lo + rng->NextInRange(0, 20)});
      }
    }
    return ws;
  }

  /// Lockstep: both certifiers decide the identical writeset; on commit,
  /// the sharded side must have advanced exactly its touched lanes and
  /// the history prefix table grows by one row.  Aborts blame the same
  /// transaction for the same reason; the sharded side's blamed version
  /// is that transaction's commit version in a shard both writesets
  /// touch.
  void Submit(const WriteSet& ws) {
    const TxnId txn = ws.txn_id;
    const LinearScanOracle::Verdict want = oracle_->Decide(ws);
    const CertDecision& sharded = sharded_->Decide(ws);
    ASSERT_EQ(sharded.commit, want.commit) << "txn " << txn;
    const obs::Event& verdict = sharded_->last_verdict;
    if (!want.commit) {
      ++aborts_seen_;
      EXPECT_EQ(verdict.conflict_txn, want.conflict_txn) << "txn " << txn;
      EXPECT_EQ(verdict.detail, want.reason) << "txn " << txn;
      const auto it = shard_versions_.find(verdict.conflict_txn);
      ASSERT_NE(it, shard_versions_.end()) << "txn " << txn;
      EXPECT_NE(BlameShard(verdict), -1)
          << "txn " << txn << " blamed version " << verdict.conflict_version
          << " not issued to txn " << verdict.conflict_txn;
      return;
    }
    // Joint version assignment: exactly the touched lanes advanced by 1.
    std::vector<DbVersion> lanes = lane_at_prefix_.back();
    for (const auto& [s, v] : sharded.shard_versions) {
      EXPECT_EQ(v, lanes[static_cast<size_t>(s)] + 1) << "txn " << txn;
      lanes[static_cast<size_t>(s)] = v;
    }
    shard_versions_[txn] = sharded.shard_versions;
    lane_at_prefix_.push_back(std::move(lanes));
    ASSERT_EQ(static_cast<DbVersion>(lane_at_prefix_.size() - 1),
              oracle_->CommitVersion());
  }

  /// The counters agree, and the wide window never pruned.
  void ExpectIdenticalCounters() {
    const Certifier& c = *sharded_->certifier;
    EXPECT_EQ(c.certified_count(), oracle_->certified_count());
    EXPECT_EQ(c.abort_count(), oracle_->abort_count());
    EXPECT_EQ(c.rw_abort_count(), oracle_->rw_abort_count());
    EXPECT_EQ(oracle_->window_abort_count(), 0);
    EXPECT_EQ(c.window_abort_count(), 0);
  }

  /// The shard whose lane produced the blame: the conflicting
  /// transaction's shard whose version equals the reported one.
  ShardId BlameShard(const obs::Event& e) const {
    const auto it = shard_versions_.find(e.conflict_txn);
    if (it == shard_versions_.end()) return -1;
    for (const auto& [s, v] : it->second) {
      if (v == e.conflict_version) return s;
    }
    return -1;
  }

  std::unique_ptr<Harness> sharded_;
  std::unique_ptr<LinearScanOracle> oracle_;
  /// lane_at_prefix_[p][s]: shard s's commit count within the first p
  /// globally committed transactions.
  std::vector<std::vector<DbVersion>> lane_at_prefix_;
  std::unordered_map<TxnId, std::vector<std::pair<int32_t, DbVersion>>>
      shard_versions_;
  TxnId next_txn_ = 1;
  int aborts_seen_ = 0;
};

TEST_F(ShardedOracleTest, GsiMultiShardWorkloadMatchesSingleStreamOracle) {
  Build(CertifierConfig{});
  Rng rng(20260807);
  for (int i = 0; i < 1500; ++i) {
    Submit(RandomWs(&rng, /*with_reads=*/false, /*max_lag=*/30));
    if (HasFatalFailure()) return;
  }
  ExpectIdenticalCounters();
  EXPECT_GT(aborts_seen_, 0);
  // The workload genuinely crossed shards, through the sequencer.
  EXPECT_GT(sharded_->certifier->sequenced_count(), 0);
  EXPECT_GT(sharded_->certifier->certified_count(), 0);
}

TEST_F(ShardedOracleTest,
       SerializableMultiShardWorkloadMatchesSingleStreamOracle) {
  CertifierConfig config;
  config.mode = CertificationMode::kSerializable;
  Build(config);
  Rng rng(424242);
  for (int i = 0; i < 1500; ++i) {
    Submit(RandomWs(&rng, /*with_reads=*/true, /*max_lag=*/30));
    if (HasFatalFailure()) return;
  }
  ExpectIdenticalCounters();
  EXPECT_GT(aborts_seen_, 0);
  EXPECT_GT(sharded_->certifier->rw_abort_count(), 0);
  EXPECT_GT(sharded_->certifier->sequenced_count(), 0);
}

}  // namespace
}  // namespace screp
