// Partitioned certification: unit tests of the certifier at K > 1 lanes
// (dense per-shard versions, the cross-shard sequencer, per-shard
// first-committer-wins, intake shedding, idempotent replay, hosted-shard
// refresh filtering and per-stream credits), plus end-to-end sharded
// system runs under the online auditor — full replication, partial
// replication, refresh batching, standby failover, and a cross-shard
// workload that drives the sequencer.

#include "replication/certifier.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "replication/system.h"
#include "runtime/sim_runtime.h"
#include "sim/simulator.h"
#include "workload/client.h"
#include "workload/experiment.h"
#include "workload/metrics.h"
#include "workload/micro.h"

namespace screp {
namespace {

// ---------------------------------------------------------------------
// Unit tests: the certifier alone under a simulator.
// ---------------------------------------------------------------------

WriteSet MakeWs(TxnId id, ReplicaId origin,
                std::initializer_list<std::pair<TableId, int64_t>> writes,
                std::vector<std::pair<int32_t, DbVersion>> shard_snapshots =
                    {}) {
  WriteSet ws;
  ws.txn_id = id;
  ws.origin = origin;
  ws.shard_snapshots = std::move(shard_snapshots);
  for (const auto& [table, key] : writes) {
    ws.Add(table, key, WriteType::kUpdate, Row{Value(key), Value(0)});
  }
  return ws;
}

class ShardedCertifierTest : public ::testing::Test {
 protected:
  void Build(int tables, int shards, int replicas,
             CertifierConfig config = CertifierConfig{}) {
    config.shard_lanes = shards;
    certifier_ = std::make_unique<Certifier>(&rt_, config, replicas,
                                             /*eager=*/false,
                                             ShardMap(tables, shards));
    certifier_->SetDecisionCallback(
        [this](ReplicaId origin, const CertDecision& decision) {
          decisions_.emplace_back(origin, decision);
        });
    certifier_->SetRefreshCallback(
        [this](ShardId shard, ReplicaId target, const RefreshBatch& batch) {
          for (const WriteSetRef& ws : batch.writesets) {
            refreshes_.push_back({shard, target, *ws});
          }
        });
  }

  /// The decision for `txn` (must exist exactly once... last one wins,
  /// which the idempotence test relies on being identical anyway).
  const CertDecision& DecisionOf(TxnId txn) const {
    const CertDecision* found = nullptr;
    for (const auto& [origin, decision] : decisions_) {
      (void)origin;
      if (decision.txn_id == txn) found = &decision;
    }
    SCREP_CHECK_MSG(found != nullptr, "no decision for txn " << txn);
    return *found;
  }

  static DbVersion ShardVersionIn(const CertDecision& decision,
                                  ShardId shard) {
    return ShardVersionOf(decision.shard_versions, shard, kNoVersion);
  }

  struct Refresh {
    ShardId shard;
    ReplicaId target;
    WriteSet ws;
  };

  Simulator sim_;
  runtime::SimRuntime rt_{&sim_};
  std::unique_ptr<Certifier> certifier_;
  std::vector<std::pair<ReplicaId, CertDecision>> decisions_;
  std::vector<Refresh> refreshes_;
};

TEST_F(ShardedCertifierTest, LaneVersionsAreDensePerShard) {
  // Four tables over two shards (round-robin: t0,t2 -> shard 0;
  // t1,t3 -> shard 1).  Disjoint-shard streams each get their own dense
  // version sequence starting at 1.
  Build(4, 2, 2);
  certifier_->SubmitCertification(MakeWs(1, 0, {{0, 5}}));
  certifier_->SubmitCertification(MakeWs(2, 1, {{1, 5}}));
  certifier_->SubmitCertification(MakeWs(3, 0, {{2, 9}}));
  certifier_->SubmitCertification(MakeWs(4, 1, {{3, 9}}));
  sim_.RunAll();
  ASSERT_EQ(decisions_.size(), 4u);
  for (const auto& [origin, decision] : decisions_) {
    (void)origin;
    EXPECT_TRUE(decision.commit) << "txn " << decision.txn_id;
  }
  EXPECT_EQ(ShardVersionIn(DecisionOf(1), 0), 1);
  EXPECT_EQ(ShardVersionIn(DecisionOf(3), 0), 2);
  EXPECT_EQ(ShardVersionIn(DecisionOf(2), 1), 1);
  EXPECT_EQ(ShardVersionIn(DecisionOf(4), 1), 2);
  EXPECT_EQ(certifier_->CommitVersion(0), 2);
  EXPECT_EQ(certifier_->CommitVersion(1), 2);
  EXPECT_EQ(certifier_->certified_count(), 4);
  EXPECT_EQ(certifier_->sequenced_count(), 0);
}

TEST_F(ShardedCertifierTest, CrossShardCommitGetsJointVersion) {
  Build(4, 2, 2);
  certifier_->SubmitCertification(MakeWs(1, 0, {{0, 5}, {1, 7}}));
  sim_.RunAll();
  ASSERT_EQ(decisions_.size(), 1u);
  const CertDecision& decision = decisions_[0].second;
  EXPECT_TRUE(decision.commit);
  // One version in each touched lane, assigned atomically at decide time.
  EXPECT_EQ(ShardVersionIn(decision, 0), 1);
  EXPECT_EQ(ShardVersionIn(decision, 1), 1);
  EXPECT_EQ(certifier_->CommitVersion(0), 1);
  EXPECT_EQ(certifier_->CommitVersion(1), 1);
  EXPECT_EQ(certifier_->sequenced_count(), 1);
}

TEST_F(ShardedCertifierTest, MixedStreamStaysDenseInEveryLane) {
  // Interleave single-shard and cross-shard submissions; every lane's
  // version sequence must come out dense regardless of decide order.
  Build(4, 2, 2);
  certifier_->SubmitCertification(MakeWs(1, 0, {{0, 1}}));
  certifier_->SubmitCertification(MakeWs(2, 1, {{0, 2}, {1, 2}}));
  certifier_->SubmitCertification(MakeWs(3, 0, {{1, 3}}));
  certifier_->SubmitCertification(MakeWs(4, 1, {{0, 4}}));
  sim_.RunAll();
  ASSERT_EQ(decisions_.size(), 4u);
  std::vector<DbVersion> lane0, lane1;
  for (const auto& [origin, decision] : decisions_) {
    (void)origin;
    ASSERT_TRUE(decision.commit);
    if (DbVersion v = ShardVersionIn(decision, 0); v != kNoVersion)
      lane0.push_back(v);
    if (DbVersion v = ShardVersionIn(decision, 1); v != kNoVersion)
      lane1.push_back(v);
  }
  std::sort(lane0.begin(), lane0.end());
  std::sort(lane1.begin(), lane1.end());
  EXPECT_EQ(lane0, (std::vector<DbVersion>{1, 2, 3}));
  EXPECT_EQ(lane1, (std::vector<DbVersion>{1, 2}));
  EXPECT_EQ(certifier_->sequenced_count(), 1);
}

TEST_F(ShardedCertifierTest, StaleWriterAbortsAgainstCrossShardCommit) {
  Build(4, 2, 2);
  certifier_->SubmitCertification(MakeWs(1, 0, {{0, 5}, {1, 7}}));
  sim_.RunAll();
  // Txn 2 writes shard 1's key 7 from a snapshot that predates txn 1's
  // commit in shard 1 (missing entry reads as 0): first-committer-wins.
  certifier_->SubmitCertification(MakeWs(2, 1, {{1, 7}}));
  sim_.RunAll();
  ASSERT_EQ(decisions_.size(), 2u);
  EXPECT_FALSE(DecisionOf(2).commit);
  EXPECT_EQ(certifier_->abort_count(), 1);
  // The aborted transaction consumed no version in any lane.
  EXPECT_EQ(certifier_->CommitVersion(1), 1);
}

TEST_F(ShardedCertifierTest, FreshPerShardSnapshotEscapesConflict) {
  Build(4, 2, 2);
  certifier_->SubmitCertification(MakeWs(1, 0, {{1, 7}}));
  sim_.RunAll();
  // Snapshot {shard 1: 1} already includes txn 1's commit: no conflict.
  certifier_->SubmitCertification(MakeWs(2, 1, {{1, 7}}, {{1, 1}}));
  sim_.RunAll();
  EXPECT_TRUE(DecisionOf(2).commit);
  EXPECT_EQ(ShardVersionIn(DecisionOf(2), 1), 2);
  EXPECT_EQ(certifier_->abort_count(), 0);
}

TEST_F(ShardedCertifierTest, ConflictsAreShardLocal) {
  // Heavy write traffic in shard 0 never aborts a shard-1 transaction,
  // however stale its (irrelevant) view of shard 0 is.
  Build(4, 2, 2);
  for (TxnId id = 1; id <= 5; ++id) {
    certifier_->SubmitCertification(MakeWs(id, 0, {{0, 5}}, {{0, id - 1}}));
  }
  sim_.RunAll();
  certifier_->SubmitCertification(MakeWs(9, 1, {{1, 5}}));
  sim_.RunAll();
  EXPECT_TRUE(DecisionOf(9).commit);
  EXPECT_EQ(certifier_->CommitVersion(0), 5);
  EXPECT_EQ(certifier_->CommitVersion(1), 1);
}

TEST_F(ShardedCertifierTest, SnapshotOlderThanLaneWindowAborts) {
  CertifierConfig config;
  config.conflict_window = 1;
  Build(4, 2, 2, config);
  certifier_->SubmitCertification(MakeWs(1, 0, {{0, 1}}));
  sim_.RunAll();
  certifier_->SubmitCertification(MakeWs(2, 0, {{0, 2}}, {{0, 1}}));
  sim_.RunAll();
  // Lane 0 retains only version 2 now; snapshot 0 predates the window
  // and must be conservatively aborted even with disjoint keys.
  certifier_->SubmitCertification(MakeWs(3, 1, {{0, 3}}));
  sim_.RunAll();
  EXPECT_FALSE(DecisionOf(3).commit);
  EXPECT_EQ(certifier_->window_abort_count(), 1);
  // Shard 1's window is untouched: snapshot 0 is still fine there.
  certifier_->SubmitCertification(MakeWs(4, 1, {{1, 3}}));
  sim_.RunAll();
  EXPECT_TRUE(DecisionOf(4).commit);
}

TEST_F(ShardedCertifierTest, IntakeShedsAtBoundAndRecovers) {
  CertifierConfig config;
  config.max_intake = 1;
  Build(4, 2, 2, config);
  // All four hit lane 0 back-to-back: one enters service, one queues,
  // the rest find the queue at the bound and are refused on arrival.
  for (TxnId id = 1; id <= 4; ++id) {
    certifier_->SubmitCertification(MakeWs(id, 0, {{0, id}}, {{0, 0}}));
  }
  EXPECT_EQ(certifier_->shed_count(), 2);
  // Shed decisions surface as overloaded, not as certification aborts.
  ASSERT_EQ(decisions_.size(), 2u);
  for (const auto& [origin, decision] : decisions_) {
    (void)origin;
    EXPECT_FALSE(decision.commit);
    EXPECT_TRUE(decision.overloaded);
  }
  EXPECT_EQ(certifier_->abort_count(), 0);
  sim_.RunAll();
  // A shed submission never held an intake slot: once the admitted work
  // drains, full capacity is back.
  certifier_->SubmitCertification(MakeWs(9, 1, {{0, 9}}, {{0, 2}}));
  certifier_->SubmitCertification(MakeWs(10, 1, {{0, 10}}, {{0, 2}}));
  sim_.RunAll();
  EXPECT_EQ(certifier_->shed_count(), 2);
  EXPECT_TRUE(DecisionOf(9).commit);
  EXPECT_TRUE(DecisionOf(10).commit);
  EXPECT_EQ(certifier_->certified_count(), 4);
}

TEST_F(ShardedCertifierTest, ResubmittedDecisionReplaysVerbatim) {
  Build(4, 2, 2);
  certifier_->SubmitCertification(MakeWs(1, 0, {{0, 5}, {1, 7}}));
  sim_.RunAll();
  const CertDecision first = DecisionOf(1);
  certifier_->SubmitCertification(MakeWs(1, 0, {{0, 5}, {1, 7}}));
  sim_.RunAll();
  ASSERT_EQ(decisions_.size(), 2u);
  const CertDecision& replay = decisions_[1].second;
  EXPECT_EQ(replay.txn_id, first.txn_id);
  EXPECT_EQ(replay.commit, first.commit);
  EXPECT_EQ(replay.commit_version, first.commit_version);
  EXPECT_EQ(replay.shard_versions, first.shard_versions);
  // Nothing was re-certified: counters and lane versions are unchanged.
  EXPECT_EQ(certifier_->certified_count(), 1);
  EXPECT_EQ(certifier_->sequenced_count(), 1);
  EXPECT_EQ(certifier_->CommitVersion(0), 1);
  EXPECT_EQ(certifier_->CommitVersion(1), 1);
}

TEST_F(ShardedCertifierTest, RefreshSkipsReplicasNotHostingTheShard) {
  Build(4, 2, 3);
  certifier_->SetHostedShards({{0}, {1}, {0, 1}});
  // Shard-1 writeset from replica 2: replica 0 hosts only shard 0 and
  // must not receive it; replica 1 does; the origin never does.
  certifier_->SubmitCertification(MakeWs(1, 2, {{1, 7}}));
  sim_.RunAll();
  ASSERT_EQ(refreshes_.size(), 1u);
  EXPECT_EQ(refreshes_[0].shard, 1);
  EXPECT_EQ(refreshes_[0].target, 1);
  EXPECT_EQ(refreshes_[0].ws.txn_id, 1u);
}

TEST_F(ShardedCertifierTest, CrossShardRefreshSentOncePerTarget) {
  Build(4, 2, 3);
  certifier_->SetHostedShards({{0, 1}, {0, 1}, {1}});
  certifier_->SubmitCertification(MakeWs(1, 0, {{0, 5}, {1, 7}}));
  sim_.RunAll();
  // Replica 1 hosts both touched shards: exactly one copy, on the
  // lowest-numbered touched shard it hosts (0).  Replica 2 hosts only
  // shard 1, so its copy rides stream 1.
  ASSERT_EQ(refreshes_.size(), 2u);
  std::map<ReplicaId, ShardId> by_target;
  for (const Refresh& r : refreshes_) {
    EXPECT_EQ(by_target.count(r.target), 0u) << "duplicate to " << r.target;
    by_target[r.target] = r.shard;
    EXPECT_EQ(r.ws.txn_id, 1u);
  }
  EXPECT_EQ(by_target.at(1), 0);
  EXPECT_EQ(by_target.at(2), 1);
}

TEST_F(ShardedCertifierTest, PerStreamCreditsDeferAndDrain) {
  CertifierConfig config;
  config.refresh_credit_window = 1;
  Build(4, 2, 2, config);
  for (TxnId id = 1; id <= 3; ++id) {
    certifier_->SubmitCertification(MakeWs(id, 0, {{0, id}}, {{0, id - 1}}));
  }
  sim_.RunAll();
  // Only one writeset may be in flight to replica 1 on stream (0, 1);
  // the rest wait for credits.
  EXPECT_EQ(refreshes_.size(), 1u);
  EXPECT_EQ(certifier_->refresh_credits(0, 1), 0);
  EXPECT_EQ(certifier_->deferred_refresh_total(), 2u);
  certifier_->OnCreditReturned(0, 1, 1);
  sim_.RunAll();
  EXPECT_EQ(refreshes_.size(), 2u);
  certifier_->OnCreditReturned(0, 1, 1);
  sim_.RunAll();
  EXPECT_EQ(refreshes_.size(), 3u);
  EXPECT_EQ(certifier_->deferred_refresh_total(), 0u);
  // Versions arrive in shard order on the stream.
  for (size_t i = 0; i < refreshes_.size(); ++i) {
    EXPECT_EQ(refreshes_[i].ws.commit_version,
              static_cast<DbVersion>(i + 1));
  }
}

// ---------------------------------------------------------------------
// End-to-end: sharded systems under the online auditor.
// ---------------------------------------------------------------------

MicroConfig SmallMicro(double update_fraction) {
  MicroConfig config;
  config.rows_per_table = 200;
  config.update_fraction = update_fraction;
  return config;
}

ExperimentConfig ShardedRun(ConsistencyLevel level, int replicas,
                            int clients, int lanes) {
  ExperimentConfig config;
  config.system.level = level;
  config.system.replica_count = replicas;
  config.system.certifier.shard_lanes = lanes;
  config.client_count = clients;
  config.warmup = Seconds(0.5);
  config.duration = Seconds(3);
  config.seed = 7;
  config.audit = true;
  return config;
}

TEST(ShardedSystemTest, MicroWithFourLanesAuditsCleanly) {
  const MicroWorkload workload(SmallMicro(0.5));
  for (ConsistencyLevel level :
       {ConsistencyLevel::kLazyCoarse, ConsistencyLevel::kLazyFine,
        ConsistencyLevel::kSession}) {
    SCOPED_TRACE(ConsistencyLevelName(level));
    ExperimentConfig config = ShardedRun(level, 4, 8, /*lanes=*/4);
    auto result = RunExperiment(workload, config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->committed, 0);
    ASSERT_TRUE(result->audit.enabled);
    EXPECT_TRUE(result->audit.ok) << result->audit.ToString();
    EXPECT_GT(result->audit.checks, 0);
  }
}

TEST(ShardedSystemTest, PartialReplicationAuditsCleanly) {
  // Each replica hosts two of the four shards (every shard covered
  // twice); the LB must route by table-set and the per-shard refresh
  // fan-out must skip non-hosting replicas.
  const MicroWorkload workload(SmallMicro(0.5));
  ExperimentConfig config =
      ShardedRun(ConsistencyLevel::kLazyFine, 4, 8, /*lanes=*/4);
  config.system.hosted_shards = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  auto result = RunExperiment(workload, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->committed, 0);
  ASSERT_TRUE(result->audit.enabled);
  EXPECT_TRUE(result->audit.ok) << result->audit.ToString();
}

TEST(ShardedSystemTest, UnsupportedCombinationsAreRefused) {
  // Eager and bounded staleness are refused at Create (replica crash and
  // partition faults at the call); the standby certifier, refresh
  // batching and load-balancer failover run at K > 1 (see the end-to-end
  // tests below).
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  auto create = [&rt](const SystemConfig& config) {
    return ReplicatedSystem::Create(
        &rt, config, [](Database*) { return Status::OK(); },
        [](const Database&, sql::TransactionRegistry*) {
          return Status::OK();
        });
  };
  SystemConfig config;
  config.replica_count = 2;
  config.certifier.shard_lanes = 2;
  config.level = ConsistencyLevel::kEager;
  EXPECT_EQ(create(config).status().code(), StatusCode::kNotSupported);
  config.level = ConsistencyLevel::kBoundedStaleness;
  EXPECT_EQ(create(config).status().code(), StatusCode::kNotSupported);
  config.level = ConsistencyLevel::kLazyCoarse;
  config.standby_certifier = true;
  config.certifier.refresh_batching = true;
  auto system = create(config);
  ASSERT_TRUE(system.ok());
  (*system)->CrashLoadBalancer();
  EXPECT_EQ((*system)->load_balancer_failovers(), 1);
}

// A workload over `tables` tables t0, t1, ... whose update mix includes
// a two-table transaction (t_i and t_i+1), so a sharded system exercises
// the sequencer end to end.
class MultiTableWorkload : public Workload {
 public:
  explicit MultiTableWorkload(int tables) : tables_(tables) {}

  std::string name() const override { return "multi-table"; }

  Status BuildSchema(Database* db) const override {
    for (int t = 0; t < tables_; ++t) {
      SCREP_ASSIGN_OR_RETURN(
          TableId id,
          db->CreateTable(Table(t), Schema({{"id", ValueType::kInt64},
                                            {"val", ValueType::kInt64}})));
      for (int64_t key = 0; key < 100; ++key) {
        SCREP_RETURN_NOT_OK(db->BulkLoad(id, Row{Value(key), Value(key)}));
      }
    }
    return Status::OK();
  }

  Status DefineTransactions(const Database& db,
                            sql::TransactionRegistry* registry) const
      override {
    auto update = [&db](const std::string& table)
        -> Result<std::shared_ptr<const sql::PreparedStatement>> {
      return sql::PreparedStatement::Prepare(
          db, "UPDATE " + table + " SET val = val + ? WHERE id = ?");
    };
    for (int t = 0; t < tables_; ++t) {
      {
        sql::PreparedTransaction txn;
        txn.name = "update_" + Table(t);
        SCREP_ASSIGN_OR_RETURN(auto stmt, update(Table(t)));
        txn.statements.push_back(std::move(stmt));
        registry->Register(std::move(txn));
      }
      {
        sql::PreparedTransaction txn;
        txn.name = "update_pair_" + Table(t);
        SCREP_ASSIGN_OR_RETURN(auto a, update(Table(t)));
        SCREP_ASSIGN_OR_RETURN(auto b, update(Table((t + 1) % tables_)));
        txn.statements.push_back(std::move(a));
        txn.statements.push_back(std::move(b));
        registry->Register(std::move(txn));
      }
      {
        sql::PreparedTransaction txn;
        txn.name = "read_" + Table(t);
        SCREP_ASSIGN_OR_RETURN(
            auto stmt, sql::PreparedStatement::Prepare(
                           db, "SELECT id, val FROM " + Table(t) +
                                   " WHERE id = ?"));
        txn.statements.push_back(std::move(stmt));
        registry->Register(std::move(txn));
      }
    }
    return Status::OK();
  }

  std::unique_ptr<TxnGenerator> CreateGenerator(
      const sql::TransactionRegistry& registry, int client_id,
      Rng rng) const override {
    (void)client_id;
    class Generator : public TxnGenerator {
     public:
      Generator(const sql::TransactionRegistry& registry, int tables, Rng rng)
          : registry_(registry), tables_(tables), rng_(rng) {}

      TxnSpec Next() override {
        const std::string table =
            Table(static_cast<int>(rng_.NextBounded(
                static_cast<uint64_t>(tables_))));
        const Value key(rng_.NextInRange(0, 99));
        const Value delta(rng_.NextInRange(1, 100));
        TxnSpec spec;
        switch (rng_.NextBounded(4)) {
          case 0:
            spec.type = Find("read_" + table);
            spec.params = {{key}};
            break;
          case 1:
          case 2:
            spec.type = Find("update_" + table);
            spec.params = {{delta, key}};
            break;
          default:
            spec.type = Find("update_pair_" + table);
            spec.params = {{delta, key},
                           {delta, Value(rng_.NextInRange(0, 99))}};
            break;
        }
        return spec;
      }

     private:
      TxnTypeId Find(const std::string& name) const {
        Result<TxnTypeId> id = registry_.Find(name);
        SCREP_CHECK(id.ok());
        return *id;
      }

      const sql::TransactionRegistry& registry_;
      int tables_;
      Rng rng_;
    };
    return std::make_unique<Generator>(registry, tables_, rng);
  }

  static std::string Table(int t) { return "t" + std::to_string(t); }

 private:
  int tables_;
};

/// What one audited sharded run left behind.
struct RunOutcome {
  std::unique_ptr<ReplicatedSystem> system;
  int64_t acknowledged_updates = 0;
};

/// Runs `workload` on a fresh system under 6 closed-loop clients for 2 s
/// of simulated time, calling `mid_run` (if any) at 1 s, then drains and
/// checks what every configuration must guarantee: the online auditor is
/// clean, every replica published each lane it hosts up to the
/// certifier's version, full replicas hold identical tables, and every
/// update acknowledged to a client as committed was decided a commit
/// exactly once and applied at every replica hosting a lane it touched
/// (the certifier announces a commit only once it is durable, and the
/// test records decisions and applies as they happen: the log itself
/// keeps only a bounded suffix).
RunOutcome RunAudited(const Workload& workload, SystemConfig config,
                      const std::function<void(ReplicatedSystem*)>& mid_run) {
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  config.obs.audit = true;
  config.obs.event_log_capacity = size_t{1} << 20;
  auto system_or = ReplicatedSystem::Create(
      &rt, config,
      [&workload](Database* db) { return workload.BuildSchema(db); },
      [&workload](const Database& db, sql::TransactionRegistry* reg) {
        return workload.DefineTransactions(db, reg);
      });
  SCREP_CHECK_MSG(system_or.ok(), system_or.status().ToString());
  RunOutcome out;
  out.system = std::move(*system_or);
  ReplicatedSystem* system = out.system.get();

  // Test-side record of commit decisions (with their lane versions) and
  // of the replicas each transaction was applied at.
  std::map<TxnId, std::vector<std::vector<std::pair<int32_t, DbVersion>>>>
      commit_decisions;
  std::map<TxnId, std::set<ReplicaId>> applied_at;
  system->obs()->event_log()->AddSink(
      [&commit_decisions, &applied_at](const obs::Event& e) {
        if (e.kind == obs::EventKind::kCertVerdict && e.committed) {
          commit_decisions[e.txn].push_back(e.shard_versions);
        } else if (e.kind == obs::EventKind::kApply) {
          applied_at[e.txn].insert(e.replica);
        }
      });

  MetricsCollector metrics(/*warmup=*/0);
  Rng seed_rng(7);
  std::vector<std::unique_ptr<ClientDriver>> clients;
  for (int c = 0; c < 6; ++c) {
    clients.push_back(std::make_unique<ClientDriver>(
        system, &metrics,
        workload.CreateGenerator(system->registry(), c, seed_rng.Fork()), c,
        ClientConfig{}, seed_rng.Fork()));
  }
  std::set<TxnId> acknowledged;
  system->SetClientCallback([&clients, &acknowledged](const TxnResponse& r) {
    if (r.outcome == TxnOutcome::kCommitted && !r.read_only) {
      acknowledged.insert(r.txn_id);
    }
    clients[static_cast<size_t>(r.client_id)]->OnResponse(r);
  });
  for (auto& client : clients) client->Start();
  if (mid_run) sim.Schedule(Seconds(1), [&]() { mid_run(system); });
  const SimTime end = Seconds(2);
  sim.Schedule(end, [&clients, system]() {
    for (auto& client : clients) client->Stop();
    system->obs()->StopSampling();
  });
  sim.RunUntil(end);
  sim.RunAll();
  out.acknowledged_updates = static_cast<int64_t>(acknowledged.size());

  const obs::Auditor* auditor = system->obs()->auditor();
  EXPECT_GT(auditor->checks_performed(), 0);
  EXPECT_TRUE(auditor->ok()) << auditor->Summary();
  Certifier* certifier = system->certifier();
  for (TxnId txn : acknowledged) {
    const auto decided = commit_decisions.find(txn);
    if (decided == commit_decisions.end()) {
      ADD_FAILURE() << "acknowledged txn " << txn
                    << " was never decided a commit";
      continue;
    }
    EXPECT_EQ(decided->second.size(), 1u) << "txn " << txn;
    const std::set<ReplicaId>& at = applied_at[txn];
    for (ReplicaId r = 0; r < system->replica_count(); ++r) {
      const Proxy* proxy = system->replica(r)->proxy();
      // One lane (no shard coordinates): every replica hosts it.
      const auto& lanes = decided->second.front();
      const bool hosts =
          lanes.empty() ||
          std::any_of(lanes.begin(), lanes.end(),
                      [proxy](const std::pair<int32_t, DbVersion>& lane) {
                        return proxy->HostsShard(lane.first);
                      });
      EXPECT_EQ(at.count(r), hosts ? 1u : 0u)
          << "acknowledged txn " << txn << " at replica " << r;
    }
  }
  Database* reference = system->replica(0)->db();
  for (ReplicaId r = 0; r < system->replica_count(); ++r) {
    const Proxy* proxy = system->replica(r)->proxy();
    for (ShardId s : proxy->hosted_shards()) {
      EXPECT_EQ(proxy->ShardPublished(s), certifier->CommitVersion(s))
          << "replica " << r << " lane " << s;
    }
    if (!config.hosted_shards.empty()) continue;
    Database* db = system->replica(r)->db();
    for (size_t t = 0; t < db->TableCount(); ++t) {
      const auto id = static_cast<TableId>(t);
      std::vector<std::string> want, got;
      reference->table(id)->Scan(reference->CommittedVersion(),
                                 [&want](int64_t, const Row& row) {
                                   want.push_back(RowToString(row));
                                   return true;
                                 });
      db->table(id)->Scan(db->CommittedVersion(),
                          [&got](int64_t, const Row& row) {
                            got.push_back(RowToString(row));
                            return true;
                          });
      EXPECT_EQ(want, got) << "replica " << r << " table " << t;
    }
  }
  return out;
}

SystemConfig FourLanes(int replicas) {
  SystemConfig config;
  config.replica_count = replicas;
  config.level = ConsistencyLevel::kLazyCoarse;
  config.certifier.shard_lanes = 4;
  return config;
}

TEST(ShardedSystemTest, CrossShardWorkloadDrivesTheSequencerAuditClean) {
  SystemConfig config = FourLanes(3);
  config.certifier.shard_lanes = 2;
  RunOutcome run = RunAudited(MultiTableWorkload(2), config, nullptr);
  ReplicatedSystem* system = run.system.get();
  // t0 and t1 land on different lanes of the two-lane map.
  ASSERT_NE(system->shard_map()->ShardOf(0), system->shard_map()->ShardOf(1));
  const Certifier* certifier = system->certifier();
  EXPECT_GT(certifier->certified_count(), 0);
  EXPECT_GT(certifier->sequenced_count(), 0)
      << "the two-table transaction mix should have crossed shards";
  // Both lanes advanced and the auditor tracked each one.
  const obs::Auditor* auditor = system->obs()->auditor();
  for (ShardId s : {0, 1}) {
    EXPECT_GT(certifier->CommitVersion(s), 0) << "shard " << s;
    EXPECT_EQ(auditor->shard_max_commit_version(s),
              certifier->CommitVersion(s))
        << "shard " << s;
  }
}

TEST(ShardedSystemTest, RefreshBatchingWithFourLanesAuditsCleanly) {
  // One coalesced message per (target, lane stream) per force, full and
  // partial replication, with and without refresh credits.
  for (const bool partial : {false, true}) {
    for (const size_t credits : {size_t{0}, size_t{4}}) {
      SCOPED_TRACE(std::string(partial ? "partial" : "full") +
                   " replication, credit window " + std::to_string(credits));
      SystemConfig config = FourLanes(4);
      config.certifier.refresh_batching = true;
      config.certifier.refresh_credit_window = credits;
      if (partial) config.hosted_shards = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
      RunOutcome run = RunAudited(MultiTableWorkload(4), config, nullptr);
      const Certifier* certifier = run.system->certifier();
      EXPECT_GT(run.acknowledged_updates, 0);
      EXPECT_GT(certifier->sequenced_count(), 0);
      EXPECT_EQ(certifier->deferred_refresh_total(), 0u);
      // Batching coalesced: fewer refresh messages than writesets sent.
      int64_t messages = 0;
      for (ReplicaId r = 0; r < run.system->replica_count(); ++r) {
        for (ShardId s = 0; s < certifier->lane_count(); ++s) {
          if (auto* ch = run.system->refresh_channel(r, s)) {
            messages += ch->stats().sent;
          }
        }
      }
      EXPECT_GT(messages, 0);
      EXPECT_LT(messages, certifier->certified_count() *
                              (run.system->replica_count() - 1));
    }
  }
}

TEST(ShardedSystemTest, StandbyTakesOverFourLanesMidRun) {
  // The standby runs the identical K-lane stream; the primary crashes
  // mid-run with cross-lane commits in flight.  Replicas catch up lane by
  // lane from the promoted certifier and resubmit pending decisions.
  for (const bool batching : {false, true}) {
    SCOPED_TRACE(batching ? "refresh batching" : "per-writeset fan-out");
    SystemConfig config = FourLanes(3);
    config.standby_certifier = true;
    config.certifier.refresh_batching = batching;
    DbVersion failover_lane0 = kNoVersion;
    RunOutcome run = RunAudited(
        MultiTableWorkload(4), config, [&](ReplicatedSystem* system) {
          system->CrashCertifier();
          failover_lane0 = system->certifier()->CommitVersion(0);
        });
    ASSERT_TRUE(run.system->CertifierFailedOver());
    const Certifier* certifier = run.system->certifier();
    EXPECT_GT(failover_lane0, 0);
    EXPECT_GT(certifier->CommitVersion(0), failover_lane0)
        << "commits must continue on the promoted certifier";
    EXPECT_GT(certifier->sequenced_count(), 0);
    EXPECT_GT(run.acknowledged_updates, 0);
  }
}

TEST(ShardedSystemTest, LoadBalancerFailsOverWithFourLanesAndPartialReplication) {
  // The standby balancer is promoted mid-run with a conservative floor
  // per lane (each lane's commit version at the crash), and keeps routing
  // by shard-set to the replicas that host a transaction's shards.
  SystemConfig config = FourLanes(4);
  config.hosted_shards = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  ShardVersions floors;
  RunOutcome run = RunAudited(
      MultiTableWorkload(4), config, [&](ReplicatedSystem* system) {
        system->CrashLoadBalancer();
        for (ShardId s = 0; s < 4; ++s) {
          floors.emplace_back(s, system->certifier()->CommitVersion(s));
        }
      });
  EXPECT_EQ(run.system->load_balancer_failovers(), 1);
  const LoadBalancer* lb = run.system->load_balancer();
  EXPECT_TRUE(lb->promoted());
  for (const auto& [s, floor] : floors) {
    EXPECT_GT(floor, 0) << "lane " << s;
    EXPECT_EQ(lb->policy().conservative_floor(s), floor) << "lane " << s;
    EXPECT_GT(run.system->certifier()->CommitVersion(s), floor)
        << "lane " << s << " must keep committing after the failover";
  }
  EXPECT_GT(run.acknowledged_updates, 0);
}

TEST(ShardedSystemTest, TwoApplyLanesPerStreamAuditCleanly) {
  // Two lanes per stream at K = 2: writesets execute out of order within
  // a stream, publish in per-stream order, and cross-shard ones publish
  // in both streams at once.
  SystemConfig config = FourLanes(3);
  config.certifier.shard_lanes = 2;
  config.proxy.apply_lanes = 2;
  RunOutcome run = RunAudited(MultiTableWorkload(2), config, nullptr);
  EXPECT_GT(run.system->certifier()->sequenced_count(), 0);
  EXPECT_GT(run.acknowledged_updates, 0);
}

TEST(ShardedSystemTest, CrossLaneCommitSurvivesFailoverAtAnyInstant) {
  // One cross-lane update, with the primary crashing at 40 instants
  // spread over the transaction's life (measured by a run without a
  // crash): before its forward, between the forward and the lanes'
  // forces, after the forces, after the announcement.  Depending on the
  // instant, the origin learns of its commit from the promoted
  // certifier's announcement, from a replayed decision, or first through
  // the catch-up stream (its own writeset arriving as a refresh, still
  // queued or — with free refresh applies — already published).  Every
  // instant must end with the one commit acknowledged and both replicas
  // converged.
  const MultiTableWorkload workload(2);
  // Runs the update, crashing the primary at `crash_at` (never when
  // negative); returns when the client got its response.
  auto run = [&workload](bool free_refresh, SimTime crash_at) -> SimTime {
    Simulator sim;
    runtime::SimRuntime rt{&sim};
    SystemConfig config = FourLanes(2);
    config.certifier.shard_lanes = 2;
    config.standby_certifier = true;
    if (free_refresh) {
      config.proxy.refresh_base = 0;
      config.proxy.refresh_per_op = 0;
    }
    auto system_or = ReplicatedSystem::Create(
        &rt, config,
        [&workload](Database* db) { return workload.BuildSchema(db); },
        [&workload](const Database& db, sql::TransactionRegistry* reg) {
          return workload.DefineTransactions(db, reg);
        });
    SCREP_CHECK_MSG(system_or.ok(), system_or.status().ToString());
    auto system = std::move(*system_or);
    std::vector<TxnResponse> responses;
    SimTime acked_at = 0;
    system->SetClientCallback([&](const TxnResponse& r) {
      responses.push_back(r);
      acked_at = sim.Now();
    });
    TxnRequest request;
    request.txn_id = system->NextTxnId();
    request.type = *system->registry().Find("update_pair_t0");
    request.params = {{Value(1), Value(3)}, {Value(1), Value(4)}};
    system->Submit(std::move(request));
    if (crash_at >= 0) {
      sim.RunUntil(crash_at);
      system->CrashCertifier();
    }
    sim.RunAll();
    EXPECT_EQ(responses.size(), 1u);
    if (!responses.empty()) {
      EXPECT_EQ(responses[0].outcome, TxnOutcome::kCommitted);
    }
    for (ReplicaId r = 0; r < 2; ++r) {
      for (ShardId s : {0, 1}) {
        EXPECT_EQ(system->replica(r)->proxy()->ShardPublished(s), 1)
            << "replica " << r << " lane " << s;
      }
    }
    return acked_at;
  };
  for (const bool free_refresh : {false, true}) {
    const SimTime life = run(free_refresh, -1);
    ASSERT_GT(life, 0);
    for (int i = 1; i <= 40; ++i) {
      const SimTime crash_at = life * i / 40;
      SCOPED_TRACE("crash at " + std::to_string(crash_at) + " us" +
                   (free_refresh ? ", free refresh applies" : ""));
      run(free_refresh, crash_at);
    }
  }
}

}  // namespace
}  // namespace screp
