// Soak test for the low-water-mark sweep: what the middleware retains
// (row versions, the certifier's conflict window, its retained decisions
// and its log) must not grow with run length.  A micro workload runs for
// 200k commits on SimRuntime, with one replica crash and recovery in the
// middle.  The retention gauges are read over the first 50k commits and
// from the recovered replica's catch-up to 200k commits, and must stay
// under bounds that do not depend on how long the run lasts.  Around the
// outage retention may rise by the outage's backlog, but no further.  The
// online auditor must stay clean throughout.
//
// The outage outlasts what the certifier's log retains, so the recovered
// replica rejoins from a live peer's snapshot plus the suffix after it,
// and is current within a bounded number of commits however long it was
// down — also at saturation, where streaming the whole backlog used to
// take tens of thousands of commits (a replica applies barely faster than
// the cluster commits).  A last arm runs two certifier lanes and bounds
// what each lane retains.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "runtime/sim_runtime.h"
#include "workload/client.h"
#include "workload/metrics.h"
#include "workload/micro.h"

namespace screp {
namespace {

constexpr DbVersion kEarlyCommits = 50000;
constexpr DbVersion kTotalCommits = 200000;
constexpr DbVersion kCrashAt = 100000;
constexpr DbVersion kRecoverAt = 105000;
/// Commits from recovery until the recovered replica is current (read at
/// 20 ms samples; ~10 measured in every arm): the snapshot rejoin leaves
/// only what committed during its catch-up round trip to apply, whatever
/// the outage's length.
constexpr DbVersion kCatchUpCommits = 100;
constexpr int kReplicas = 3;
constexpr ReplicaId kCrashed = 2;

/// Peak retention gauges over one phase of the run.
struct Retention {
  double versions = 0;  // max over replicas of replicaN.mvcc_versions
  size_t table_versions = 0;  // max over replicas and tables
  double retained = 0;  // certifier.retained_writesets
  double decided = 0;   // certifier.decided
  double wal_bytes = 0;  // certifier.wal_bytes

  void Observe(ReplicatedSystem* system) {
    const obs::MetricsRegistry* registry = system->obs()->registry();
    for (ReplicaId r = 0; r < kReplicas; ++r) {
      versions = std::max(
          versions, registry->GaugeValue("replica" + std::to_string(r) +
                                         ".mvcc_versions"));
      Database* db = system->replica(r)->db();
      for (size_t t = 0; t < db->TableCount(); ++t) {
        const Table* table = db->table(static_cast<TableId>(t));
        table_versions = std::max(table_versions, table->VersionCount());
      }
    }
    retained = std::max(retained,
                        registry->GaugeValue("certifier.retained_writesets"));
    decided = std::max(decided, registry->GaugeValue("certifier.decided"));
    wal_bytes =
        std::max(wal_bytes, registry->GaugeValue("certifier.wal_bytes"));
  }
};

/// A micro workload on a fresh audited system of kReplicas replicas,
/// driven by 8 closed-loop clients thinking `think` between transactions.
struct Soak {
  Soak(const MicroConfig& micro, SystemConfig config,
       Duration think = Millis(4))
      : workload(micro) {
    config.replica_count = kReplicas;
    config.obs.audit = true;
    auto system_or = ReplicatedSystem::Create(
        &rt, config,
        [this](Database* db) { return workload.BuildSchema(db); },
        [this](const Database& db, sql::TransactionRegistry* reg) {
          return workload.DefineTransactions(db, reg);
        });
    SCREP_CHECK_MSG(system_or.ok(), system_or.status().ToString());
    system = std::move(*system_or);
    Rng seed_rng(5);
    ClientConfig client_config;
    client_config.mean_think_time = think;
    for (int c = 0; c < 8; ++c) {
      clients.push_back(std::make_unique<ClientDriver>(
          system.get(), &metrics,
          workload.CreateGenerator(system->registry(), c, seed_rng.Fork()), c,
          client_config, seed_rng.Fork()));
    }
    system->SetClientCallback([this](const TxnResponse& r) {
      clients[static_cast<size_t>(r.client_id)]->OnResponse(r);
    });
    for (auto& client : clients) client->Start();
  }

  /// Stops the clients and drains the simulation.
  void Stop() {
    for (auto& client : clients) client->Stop();
    system->obs()->StopSampling();
    sim.RunAll();
  }

  MicroWorkload workload;
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  MetricsCollector metrics{/*warmup=*/0};
  std::unique_ptr<ReplicatedSystem> system;
  std::vector<std::unique_ptr<ClientDriver>> clients;
};

/// Every replica at the certifier's version with replica 0's rows (the
/// recovered one included) and no transaction left unfinished (an eager
/// global commit waiting for a report that never comes would stay), and
/// a clean audit.
void ExpectConvergedAndAuditClean(ReplicatedSystem* system) {
  const DbVersion final_version = system->certifier()->CommitVersion();
  for (ReplicaId r = 0; r < kReplicas; ++r) {
    ASSERT_EQ(system->replica(r)->proxy()->v_local(), final_version);
    EXPECT_EQ(system->replica(r)->proxy()->active_transactions(), 0u)
        << "replica " << r;
  }
  Database* reference = system->replica(0)->db();
  for (ReplicaId r = 1; r < kReplicas; ++r) {
    Database* db = system->replica(r)->db();
    for (size_t t = 0; t < reference->TableCount(); ++t) {
      std::vector<std::string> want, got;
      const auto id = static_cast<TableId>(t);
      reference->table(id)->Scan(final_version, [&](int64_t, const Row& row) {
        want.push_back(RowToString(row));
        return true;
      });
      db->table(id)->Scan(final_version, [&](int64_t, const Row& row) {
        got.push_back(RowToString(row));
        return true;
      });
      EXPECT_EQ(want, got) << "replica " << r << " "
                           << reference->TableName(id);
    }
  }
  const obs::Auditor* auditor = system->obs()->auditor();
  ASSERT_NE(auditor, nullptr);
  EXPECT_TRUE(auditor->ok()) << auditor->Summary();
}

class MemoryBoundTest : public ::testing::TestWithParam<ConsistencyLevel> {};

TEST_P(MemoryBoundTest, RetentionStaysFlatOverALongRun) {
  MicroConfig micro;
  micro.table_count = 2;
  micro.rows_per_table = 500;
  micro.update_fraction = 0.5;
  SystemConfig config;
  config.level = GetParam();
  Soak soak(micro, config);
  Simulator& sim = soak.sim;
  ReplicatedSystem* system = soak.system.get();
  const double initial_versions =
      system->obs()->registry()->GaugeValue("replica0.mvcc_versions");
  ASSERT_GT(initial_versions, 1000);

  const Certifier* certifier = system->certifier();
  Retention early, outage, late;
  bool crashed = false;
  DbVersion recovered_at = 0, caught_up_at = 0;
  while (certifier->CommitVersion() < kTotalCommits) {
    sim.RunUntil(sim.Now() + Millis(20));
    const DbVersion v = certifier->CommitVersion();
    if (!crashed && v >= kCrashAt) {
      system->CrashReplica(kCrashed);
      crashed = true;
    } else if (crashed && recovered_at == 0 && v >= kRecoverAt) {
      // The window and the log have been pruned far past the crashed
      // replica's V_local, so it rejoins from a peer's snapshot.
      EXPECT_GT(certifier->FetchFloor(),
                system->replica(kCrashed)->proxy()->v_local());
      system->RecoverReplica(kCrashed);
      recovered_at = v;
    } else if (recovered_at != 0 && caught_up_at == 0 &&
               system->replica(kCrashed)->proxy()->v_local() +
                       ReplicatedSystem::kSweepEveryCommits >
                   v) {
      caught_up_at = v;
    }
    if (v <= kEarlyCommits) {
      early.Observe(system);
    } else if (caught_up_at != 0 &&
               v >= caught_up_at + 2 * ReplicatedSystem::kSweepEveryCommits) {
      // Steady state: caught up, and swept since (an eager catch-up
      // blocks commits, so the sweep that trims it comes just after).
      late.Observe(system);
    } else {
      outage.Observe(system);
    }
  }
  ASSERT_GT(recovered_at, 0);
  ASSERT_GT(caught_up_at, 0);
  EXPECT_LE(caught_up_at, recovered_at + kCatchUpCommits);
  EXPECT_EQ(system->snapshot_rejoins(), 1);
  soak.Stop();

  // Fixed bounds, independent of run length: the live rows plus a few
  // sweep intervals of versions, and a few sweep intervals of window.
  const double sweep = ReplicatedSystem::kSweepEveryCommits;
  EXPECT_LE(late.versions, initial_versions + 8 * sweep);
  EXPECT_LE(late.table_versions,
            static_cast<size_t>(micro.rows_per_table + 8 * sweep));
  EXPECT_LE(late.retained, 8 * sweep);
  EXPECT_LE(late.decided, 8 * sweep);
  // And flat: a longer stretch after a crash/recovery retains at most
  // what the first 50k commits did, up to the spread of a peak over more
  // samples.  Retention that grew with run length would be 4x at 200k.
  EXPECT_LE(late.versions - initial_versions,
            2 * (early.versions - initial_versions));
  EXPECT_LE(late.retained, 2 * early.retained);
  EXPECT_LE(late.decided, 2 * early.decided);
  // The log keeps a few segments, however long the run.
  EXPECT_GT(early.wal_bytes, 0);
  EXPECT_LE(late.wal_bytes, 2 * early.wal_bytes);
  // Around the outage: at most the outage's backlog on top.
  const double backlog = static_cast<double>(kRecoverAt - kCrashAt);
  EXPECT_LE(outage.versions, initial_versions + backlog + 8 * sweep);
  EXPECT_LE(outage.retained, backlog + 8 * sweep);
  EXPECT_LE(outage.decided, backlog + 8 * sweep);
  EXPECT_EQ(certifier->window_abort_count(), 0);

  ExpectConvergedAndAuditClean(system);
}

// At saturation (no think time) the same kind of outage: the recovered
// replica rejoins from a snapshot and is current within the same bounded
// number of commits, with equal tables and a clean audit.
TEST_P(MemoryBoundTest, SnapshotRejoinCatchesUpAtSaturation) {
  constexpr DbVersion kSatCrashAt = 10000;
  constexpr DbVersion kSatRecoverAt = 20000;
  constexpr DbVersion kSatTotal = 30000;
  MicroConfig micro;
  micro.table_count = 2;
  micro.rows_per_table = 500;
  micro.update_fraction = 0.5;
  SystemConfig config;
  config.level = GetParam();
  Soak soak(micro, config, /*think=*/0);
  ReplicatedSystem* system = soak.system.get();
  const Certifier* certifier = system->certifier();
  bool crashed = false;
  DbVersion recovered_at = 0, caught_up_at = 0;
  while (certifier->CommitVersion() < kSatTotal) {
    soak.sim.RunUntil(soak.sim.Now() + Millis(20));
    const DbVersion v = certifier->CommitVersion();
    if (!crashed && v >= kSatCrashAt) {
      system->CrashReplica(kCrashed);
      crashed = true;
    } else if (crashed && recovered_at == 0 && v >= kSatRecoverAt) {
      ASSERT_GT(certifier->FetchFloor(),
                system->replica(kCrashed)->proxy()->v_local());
      system->RecoverReplica(kCrashed);
      recovered_at = v;
    } else if (recovered_at != 0 && caught_up_at == 0 &&
               system->replica(kCrashed)->proxy()->v_local() +
                       ReplicatedSystem::kSweepEveryCommits >
                   v) {
      caught_up_at = v;
    }
  }
  ASSERT_GT(recovered_at, 0);
  ASSERT_GT(caught_up_at, 0);
  EXPECT_LE(caught_up_at, recovered_at + kCatchUpCommits);
  EXPECT_EQ(system->snapshot_rejoins(), 1);
  soak.Stop();
  EXPECT_EQ(certifier->window_abort_count(), 0);
  ExpectConvergedAndAuditClean(system);
}

// Two certifier lanes: each lane prunes at its own horizon, the oldest
// lane snapshot among the live replicas hosting it.  Per-lane retained
// writesets and the retained decisions must stay under the same fixed
// bounds as the single stream, over the first 25k commits and up to 100k.
// (Replica crash/recovery is refused at K > 1, so no outage here.)
TEST(ShardedMemoryBoundTest, PerLaneRetentionStaysFlatAtTwoLanes) {
  constexpr int kLanes = 2;
  constexpr DbVersion kEarly = 25000;
  constexpr DbVersion kTotal = 100000;
  MicroConfig micro;
  micro.table_count = 4;
  micro.rows_per_table = 500;
  micro.update_fraction = 0.5;
  SystemConfig config;
  config.level = ConsistencyLevel::kLazyCoarse;
  config.certifier.shard_lanes = kLanes;
  Soak soak(micro, config);
  ReplicatedSystem* system = soak.system.get();

  const Certifier* certifier = system->certifier();
  const obs::MetricsRegistry* registry = system->obs()->registry();
  // Peaks of certifier.laneS.retained_writesets and certifier.decided.
  double early_retained[kLanes] = {}, late_retained[kLanes] = {};
  double early_decided = 0, late_decided = 0;
  while (certifier->certified_count() < kTotal) {
    soak.sim.RunUntil(soak.sim.Now() + Millis(20));
    const bool early = certifier->certified_count() <= kEarly;
    double* retained = early ? early_retained : late_retained;
    for (int s = 0; s < kLanes; ++s) {
      retained[s] = std::max(
          retained[s], registry->GaugeValue("certifier.lane" +
                                            std::to_string(s) +
                                            ".retained_writesets"));
    }
    double& decided = early ? early_decided : late_decided;
    decided = std::max(decided, registry->GaugeValue("certifier.decided"));
  }
  soak.Stop();

  const double sweep = ReplicatedSystem::kSweepEveryCommits;
  for (int s = 0; s < kLanes; ++s) {
    SCOPED_TRACE("lane " + std::to_string(s));
    // Both lanes carried a fair share of the load.
    EXPECT_GT(certifier->CommitVersion(s), kTotal / 4);
    EXPECT_GT(early_retained[s], 0);
    EXPECT_LE(late_retained[s], 8 * sweep);
    EXPECT_LE(late_retained[s], 2 * early_retained[s]);
  }
  EXPECT_LE(late_decided, 8 * sweep);
  EXPECT_LE(late_decided, 2 * early_decided);
  EXPECT_EQ(certifier->window_abort_count(), 0);
  const obs::Auditor* auditor = system->obs()->auditor();
  ASSERT_NE(auditor, nullptr);
  EXPECT_TRUE(auditor->ok()) << auditor->Summary();
}

INSTANTIATE_TEST_SUITE_P(
    Levels, MemoryBoundTest,
    ::testing::Values(ConsistencyLevel::kLazyCoarse, ConsistencyLevel::kEager),
    [](const ::testing::TestParamInfo<ConsistencyLevel>& info) {
      return std::string(ConsistencyLevelName(info.param));
    });

}  // namespace
}  // namespace screp
