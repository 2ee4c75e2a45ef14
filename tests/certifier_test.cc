#include "replication/certifier.h"
#include "runtime/sim_runtime.h"

#include <gtest/gtest.h>

#include <map>
#include <tuple>

namespace screp {
namespace {

WriteSet MakeWs(TxnId id, ReplicaId origin, DbVersion snapshot,
                std::initializer_list<int64_t> keys, TableId table = 0) {
  WriteSet ws;
  ws.txn_id = id;
  ws.origin = origin;
  ws.snapshot_version = snapshot;
  for (int64_t key : keys) {
    ws.Add(table, key, WriteType::kUpdate, Row{Value(key), Value(0)});
  }
  return ws;
}

class CertifierTest : public ::testing::Test {
 protected:
  void Build(int replicas, bool eager) {
    Build(replicas, eager, CertifierConfig{});
  }

  void Build(int replicas, bool eager, CertifierConfig config) {
    certifier_ = std::make_unique<Certifier>(&rt_, config,
                                             replicas, eager);
    certifier_->SetDecisionCallback(
        [this](ReplicaId origin, const CertDecision& decision) {
          decisions_.emplace_back(origin, decision);
        });
    certifier_->SetRefreshCallback(
        [this](ShardId, ReplicaId target, const RefreshBatch& batch) {
          for (const WriteSetRef& ws : batch.writesets) {
            refreshes_.emplace_back(target, *ws);
          }
        });
    certifier_->SetGlobalCommitCallback([this](ReplicaId origin, TxnId txn) {
      global_commits_.emplace_back(origin, txn);
    });
  }

  Simulator sim_;
  runtime::SimRuntime rt_{&sim_};
  std::unique_ptr<Certifier> certifier_;
  std::vector<std::pair<ReplicaId, CertDecision>> decisions_;
  std::vector<std::pair<ReplicaId, WriteSet>> refreshes_;
  std::vector<std::pair<ReplicaId, TxnId>> global_commits_;
};

TEST_F(CertifierTest, FirstCommitGetsVersionOne) {
  Build(3, false);
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));
  sim_.RunAll();
  ASSERT_EQ(decisions_.size(), 1u);
  EXPECT_EQ(decisions_[0].first, 0);
  EXPECT_TRUE(decisions_[0].second.commit);
  EXPECT_EQ(decisions_[0].second.commit_version, 1);
  EXPECT_EQ(certifier_->CommitVersion(), 1);
  EXPECT_EQ(certifier_->certified_count(), 1);
}

TEST_F(CertifierTest, RefreshFanOutSkipsOrigin) {
  Build(4, false);
  certifier_->SubmitCertification(MakeWs(1, 2, 0, {5}));
  sim_.RunAll();
  ASSERT_EQ(refreshes_.size(), 3u);
  for (const auto& [target, ws] : refreshes_) {
    EXPECT_NE(target, 2);
    EXPECT_EQ(ws.commit_version, 1);
    EXPECT_EQ(ws.txn_id, 1u);
  }
}

TEST_F(CertifierTest, ConflictAborted) {
  Build(2, false);
  // Both transactions read snapshot 0 and write key 5.
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));
  certifier_->SubmitCertification(MakeWs(2, 1, 0, {5}));
  sim_.RunAll();
  ASSERT_EQ(decisions_.size(), 2u);
  // Abort decisions skip the log force, so they may overtake commit
  // decisions — look decisions up by transaction id.
  std::map<TxnId, bool> verdicts;
  for (const auto& [origin, decision] : decisions_) {
    (void)origin;
    verdicts[decision.txn_id] = decision.commit;
  }
  EXPECT_TRUE(verdicts.at(1));
  EXPECT_FALSE(verdicts.at(2));
  EXPECT_EQ(certifier_->abort_count(), 1);
  // The aborted transaction consumed no version.
  EXPECT_EQ(certifier_->CommitVersion(), 1);
  // No refresh for the aborted transaction.
  EXPECT_EQ(refreshes_.size(), 1u);
}

TEST_F(CertifierTest, NonConflictingConcurrentCommitsBoth) {
  Build(2, false);
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));
  certifier_->SubmitCertification(MakeWs(2, 1, 0, {6}));
  sim_.RunAll();
  EXPECT_TRUE(decisions_[0].second.commit);
  EXPECT_TRUE(decisions_[1].second.commit);
  EXPECT_EQ(decisions_[1].second.commit_version, 2);
}

TEST_F(CertifierTest, LaterSnapshotEscapesOldConflict) {
  Build(2, false);
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));
  sim_.RunAll();
  // Snapshot 1 already includes txn 1's commit: no conflict.
  certifier_->SubmitCertification(MakeWs(2, 1, 1, {5}));
  sim_.RunAll();
  ASSERT_EQ(decisions_.size(), 2u);
  EXPECT_TRUE(decisions_[1].second.commit);
}

TEST_F(CertifierTest, SameTransactionKeysDifferentTablesNoConflict) {
  Build(2, false);
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}, /*table=*/0));
  certifier_->SubmitCertification(MakeWs(2, 1, 0, {5}, /*table=*/1));
  sim_.RunAll();
  EXPECT_TRUE(decisions_[0].second.commit);
  EXPECT_TRUE(decisions_[1].second.commit);
}

TEST_F(CertifierTest, DecisionsArriveInVersionOrder) {
  Build(2, false);
  for (TxnId t = 1; t <= 10; ++t) {
    certifier_->SubmitCertification(
        MakeWs(t, 0, 0, {static_cast<int64_t>(t * 100)}));
  }
  sim_.RunAll();
  ASSERT_EQ(decisions_.size(), 10u);
  for (size_t i = 0; i < decisions_.size(); ++i) {
    EXPECT_EQ(decisions_[i].second.commit_version,
              static_cast<DbVersion>(i + 1));
  }
}

TEST_F(CertifierTest, DurabilityLogGrowsWithCommits) {
  Build(2, false);
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));
  certifier_->SubmitCertification(MakeWs(2, 1, 0, {6}));
  sim_.RunAll();
  EXPECT_EQ(certifier_->wal(0).DurableSize(), 2u);
  std::vector<WriteSet> records;
  ASSERT_TRUE(certifier_->wal(0).ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].commit_version, 1);
  EXPECT_EQ(records[1].commit_version, 2);
}

TEST_F(CertifierTest, GroupCommitBatchesShareForce) {
  Build(2, false);
  // Submit many certifications back-to-back: with the default 0.8ms force
  // and 0.12ms certify time, most commits should share forces (far fewer
  // disk busy-time than one force each).
  for (TxnId t = 1; t <= 20; ++t) {
    certifier_->SubmitCertification(
        MakeWs(t, 0, 0, {static_cast<int64_t>(t * 7)}));
  }
  sim_.RunAll();
  EXPECT_EQ(certifier_->certified_count(), 20);
  const SimTime disk_time = certifier_->disk(0)->BusyTime();
  EXPECT_LT(disk_time, 20 * Millis(0.8));
}

TEST_F(CertifierTest, EagerGlobalCommitAfterAllReplicas) {
  Build(3, true);
  certifier_->SubmitCertification(MakeWs(1, 1, 0, {5}));
  sim_.RunAll();
  EXPECT_TRUE(global_commits_.empty());
  certifier_->NotifyReplicaCommitted(1);
  certifier_->NotifyReplicaCommitted(1);
  EXPECT_TRUE(global_commits_.empty());
  certifier_->NotifyReplicaCommitted(1);
  ASSERT_EQ(global_commits_.size(), 1u);
  EXPECT_EQ(global_commits_[0].first, 1);   // origin replica
  EXPECT_EQ(global_commits_[0].second, 1u);  // txn id
}

TEST_F(CertifierTest, NonEagerIgnoresCommitNotifications) {
  Build(2, false);
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));
  sim_.RunAll();
  certifier_->NotifyReplicaCommitted(1);  // no-op, must not crash
  EXPECT_TRUE(global_commits_.empty());
}

TEST_F(CertifierTest, WindowOverflowAbortsConservatively) {
  CertifierConfig config;
  config.conflict_window = 2;
  certifier_ = std::make_unique<Certifier>(&rt_, config, 2, false);
  certifier_->SetDecisionCallback(
      [this](ReplicaId origin, const CertDecision& decision) {
        decisions_.emplace_back(origin, decision);
      });
  certifier_->SetRefreshCallback(
      [](ShardId, ReplicaId, const RefreshBatch&) {});
  for (TxnId t = 1; t <= 4; ++t) {
    certifier_->SubmitCertification(
        MakeWs(t, 0, static_cast<DbVersion>(t - 1),
               {static_cast<int64_t>(t)}));
  }
  sim_.RunAll();
  // A transaction with an ancient snapshot must be aborted, not certified
  // incorrectly.
  certifier_->SubmitCertification(MakeWs(99, 0, 0, {999}));
  sim_.RunAll();
  EXPECT_FALSE(decisions_.back().second.commit);
  EXPECT_EQ(certifier_->window_abort_count(), 1);
}

// Pruning can empty the window; an empty window must not read as
// "covers everything": a snapshot below the prune mark is window-aborted
// instead of certified without a conflict check.
TEST_F(CertifierTest, PrunedToEmptyWindowAbortsStaleSnapshots) {
  Build(2, false);
  for (TxnId t = 1; t <= 5; ++t) {
    certifier_->SubmitCertification(
        MakeWs(t, 0, static_cast<DbVersion>(t - 1), {1}));
    sim_.RunAll();
  }
  ASSERT_EQ(certifier_->CommitVersion(), 5);
  certifier_->PruneThrough(0, 5);
  EXPECT_EQ(certifier_->pruned_through(), 5);
  EXPECT_EQ(certifier_->retained_writesets(0), 0u);
  EXPECT_EQ(certifier_->conflict_index_size(), 0u);
  // Only the decision made at the mark itself stays (an abort decided at
  // version 5 for a snapshot-5 transaction could still be awaited).
  EXPECT_LE(certifier_->decided_size(), 1u);
  // Writes key 1, which versions 1..5 all wrote: certifying it against
  // the empty window would wrongly commit.
  certifier_->SubmitCertification(MakeWs(10, 1, 2, {1}));
  sim_.RunAll();
  EXPECT_FALSE(decisions_.back().second.commit);
  EXPECT_EQ(certifier_->window_abort_count(), 1);
  // A snapshot at the mark needs nothing the window dropped.
  certifier_->SubmitCertification(MakeWs(11, 1, 5, {1}));
  sim_.RunAll();
  EXPECT_TRUE(decisions_.back().second.commit);
  EXPECT_EQ(decisions_.back().second.commit_version, 6);
  // The mark never moves back.
  certifier_->PruneThrough(0, 3);
  EXPECT_EQ(certifier_->pruned_through(), 5);
}

// The retained log serves what the pruned window no longer holds, and
// the window whatever is not durable yet: together, gap-free and in
// order.  Pruning drops the whole log segments at or below the mark, so
// a fetch from below the retained log is refused outright.
TEST_F(CertifierTest, FetchSinceStitchesLogSuffixAndWindow) {
  Build(2, false);
  for (TxnId t = 1; t <= 200; ++t) {
    certifier_->SubmitCertification(
        MakeWs(t, 0, static_cast<DbVersion>(t - 1),
               {static_cast<int64_t>(t)}));
    sim_.RunAll();
  }
  const size_t unpruned_bytes = certifier_->wal(0).DurableBytes();
  certifier_->PruneThrough(0, 150);
  ASSERT_EQ(certifier_->retained_writesets(0), 50u);
  // Segments [1, 64] and [65, 128] lie wholly at or below the mark;
  // [129, 192] holds 151..192 and stays.
  constexpr auto kSegment = static_cast<DbVersion>(Wal::kSegmentRecords);
  EXPECT_EQ(certifier_->wal(0).FirstRetained(), 2 * kSegment + 1);
  EXPECT_LT(certifier_->wal(0).DurableBytes(), unpruned_bytes / 2);
  EXPECT_EQ(certifier_->FetchFloor(0), 2 * kSegment);
  // Two more certified but not yet forced: only the window has them.
  certifier_->SubmitCertification(MakeWs(201, 0, 200, {201}));
  certifier_->SubmitCertification(MakeWs(202, 0, 200, {202}));
  sim_.RunUntil(sim_.Now() + Micros(300));
  ASSERT_EQ(certifier_->CommitVersion(), 202);
  ASSERT_EQ(certifier_->wal(0).DurableSize(), 200u);
  // From the segment boundary up: log suffix (crossing into the next
  // segment), then the window.
  for (DbVersion from : {2 * kSegment, 2 * kSegment + 1, DbVersion{149},
                         DbVersion{150}, 3 * kSegment, DbVersion{201}}) {
    std::vector<DbVersion> got;
    ASSERT_TRUE(certifier_
                    ->FetchSince(0, from,
                                 [&got](const WriteSet& ws) {
                                   got.push_back(ws.commit_version);
                                 })
                    .ok());
    ASSERT_EQ(got.size(), static_cast<size_t>(202 - from)) << from;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], from + 1 + static_cast<DbVersion>(i)) << from;
    }
  }
  sim_.RunAll();
}

TEST_F(CertifierTest, FetchSinceBelowTheRetainedLogIsRefusedWholesale) {
  Build(2, false);
  for (TxnId t = 1; t <= 200; ++t) {
    certifier_->SubmitCertification(
        MakeWs(t, 0, static_cast<DbVersion>(t - 1),
               {static_cast<int64_t>(t)}));
    sim_.RunAll();
  }
  certifier_->PruneThrough(0, 150);
  const DbVersion floor = certifier_->FetchFloor(0);
  ASSERT_EQ(floor, 2 * static_cast<DbVersion>(Wal::kSegmentRecords));
  for (DbVersion from : {DbVersion{0}, DbVersion{63}, DbVersion{64},
                         floor - 1}) {
    int streamed = 0;
    const Status st = certifier_->FetchSince(
        0, from, [&streamed](const WriteSet&) { ++streamed; });
    EXPECT_TRUE(st.IsOutOfRange()) << from << ": " << st.ToString();
    EXPECT_EQ(streamed, 0) << "a partial stream from " << from;
  }
  // The mark keeps advancing: once the window and every segment are past
  // a reader, only the window's front still bounds it.
  certifier_->PruneThrough(0, 200);
  EXPECT_EQ(certifier_->retained_writesets(0), 0u);
  EXPECT_EQ(certifier_->FetchFloor(0), 3 * static_cast<DbVersion>(
                                               Wal::kSegmentRecords));
  EXPECT_TRUE(certifier_->FetchSince(0, 200, [](const WriteSet&) {}).ok());
}

// A standby mirrors the primary's prune mark at the primary's stream
// position, not on arrival: a writeset the primary certified before it
// pruned must be certified by a lagging standby against the same,
// unpruned window — otherwise the two would diverge.
TEST_F(CertifierTest, StandbyMirrorsPruneAtTheSameStreamPosition) {
  Build(2, false);
  Certifier standby(&rt_, CertifierConfig{}, 2, false);
  standby.SetMuted(true);
  std::vector<WriteSet> forwarded;
  certifier_->SetForwardCallback(
      [&forwarded](const WriteSet& ws) { forwarded.push_back(ws); });
  // Versions 1..3; the third has an old snapshot but no conflict.
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {1}));
  certifier_->SubmitCertification(MakeWs(2, 0, 0, {2}));
  certifier_->SubmitCertification(MakeWs(3, 1, 0, {3}));
  sim_.RunAll();
  ASSERT_EQ(certifier_->CommitVersion(), 3);
  certifier_->PruneThrough(0, 3);
  // The standby has seen only the first forward when the sweep mirrors.
  standby.SubmitCertification(forwarded[0]);
  sim_.RunAll();
  standby.MirrorPruneOf(*certifier_);
  EXPECT_EQ(standby.pruned_through(), 0);
  standby.SubmitCertification(forwarded[1]);
  standby.SubmitCertification(forwarded[2]);
  sim_.RunAll();
  EXPECT_EQ(standby.CommitVersion(), 3);
  EXPECT_EQ(standby.window_abort_count(), 0);
  // The next forwarded submission is decided against the mirrored mark,
  // exactly as the primary decides it.
  certifier_->SubmitCertification(MakeWs(4, 0, 1, {4}));
  sim_.RunAll();
  standby.SubmitCertification(forwarded[3]);
  sim_.RunAll();
  EXPECT_EQ(certifier_->window_abort_count(), 1);
  EXPECT_EQ(standby.window_abort_count(), 1);
  EXPECT_EQ(standby.pruned_through(), 3);
  EXPECT_EQ(standby.CommitVersion(), certifier_->CommitVersion());
}

TEST_F(CertifierTest, DecisionMapBoundedByConflictWindow) {
  CertifierConfig config;
  config.conflict_window = 16;
  certifier_ = std::make_unique<Certifier>(&rt_, config, 2, false);
  certifier_->SetDecisionCallback(
      [this](ReplicaId origin, const CertDecision& decision) {
        decisions_.emplace_back(origin, decision);
      });
  certifier_->SetRefreshCallback(
      [](ShardId, ReplicaId, const RefreshBatch&) {});
  for (TxnId t = 1; t <= 500; ++t) {
    certifier_->SubmitCertification(
        MakeWs(t, 0, static_cast<DbVersion>(t - 1),
               {static_cast<int64_t>(t)}));
    sim_.RunAll();
  }
  EXPECT_EQ(certifier_->certified_count(), 500);
  // Retired once certification advances a full window past them — the
  // map no longer grows with run length.
  EXPECT_LE(certifier_->decided_size(), 18u);
  // The index over the committed window is pruned alongside it.
  EXPECT_LE(certifier_->conflict_index_size(), 16u);

  // In-window idempotence survives the retirement: a recent decision is
  // replayed, not re-decided (no new commit version is consumed).
  const DbVersion before = certifier_->CommitVersion();
  decisions_.clear();
  certifier_->SubmitCertification(MakeWs(500, 0, 499, {500}));
  sim_.RunAll();
  ASSERT_EQ(decisions_.size(), 1u);
  EXPECT_TRUE(decisions_[0].second.commit);
  EXPECT_EQ(decisions_[0].second.commit_version, before);
  EXPECT_EQ(certifier_->CommitVersion(), before);
}

TEST_F(CertifierTest, ConflictIndexMatchesNewestConflictingVersion) {
  Build(2, false);
  // Three successive writers of key 5.
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));
  certifier_->SubmitCertification(MakeWs(2, 0, 1, {5, 6}));
  certifier_->SubmitCertification(MakeWs(3, 0, 2, {5, 7}));
  sim_.RunAll();
  EXPECT_EQ(certifier_->CommitVersion(), 3);
  // A stale writer of key 6 must be aborted against version 2 (the
  // newest write to key 6), even though key 5 was rewritten at 3.
  certifier_->SubmitCertification(MakeWs(10, 1, 1, {6}));
  sim_.RunAll();
  EXPECT_FALSE(decisions_.back().second.commit);
  // A writer of key 6 whose snapshot already saw version 2 commits.
  certifier_->SubmitCertification(MakeWs(11, 1, 2, {6}));
  sim_.RunAll();
  EXPECT_TRUE(decisions_.back().second.commit);
}

TEST_F(CertifierTest, ForceBatchCapOneForcesEveryCommitSeparately) {
  CertifierConfig config;
  config.max_force_batch = 1;
  Build(2, false, config);
  for (TxnId t = 1; t <= 20; ++t) {
    certifier_->SubmitCertification(
        MakeWs(t, 0, 0, {static_cast<int64_t>(t * 7)}));
  }
  sim_.RunAll();
  EXPECT_EQ(certifier_->certified_count(), 20);
  // A cap of one disables group commit entirely: 20 commits, 20 forces.
  EXPECT_EQ(certifier_->disk(0)->BusyTime(), 20 * Millis(0.8));
  EXPECT_EQ(certifier_->wal(0).DurableSize(), 20u);
}

TEST_F(CertifierTest, ForceBatchCapKeepsCommitVersionOrder) {
  CertifierConfig config;
  config.max_force_batch = 2;
  Build(2, false, config);
  for (TxnId t = 1; t <= 11; ++t) {
    certifier_->SubmitCertification(
        MakeWs(t, 0, 0, {static_cast<int64_t>(t * 7)}));
  }
  sim_.RunAll();
  EXPECT_EQ(certifier_->certified_count(), 11);
  // Every commit still reaches the other replica, oldest first: capped
  // forces take the head of the pending batch, never reorder it.
  ASSERT_EQ(refreshes_.size(), 11u);
  for (size_t i = 0; i < refreshes_.size(); ++i) {
    EXPECT_EQ(refreshes_[i].first, 1);
    EXPECT_EQ(refreshes_[i].second.commit_version,
              static_cast<DbVersion>(i + 1));
  }
  std::vector<WriteSet> records;
  ASSERT_TRUE(certifier_->wal(0).ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 11u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].commit_version, static_cast<DbVersion>(i + 1));
  }
}

TEST_F(CertifierTest, UnboundedForceBatchEquivalentToHugeCap) {
  // max_force_batch = 0 (the legacy unbounded behaviour) and a cap that
  // never binds must produce identical refresh schedules and disk time.
  auto run = [](size_t cap) {
    Simulator sim;
    runtime::SimRuntime rt{&sim};
    CertifierConfig config;
    config.max_force_batch = cap;
    Certifier certifier(&rt, config, 3, false);
    std::vector<std::tuple<ReplicaId, TxnId, DbVersion, SimTime>> refreshes;
    certifier.SetDecisionCallback(
        [](ReplicaId, const CertDecision&) {});
    certifier.SetRefreshCallback(
        [&](ShardId, ReplicaId target, const RefreshBatch& batch) {
          for (const WriteSetRef& ws : batch.writesets) {
            refreshes.emplace_back(target, ws->txn_id, ws->commit_version,
                                   sim.Now());
          }
        });
    for (TxnId t = 1; t <= 30; ++t) {
      certifier.SubmitCertification(
          MakeWs(t, 0, 0, {static_cast<int64_t>(t * 3)}));
    }
    sim.RunAll();
    return std::make_pair(refreshes, certifier.disk(0)->BusyTime());
  };
  const auto unbounded = run(0);
  const auto huge = run(1000);
  EXPECT_EQ(unbounded.first, huge.first);
  EXPECT_EQ(unbounded.second, huge.second);
}

TEST_F(CertifierTest, ShedSubmissionsNeverLeakAnIntakeSlot) {
  CertifierConfig config;
  config.max_intake = 2;
  Build(2, false, config);
  // Flood: one enters service, two queue, the rest are refused on
  // arrival.  A shed submission must not occupy CPU or an intake slot.
  for (TxnId t = 1; t <= 10; ++t) {
    certifier_->SubmitCertification(
        MakeWs(t, 0, 0, {static_cast<int64_t>(t)}));
  }
  EXPECT_EQ(certifier_->shed_count(), 7);
  EXPECT_EQ(certifier_->cpu(0)->QueueLength(), 2u);
  ASSERT_EQ(decisions_.size(), 7u);
  for (const auto& [origin, decision] : decisions_) {
    (void)origin;
    EXPECT_FALSE(decision.commit);
    EXPECT_TRUE(decision.overloaded);
    EXPECT_EQ(decision.commit_version, kNoVersion);
  }
  sim_.RunAll();
  // The admitted three were certified normally; the queue is empty again.
  EXPECT_EQ(certifier_->certified_count(), 3);
  EXPECT_EQ(certifier_->CommitVersion(), 3);
  EXPECT_EQ(certifier_->cpu(0)->QueueLength(), 0u);
  // Full capacity is back: another burst at the bound is admitted whole.
  decisions_.clear();
  for (TxnId t = 11; t <= 13; ++t) {
    certifier_->SubmitCertification(
        MakeWs(t, 0, 3, {static_cast<int64_t>(t)}));
  }
  EXPECT_EQ(certifier_->shed_count(), 7);
  sim_.RunAll();
  EXPECT_EQ(certifier_->certified_count(), 6);
  ASSERT_EQ(decisions_.size(), 3u);
  for (const auto& [origin, decision] : decisions_) {
    (void)origin;
    EXPECT_TRUE(decision.commit);
  }
}

TEST_F(CertifierTest, DecidedResubmissionExemptFromIntakeBound) {
  CertifierConfig config;
  config.max_intake = 1;
  Build(2, false, config);
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));
  sim_.RunAll();
  ASSERT_EQ(decisions_.size(), 1u);
  const DbVersion version = decisions_[0].second.commit_version;
  // Saturate the intake, then resubmit the decided transaction: the
  // replay bypasses the bound (the decision already exists — refusing
  // the retry would strand the origin), while a fresh submission at the
  // bound is still shed.
  certifier_->SubmitCertification(MakeWs(2, 1, 1, {6}));  // enters service
  certifier_->SubmitCertification(MakeWs(3, 1, 1, {7}));  // takes the slot
  certifier_->SubmitCertification(MakeWs(5, 1, 1, {9}));  // shed: at bound
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));  // decided: exempt
  certifier_->SubmitCertification(MakeWs(4, 1, 1, {8}));  // still shed
  EXPECT_EQ(certifier_->shed_count(), 2);  // txn 5 and txn 4
  sim_.RunAll();
  // The replayed decision is verbatim and nothing was certified twice.
  std::map<TxnId, int> seen;
  for (const auto& [origin, decision] : decisions_) {
    (void)origin;
    ++seen[decision.txn_id];
    if (decision.txn_id == 1) {
      EXPECT_TRUE(decision.commit);
      EXPECT_EQ(decision.commit_version, version);
    }
  }
  EXPECT_EQ(seen[1], 2);
  EXPECT_EQ(certifier_->certified_count(), 3);  // txn 1, 2 and 3
  // The resubmission held no slot: the queue drained to empty.
  EXPECT_EQ(certifier_->cpu(0)->QueueLength(), 0u);
}

}  // namespace
}  // namespace screp
