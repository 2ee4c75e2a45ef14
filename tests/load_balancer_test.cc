#include "replication/load_balancer.h"
#include "runtime/sim_runtime.h"

#include <gtest/gtest.h>

namespace screp {
namespace {

constexpr TableId kA = 0, kB = 1;

class LoadBalancerTest : public ::testing::Test {
 protected:
  void Build(ConsistencyLevel level, int replicas = 3,
             AdmissionConfig admission = AdmissionConfig{}) {
    lb_ = std::make_unique<LoadBalancer>(&rt_, level, 2, replicas,
                                         RoutingPolicy::kLeastActive, 0,
                                         admission);
    lb_->SetDispatchCallback([this](ReplicaId replica,
                                    const TxnRequest& request,
                                    const ShardVersions& required) {
      // One shard: the requirement is shard 0's version.
      dispatches_.push_back({replica, request, required.at(0).second});
    });
    lb_->SetClientResponseCallback(
        [this](const TxnResponse& r) { client_responses_.push_back(r); });
    lb_->SetTableSets({{0, {kA}}, {1, {kB}}, {2, {kA, kB}}});
  }

  TxnRequest MakeRequest(TxnId id, TxnTypeId type, SessionId session) {
    TxnRequest req;
    req.txn_id = id;
    req.type = type;
    req.session = session;
    return req;
  }

  TxnResponse MakeResponse(TxnId id, ReplicaId replica, SessionId session,
                           DbVersion v_local,
                           std::vector<std::pair<TableId, DbVersion>>
                               written = {}) {
    TxnResponse r;
    r.txn_id = id;
    r.replica = replica;
    r.session = session;
    r.outcome = TxnOutcome::kCommitted;
    r.v_local_after = v_local;
    r.written_table_versions = std::move(written);
    return r;
  }

  struct Dispatch {
    ReplicaId replica;
    TxnRequest request;
    DbVersion required;
  };

  Simulator sim_;
  runtime::SimRuntime rt_{&sim_};
  std::unique_ptr<LoadBalancer> lb_;
  std::vector<Dispatch> dispatches_;
  std::vector<TxnResponse> client_responses_;
};

TEST_F(LoadBalancerTest, SpreadsLoadAcrossIdleReplicas) {
  Build(ConsistencyLevel::kLazyCoarse);
  for (TxnId t = 0; t < 3; ++t) {
    lb_->OnClientRequest(MakeRequest(t, 0, 1));
  }
  ASSERT_EQ(dispatches_.size(), 3u);
  // Least-active with rotating tie-break: all three replicas used.
  std::vector<bool> used(3, false);
  for (const auto& d : dispatches_) {
    used[static_cast<size_t>(d.replica)] = true;
  }
  EXPECT_TRUE(used[0] && used[1] && used[2]);
}

TEST_F(LoadBalancerTest, RoutesToLeastActiveReplica) {
  Build(ConsistencyLevel::kLazyCoarse);
  // Occupy replicas 0 and 1 with one transaction each; finish replica 1's.
  lb_->OnClientRequest(MakeRequest(1, 0, 1));
  lb_->OnClientRequest(MakeRequest(2, 0, 1));
  lb_->OnClientRequest(MakeRequest(3, 0, 1));
  EXPECT_EQ(lb_->ActiveAt(0), 1);
  EXPECT_EQ(lb_->ActiveAt(1), 1);
  EXPECT_EQ(lb_->ActiveAt(2), 1);
  lb_->OnProxyResponse(MakeResponse(2, 1, 1, 0));
  EXPECT_EQ(lb_->ActiveAt(1), 0);
  lb_->OnClientRequest(MakeRequest(4, 0, 1));
  EXPECT_EQ(dispatches_.back().replica, 1);  // the only idle replica
}

TEST_F(LoadBalancerTest, CoarseTagsWithSystemVersion) {
  Build(ConsistencyLevel::kLazyCoarse);
  lb_->OnClientRequest(MakeRequest(1, 0, 1));
  EXPECT_EQ(dispatches_[0].required, 0);
  lb_->OnProxyResponse(MakeResponse(1, dispatches_[0].replica, 1, 5,
                                    {{kA, 5}}));
  // Any session's next transaction must see version 5.
  lb_->OnClientRequest(MakeRequest(2, 1, 99));
  EXPECT_EQ(dispatches_[1].required, 5);
}

TEST_F(LoadBalancerTest, FineTagsWithTableSetVersion) {
  Build(ConsistencyLevel::kLazyFine);
  lb_->OnClientRequest(MakeRequest(1, 0, 1));
  lb_->OnProxyResponse(
      MakeResponse(1, dispatches_[0].replica, 1, 5, {{kA, 5}}));
  // Type 1 touches only table B: no wait.
  lb_->OnClientRequest(MakeRequest(2, 1, 2));
  EXPECT_EQ(dispatches_[1].required, 0);
  // Type 0 (table A) and type 2 (A and B) must wait for version 5.
  lb_->OnClientRequest(MakeRequest(3, 0, 2));
  EXPECT_EQ(dispatches_[2].required, 5);
  lb_->OnClientRequest(MakeRequest(4, 2, 2));
  EXPECT_EQ(dispatches_[3].required, 5);
}

TEST_F(LoadBalancerTest, SessionTagsPerSession) {
  Build(ConsistencyLevel::kSession);
  lb_->OnClientRequest(MakeRequest(1, 0, 7));
  lb_->OnProxyResponse(
      MakeResponse(1, dispatches_[0].replica, 7, 4, {{kA, 4}}));
  lb_->OnClientRequest(MakeRequest(2, 0, 7));  // same session
  EXPECT_EQ(dispatches_[1].required, 4);
  lb_->OnClientRequest(MakeRequest(3, 0, 8));  // other session
  EXPECT_EQ(dispatches_[2].required, 0);
}

TEST_F(LoadBalancerTest, EagerNeverTags) {
  Build(ConsistencyLevel::kEager);
  lb_->OnClientRequest(MakeRequest(1, 0, 1));
  lb_->OnProxyResponse(
      MakeResponse(1, dispatches_[0].replica, 1, 9, {{kA, 9}}));
  lb_->OnClientRequest(MakeRequest(2, 0, 1));
  EXPECT_EQ(dispatches_[1].required, 0);
}

TEST_F(LoadBalancerTest, AbortedResponsesDoNotAdvanceVersions) {
  Build(ConsistencyLevel::kLazyCoarse);
  lb_->OnClientRequest(MakeRequest(1, 0, 1));
  TxnResponse aborted = MakeResponse(1, dispatches_[0].replica, 1, 9);
  aborted.outcome = TxnOutcome::kCertificationAbort;
  lb_->OnProxyResponse(aborted);
  lb_->OnClientRequest(MakeRequest(2, 0, 1));
  EXPECT_EQ(dispatches_[1].required, 0);
  // But the client still got the response and the replica slot freed.
  EXPECT_EQ(client_responses_.size(), 1u);
  EXPECT_EQ(lb_->ActiveAt(dispatches_[0].replica), 0);
}

TEST_F(LoadBalancerTest, ResponsesRelayedToClients) {
  Build(ConsistencyLevel::kLazyCoarse);
  lb_->OnClientRequest(MakeRequest(1, 0, 1));
  lb_->OnProxyResponse(MakeResponse(1, dispatches_[0].replica, 1, 1));
  ASSERT_EQ(client_responses_.size(), 1u);
  EXPECT_EQ(client_responses_[0].txn_id, 1u);
  EXPECT_EQ(lb_->dispatched_count(), 1);
}

TEST_F(LoadBalancerTest, SingleReplicaAlwaysPicked) {
  Build(ConsistencyLevel::kLazyCoarse, /*replicas=*/1);
  for (TxnId t = 0; t < 5; ++t) {
    lb_->OnClientRequest(MakeRequest(t, 0, 1));
  }
  for (const auto& d : dispatches_) EXPECT_EQ(d.replica, 0);
}

TEST_F(LoadBalancerTest, AllReplicasDownFailsRequestBackToClient) {
  Build(ConsistencyLevel::kLazyCoarse);
  for (ReplicaId r = 0; r < 3; ++r) lb_->MarkReplicaDown(r);
  // No live replica: the request must fail back, not abort the process.
  lb_->OnClientRequest(MakeRequest(1, 0, 1));
  EXPECT_TRUE(dispatches_.empty());
  ASSERT_EQ(client_responses_.size(), 1u);
  EXPECT_EQ(client_responses_[0].outcome, TxnOutcome::kReplicaFailure);
  EXPECT_EQ(client_responses_[0].replica, kNoReplica);
  EXPECT_EQ(lb_->unroutable_count(), 1);
  // One replica back: routable again.
  lb_->MarkReplicaUp(1);
  lb_->OnClientRequest(MakeRequest(2, 0, 1));
  ASSERT_EQ(dispatches_.size(), 1u);
  EXPECT_EQ(dispatches_[0].replica, 1);
}

TEST_F(LoadBalancerTest, AdmissionWindowQueuesThenSheds) {
  AdmissionConfig admission;
  admission.max_outstanding_per_replica = 1;
  admission.admission_queue_limit = 2;
  Build(ConsistencyLevel::kLazyCoarse, /*replicas=*/2, admission);
  // Two dispatches fill both windows; two more queue; the fifth is shed.
  for (TxnId t = 1; t <= 5; ++t) {
    lb_->OnClientRequest(MakeRequest(t, 0, 1));
  }
  EXPECT_EQ(dispatches_.size(), 2u);
  EXPECT_EQ(lb_->admission_queue_depth(), 2u);
  EXPECT_EQ(lb_->peak_admission_queue(), 2u);
  ASSERT_EQ(client_responses_.size(), 1u);
  EXPECT_EQ(client_responses_[0].txn_id, 5u);
  EXPECT_EQ(client_responses_[0].outcome, TxnOutcome::kOverloaded);
  EXPECT_EQ(lb_->shed_count(), 1);
  // A finished transaction frees a window slot and drains the queue FIFO.
  lb_->OnProxyResponse(MakeResponse(dispatches_[0].request.txn_id,
                                    dispatches_[0].replica, 1, 1));
  ASSERT_EQ(dispatches_.size(), 3u);
  EXPECT_EQ(dispatches_[2].request.txn_id, 3u);
  EXPECT_EQ(lb_->admission_queue_depth(), 1u);
}

TEST_F(LoadBalancerTest, MarkReplicaDownFailsQueuedRequestsWhenLastDies) {
  AdmissionConfig admission;
  admission.max_outstanding_per_replica = 1;
  Build(ConsistencyLevel::kLazyCoarse, /*replicas=*/1, admission);
  lb_->OnClientRequest(MakeRequest(1, 0, 1));  // dispatched
  lb_->OnClientRequest(MakeRequest(2, 0, 1));  // queued (window full)
  EXPECT_EQ(lb_->admission_queue_depth(), 1u);
  lb_->MarkReplicaDown(0);
  // Both the outstanding and the queued request fail back to clients.
  ASSERT_EQ(client_responses_.size(), 2u);
  EXPECT_EQ(client_responses_[0].outcome, TxnOutcome::kReplicaFailure);
  EXPECT_EQ(client_responses_[1].outcome, TxnOutcome::kReplicaFailure);
  EXPECT_EQ(lb_->admission_queue_depth(), 0u);
}

TEST_F(LoadBalancerTest, EndSessionDropsTrackerEntry) {
  Build(ConsistencyLevel::kSession);
  lb_->OnClientRequest(MakeRequest(1, 0, 7));
  lb_->OnProxyResponse(
      MakeResponse(1, dispatches_[0].replica, 7, 4, {{kA, 4}}));
  EXPECT_EQ(lb_->policy().sessions().session_count(), 1u);
  lb_->EndSession(7);
  EXPECT_EQ(lb_->policy().sessions().session_count(), 0u);
  // A later request under the same SID re-creates the entry safely, with
  // the conservative (no-requirement) floor.
  lb_->OnClientRequest(MakeRequest(2, 0, 7));
  EXPECT_EQ(dispatches_[1].required, 0);
}

}  // namespace
}  // namespace screp
