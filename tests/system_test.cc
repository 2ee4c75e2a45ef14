#include "replication/system.h"
#include "runtime/sim_runtime.h"

#include <gtest/gtest.h>

#include "consistency/checker.h"

namespace screp {
namespace {

/// Two tables, a handful of rows, three transaction types.
Status BuildTinySchema(Database* db) {
  SCREP_ASSIGN_OR_RETURN(
      TableId a, db->CreateTable("alpha", Schema({{"id", ValueType::kInt64},
                                                  {"val", ValueType::kInt64}})));
  SCREP_ASSIGN_OR_RETURN(
      TableId b, db->CreateTable("beta", Schema({{"id", ValueType::kInt64},
                                                 {"val", ValueType::kInt64}})));
  for (int64_t k = 0; k < 20; ++k) {
    SCREP_RETURN_NOT_OK(db->BulkLoad(a, {Value(k), Value(0)}));
    SCREP_RETURN_NOT_OK(db->BulkLoad(b, {Value(k), Value(0)}));
  }
  return Status::OK();
}

Status DefineTinyTxns(const Database& db, sql::TransactionRegistry* reg) {
  auto add = [&](const char* name,
                 std::initializer_list<const char*> texts) -> Status {
    sql::PreparedTransaction txn;
    txn.name = name;
    for (const char* text : texts) {
      SCREP_ASSIGN_OR_RETURN(auto stmt,
                             sql::PreparedStatement::Prepare(db, text));
      txn.statements.push_back(std::move(stmt));
    }
    reg->Register(std::move(txn));
    return Status::OK();
  };
  SCREP_RETURN_NOT_OK(add("read_alpha",
                          {"SELECT val FROM alpha WHERE id = ?"}));
  SCREP_RETURN_NOT_OK(
      add("write_alpha", {"UPDATE alpha SET val = val + ? WHERE id = ?"}));
  SCREP_RETURN_NOT_OK(
      add("write_beta", {"UPDATE beta SET val = val + ? WHERE id = ?"}));
  return Status::OK();
}

class SystemTest : public ::testing::Test {
 protected:
  void Build(ConsistencyLevel level, int replicas) {
    responses_.clear();
    history_.Clear();
    sim_ = std::make_unique<Simulator>();
    rt_ = std::make_unique<runtime::SimRuntime>(sim_.get());
    SystemConfig config;
    config.replica_count = replicas;
    config.level = level;
    auto system = ReplicatedSystem::Create(rt_.get(), config,
                                           BuildTinySchema, DefineTinyTxns);
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    system_ = std::move(system).value();
    system_->SetHistory(&history_);
    system_->SetClientCallback(
        [this](const TxnResponse& r) { responses_.push_back(r); });
  }

  void Submit(const char* type, SessionId session,
              std::vector<std::vector<Value>> params) {
    TxnRequest req;
    req.txn_id = system_->NextTxnId();
    req.type = *system_->registry().Find(type);
    req.session = session;
    req.client_id = static_cast<int>(session);
    req.params = std::move(params);
    system_->Submit(std::move(req));
  }

  /// All replicas at the same version with identical table contents.
  void ExpectReplicasConverged() {
    const DbVersion version = system_->replica(0)->db()->CommittedVersion();
    for (int r = 1; r < system_->replica_count(); ++r) {
      EXPECT_EQ(system_->replica(r)->db()->CommittedVersion(), version)
          << "replica " << r;
    }
    const size_t tables = system_->replica(0)->db()->TableCount();
    for (size_t t = 0; t < tables; ++t) {
      std::vector<std::pair<int64_t, std::string>> reference;
      system_->replica(0)->db()->table(static_cast<TableId>(t))->Scan(
          version, [&](int64_t key, const Row& row) {
            reference.emplace_back(key, RowToString(row));
            return true;
          });
      for (int r = 1; r < system_->replica_count(); ++r) {
        std::vector<std::pair<int64_t, std::string>> other;
        system_->replica(r)->db()->table(static_cast<TableId>(t))->Scan(
            version, [&](int64_t key, const Row& row) {
              other.emplace_back(key, RowToString(row));
              return true;
            });
        EXPECT_EQ(other, reference) << "table " << t << " replica " << r;
      }
    }
  }

  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<runtime::SimRuntime> rt_;
  std::unique_ptr<ReplicatedSystem> system_;
  History history_;
  std::vector<TxnResponse> responses_;
};

TEST_F(SystemTest, SingleUpdatePropagatesToAllReplicas) {
  Build(ConsistencyLevel::kLazyCoarse, 3);
  Submit("write_alpha", 1, {{Value(42), Value(5)}});
  sim_->RunAll();
  ASSERT_EQ(responses_.size(), 1u);
  EXPECT_EQ(responses_[0].outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(responses_[0].commit_version, 1);
  ExpectReplicasConverged();
  auto alpha = system_->replica(2)->db()->FindTable("alpha");
  ASSERT_TRUE(alpha.ok());
  auto row = system_->replica(2)->db()->table(*alpha)->Get(5, 1);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsInt(), 42);
}

TEST_F(SystemTest, ManyUpdatesConvergeUnderEveryLevel) {
  for (ConsistencyLevel level : kAllConsistencyLevels) {
    SCOPED_TRACE(ConsistencyLevelName(level));
    Build(level, 4);
    for (int i = 0; i < 40; ++i) {
      Submit(i % 2 == 0 ? "write_alpha" : "write_beta",
             static_cast<SessionId>(i % 5 + 1),
             {{Value(1), Value(i % 20)}});
    }
    sim_->RunAll();
    EXPECT_EQ(responses_.size(), 40u);
    ExpectReplicasConverged();
    // Commit versions are a dense total order.
    EXPECT_TRUE(CheckCommitTotalOrder(history_).ok);
  }
}

TEST_F(SystemTest, ConflictingConcurrentUpdatesOneAborts) {
  Build(ConsistencyLevel::kLazyCoarse, 2);
  // Two clients update the same key at the same instant on different
  // replicas (least-active routing sends them to different replicas).
  Submit("write_alpha", 1, {{Value(1), Value(7)}});
  Submit("write_alpha", 2, {{Value(2), Value(7)}});
  sim_->RunAll();
  ASSERT_EQ(responses_.size(), 2u);
  int committed = 0, aborted = 0;
  for (const auto& r : responses_) {
    if (r.outcome == TxnOutcome::kCommitted) ++committed;
    if (r.outcome == TxnOutcome::kCertificationAbort ||
        r.outcome == TxnOutcome::kEarlyAbort) {
      ++aborted;
    }
  }
  EXPECT_EQ(committed, 1);
  EXPECT_EQ(aborted, 1);
  ExpectReplicasConverged();
}

TEST_F(SystemTest, NonConflictingConcurrentUpdatesBothCommit) {
  Build(ConsistencyLevel::kLazyCoarse, 2);
  Submit("write_alpha", 1, {{Value(1), Value(3)}});
  Submit("write_alpha", 2, {{Value(2), Value(4)}});
  sim_->RunAll();
  for (const auto& r : responses_) {
    EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  }
  ExpectReplicasConverged();
}

TEST_F(SystemTest, ReadAfterAcknowledgedWriteSeesItUnderStrongLevels) {
  for (ConsistencyLevel level :
       {ConsistencyLevel::kEager, ConsistencyLevel::kLazyCoarse,
        ConsistencyLevel::kLazyFine}) {
    SCOPED_TRACE(ConsistencyLevelName(level));
    Build(level, 3);
    // Session 1 writes; once acknowledged, session 2 reads.
    Submit("write_alpha", 1, {{Value(99), Value(0)}});
    sim_->RunAll();
    ASSERT_EQ(responses_.size(), 1u);
    ASSERT_EQ(responses_[0].outcome, TxnOutcome::kCommitted);
    Submit("read_alpha", 2, {{Value(0)}});
    sim_->RunAll();
    ASSERT_EQ(responses_.size(), 2u);
    // The read began at a snapshot that includes the write.
    EXPECT_GE(responses_[1].snapshot, responses_[0].commit_version);
  }
}

TEST_F(SystemTest, HistoryPassesCheckersUnderStrongLevels) {
  for (ConsistencyLevel level :
       {ConsistencyLevel::kEager, ConsistencyLevel::kLazyCoarse,
        ConsistencyLevel::kLazyFine}) {
    SCOPED_TRACE(ConsistencyLevelName(level));
    Build(level, 3);
    for (int i = 0; i < 30; ++i) {
      if (i % 3 == 0) {
        Submit("read_alpha", static_cast<SessionId>(i % 4 + 1),
               {{Value(i % 20)}});
      } else {
        Submit("write_alpha", static_cast<SessionId>(i % 4 + 1),
               {{Value(1), Value(i % 20)}});
      }
    }
    sim_->RunAll();
    CheckResult result = CheckAll(history_, /*expect_strong=*/true);
    EXPECT_TRUE(result.ok) << result.ToString();
    EXPECT_GT(result.examined, 0);
  }
}

TEST_F(SystemTest, SessionLevelStillSessionConsistent) {
  Build(ConsistencyLevel::kSession, 3);
  for (int i = 0; i < 30; ++i) {
    Submit(i % 2 == 0 ? "write_alpha" : "read_alpha",
           static_cast<SessionId>(i % 3 + 1),
           i % 2 == 0
               ? std::vector<std::vector<Value>>{{Value(1), Value(i % 20)}}
               : std::vector<std::vector<Value>>{{Value(i % 20)}});
  }
  sim_->RunAll();
  CheckResult result = CheckAll(history_, /*expect_strong=*/false);
  EXPECT_TRUE(result.ok) << result.ToString();
}

TEST_F(SystemTest, EagerResponseWaitsForAllReplicas) {
  Build(ConsistencyLevel::kEager, 4);
  Submit("write_alpha", 1, {{Value(5), Value(1)}});
  sim_->RunAll();
  ASSERT_EQ(responses_.size(), 1u);
  // By the time the client heard back, every replica had the update.
  EXPECT_GT(responses_[0].stages.global, 0);
  ExpectReplicasConverged();
}

TEST_F(SystemTest, SingleReplicaWorks) {
  Build(ConsistencyLevel::kLazyCoarse, 1);
  Submit("write_alpha", 1, {{Value(5), Value(1)}});
  Submit("read_alpha", 1, {{Value(1)}});
  sim_->RunAll();
  EXPECT_EQ(responses_.size(), 2u);
  for (const auto& r : responses_) {
    EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  }
}

TEST_F(SystemTest, CreateRejectsZeroReplicas) {
  SystemConfig config;
  config.replica_count = 0;
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  auto result =
      ReplicatedSystem::Create(&rt, config, BuildTinySchema, DefineTinyTxns);
  EXPECT_FALSE(result.ok());
}

// The certifier's log keeps a bounded suffix: the sweep drops whole
// segments below the prune mark, and what remains is dense, in commit
// order, and reaches back to every replica's V_local.
TEST_F(SystemTest, CertifierLogRetainsADenseSuffixCoveringEveryReplica) {
  Build(ConsistencyLevel::kLazyCoarse, 2);
  constexpr int kCommits = 300;
  for (int i = 0; i < kCommits; ++i) {
    Submit("write_alpha", 1, {{Value(1), Value(i % 20)}});
    sim_->RunAll();
  }
  const Certifier* certifier = system_->certifier();
  ASSERT_EQ(certifier->CommitVersion(), kCommits);
  const Wal& log = certifier->wal(0);
  EXPECT_EQ(log.DurableSize(), static_cast<uint64_t>(kCommits));
  EXPECT_GT(log.FirstRetained(), 1) << "no segment was ever dropped";
  std::vector<DbVersion> versions;
  ASSERT_TRUE(log.ReadSince(log.FirstRetained() - 1,
                            [&versions](const WriteSet& ws) {
                              versions.push_back(ws.commit_version);
                            })
                  .ok());
  ASSERT_EQ(static_cast<DbVersion>(versions.size()),
            kCommits - log.FirstRetained() + 1);
  for (size_t i = 0; i < versions.size(); ++i) {
    EXPECT_EQ(versions[i], log.FirstRetained() + static_cast<DbVersion>(i));
  }
  for (ReplicaId r = 0; r < 2; ++r) {
    EXPECT_GE(system_->replica(r)->proxy()->v_local(),
              certifier->FetchFloor());
  }
}

}  // namespace
}  // namespace screp
