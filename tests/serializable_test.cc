// Serializable certification mode: GSI upgraded with read-write conflict
#include "runtime/sim_runtime.h"
// detection. The paper's history H3 (§II) is snapshot isolated and
// strongly consistent but NOT serializable — write skew; this mode aborts
// one of the two transactions.

#include <gtest/gtest.h>

#include "replication/system.h"
#include "storage/transaction.h"

namespace screp {
namespace {

// ---- Read-set tracking at the storage layer -----------------------------

class ReadSetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto id = db_.CreateTable(
        "t", Schema({{"id", ValueType::kInt64}, {"val", ValueType::kInt64}}));
    ASSERT_TRUE(id.ok());
    table_ = *id;
    for (int64_t k = 0; k < 10; ++k) {
      ASSERT_TRUE(db_.BulkLoad(table_, {Value(k), Value(k)}).ok());
    }
  }

  Database db_;
  TableId table_ = -1;
};

TEST_F(ReadSetTest, GetRecordsKeysIncludingMisses) {
  auto txn = db_.Begin();
  (void)txn->Get(table_, 3);
  (void)txn->Get(table_, 99);  // miss — still an observation
  ASSERT_EQ(txn->read_keys().size(), 2u);
  EXPECT_EQ(txn->read_keys()[0], (std::pair<TableId, int64_t>{table_, 3}));
  EXPECT_EQ(txn->read_keys()[1], (std::pair<TableId, int64_t>{table_, 99}));
}

TEST_F(ReadSetTest, RepeatedReadDeduplicated) {
  auto txn = db_.Begin();
  (void)txn->Get(table_, 3);
  (void)txn->Get(table_, 3);
  EXPECT_EQ(txn->read_keys().size(), 1u);
}

TEST_F(ReadSetTest, ScanRecordsRange) {
  auto txn = db_.Begin();
  txn->ScanRange(table_, 2, 7, [](int64_t, const Row&) { return true; });
  ASSERT_EQ(txn->read_ranges().size(), 1u);
  EXPECT_EQ(txn->read_ranges()[0].lo, 2);
  EXPECT_EQ(txn->read_ranges()[0].hi, 7);
}

TEST_F(ReadSetTest, WriteSetCarriesReadsOnlyWhenAsked) {
  auto txn = db_.Begin();
  (void)txn->Get(table_, 1);
  ASSERT_TRUE(txn->UpdateColumns(table_, 2, {{1, Value(9)}}).ok());
  WriteSet without = txn->BuildWriteSet(false);
  EXPECT_TRUE(without.read_keys.empty());
  WriteSet with = txn->BuildWriteSet(true);
  EXPECT_FALSE(with.read_keys.empty());
}

TEST_F(ReadSetTest, ReadWriteConflictDetection) {
  auto reader = db_.Begin();
  (void)reader->Get(table_, 5);
  WriteSet ws = reader->BuildWriteSet(true);

  WriteSet writer;
  writer.Add(table_, 5, WriteType::kUpdate, Row{Value(5), Value(0)});
  EXPECT_TRUE(ws.ReadsConflictWith(writer));

  WriteSet other;
  other.Add(table_, 6, WriteType::kUpdate, Row{Value(6), Value(0)});
  EXPECT_FALSE(ws.ReadsConflictWith(other));
}

TEST_F(ReadSetTest, RangeConflictCatchesPhantoms) {
  auto scanner = db_.Begin();
  scanner->ScanRange(table_, 2, 7, [](int64_t, const Row&) { return true; });
  WriteSet ws = scanner->BuildWriteSet(true);
  // An insert into the scanned range is a phantom.
  WriteSet phantom;
  phantom.Add(table_, 4, WriteType::kInsert, Row{Value(4), Value(0)});
  EXPECT_TRUE(ws.ReadsConflictWith(phantom));
  WriteSet outside;
  outside.Add(table_, 8, WriteType::kInsert, Row{Value(8), Value(0)});
  EXPECT_FALSE(ws.ReadsConflictWith(outside));
}

TEST_F(ReadSetTest, EncodeDecodePreservesReadSet) {
  auto txn = db_.Begin();
  (void)txn->Get(table_, 1);
  txn->ScanRange(table_, 3, 5, [](int64_t, const Row&) { return true; });
  ASSERT_TRUE(txn->UpdateColumns(table_, 2, {{1, Value(9)}}).ok());
  WriteSet ws = txn->BuildWriteSet(true);
  std::string buf;
  ws.EncodeTo(&buf);
  WriteSet decoded;
  size_t offset = 0;
  ASSERT_TRUE(WriteSet::DecodeFrom(buf, &offset, &decoded));
  EXPECT_EQ(decoded.read_keys, ws.read_keys);
  ASSERT_EQ(decoded.read_ranges.size(), 1u);
  EXPECT_EQ(decoded.read_ranges[0].lo, 3);
  EXPECT_EQ(decoded.read_ranges[0].hi, 5);
}

// ---- End-to-end write skew (the paper's H3) ------------------------------

Status BuildSkewSchema(Database* db) {
  SCREP_ASSIGN_OR_RETURN(
      TableId t, db->CreateTable("oncall", Schema({{"id", ValueType::kInt64},
                                                   {"on_duty",
                                                    ValueType::kInt64}})));
  // Two doctors, both on duty. The invariant "at least one on duty" is
  // maintained by transactions that first check the other doctor.
  SCREP_RETURN_NOT_OK(db->BulkLoad(t, {Value(0), Value(1)}));
  SCREP_RETURN_NOT_OK(db->BulkLoad(t, {Value(1), Value(1)}));
  return Status::OK();
}

Status DefineSkewTxns(const Database& db, sql::TransactionRegistry* reg) {
  // "If my colleague is on duty, I go off duty": reads the other row,
  // writes my own — the classic write-skew pair.
  for (const char* name : {"doc0_off", "doc1_off"}) {
    sql::PreparedTransaction txn;
    txn.name = name;
    const bool is_doc0 = std::string(name) == "doc0_off";
    SCREP_ASSIGN_OR_RETURN(
        auto check,
        sql::PreparedStatement::Prepare(
            db, std::string("SELECT on_duty FROM oncall WHERE id = ") +
                    (is_doc0 ? "1" : "0")));
    SCREP_ASSIGN_OR_RETURN(
        auto off, sql::PreparedStatement::Prepare(
                      db, std::string("UPDATE oncall SET on_duty = 0 "
                                      "WHERE id = ") +
                              (is_doc0 ? "0" : "1")));
    txn.statements.push_back(std::move(check));
    txn.statements.push_back(std::move(off));
    reg->Register(std::move(txn));
  }
  return Status::OK();
}

class WriteSkewTest : public ::testing::Test {
 protected:
  void Build(CertificationMode mode) {
    sim_ = std::make_unique<Simulator>();
    rt_ = std::make_unique<runtime::SimRuntime>(sim_.get());
    responses_.clear();
    SystemConfig config;
    config.replica_count = 2;
    config.level = ConsistencyLevel::kLazyCoarse;
    config.certifier.mode = mode;
    auto system = ReplicatedSystem::Create(rt_.get(), config,
                                           BuildSkewSchema, DefineSkewTxns);
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    system_ = std::move(system).value();
    system_->SetClientCallback(
        [this](const TxnResponse& r) { responses_.push_back(r); });
  }

  /// Runs the two skew transactions concurrently on different replicas.
  void RunSkewPair() {
    for (const char* name : {"doc0_off", "doc1_off"}) {
      TxnRequest req;
      req.txn_id = system_->NextTxnId();
      req.type = *system_->registry().Find(name);
      req.session = req.txn_id;
      req.params = {{}, {}};  // no parameters in either statement
      system_->Submit(std::move(req));
    }
    sim_->RunAll();
  }

  /// Number of doctors on duty in replica 0's final state.
  int64_t OnDutyCount() {
    Database* db = system_->replica(0)->db();
    auto txn = db->Begin();
    const TableId t = *db->FindTable("oncall");
    int64_t on_duty = 0;
    txn->Scan(t, [&](int64_t, const Row& row) {
      on_duty += row[1].AsInt();
      return true;
    });
    return on_duty;
  }

  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<runtime::SimRuntime> rt_;
  std::unique_ptr<ReplicatedSystem> system_;
  std::vector<TxnResponse> responses_;
};

TEST_F(WriteSkewTest, GsiAllowsWriteSkew) {
  Build(CertificationMode::kGsi);
  RunSkewPair();
  ASSERT_EQ(responses_.size(), 2u);
  // Disjoint writesets: GSI commits both — history H3, snapshot isolated
  // but not serializable; the invariant breaks.
  EXPECT_EQ(responses_[0].outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(responses_[1].outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(OnDutyCount(), 0);  // both off duty!
}

TEST_F(WriteSkewTest, SerializableModeAbortsOne) {
  Build(CertificationMode::kSerializable);
  RunSkewPair();
  ASSERT_EQ(responses_.size(), 2u);
  int committed = 0, aborted = 0;
  for (const auto& r : responses_) {
    if (r.outcome == TxnOutcome::kCommitted) ++committed;
    if (r.outcome == TxnOutcome::kCertificationAbort) ++aborted;
  }
  EXPECT_EQ(committed, 1);
  EXPECT_EQ(aborted, 1);
  EXPECT_EQ(OnDutyCount(), 1);  // invariant preserved
  EXPECT_EQ(system_->certifier()->rw_abort_count(), 1);
}

TEST_F(WriteSkewTest, SerializableModeSequentialPairBothCommit) {
  Build(CertificationMode::kSerializable);
  // Run them one after the other: the second sees the first's commit, so
  // there is no concurrency and no abort — but its read stops it from
  // going off duty only if the application checks; here both commit
  // because the second's snapshot includes the first's write (its read of
  // the now-off-duty colleague is a *current* read).
  TxnRequest first;
  first.txn_id = system_->NextTxnId();
  first.type = *system_->registry().Find("doc0_off");
  first.session = 1;
  first.params = {{}, {}};
  system_->Submit(std::move(first));
  sim_->RunAll();
  TxnRequest second;
  second.txn_id = system_->NextTxnId();
  second.type = *system_->registry().Find("doc1_off");
  second.session = 2;
  second.params = {{}, {}};
  system_->Submit(std::move(second));
  sim_->RunAll();
  ASSERT_EQ(responses_.size(), 2u);
  EXPECT_EQ(responses_[0].outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(responses_[1].outcome, TxnOutcome::kCommitted);
}

TEST_F(WriteSkewTest, SerializableCatchesPhantomInsert) {
  Build(CertificationMode::kSerializable);
  // Two registrations that first scan the full table (count) then insert
  // different new rows: disjoint writes, overlapping scan ranges.
  Database* db0 = system_->replica(0)->db();
  (void)db0;
  // Submit two concurrent "scan then insert" transactions via raw system
  // access is not possible without a registered type, so drive the
  // certifier directly: a scanning writeset vs a concurrent insert.
  WriteSet scanner;
  scanner.txn_id = 100;
  scanner.origin = 0;
  scanner.snapshot_version = system_->certifier()->CommitVersion();
  scanner.read_ranges.push_back(ReadRange{0, 0, 1000});
  scanner.Add(0, 500, WriteType::kInsert, Row{Value(500), Value(1)});
  WriteSet inserter;
  inserter.txn_id = 101;
  inserter.origin = 1;
  inserter.snapshot_version = system_->certifier()->CommitVersion();
  inserter.Add(0, 600, WriteType::kInsert, Row{Value(600), Value(1)});
  // inserter commits first, scanner must abort (phantom in its range).
  std::vector<CertDecision> decisions;
  system_->certifier()->SetDecisionCallback(
      [&](ReplicaId, const CertDecision& d) { decisions.push_back(d); });
  system_->certifier()->SetRefreshCallback(
      [](ShardId, ReplicaId, const RefreshBatch&) {});
  system_->certifier()->SubmitCertification(inserter);
  system_->certifier()->SubmitCertification(scanner);
  sim_->RunAll();
  ASSERT_EQ(decisions.size(), 2u);
  std::map<TxnId, bool> verdicts;
  for (const auto& d : decisions) verdicts[d.txn_id] = d.commit;
  EXPECT_TRUE(verdicts.at(101));
  EXPECT_FALSE(verdicts.at(100));
}

}  // namespace
}  // namespace screp
