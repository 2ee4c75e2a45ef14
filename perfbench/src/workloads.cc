#include "workloads.h"

#include <vector>

#include "workload/tpcw.h"

namespace perfbench {

namespace {

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;

    WorkloadSpec kv_tcp;
    kv_tcp.name = "kv_tcp";
    kv_tcp.tcp = true;
    kv_tcp.level = screp::ConsistencyLevel::kLazyCoarse;
    kv_tcp.replicas = 2;
    kv_tcp.sessions = 3;
    kv_tcp.open_sessions = 3;
    kv_tcp.open_rate = 740;
    kv_tcp.kv_reads = 1;
    kv_tcp.kv_updates = 1;
    kv_tcp.kv_update_prob = 0.25;
    v.push_back(kv_tcp);

    WorkloadSpec tpcw;
    tpcw.name = "tpcw_shopping";
    tpcw.level = screp::ConsistencyLevel::kLazyCoarse;
    tpcw.replicas = 2;
    tpcw.schema = Schema::kTpcwShopping;
    tpcw.sessions =
        tpcw.replicas * screp::TpcwClientsPerReplica(screp::TpcwMix::kShopping);
    tpcw.open_rate = 690;
    v.push_back(tpcw);

    WorkloadSpec eager;
    eager.name = "kv_eager_writes";
    eager.level = screp::ConsistencyLevel::kEager;
    eager.replicas = 3;
    eager.sessions = 8;
    eager.open_rate = 320;
    eager.kv_reads = 2;
    eager.kv_updates = 2;
    eager.kv_update_prob = 0.5;
    eager.kv_zipf_theta = 0.6;
    v.push_back(eager);
    return v;
  }();
  return specs;
}

screp::KvGridWorkload KvGrid() { return screp::KvGridWorkload({}); }

screp::TpcwWorkload Tpcw() {
  return screp::TpcwWorkload(screp::TpcwScale{}, screp::TpcwMix::kShopping);
}

/// In-process kv sessions: KvStream bound to the registered grid types.
class KvGenerator : public screp::TxnGenerator {
 public:
  KvGenerator(const WorkloadSpec& spec,
              const screp::sql::TransactionRegistry& registry, int session,
              screp::Rng rng)
      : stream_(spec, session, rng) {
    for (int update = 0; update < 2; ++update) {
      const int reads =
          update == 1 && spec.kv_reads == 1 ? 0 : spec.kv_reads;
      auto type = KvGrid().TypeFor(registry, reads,
                                   update == 1 ? spec.kv_updates : 0);
      SCREP_CHECK_MSG(type.ok(), type.status().ToString());
      types_[update] = *type;
    }
  }

  screp::TxnSpec Next() override {
    const KvTxn txn = stream_.Next();
    screp::TxnSpec spec;
    spec.type = types_[txn.updates.empty() ? 0 : 1];
    for (int64_t key : txn.reads) spec.params.push_back({screp::Value(key)});
    for (const auto& [key, value] : txn.updates) {
      spec.params.push_back({screp::Value(value), screp::Value(key)});
    }
    return spec;
  }

 private:
  KvStream stream_;
  /// Registered grid type of a read-only [0] and an update [1] txn.
  screp::TxnTypeId types_[2] = {};
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

int KvRows() { return screp::KvGridConfig{}.rows; }

screp::Status BuildSchema(const WorkloadSpec& spec, screp::Database* db) {
  if (spec.schema == Schema::kTpcwShopping) return Tpcw().BuildSchema(db);
  return KvGrid().BuildSchema(db);
}

screp::Status DefineTransactions(const WorkloadSpec& spec,
                                 const screp::Database& db,
                                 screp::sql::TransactionRegistry* registry) {
  if (spec.schema == Schema::kTpcwShopping) {
    return Tpcw().DefineTransactions(db, registry);
  }
  return KvGrid().DefineTransactions(db, registry);
}

int64_t KvStream::Key() {
  const auto rows = static_cast<uint64_t>(KvRows());
  return static_cast<int64_t>(rng_.NextZipf(rows, spec_.kv_zipf_theta));
}

KvTxn KvStream::Next() {
  KvTxn txn;
  const bool update = rng_.NextBool(spec_.kv_update_prob);
  // kv_tcp's shape is "one READ, or one UPDATE": an update transaction
  // then carries no read.  Multi-read workloads keep their reads.
  const int reads = update && spec_.kv_reads == 1 ? 0 : spec_.kv_reads;
  for (int i = 0; i < reads; ++i) txn.reads.push_back(Key());
  if (update) {
    while (static_cast<int>(txn.updates.size()) < spec_.kv_updates) {
      const int64_t key = Key();
      bool dup = false;
      for (const auto& u : txn.updates) dup = dup || u.first == key;
      if (dup) continue;
      // Above every initial value (val = key < rows) and unique per write.
      const int64_t value =
          (static_cast<int64_t>(session_ + 1) << 32) | ++sequence_;
      txn.updates.emplace_back(key, value);
    }
  }
  return txn;
}

std::unique_ptr<screp::TxnGenerator> MakeGenerator(
    const WorkloadSpec& spec, const screp::sql::TransactionRegistry& registry,
    int session, screp::Rng rng) {
  if (spec.schema == Schema::kTpcwShopping) {
    return Tpcw().CreateGenerator(registry, session, rng);
  }
  return std::make_unique<KvGenerator>(spec, registry, session, rng);
}

}  // namespace perfbench
