// The benchmark's named workloads and their request generators.
//
// Every input the middleware receives — keys, values, transaction mixes,
// arrival times — is drawn here from the run's --seed.  The system itself
// runs RealtimeSystemConfig() exactly as shipped, with the system seed
// screp_server uses by default, so the modeled stall stream is the same
// configuration a deployment runs.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>

#include "workload/client.h"
#include "workload/realtime.h"

namespace perfbench {

/// System seed of the shipped configuration (screp_server's default).
inline constexpr uint64_t kSystemSeed = 42;

enum class Schema { kKvGrid, kTpcwShopping };

struct WorkloadSpec {
  std::string name;
  /// True: driven over TCP through screp_server; in-process otherwise.
  bool tcp = false;
  screp::ConsistencyLevel level = screp::ConsistencyLevel::kLazyCoarse;
  int replicas = 2;
  Schema schema = Schema::kKvGrid;
  /// Closed-loop sessions (TCP: connections).
  int sessions = 8;
  /// Open-loop offered rate, transactions per second (about a third of
  /// the seed program's closed-loop throughput on this workload).
  double open_rate = 1000;
  /// Open-loop session pool (TCP: the same connections as the closed
  /// loop).  Each session has at most one transaction in flight.
  int open_sessions = 64;
  /// kv grid shape: reads per transaction, updates per update
  /// transaction, share of update transactions, key skew.
  int kv_reads = 0;
  int kv_updates = 1;
  double kv_update_prob = 0.25;
  double kv_zipf_theta = 0.0;
};

/// The named workload, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Rows of the kv table (KvGridConfig default, the screp_server table).
int KvRows();

/// Builds schema + transactions for `spec` on one replica.
screp::Status BuildSchema(const WorkloadSpec& spec, screp::Database* db);
screp::Status DefineTransactions(const WorkloadSpec& spec,
                                 const screp::Database& db,
                                 screp::sql::TransactionRegistry* registry);

/// One kv grid transaction before it is bound to registered types.
struct KvTxn {
  std::vector<int64_t> reads;
  std::vector<std::pair<int64_t, int64_t>> updates;  ///< (key, value)
};

/// Draws kv transactions for one session.  Update values are unique per
/// (session, sequence) so a read can be traced back to the write it saw.
class KvStream {
 public:
  KvStream(const WorkloadSpec& spec, int session, screp::Rng rng)
      : spec_(spec), session_(session), rng_(rng) {}
  KvTxn Next();

 private:
  int64_t Key();
  const WorkloadSpec& spec_;
  int session_;
  screp::Rng rng_;
  int64_t sequence_ = 0;
};

/// A TxnGenerator for session `session` of `spec` (in-process runs).
std::unique_ptr<screp::TxnGenerator> MakeGenerator(
    const WorkloadSpec& spec, const screp::sql::TransactionRegistry& registry,
    int session, screp::Rng rng);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
