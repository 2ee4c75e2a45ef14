// Global-commit accounting for eager strong consistency (paper §IV-D).
//
// The certifier maintains a counter per committed update transaction.
// Each time a replica reports that it committed the transaction (locally
// or as a refresh), the counter is incremented; when it reaches the number
// of replicas, the transaction is *globally committed* and the originating
// replica may finally acknowledge the client.

#ifndef SCREP_CORE_EAGER_TRACKER_H_
#define SCREP_CORE_EAGER_TRACKER_H_

#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace screp {

/// Per-transaction replica-commit counters, with crash-recovery
/// membership support: when a replica crashes, globally committing no
/// longer waits for it (the crashed replica catches up from the
/// certifier, or from a peer's snapshot, on recovery, so its commit is
/// guaranteed eventually — the standard crash-recovery argument).
class EagerCommitTracker {
 public:
  explicit EagerCommitTracker(int replica_count)
      : replica_count_(replica_count), active_count_(replica_count) {
    SCREP_CHECK(replica_count_ >= 1);
  }

  /// Registers a freshly certified transaction (counter starts at 0).
  void OnCertified(TxnId txn) { counters_.emplace(txn, 0); }

  /// Records one replica's commit of `txn`. Returns true exactly once:
  /// when the count reaches the number of *live* replicas (global commit).
  /// Reports for unknown transactions are ignored (a recovered replica
  /// re-reports commits whose global commit already completed while it
  /// was down).
  bool OnReplicaCommitted(TxnId txn) {
    auto it = counters_.find(txn);
    if (it == counters_.end()) return false;
    if (++it->second >= active_count_) {
      counters_.erase(it);
      return true;
    }
    return false;
  }

  /// Adjusts the live-replica count after a crash or recovery. Returns
  /// the transactions that become globally committed because the bar
  /// dropped (empty on recovery).
  std::vector<TxnId> SetActiveReplicaCount(int active) {
    SCREP_CHECK(active >= 1 && active <= replica_count_);
    active_count_ = active;
    std::vector<TxnId> ready;
    for (auto it = counters_.begin(); it != counters_.end();) {
      if (it->second >= active_count_) {
        ready.push_back(it->first);
        it = counters_.erase(it);
      } else {
        ++it;
      }
    }
    return ready;
  }

  /// Transactions still waiting for global commit.
  size_t pending() const { return counters_.size(); }

  int replica_count() const { return replica_count_; }
  int active_count() const { return active_count_; }

 private:
  int replica_count_;
  int active_count_;
  std::unordered_map<TxnId, int> counters_;
};

}  // namespace screp

#endif  // SCREP_CORE_EAGER_TRACKER_H_
