// Reference certification by brute force: decide each writeset by
// rescanning every retained committed writeset, newest first — the
// certifier's rule before it had a conflict index.  Synchronous and
// single-stream (one global commit version), with no cost model, no
// durability and no fan-out.
//
// Lockstep tests (certifier_oracle_test) feed it the writesets they
// submit to the real Certifier and compare verdicts, counters and
// conflict attribution; bench/micro_components times it against the
// indexed path.  The window follows the certifier's conflict_window cap:
// after each commit at version v, snapshots below v - conflict_window
// are window-aborted.

#ifndef SCREP_TESTS_LINEAR_SCAN_ORACLE_H_
#define SCREP_TESTS_LINEAR_SCAN_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>

#include "common/types.h"
#include "replication/certifier.h"
#include "storage/write_set.h"

namespace screp {

class LinearScanOracle {
 public:
  /// One decision and its attribution, as the certifier's kCertVerdict
  /// event reports it.
  struct Verdict {
    bool commit = false;
    DbVersion commit_version = kNoVersion;
    /// "ww", "rw" or "window" for an abort, empty for a commit.
    std::string reason;
    DbVersion conflict_version = kNoVersion;
    TxnId conflict_txn = 0;
  };

  LinearScanOracle(CertificationMode mode, size_t conflict_window)
      : serializable_(mode == CertificationMode::kSerializable),
        conflict_window_(conflict_window) {}

  /// Certifies `ws` against `ws.snapshot_version`.
  Verdict Decide(const WriteSet& ws) {
    Verdict verdict;
    if (ws.snapshot_version < pruned_through_) {
      ++aborts_;
      ++window_aborts_;
      verdict.reason = "window";
      return verdict;
    }
    // recent_ is ascending by version: scan from the back and stop at the
    // snapshot; the first conflict found is the newest.  A writeset that
    // conflicts both ways is blamed as write-write.
    for (auto it = recent_.rbegin(); it != recent_.rend(); ++it) {
      if (it->commit_version <= ws.snapshot_version) break;
      const bool ww = ws.ConflictsWith(*it);
      const bool rw = serializable_ && ws.ReadsConflictWith(*it);
      if (!ww && !rw) continue;
      ++aborts_;
      if (!ww) ++rw_aborts_;
      verdict.reason = ww ? "ww" : "rw";
      verdict.conflict_version = it->commit_version;
      verdict.conflict_txn = it->txn_id;
      return verdict;
    }
    WriteSet committed = ws;
    committed.commit_version = ++v_commit_;
    recent_.push_back(std::move(committed));
    ++certified_;
    if (static_cast<size_t>(v_commit_) > conflict_window_) {
      pruned_through_ = v_commit_ - static_cast<DbVersion>(conflict_window_);
      while (recent_.front().commit_version <= pruned_through_) {
        recent_.pop_front();
      }
    }
    verdict.commit = true;
    verdict.commit_version = v_commit_;
    return verdict;
  }

  DbVersion CommitVersion() const { return v_commit_; }
  int64_t certified_count() const { return certified_; }
  int64_t abort_count() const { return aborts_; }
  int64_t rw_abort_count() const { return rw_aborts_; }
  int64_t window_abort_count() const { return window_aborts_; }

 private:
  bool serializable_;
  size_t conflict_window_;
  std::deque<WriteSet> recent_;
  DbVersion v_commit_ = 0;
  DbVersion pruned_through_ = 0;
  int64_t certified_ = 0;
  int64_t aborts_ = 0;
  int64_t rw_aborts_ = 0;
  int64_t window_aborts_ = 0;
};

}  // namespace screp

#endif  // SCREP_TESTS_LINEAR_SCAN_ORACLE_H_
