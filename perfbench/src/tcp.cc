#include "tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "screp_client.h"
#include "timed_runtime.h"

extern char** environ;

namespace perfbench {

namespace {

using screp::client::Connection;

int FreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  int port = -1;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

/// Sleeps until `when_ns`, spinning through the last 100 µs so an
/// open-loop send is not late by the kernel's timer slack.
void SleepUntil(int64_t when_ns) {
  constexpr int64_t kSpinNs = 100'000;
  if (when_ns - NowNs() > kSpinNs) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(when_ns - kSpinNs)));
  }
  while (NowNs() < when_ns) {
  }
}

/// One screp_server child process.  The destructor kills and reaps a
/// server that was not shut down.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts the server and waits for its first PING reply; false (with
  /// the reason recorded in `result`) when it does not come up.
  bool Launch(const Options& opt, const WorkloadSpec& spec, bool audit,
              RunResult* result) {
    const std::string log = opt.out_dir + "/screp_server.log";
    for (int attempt = 0; attempt < 3; ++attempt) {
      port_ = FreePort();
      std::vector<std::string> args = {
          opt.server, "--port", std::to_string(port_), "--replicas",
          std::to_string(spec.replicas), "--level",
          screp::ConsistencyLevelName(spec.level)};
      if (audit) args.push_back("--audit");
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      posix_spawn_file_actions_t actions;
      posix_spawn_file_actions_init(&actions);
      posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                       O_WRONLY | O_CREAT | O_APPEND, 0644);
      posix_spawn_file_actions_adddup2(&actions, 1, 2);
      const int64_t start = NowNs();
      const int rc = posix_spawn(&pid_, opt.server.c_str(), &actions, nullptr,
                                 argv.data(), environ);
      posix_spawn_file_actions_destroy(&actions);
      if (rc != 0) {
        pid_ = -1;
        result->Fail("cannot start " + opt.server);
        return false;
      }
      const int64_t give_up = start + 30'000'000'000;
      while (NowNs() < give_up) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;  // exited: most likely lost the port race; retry
          break;
        }
        Connection conn;
        if (conn.Connect("127.0.0.1", port_).ok() && conn.Ping().ok()) {
          setup_s_ = static_cast<double>(NowNs() - start) / 1e9;
          conn.Quit();
          return true;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (pid_ > 0) {
        result->Fail("screp_server did not answer PING within 30 s");
        return false;
      }
    }
    result->Fail("screp_server exited before serving (see " + log + ")");
    return false;
  }

  /// SHUTDOWN, then the server's exit code (-1 if it had to be killed).
  int Shutdown() {
    Connection conn;
    if (conn.Connect("127.0.0.1", port_).ok()) (void)conn.Shutdown();
    const int64_t give_up = NowNs() + 20'000'000'000;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) != pid_) {
      if (NowNs() > give_up) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        pid_ = -1;
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  double setup_s() const { return setup_s_; }

 private:
  pid_t pid_ = -1;
  int port_ = -1;
  double setup_s_ = 0;
};

/// What one connection thread saw.
struct ConnLog {
  std::vector<std::pair<int64_t, int64_t>> reads;  ///< (key, value)
  /// (key, value, commit version) of every committed UPDATE.
  std::vector<std::tuple<int64_t, int64_t, int64_t>> writes;
  Distribution stmt_rtt_us;
  Distribution commit_rtt_us;
  int64_t commits = 0;
  int64_t aborts = 0;
  std::string error;
  PhaseStats phase;
};

/// Runs `txn` until it commits.  False on a protocol error (recorded in
/// log->error) or when it aborted kMaxAttempts times.
bool RunTxn(Connection& conn, const KvTxn& txn, bool time_rtts,
            ConnLog* log) {
  // One buffered command (BEGIN, READ, UPDATE): timed, error recorded.
  auto step = [&](auto&& command) {
    const int64_t start = NowNs();
    const screp::Status status = command();
    if (time_rtts) {
      log->stmt_rtt_us.Add(static_cast<double>(NowNs() - start) / 1e3);
    }
    if (!status.ok() && log->error.empty()) log->error = status.ToString();
    return status.ok();
  };
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    ++log->phase.attempts;
    bool ok = step([&] { return conn.Begin(); });
    for (int64_t key : txn.reads) {
      ok = ok && step([&] { return conn.Read(key); });
    }
    for (const auto& [key, value] : txn.updates) {
      ok = ok && step([&] { return conn.Update(key, value); });
    }
    if (!ok) return false;
    const int64_t start = NowNs();
    auto result = conn.Commit();
    if (time_rtts) {
      log->commit_rtt_us.Add(static_cast<double>(NowNs() - start) / 1e3);
    }
    if (result.ok()) {
      ++log->commits;
      for (const auto& kv : result->reads) log->reads.push_back(kv);
      for (const auto& [key, value] : txn.updates) {
        log->writes.emplace_back(key, value, result->commit_version);
      }
      return true;
    }
    if (!result.status().IsAborted()) {
      if (log->error.empty()) log->error = result.status().ToString();
      return false;
    }
    ++log->aborts;
    ++log->phase.failed_attempts;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(RetryBackoffNs(attempt + 1)));
  }
  return false;
}

/// Runs `body(c)` on one thread per connection and joins them.
template <typename Body>
void OnEachConnection(size_t n, Body body) {
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) threads.emplace_back(body, c);
  for (std::thread& t : threads) t.join();
}

/// Folds the per-connection phase accounting into one.
PhaseStats Merge(std::vector<ConnLog>& logs, double seconds) {
  PhaseStats all;
  for (ConnLog& log : logs) {
    PhaseStats& p = log.phase;
    all.logical += p.logical;
    all.logical_failed += p.logical_failed;
    all.attempts += p.attempts;
    all.failed_attempts += p.failed_attempts;
    all.commits_in_window += p.commits_in_window;
    all.read_ms.Merge(p.read_ms);
    all.update_ms.Merge(p.update_ms);
    all.gen_late_us.Merge(p.gen_late_us);
    all.sched_done.insert(all.sched_done.end(), p.sched_done.begin(),
                          p.sched_done.end());
    p = PhaseStats();
  }
  all.window_s = seconds;
  return all;
}

/// The kv_tcp load over one running server: one connection per session.
class KvTcpLoad {
 public:
  KvTcpLoad(const WorkloadSpec& spec, uint64_t seed)
      : spec_(spec), rng_(seed) {}

  bool Connect(const ServerProcess& server, RunResult* result) {
    for (int c = 0; c < spec_.sessions; ++c) {
      Connection conn;
      screp::Status status = conn.Connect("127.0.0.1", server.port());
      if (status.ok()) {
        status = conn.Level(screp::ConsistencyLevelName(spec_.level));
      }
      if (!status.ok()) {
        result->Fail("connect: " + status.ToString());
        return false;
      }
      conns_.push_back(std::move(conn));
      logs_.emplace_back();
    }
    return true;
  }

  PhaseStats RunClosed(double seconds, bool time_rtts) {
    std::vector<screp::Rng> rngs;
    for (size_t c = 0; c < conns_.size(); ++c) rngs.push_back(rng_.Fork());
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    std::vector<int64_t> last_commit(conns_.size(), start);
    OnEachConnection(conns_.size(), [&](size_t c) {
      KvStream stream(spec_, static_cast<int>(c), rngs[c]);
      ConnLog& log = logs_[c];
      while (NowNs() < deadline && log.error.empty()) {
        const KvTxn txn = stream.Next();
        ++log.phase.logical;
        if (!RunTxn(conns_[c], txn, time_rtts, &log)) {
          ++log.phase.logical_failed;
        } else if (const int64_t now = NowNs(); now <= deadline) {
          ++log.phase.commits_in_window;
          last_commit[c] = now;
        }
      }
    });
    const int64_t end =
        *std::max_element(last_commit.begin(), last_commit.end());
    return Merge(logs_, static_cast<double>(end - start) / 1e9);
  }

  PhaseStats RunOpen(double seconds, double rate, bool time_rtts) {
    const std::vector<int64_t> offsets =
        PoissonSchedule(rng_.Next(), rate, seconds);
    KvStream stream(spec_, kOpenStreamSession, rng_.Fork());
    std::vector<KvTxn> txns;
    for (size_t i = 0; i < offsets.size(); ++i) txns.push_back(stream.Next());
    std::atomic<size_t> next{0};
    const int64_t start = NowNs();
    OnEachConnection(conns_.size(), [&](size_t c) {
      ConnLog& log = logs_[c];
      for (size_t i = next++; i < offsets.size() && log.error.empty();
           i = next++) {
        const int64_t when = start + offsets[i];
        if (NowNs() < when) {
          SleepUntil(when);
          log.phase.gen_late_us.Add(static_cast<double>(NowNs() - when) /
                                    1e3);
        }
        ++log.phase.logical;
        const bool ok = RunTxn(conns_[c], txns[i], time_rtts, &log);
        const int64_t done = NowNs();
        if (ok) {
          (txns[i].updates.empty() ? log.phase.read_ms : log.phase.update_ms)
              .Add(static_cast<double>(done - when) / 1e6);
        } else {
          ++log.phase.logical_failed;
        }
        log.phase.sched_done.emplace_back(when, done);
      }
    });
    return Merge(logs_, seconds);
  }

  /// The output checks: every READ saw the initial value or a committed
  /// write to its key; reading the keys back returns each key's write
  /// with the highest commit version; the server's STATS agree with the
  /// client's counts.
  void Check(RunResult* result) {
    std::set<std::pair<int64_t, int64_t>> written;
    std::vector<int64_t> final_value(static_cast<size_t>(KvRows()));
    std::vector<int64_t> final_version(final_value.size(), -1);
    for (size_t k = 0; k < final_value.size(); ++k) {
      final_value[k] = static_cast<int64_t>(k);
    }
    for (const ConnLog& log : logs_) {
      if (!log.error.empty()) result->Fail("protocol error: " + log.error);
      for (const auto& [key, value, version] : log.writes) {
        written.emplace(key, value);
        const auto k = static_cast<size_t>(key);
        if (version > final_version[k]) {
          final_version[k] = version;
          final_value[k] = value;
        }
      }
    }
    int64_t bad_reads = 0;
    for (const ConnLog& log : logs_) {
      for (const auto& [key, value] : log.reads) {
        if (value != key && written.count({key, value}) == 0) ++bad_reads;
      }
    }
    if (bad_reads > 0) {
      result->Fail(std::to_string(bad_reads) +
                   " READs returned a value no committed UPDATE wrote");
    }

    // Final state: read back every written key and every 50th other key,
    // max_reads keys per transaction.
    std::vector<int64_t> keys;
    for (int64_t k = 0; k < KvRows(); ++k) {
      if (final_version[static_cast<size_t>(k)] >= 0 || k % 50 == 0) {
        keys.push_back(k);
      }
    }
    constexpr size_t kKeysPerTxn = 4;
    std::atomic<int64_t> stale{0};
    OnEachConnection(conns_.size(), [&](size_t c) {
      ConnLog& log = logs_[c];
      for (size_t first = c * kKeysPerTxn;
           first < keys.size() && log.error.empty();
           first += conns_.size() * kKeysPerTxn) {
        KvTxn txn;
        for (size_t i = first; i < std::min(first + kKeysPerTxn, keys.size());
             ++i) {
          txn.reads.push_back(keys[i]);
        }
        const size_t seen = log.reads.size();
        if (!RunTxn(conns_[c], txn, false, &log)) continue;
        for (size_t i = seen; i < log.reads.size(); ++i) {
          const auto [key, value] = log.reads[i];
          if (value != final_value[static_cast<size_t>(key)]) ++stale;
        }
      }
    });
    if (stale > 0) {
      result->Fail(std::to_string(stale.load()) +
                   " keys read back differ from their last committed write");
    }

    int64_t commits = 0;
    int64_t aborts = 0;
    for (const ConnLog& log : logs_) {
      if (!log.error.empty()) result->Fail("protocol error: " + log.error);
      commits += log.commits;
      aborts += log.aborts;
    }
    auto stats = conns_[0].Stats();
    const std::string expect = "STATS committed=" + std::to_string(commits) +
                               " aborted=" + std::to_string(aborts) + " ";
    if (!stats.ok() || stats->rfind(expect, 0) != 0) {
      result->Fail("server STATS '" +
                   (stats.ok() ? *stats : stats.status().ToString()) +
                   "' disagree with the client's '" + expect + "'");
    }
  }

  void Close() {
    for (Connection& conn : conns_) conn.Quit();
  }

  std::vector<ConnLog>& logs() { return logs_; }

 private:
  /// Session tag of open-loop update values (distinct from connections).
  static constexpr int kOpenStreamSession = 100;

  const WorkloadSpec& spec_;
  screp::Rng rng_;
  std::vector<Connection> conns_;
  std::vector<ConnLog> logs_;
};

void CheckExit(ServerProcess* server, RunResult* result) {
  const int code = server->Shutdown();
  if (code != 0) {
    result->Fail("screp_server exited with code " + std::to_string(code));
  }
}

}  // namespace

void RunTcpTimed(const WorkloadSpec& spec, const Options& opt,
                 RunResult* result) {
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps - 1; ++i) {
    ServerProcess server;
    if (!server.Launch(opt, spec, /*audit=*/false, result)) return;
    setup_s.push_back(server.setup_s());
    CheckExit(&server, result);
  }
  ServerProcess server;
  if (!server.Launch(opt, spec, /*audit=*/false, result)) return;
  setup_s.push_back(server.setup_s());
  KvTcpLoad load(spec, opt.seed);
  if (!load.Connect(server, result)) return;
  const PhaseStats closed = load.RunClosed(opt.seconds, false);
  load.Check(result);
  load.Close();
  const double rss = PeakRssMb(std::to_string(server.pid()));
  CheckExit(&server, result);
  PutEndToEnd(closed, std::move(setup_s), rss, result);
}

PhaseStats RunTcpTraced(const WorkloadSpec& spec, const Options& opt,
                        double seconds, RunResult* result) {
  ServerProcess server;
  if (!server.Launch(opt, spec, /*audit=*/true, result)) return {};
  KvTcpLoad load(spec, opt.seed);
  if (!load.Connect(server, result)) return {};
  PhaseStats open = load.RunOpen(seconds, spec.open_rate, true);
  Distribution stmt;
  Distribution commit;
  for (const ConnLog& log : load.logs()) {
    stmt.Merge(log.stmt_rtt_us);
    commit.Merge(log.commit_rtt_us);
  }
  load.Check(result);
  load.Close();
  // --audit: a nonzero exit reports audit violations.
  CheckExit(&server, result);
  result->PutPercentile("frontend.stmt_rtt_us.p50", stmt, 0.50, "us");
  result->PutPercentile("frontend.stmt_rtt_us.p99", stmt, 0.99, "us");
  result->PutPercentile("frontend.commit_rtt_us.p50", commit, 0.50, "us");
  result->PutPercentile("frontend.commit_rtt_us.p99", commit, 0.99, "us");
  return open;
}

}  // namespace perfbench
