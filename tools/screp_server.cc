// screp_server: a TCP front-end over the replicated middleware running
// on the wall-clock ThreadRuntime.
//
// The middleware executes registered prepared transactions, so an
// interactive session is buffered client-side (per connection) and
// mapped at COMMIT onto one type of the kv grid (workload/realtime.h):
// all READs execute first, then all UPDATEs, each bound positionally.
// Read values come back on the COMMIT reply (TxnRequest::collect_results).
//
// Threading: one acceptor thread, one std::thread per connection, the
// runtime's single event-loop thread for all middleware state.
// Connection threads reach the middleware only via Runtime::Post and
// block on a per-request waiter slot until the loop thread delivers the
// response — the same rendezvous the realtime bench driver uses.
//
// Line protocol (one command per line; replies are single lines except
// COMMIT, which prefixes one "VAL <key> <value>" line per READ):
//
//   LEVEL <ESC|LSC|LFC|SC>   assert the server's consistency level
//   BEGIN                    start buffering a transaction
//   READ <key>               buffer a read
//   UPDATE <key> <value>     buffer a write
//   COMMIT                   run the buffered transaction
//   ABORT                    drop the buffer
//   PING / STATS / QUIT      liveness / counters / close connection
//   SHUTDOWN                 stop the whole server (smoke-test hook)
//
// Exit status: 0 on clean shutdown with a quiet auditor, 1 on audit
// violations (--audit attaches the online consistency auditor).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/thread_runtime.h"
#include "workload/realtime.h"

namespace screp::server {
namespace {

struct Options {
  int port = 7411;
  int replicas = 2;
  ConsistencyLevel level = ConsistencyLevel::kLazyCoarse;
  bool audit = false;
  int rows = 10000;
  int max_reads = 4;
  int max_updates = 4;
  uint64_t seed = 42;
};

Options ParseOptions(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      SCREP_CHECK_MSG(i + 1 < argc, arg << " needs a value");
      return argv[++i];
    };
    if (arg == "--port") {
      opt.port = std::stoi(next());
    } else if (arg == "--replicas") {
      opt.replicas = std::stoi(next());
    } else if (arg == "--level") {
      auto level = ParseConsistencyLevel(next());
      SCREP_CHECK_MSG(level.ok(), level.status().ToString());
      opt.level = *level;
    } else if (arg == "--audit") {
      opt.audit = true;
    } else if (arg == "--rows") {
      opt.rows = std::stoi(next());
    } else if (arg == "--max-reads") {
      opt.max_reads = std::stoi(next());
    } else if (arg == "--max-updates") {
      opt.max_updates = std::stoi(next());
    } else if (arg == "--seed") {
      opt.seed = std::stoull(next());
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return opt;
}

/// One submitted transaction's rendezvous between its connection thread
/// and the runtime loop thread.
struct Waiter {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  TxnResponse response;
};

/// Everything the connection handlers share.
struct Server {
  Options opt;
  runtime::ThreadRuntime* rt = nullptr;
  ReplicatedSystem* system = nullptr;
  const KvGridWorkload* workload = nullptr;

  /// In-flight waiters, keyed by txn id.  Touched only on the loop
  /// thread (inserted inside the Post that submits, erased by the client
  /// callback).
  std::unordered_map<TxnId, Waiter*> pending;

  std::atomic<int64_t> committed{0};
  std::atomic<int64_t> aborted{0};
  std::atomic<int64_t> connections{0};
  /// Connections dropped for exceeding the request-line bound.
  std::atomic<int64_t> oversized{0};
  /// Connections that vanished mid-line or with a transaction open.
  std::atomic<int64_t> dropped_midline{0};
  std::atomic<bool> shutdown{false};
  int listen_fd = -1;

  std::mutex fds_mu;
  std::vector<int> live_fds;  ///< open connection sockets (for shutdown)
};

void RegisterFd(Server* server, int fd) {
  std::lock_guard<std::mutex> lock(server->fds_mu);
  server->live_fds.push_back(fd);
}

void UnregisterFd(Server* server, int fd) {
  std::lock_guard<std::mutex> lock(server->fds_mu);
  auto& fds = server->live_fds;
  fds.erase(std::remove(fds.begin(), fds.end(), fd), fds.end());
}

bool SendLine(int fd, const std::string& line) {
  std::string out = line + "\n";
  size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::send(fd, out.data() + off, out.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Runs the buffered transaction through the middleware and writes the
/// COMMIT reply. Blocks the connection thread until the loop thread
/// hands the response over.
void RunCommit(Server* server, int fd, SessionId session, int client_id,
               const std::vector<int64_t>& reads,
               const std::vector<std::pair<int64_t, int64_t>>& updates) {
  auto type = server->workload->TypeFor(
      server->system->registry(), static_cast<int>(reads.size()),
      static_cast<int>(updates.size()));
  if (!type.ok()) {
    SendLine(fd, "ERR " + type.status().ToString());
    return;
  }
  TxnRequest req;
  req.type = *type;
  req.session = session;
  req.client_id = client_id;
  req.collect_results = !reads.empty();
  for (const int64_t key : reads) req.params.push_back({Value(key)});
  for (const auto& [key, value] : updates) {
    req.params.push_back({Value(value), Value(key)});
  }

  Waiter waiter;
  runtime::ThreadRuntime* rt = server->rt;
  rt->Post([server, rt, &req, &waiter]() {
    req.txn_id = server->system->NextTxnId();
    req.submit_time = rt->Now();
    server->pending[req.txn_id] = &waiter;
    server->system->Submit(req);
  });
  TxnResponse response;
  {
    std::unique_lock<std::mutex> lock(waiter.mu);
    waiter.cv.wait(lock, [&waiter]() { return waiter.done; });
    response = std::move(waiter.response);
  }

  if (response.outcome != TxnOutcome::kCommitted) {
    server->aborted.fetch_add(1);
    SendLine(fd, std::string("ERR ABORTED ") +
                     TxnOutcomeName(response.outcome));
    return;
  }
  server->committed.fetch_add(1);
  // Reads execute first within the grid type, so results[i] is reads[i].
  for (size_t i = 0; i < reads.size(); ++i) {
    std::string value = "?";
    if (i < response.results.size() && !response.results[i].empty() &&
        response.results[i][0].size() >= 2) {
      value = response.results[i][0][1].ToString();
    }
    SendLine(fd, "VAL " + std::to_string(reads[i]) + " " + value);
  }
  SendLine(fd, "OK COMMITTED version=" +
                   std::to_string(response.read_only
                                      ? 0
                                      : response.commit_version));
}

void HandleConnection(Server* server, int fd, SessionId session) {
  RegisterFd(server, fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::string buffer;
  bool in_txn = false;
  std::vector<int64_t> reads;
  std::vector<std::pair<int64_t, int64_t>> updates;

  // A well-formed request line is tens of bytes; without a bound, a
  // client that never sends '\n' grows `buffer` until the process dies.
  constexpr size_t kMaxLineBytes = 4096;

  char chunk[4096];
  bool open = true;
  while (open) {
    const size_t newline = buffer.find('\n');
    if (newline == std::string::npos) {
      if (buffer.size() >= kMaxLineBytes) {
        server->oversized.fetch_add(1);
        SendLine(fd, "ERR request line too long");
        break;
      }
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        // Disconnect or recv error.  Anything buffered — a partial
        // request line or an un-committed transaction's staged ops —
        // dies with the connection; the middleware session itself is
        // torn down by the EndSession post below.
        if (in_txn || !buffer.empty()) {
          server->dropped_midline.fetch_add(1);
          buffer.clear();
          reads.clear();
          updates.clear();
          in_txn = false;
        }
        break;
      }
      buffer.append(chunk, static_cast<size_t>(n));
      continue;
    }
    std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    if (line.size() > kMaxLineBytes) {
      server->oversized.fetch_add(1);
      SendLine(fd, "ERR request line too long");
      break;
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();

    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    for (char& c : cmd) c = static_cast<char>(std::toupper(c));

    if (cmd.empty()) {
      continue;
    } else if (cmd == "LEVEL") {
      std::string name;
      in >> name;
      auto level = ParseConsistencyLevel(name);
      if (!level.ok() || *level != server->opt.level) {
        SendLine(fd, std::string("ERR level mismatch: server runs ") +
                         ConsistencyLevelName(server->opt.level));
      } else {
        SendLine(fd, "OK");
      }
    } else if (cmd == "BEGIN") {
      if (in_txn) {
        SendLine(fd, "ERR transaction already open");
      } else {
        in_txn = true;
        reads.clear();
        updates.clear();
        SendLine(fd, "OK");
      }
    } else if (cmd == "READ") {
      int64_t key = 0;
      if (!in_txn) {
        SendLine(fd, "ERR no transaction open");
      } else if (!(in >> key)) {
        SendLine(fd, "ERR usage: READ <key>");
      } else if (static_cast<int>(reads.size()) >=
                 server->workload->config().max_reads) {
        SendLine(fd, "ERR too many reads (grid max " +
                         std::to_string(server->workload->config().max_reads) +
                         ")");
      } else {
        reads.push_back(key);
        SendLine(fd, "OK");
      }
    } else if (cmd == "UPDATE") {
      int64_t key = 0;
      int64_t value = 0;
      if (!in_txn) {
        SendLine(fd, "ERR no transaction open");
      } else if (!(in >> key >> value)) {
        SendLine(fd, "ERR usage: UPDATE <key> <value>");
      } else if (static_cast<int>(updates.size()) >=
                 server->workload->config().max_updates) {
        SendLine(fd, "ERR too many updates (grid max " +
                         std::to_string(
                             server->workload->config().max_updates) +
                         ")");
      } else {
        updates.emplace_back(key, value);
        SendLine(fd, "OK");
      }
    } else if (cmd == "COMMIT") {
      if (!in_txn) {
        SendLine(fd, "ERR no transaction open");
      } else if (reads.empty() && updates.empty()) {
        in_txn = false;
        SendLine(fd, "OK COMMITTED version=0");
      } else {
        in_txn = false;
        RunCommit(server, fd, session, static_cast<int>(session), reads,
                  updates);
      }
    } else if (cmd == "ABORT") {
      in_txn = false;
      reads.clear();
      updates.clear();
      SendLine(fd, "OK");
    } else if (cmd == "PING") {
      SendLine(fd, "PONG");
    } else if (cmd == "STATS") {
      SendLine(fd, "STATS committed=" +
                       std::to_string(server->committed.load()) +
                       " aborted=" + std::to_string(server->aborted.load()) +
                       " connections=" +
                       std::to_string(server->connections.load()) +
                       " oversized=" +
                       std::to_string(server->oversized.load()) +
                       " dropped_midline=" +
                       std::to_string(server->dropped_midline.load()));
    } else if (cmd == "QUIT") {
      SendLine(fd, "BYE");
      open = false;
    } else if (cmd == "SHUTDOWN") {
      SendLine(fd, "BYE");
      open = false;
      server->shutdown.store(true);
      // Unblock the acceptor.
      ::shutdown(server->listen_fd, SHUT_RDWR);
    } else {
      SendLine(fd, "ERR unknown command: " + cmd);
    }
  }

  ReplicatedSystem* system = server->system;
  server->rt->Post([system, session]() { system->EndSession(session); });
  UnregisterFd(server, fd);
  ::close(fd);
}

int Main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);

  runtime::ThreadRuntimeConfig rt_config;
  rt_config.worker_threads = 2;
  rt_config.entropy_seed = opt.seed;
  runtime::ThreadRuntime rt(rt_config);

  SystemConfig sys = RealtimeSystemConfig(opt.replicas, opt.level);
  sys.seed = opt.seed;
  if (opt.audit) {
    sys.obs.audit = true;
    sys.obs.event_log = true;  // feeds the live auditor; never replayed
  }

  KvGridConfig grid;
  grid.rows = opt.rows;
  grid.max_reads = opt.max_reads;
  grid.max_updates = opt.max_updates;
  KvGridWorkload workload(grid);

  auto system_or = ReplicatedSystem::Create(
      &rt, sys,
      [&](Database* db) { return workload.BuildSchema(db); },
      [&](const Database& db, sql::TransactionRegistry* reg) {
        return workload.DefineTransactions(db, reg);
      });
  SCREP_CHECK_MSG(system_or.ok(), system_or.status().ToString());
  std::unique_ptr<ReplicatedSystem> system = std::move(system_or).value();

  Server server;
  server.opt = opt;
  server.rt = &rt;
  server.system = system.get();
  server.workload = &workload;

  system->SetClientCallback([&server](const TxnResponse& r) {
    auto it = server.pending.find(r.txn_id);
    if (it == server.pending.end()) return;  // connection gone
    Waiter* waiter = it->second;
    server.pending.erase(it);
    {
      std::lock_guard<std::mutex> lock(waiter->mu);
      waiter->response = r;
      waiter->done = true;
    }
    waiter->cv.notify_one();
  });

  server.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SCREP_CHECK(server.listen_fd >= 0);
  const int one = 1;
  ::setsockopt(server.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
               sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(opt.port));
  SCREP_CHECK_MSG(::bind(server.listen_fd,
                         reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0,
                  "cannot bind 127.0.0.1:" << opt.port);
  SCREP_CHECK(::listen(server.listen_fd, 64) == 0);
  std::printf("screp_server: %d replicas, %s%s, kv[%d rows], grid %dx%d, "
              "listening on 127.0.0.1:%d\n",
              opt.replicas, ConsistencyLevelName(opt.level),
              opt.audit ? ", audited" : "", opt.rows, opt.max_reads,
              opt.max_updates, opt.port);
  std::fflush(stdout);

  std::vector<std::thread> handlers;
  SessionId next_session = 0;
  while (!server.shutdown.load()) {
    const int fd = ::accept(server.listen_fd, nullptr, nullptr);
    if (fd < 0) break;  // listen socket shut down
    server.connections.fetch_add(1);
    const SessionId session = next_session++;
    handlers.emplace_back([&server, fd, session]() {
      HandleConnection(&server, fd, session);
    });
  }
  ::close(server.listen_fd);

  // Unblock any handler still parked in recv(), then join them all.
  {
    std::lock_guard<std::mutex> lock(server.fds_mu);
    for (const int fd : server.live_fds) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& handler : handlers) handler.join();

  // Read the audit verdict on the loop thread before stopping.
  bool audit_ok = true;
  int64_t violations = 0;
  {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    rt.Post([&]() {
      if (server.opt.audit) {
        const obs::Auditor* auditor = system->obs()->auditor();
        if (auditor != nullptr) {
          audit_ok = auditor->ok();
          violations = auditor->violation_count();
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_all();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&]() { return done; });
  }
  rt.Stop();

  std::printf("screp_server: shut down after %lld connections, "
              "%lld committed, %lld aborted\n",
              static_cast<long long>(server.connections.load()),
              static_cast<long long>(server.committed.load()),
              static_cast<long long>(server.aborted.load()));
  if (opt.audit) {
    std::printf("screp_server: audit %s (%lld violations)\n",
                audit_ok ? "ok" : "VIOLATIONS",
                static_cast<long long>(violations));
  }
  return (opt.audit && !audit_ok) ? 1 : 0;
}

}  // namespace
}  // namespace screp::server

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  return screp::server::Main(argc, argv);
}
