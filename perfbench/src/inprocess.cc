#include "inprocess.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <iomanip>
#include <map>
#include <thread>

namespace perfbench {

namespace {

// Spans kept in memory for the trace file; the rest are counted only.
constexpr size_t kCallbackSpanCap = 50000;
constexpr size_t kRequestSpanCap = 5000;

}  // namespace

Cluster::Cluster(const WorkloadSpec& spec, const ClusterOptions& options,
                 uint64_t seed)
    : spec_(spec), options_(options), rng_(seed) {
  screp::runtime::ThreadRuntimeConfig config;
  config.worker_threads = 0;  // the middleware never Spawns
  config.entropy_seed = kSystemSeed;
  thread_rt_ = std::make_unique<screp::runtime::ThreadRuntime>(config);
  rt_ = thread_rt_.get();
  if (options.traced || options.spin_ns > 0) {
    timed_rt_ = std::make_unique<TimedRuntime>(
        thread_rt_.get(), options.spin_ns, kCallbackSpanCap);
    rt_ = timed_rt_.get();
  }
}

Cluster::~Cluster() {
  if (!stopped_) rt_->Stop();
}

std::unique_ptr<Cluster> Cluster::Start(const WorkloadSpec& spec,
                                        const ClusterOptions& options,
                                        uint64_t seed, RunResult* result) {
  std::unique_ptr<Cluster> c(new Cluster(spec, options, seed));
  screp::SystemConfig config =
      screp::RealtimeSystemConfig(spec.replicas, spec.level);
  config.seed = kSystemSeed;
  if (options.traced) {
    // Live sinks see every event; the ring buffer keeps its default size,
    // so the verdict never depends on retaining the whole log.
    config.obs.audit = true;
    config.obs.event_log = true;
  }
  auto system_or = screp::ReplicatedSystem::Create(
      c->rt_, config,
      [&spec](screp::Database* db) { return BuildSchema(spec, db); },
      [&spec](const screp::Database& db,
              screp::sql::TransactionRegistry* registry) {
        return DefineTransactions(spec, db, registry);
      });
  if (!system_or.ok()) {
    result->Fail("ReplicatedSystem::Create: " + system_or.status().ToString());
    return nullptr;
  }
  c->system_ = std::move(system_or).value();
  Cluster* raw = c.get();
  c->system_->SetClientCallback(
      [raw](const screp::TxnResponse& r) { raw->OnResponse(r); });
  c->rt_offset_us_ = c->rt_->Now() - NowNs() / 1000;

  // The first request the system serves ends set-up.
  PhaseStats first;
  const int s = c->AddSessions(1);
  c->NewTxn(s, NowNs(), &first);
  c->PostAttempt(s);
  bool done = false;
  while (!done) {
    for (const Completion& comp : c->Wait(c->PumpRetries())) {
      done = c->Account(comp, &first);
    }
  }
  if (first.logical_failed > 0) {
    result->Fail("the first request never committed");
    return nullptr;
  }
  return c;
}

int Cluster::AddSessions(int count) {
  const int first = static_cast<int>(sessions_.size());
  for (int i = 0; i < count; ++i) {
    Session session;
    session.gen = MakeGenerator(spec_, system_->registry(), first + i,
                                rng_.Fork());
    sessions_.push_back(std::move(session));
  }
  return first;
}

void Cluster::NewTxn(int s, int64_t sched_ns, PhaseStats* phase) {
  Session& ses = sessions_[static_cast<size_t>(s)];
  ses.spec = ses.gen->Next();
  ses.attempts = 0;
  ses.sched_ns = sched_ns;
  ses.busy = true;
  ++phase->logical;
}

void Cluster::PostAttempt(int s) {
  Session& ses = sessions_[static_cast<size_t>(s)];
  ses.post_ns = NowNs();
  ++ses.attempts;
  ++attempts_posted_;
  const bool shed = options_.plant_overload_every > 0 &&
                    attempts_posted_ % options_.plant_overload_every == 0;
  rt_->Post([this, s, spec = ses.spec, shed]() mutable {
    screp::TxnRequest req;
    req.txn_id = system_->NextTxnId();
    req.type = spec.type;
    req.session = static_cast<screp::SessionId>(s);
    req.client_id = s;
    req.params = std::move(spec.params);
    req.submit_time = rt_->Now();
    outstanding_[req.txn_id] = s;
    if (shed) {
      screp::TxnResponse r;
      r.txn_id = req.txn_id;
      r.type = req.type;
      r.session = req.session;
      r.client_id = s;
      r.outcome = screp::TxnOutcome::kOverloaded;
      r.submit_time = req.submit_time;
      OnResponse(r);
      return;
    }
    system_->Submit(std::move(req));
  });
}

void Cluster::OnResponse(const screp::TxnResponse& r) {
  auto it = outstanding_.find(r.txn_id);
  if (it == outstanding_.end() || it->second != r.client_id) {
    ++stray_responses_;
    return;
  }
  outstanding_.erase(it);
  Completion c;
  c.session = r.client_id;
  c.response = r;
  c.ack_rt = rt_->Now();
  c.ack_ns = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    completions_.push_back(std::move(c));
    pending_.store(1, std::memory_order_release);
  }
  cv_.notify_one();
}

std::vector<Cluster::Completion> Cluster::Wait(int64_t until_ns) {
  // The last stretch before a scheduled send is spun, not slept: a
  // condition-variable timeout wakes tens of µs late, which an open loop
  // would add to every latency it measures.
  constexpr int64_t kSpinNs = 100'000;
  if (until_ns != 0 && until_ns - NowNs() <= kSpinNs) {
    while (NowNs() < until_ns &&
           pending_.load(std::memory_order_acquire) == 0) {
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  auto ready = [this]() { return !completions_.empty(); };
  if (until_ns == 0) {
    cv_.wait(lock, ready);
  } else if (until_ns - NowNs() > kSpinNs) {
    cv_.wait_until(lock,
                   std::chrono::steady_clock::time_point(
                       std::chrono::nanoseconds(until_ns - kSpinNs)),
                   ready);
  }
  std::vector<Completion> out;
  out.swap(completions_);
  pending_.store(0, std::memory_order_relaxed);
  return out;
}

int64_t Cluster::PumpRetries() {
  while (!retries_.empty() && retries_.top().first <= NowNs()) {
    const int s = retries_.top().second;
    retries_.pop();
    PostAttempt(s);
  }
  return retries_.empty() ? 0 : retries_.top().first;
}

bool Cluster::Account(const Completion& c, PhaseStats* phase) {
  Session& ses = sessions_[static_cast<size_t>(c.session)];
  const screp::TxnResponse& r = c.response;
  ++phase->attempts;
  if (r.outcome != screp::TxnOutcome::kCommitted) {
    ++phase->failed_attempts;
    if (ses.attempts >= kMaxAttempts) {
      ++phase->logical_failed;
      ses.busy = false;
      return true;
    }
    retries_.emplace(NowNs() + RetryBackoffNs(ses.attempts), c.session);
    return false;
  }
  ++committed_;
  if (!r.read_only) {
    ++committed_updates_;
    max_commit_version_ = std::max(max_commit_version_, r.commit_version);
  }
  ses.gen->OnCommitted(ses.spec);
  ses.busy = false;
  if (!recording_) return true;

  // Layer split of the loop-side response time (ack - submit): LB
  // dispatch, then the proxy's stages; the rest is unattributed.
  const screp::StageTimes& st = r.stages;
  const screp::Duration loop_side = c.ack_rt - r.submit_time;
  const screp::Duration dispatch = r.start_time - r.submit_time - st.version;
  const screp::Duration residual = loop_side - dispatch - st.Total();
  if (residual < 0) ++layers_.negative_residuals;
  layers_.unattributed_us.Add(static_cast<double>(residual));
  layers_.lb_dispatch_us.Add(static_cast<double>(dispatch));
  layers_.version_us.Add(static_cast<double>(st.version));
  layers_.exec_us.Add(static_cast<double>(st.queries));
  layers_.commit_us.Add(static_cast<double>(st.commit));
  if (!r.read_only) {
    layers_.sync_us.Add(static_cast<double>(st.sync));
    layers_.certify_us.Add(static_cast<double>(st.certify));
    layers_.global_us.Add(static_cast<double>(st.global));
  }
  layers_.handoff_us.Add(static_cast<double>(c.ack_ns - ses.post_ns) / 1e3 -
                         static_cast<double>(loop_side));
  if (request_spans_.size() < kRequestSpanCap) {
    request_spans_.push_back(
        {r.txn_id, r.read_only, r.submit_time, r.start_time, c.ack_rt, st});
  }
  return true;
}

void Cluster::OnLoop(const std::function<void()>& fn) {
  std::promise<void> done;
  rt_->Post([&fn, &done]() {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

PhaseStats Cluster::RunClosed(double seconds) {
  PhaseStats phase;
  const int first = AddSessions(spec_.sessions);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  for (int s = first; s < first + spec_.sessions; ++s) {
    NewTxn(s, start, &phase);
    PostAttempt(s);
  }
  int active = spec_.sessions;
  while (active > 0) {
    for (const Completion& c : Wait(PumpRetries())) {
      if (!Account(c, &phase)) continue;
      if (c.response.outcome == screp::TxnOutcome::kCommitted &&
          c.ack_ns <= deadline) {
        ++phase.commits_in_window;
        phase.window_s = static_cast<double>(c.ack_ns - start) / 1e9;
      }
      const int64_t now = NowNs();
      if (now < deadline) {
        NewTxn(c.session, now, &phase);
        PostAttempt(c.session);
      } else {
        --active;
      }
    }
  }
  return phase;
}

PhaseStats Cluster::RunOpen(double seconds, double rate) {
  PhaseStats phase;
  const int pool = spec_.open_sessions;
  const int first = AddSessions(pool);
  const std::vector<int64_t> offsets =
      PoissonSchedule(rng_.Next(), rate, seconds);
  const int64_t start = NowNs();
  size_t next = 0;
  int busy = 0;
  while (next < offsets.size() || busy > 0) {
    const int64_t now = NowNs();
    for (; next < offsets.size() && start + offsets[next] <= now; ++next) {
      const int64_t when = start + offsets[next];
      const int s = first + static_cast<int>(next % static_cast<size_t>(pool));
      Session& ses = sessions_[static_cast<size_t>(s)];
      if (ses.busy) {
        ses.queued.push_back(when);  // backlog: timed from `when` anyway
        continue;
      }
      NewTxn(s, when, &phase);
      phase.gen_late_us.Add(static_cast<double>(NowNs() - when) / 1e3);
      PostAttempt(s);
      ++busy;
    }
    const int64_t arrival = next < offsets.size() ? start + offsets[next] : 0;
    const int64_t retry = PumpRetries();
    const int64_t until =
        arrival == 0 || retry == 0 ? arrival + retry : std::min(arrival, retry);
    if (busy == 0 && until == 0) break;
    for (const Completion& c : Wait(until)) {
      if (!Account(c, &phase)) continue;
      Session& ses = sessions_[static_cast<size_t>(c.session)];
      const bool committed =
          c.response.outcome == screp::TxnOutcome::kCommitted;
      if (committed) {
        (c.response.read_only ? phase.read_ms : phase.update_ms)
            .Add(static_cast<double>(c.ack_ns - ses.sched_ns) / 1e6);
      }
      phase.sched_done.emplace_back(ses.sched_ns,
                                    committed ? c.ack_ns : NowNs());
      if (!ses.queued.empty()) {
        const int64_t when = ses.queued.front();
        ses.queued.pop_front();
        NewTxn(c.session, when, &phase);
        PostAttempt(c.session);
      } else {
        --busy;
      }
    }
  }
  return phase;
}

void Cluster::BeginLayerWindow() {
  OnLoop([this]() { timed_rt_->Reset(); });
  busy_window_start_ns_ = NowNs();
  layer_window_start_commits_ = committed_;
  recording_ = true;
}

void Cluster::EndBusyWindow() {
  OnLoop([this]() { busy_window_ = timed_rt_->tally(); });
  busy_window_ns_ = NowNs() - busy_window_start_ns_;
}

void Cluster::Finish(RunResult* result) {
  if (recording_) {
    OnLoop([this]() { layer_window_ = timed_rt_->tally(); });
    layer_window_commits_ = committed_ - layer_window_start_commits_;
    recording_ = false;
  }
  // Drain: every attempt answered and every replica at the last commit.
  const int64_t give_up = NowNs() + 10'000'000'000;
  for (;;) {
    bool drained = false;
    OnLoop([this, &drained]() {
      drained = outstanding_.empty();
      for (int r = 0; r < system_->replica_count(); ++r) {
        drained = drained && system_->replica(r)->db()->CommittedVersion() ==
                                 max_commit_version_;
      }
    });
    if (drained) break;
    if (NowNs() > give_up) {
      result->Fail("system did not drain: attempts unanswered or replicas "
                   "behind the last commit");
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rt_->Stop();
  stopped_ = true;

  // The loop thread has joined: its state is safe to read from here on.
  if (stray_responses_ > 0) {
    result->Fail(std::to_string(stray_responses_) +
                 " responses matched no outstanding attempt");
  }
  if (!outstanding_.empty()) {
    result->Fail(std::to_string(outstanding_.size()) +
                 " attempts never got a response");
  }
  screp::obs::MetricsRegistry* registry = system_->obs()->registry();
  registry->VisitCounters(
      [this](const std::string& name, const screp::obs::Counter* counter) {
        counters_[name] = counter->value();
      });
  if (counters_["certifier.certified"] != committed_updates_) {
    result->Fail("update commits (" + std::to_string(committed_updates_) +
                 ") != certifier.certified (" +
                 std::to_string(counters_["certifier.certified"]) + ")");
  }
  if (const screp::obs::Auditor* auditor = system_->obs()->auditor()) {
    audit_checks_ = auditor->checks_performed();
    audit_violations_ = auditor->violation_count();
    if (audit_violations_ != 0) {
      result->Fail("online auditor: " + std::to_string(audit_violations_) +
                   " violations");
    }
  }
  if (layers_.negative_residuals > 0) {
    result->Fail("stage conservation: " +
                 std::to_string(layers_.negative_residuals) +
                 " commits whose stages exceed their response time");
  }
  for (int r = 0; r < system_->replica_count(); ++r) {
    const screp::Proxy* proxy = system_->replica(r)->proxy();
    peak_pending_ = std::max(
        peak_pending_, static_cast<int64_t>(proxy->peak_pending_writesets()));
  }

  // Every replica's tables equal replica 0's at the committed version.
  const screp::Database* db0 = system_->replica(0)->db();
  for (int r = 1; r < system_->replica_count(); ++r) {
    const screp::Database* db = system_->replica(r)->db();
    if (db->TableCount() != db0->TableCount()) {
      result->Fail("replica " + std::to_string(r) + " table count differs");
      continue;
    }
    for (screp::TableId t = 0;
         t < static_cast<screp::TableId>(db0->TableCount()); ++t) {
      std::vector<std::pair<int64_t, screp::Row>> rows;
      db0->table(t)->Scan(db0->CommittedVersion(),
                          [&rows](int64_t key, const screp::Row& row) {
                            rows.emplace_back(key, row);
                            return true;
                          });
      size_t i = 0;
      bool same = true;
      db->table(t)->Scan(db->CommittedVersion(),
                         [&](int64_t key, const screp::Row& row) {
                           same = same && i < rows.size() &&
                                  rows[i].first == key && rows[i].second == row;
                           ++i;
                           return same;
                         });
      if (!same || i != rows.size()) {
        result->Fail("replica " + std::to_string(r) + " table " +
                     db0->TableName(t) + " differs from replica 0");
      }
    }
  }
}

void Cluster::PutLayerMetrics(RunResult* result) {
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  // Sum of the counters named <prefix>...<suffix>.
  auto sum = [this](const std::string& prefix, const std::string& suffix) {
    int64_t total = 0;
    for (const auto& [name, value] : counters_) {
      if (name.size() >= prefix.size() + suffix.size() &&
          name.rfind(prefix, 0) == 0 &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        total += value;
      }
    }
    return static_cast<double>(total);
  };
  auto pct = [result](const std::string& name, Distribution& dist, double q) {
    result->PutPercentile(name + (q < 0.9 ? ".p50" : ".p99"), dist, q, "us");
  };
  const auto window_commits = static_cast<double>(layer_window_commits_);
  const auto commits = static_cast<double>(committed_);
  const double certified = sum("certifier.certified", "");
  const double aborts = sum("certifier.aborts.", "");

  result->Put("runtime.callbacks_per_commit",
              per(static_cast<double>(layer_window_.callbacks), window_commits),
              "1/commit");
  result->Put("runtime.timers_per_commit",
              per(static_cast<double>(layer_window_.timers), window_commits),
              "1/commit");
  result->Put("runtime.timer_delay_us_per_commit",
              per(static_cast<double>(layer_window_.timer_delay_us),
                  window_commits),
              "us/commit");
  result->Put("runtime.loop_busy_frac",
              per(static_cast<double>(busy_window_.busy_ns),
                  static_cast<double>(busy_window_ns_)),
              "fraction");
  for (double q : {0.50, 0.99}) {
    pct("runtime.queue_delay_us", timed_rt_->queue_delay_us(), q);
    pct("runtime.callback_us", timed_rt_->callback_us(), q);
    pct("runtime.handoff_us", layers_.handoff_us, q);
    pct("lb.dispatch_us", layers_.lb_dispatch_us, q);
    pct("sync.version_wait_us", layers_.version_us, q);
    pct("proxy.exec_us", layers_.exec_us, q);
    pct("certifier.round_trip_us", layers_.certify_us, q);
    pct("eager.global_wait_us", layers_.global_us, q);
    pct("bench.unattributed_us", layers_.unattributed_us, q);
  }
  pct("proxy.commit_us", layers_.commit_us, 0.50);
  pct("proxy.sync_us", layers_.sync_us, 0.99);
  result->Put("proxy.early_aborts_per_update",
              per(sum("replica", ".early_aborts"), certified), "1/update");
  result->Put("proxy.refresh_applied_per_update",
              per(sum("replica", ".refresh_applied"), certified), "1/update");
  result->Put("proxy.peak_pending_writesets",
              static_cast<double>(peak_pending_), "count");
  result->Put("certifier.writesets_per_force",
              per(certified, sum("certifier.forces", "")),
              "1/force");
  result->Put("certifier.abort_frac", per(aborts, certified + aborts),
              "fraction");
  result->Put("net.msgs_per_commit", per(sum("net.", ".messages"), commits),
              "1/commit");
  result->Put("net.bytes_per_commit", per(sum("net.", ".bytes"), commits),
              "B/commit");
  result->Put("net.refresh_msgs_per_update",
              per(sum("net.refresh", ".messages"), certified), "1/update");
  result->Put("audit.checks_per_commit",
              per(static_cast<double>(audit_checks_), commits), "1/commit");
  result->Put("audit.violations", static_cast<double>(audit_violations_),
              "count");
}

bool Cluster::WriteTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (const auto& [pid, name] :
       {std::pair<int, const char*>{1, "requests"}, {2, "event loop"}}) {
    out << (pid == 1 ? "" : ",\n") << R"({"name": "process_name", "ph": "M", )"
        << "\"pid\": " << pid << R"(, "args": {"name": ")" << name << "\"}}";
  }
  // One complete event; `queue_us` >= 0 adds it as the span's argument.
  auto span = [&out](const char* name, int pid, uint64_t tid, double ts,
                     double dur, double queue_us = -1) {
    out << ",\n{\"name\": \"" << name << "\", \"ph\": \"X\", \"pid\": " << pid
        << ", \"tid\": " << tid << ", \"ts\": " << ts << ", \"dur\": " << dur;
    if (queue_us >= 0) out << ", \"args\": {\"queue_us\": " << queue_us << "}";
    out << "}";
  };
  const double off = -static_cast<double>(rt_offset_us_);
  for (const RequestSpan& r : request_spans_) {
    const screp::StageTimes& st = r.stages;
    const double submit = static_cast<double>(r.submit) + off;
    const double start = static_cast<double>(r.start) + off;
    span(r.read_only ? "read" : "update", 1, r.txn, submit,
         static_cast<double>(r.ack - r.submit));
    const double dispatch = start - submit - static_cast<double>(st.version);
    span("lb.dispatch", 1, r.txn, submit, dispatch);
    span("sync.version_wait", 1, r.txn, submit + dispatch,
         static_cast<double>(st.version));
    double t = start;
    const std::pair<const char*, screp::Duration> stages[] = {
        {"proxy.exec", st.queries},   {"certifier.round_trip", st.certify},
        {"proxy.sync", st.sync},      {"proxy.commit", st.commit},
        {"eager.global_wait", st.global}};
    for (const auto& [name, dur] : stages) {
      if (dur <= 0) continue;
      span(name, 1, r.txn, t, static_cast<double>(dur));
      t += static_cast<double>(dur);
    }
  }
  if (timed_rt_) {
    for (const CallbackSpan& cb : timed_rt_->spans()) {
      span("callback", 2, 0, static_cast<double>(cb.start_ns) / 1e3,
           static_cast<double>(cb.dur_ns) / 1e3,
           static_cast<double>(cb.queue_ns) / 1e3);
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
