#include "replication/system.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace screp {

ReplicatedSystem::ReplicatedSystem(runtime::Runtime* rt, SystemConfig config)
    : rt_(rt), config_(std::move(config)) {}

Result<std::unique_ptr<ReplicatedSystem>> ReplicatedSystem::Create(
    runtime::Runtime* rt, const SystemConfig& config,
    const SchemaBuilder& schema_builder, const TxnDefiner& txn_definer) {
  if (config.replica_count < 1) {
    return Status::InvalidArgument("need at least one replica");
  }
  auto system = std::unique_ptr<ReplicatedSystem>(
      new ReplicatedSystem(rt, config));
  const bool eager = config.level == ConsistencyLevel::kEager;
  const int shard_lanes = config.certifier.shard_lanes;
  if (shard_lanes < 1) {
    return Status::InvalidArgument("certifier.shard_lanes must be >= 1");
  }
  if (shard_lanes > 1) {
    // The proxies' and the load balancer's per-shard paths assume lazy
    // version tags: combinations built on one dense version stream are
    // refused outright rather than silently misbehaving.
    if (eager) {
      return Status::NotSupported(
          "partitioned certification with the eager configuration");
    }
    if (config.level == ConsistencyLevel::kBoundedStaleness) {
      return Status::NotSupported(
          "partitioned certification with bounded staleness");
    }
  }
  for (const std::vector<ShardId>& hosted : config.hosted_shards) {
    for (ShardId s : hosted) {
      if (s < 0 || s >= shard_lanes) {
        return Status::InvalidArgument("hosted shard out of range");
      }
    }
  }

  system->obs_ = std::make_unique<obs::Observability>(rt, config.obs);
  obs::Tracer* tracer = system->obs_->tracer();
  tracer->SetProcessName(obs::kLbPid, "load-balancer");
  tracer->SetProcessName(obs::kCertifierPid, "certifier");
  for (ReplicaId r = 0; r < config.replica_count; ++r) {
    tracer->SetProcessName(obs::kReplicaPidBase + r,
                           "replica-" + std::to_string(r));
  }

  // Replica databases first: all populated identically and
  // deterministically.
  std::vector<std::unique_ptr<Database>> dbs;
  for (ReplicaId r = 0; r < config.replica_count; ++r) {
    dbs.push_back(std::make_unique<Database>());
    SCREP_RETURN_NOT_OK(schema_builder(dbs.back().get()));
  }

  // Prepare the workload's transactions against replica 0's catalog; the
  // registry is shared, and table ids match across replicas because the
  // schema builder runs identically on each.
  Database* db0 = dbs[0].get();
  SCREP_RETURN_NOT_OK(txn_definer(*db0, &system->registry_));

  // Persist the table-set catalog into every replica (§IV-B: "storing the
  // transaction table-set information in the database") and load it back
  // for the load balancer, resolved to table ids.
  for (auto& db : dbs) {
    SCREP_RETURN_NOT_OK(system->registry_.PersistCatalog(db.get()));
  }
  SCREP_ASSIGN_OR_RETURN(auto name_sets,
                         sql::TransactionRegistry::LoadCatalog(*db0));
  std::unordered_map<TxnTypeId, std::vector<TableId>> id_sets;
  for (const auto& [type, names] : name_sets) {
    std::vector<TableId> ids;
    for (const std::string& name : names) {
      SCREP_ASSIGN_OR_RETURN(TableId id, db0->FindTable(name));
      ids.push_back(id);
    }
    id_sets[type] = std::move(ids);
  }

  if (shard_lanes > 1 && !config.table_to_shard.empty()) {
    if (config.table_to_shard.size() != db0->TableCount()) {
      return Status::InvalidArgument(
          "table_to_shard must assign every table");
    }
    system->shard_map_ =
        std::make_unique<ShardMap>(config.table_to_shard, shard_lanes);
  } else {
    system->shard_map_ =
        std::make_unique<ShardMap>(db0->TableCount(), shard_lanes);
  }
  // Every shard needs at least one hosting replica or its stream has no
  // apply site at all.
  if (!config.hosted_shards.empty()) {
    std::vector<bool> covered(static_cast<size_t>(shard_lanes), false);
    for (size_t r = 0;
         r < config.hosted_shards.size() &&
         r < static_cast<size_t>(config.replica_count);
         ++r) {
      if (config.hosted_shards[r].empty()) {
        covered.assign(static_cast<size_t>(shard_lanes), true);
        break;
      }
      for (ShardId s : config.hosted_shards[r]) {
        covered[static_cast<size_t>(s)] = true;
      }
    }
    if (config.hosted_shards.size() <
        static_cast<size_t>(config.replica_count)) {
      covered.assign(static_cast<size_t>(shard_lanes), true);
    }
    for (bool c : covered) {
      if (!c) return Status::InvalidArgument("unhosted shard");
    }
  }
  for (ReplicaId r = 0; r < config.replica_count; ++r) {
    ProxyConfig proxy_config = config.proxy;
    proxy_config.seed = config.seed;
    proxy_config.attach_read_sets =
        config.certifier.mode == CertificationMode::kSerializable;
    system->replicas_.push_back(std::make_unique<Replica>(
        rt, r, std::move(dbs[static_cast<size_t>(r)]), &system->registry_,
        proxy_config, eager, system->shard_map_.get(),
        system->HostedShards(r)));
  }
  system->certifier_ = std::make_unique<Certifier>(
      rt, config.certifier, config.replica_count, eager, *system->shard_map_);
  system->certifier_->SetHostedShards(config.hosted_shards);
  if (config.standby_certifier) {
    if (eager) {
      return Status::NotSupported(
          "standby certifier with the eager configuration");
    }
    system->standby_certifier_ = std::make_unique<Certifier>(
        rt, config.certifier, config.replica_count, /*eager=*/false,
        *system->shard_map_);
    system->standby_certifier_->SetHostedShards(config.hosted_shards);
    // A standby runs muted: it processes the identical certification
    // stream but its announcement paths never fire, so it needs no
    // channels until promotion.
    system->standby_certifier_->SetMuted(true);
  }
  system->table_sets_ = std::move(id_sets);
  system->load_balancer_ = system->MakeLoadBalancer();

  system->BuildChannels();
  system->Wire();
  system->obs_->ConfigureAuditor(
      ProvidesStrongConsistency(config.level),
      config.level != ConsistencyLevel::kBoundedStaleness,
      system->shard_map_->table_to_shard(), shard_lanes);
  system->obs_->ConfigureHealth(config.replica_count);
  system->RegisterGauges();
  system->obs_->StartSampling();
  return system;
}

void ReplicatedSystem::RegisterGauges() {
  obs::MetricsRegistry* registry = obs_->registry();
  // All callbacks read through `this` so certifier/load-balancer failovers
  // transparently switch the gauges to the promoted instance.  One gauge
  // set per certifier lane ("certifier." at K = 1, "certifier.laneS." at
  // K > 1): lane load is independent, so an aggregate would hide exactly
  // the imbalance these exist to expose.
  const int lanes = certifier_->lane_count();
  for (ShardId s = 0; s < lanes; ++s) {
    const std::string prefix =
        lanes == 1 ? std::string("certifier.")
                   : "certifier.lane" + std::to_string(s) + ".";
    registry->RegisterCallbackGauge(prefix + "queue_depth", [this, s]() {
      return static_cast<double>(certifier_->cpu(s)->QueueLength());
    });
    registry->RegisterCallbackGauge(prefix + "force_pending", [this, s]() {
      return static_cast<double>(certifier_->force_batch_pending(s));
    });
    registry->RegisterCallbackGauge(prefix + "disk_util", [this, s]() {
      return certifier_->disk(s)->Utilization();
    });
    // Retention (the log keeps the segments above the prune mark).
    registry->RegisterCallbackGauge(prefix + "retained_writesets",
                                    [this, s]() {
      return static_cast<double>(certifier_->retained_writesets(s));
    });
    registry->RegisterCallbackGauge(prefix + "wal_bytes", [this, s]() {
      return static_cast<double>(certifier_->wal(s).DurableBytes());
    });
    // At K = 1 version_lag already reads the one commit version.
    if (lanes > 1) {
      registry->RegisterCallbackGauge(prefix + "commit_version", [this, s]() {
        return static_cast<double>(certifier_->CommitVersion(s));
      });
    }
  }
  registry->RegisterCallbackGauge("certifier.decided", [this]() {
    return static_cast<double>(certifier_->decided_size());
  });
  registry->RegisterCallbackGauge("lb.outstanding", [this]() {
    int total = 0;
    for (ReplicaId r = 0; r < config_.replica_count; ++r) {
      total += load_balancer_->ActiveAt(r);
    }
    return static_cast<double>(total);
  });
  // Flow-control gauges only exist when the knobs are on, so metrics
  // snapshots of default-config runs are unchanged.
  if (config_.admission.max_outstanding_per_replica > 0) {
    registry->RegisterCallbackGauge("lb.admission_queue", [this]() {
      return static_cast<double>(load_balancer_->admission_queue_depth());
    });
  }
  if (config_.certifier.refresh_credit_window > 0) {
    registry->RegisterCallbackGauge("certifier.deferred_refresh", [this]() {
      return static_cast<double>(certifier_->deferred_refresh_total());
    });
  }
  for (ReplicaId r = 0; r < config_.replica_count; ++r) {
    const std::string prefix = "replica" + std::to_string(r) + ".";
    Proxy* proxy = replicas_[static_cast<size_t>(r)]->proxy();
    // Lag of the replica's most-behind hosted lane stream.
    registry->RegisterCallbackGauge(prefix + "version_lag", [this, proxy]() {
      DbVersion lag = 0;
      for (ShardId s : proxy->hosted_shards()) {
        lag = std::max(lag,
                       certifier_->CommitVersion(s) - proxy->ShardPublished(s));
      }
      return static_cast<double>(lag);
    });
    registry->RegisterCallbackGauge(prefix + "refresh_queue", [proxy]() {
      return static_cast<double>(proxy->pending_writesets());
    });
    registry->RegisterCallbackGauge(prefix + "inflight", [proxy]() {
      return static_cast<double>(proxy->active_transactions());
    });
    registry->RegisterCallbackGauge(prefix + "cpu_queue", [proxy]() {
      return static_cast<double>(proxy->cpu()->QueueLength());
    });
    registry->RegisterCallbackGauge(prefix + "cpu_util", [proxy]() {
      return proxy->cpu()->Utilization();
    });
    registry->RegisterCallbackGauge(prefix + "apply_lanes_busy", [proxy]() {
      return static_cast<double>(proxy->apply_lanes()->Busy());
    });
    registry->RegisterCallbackGauge(prefix + "publish_backlog", [proxy]() {
      return static_cast<double>(proxy->publish_backlog());
    });
    Database* db = replicas_[static_cast<size_t>(r)]->db();
    registry->RegisterCallbackGauge(prefix + "mvcc_versions", [db]() {
      return static_cast<double>(db->VersionCount());
    });
    if (config_.certifier.refresh_credit_window > 0) {
      registry->RegisterCallbackGauge(prefix + "refresh_credits", [this, r]() {
        int64_t total = 0;
        for (ShardId s = 0; s < certifier_->lane_count(); ++s) {
          if (ReplicaHostsShard(r, s)) {
            total += certifier_->refresh_credits(s, r);
          }
        }
        return static_cast<double>(total);
      });
    }
  }
}

void ReplicatedSystem::BuildChannels() {
  const NetworkConfig& net = config_.network;
  obs::MetricsRegistry* registry = obs_->registry();
  // Per-channel RNG streams forked deterministically from the network
  // seed, in fixed construction order.
  Rng seeder(net.seed);

  lb_endpoint_ = std::make_unique<net::Endpoint>("lb");
  certifier_endpoint_ = std::make_unique<net::Endpoint>("certifier");
  client_endpoint_ = std::make_unique<net::Endpoint>("clients");
  for (ReplicaId r = 0; r < config_.replica_count; ++r) {
    replica_endpoints_.push_back(std::make_unique<net::Endpoint>(
        "replica" + std::to_string(r)));
  }
  partitioned_.assign(static_cast<size_t>(config_.replica_count), false);
  rejoining_.assign(static_cast<size_t>(config_.replica_count), false);
  const int lanes = certifier_->lane_count();

  // Handlers read the component pointers through `this`, so a promoted
  // LB or certifier keeps receiving over the same channels, and messages
  // in flight across a failover land on the successor (as before).
  ch_client_lb_ = std::make_unique<net::Channel<TxnRequest>>(
      rt_, "client_lb", net.client_lb, seeder.Next());
  ch_client_lb_->SetDestination(lb_endpoint_.get());
  ch_client_lb_->SetHandler([this](const TxnRequest& request) {
    load_balancer_->OnClientRequest(request);
  });
  ch_client_lb_->AttachMetrics(registry);

  ch_lb_client_ = std::make_unique<net::Channel<TxnResponse>>(
      rt_, "lb_client", net.client_lb, seeder.Next());
  ch_lb_client_->SetDestination(client_endpoint_.get());
  ch_lb_client_->SetHandler([this](const TxnResponse& response) {
    RecordHistory(response, rt_->Now());
    if (client_cb_) client_cb_(response);
  });
  ch_lb_client_->AttachMetrics(registry);

  for (ReplicaId r = 0; r < config_.replica_count; ++r) {
    const std::string tag = ".r" + std::to_string(r);
    net::Endpoint* replica_ep = replica_endpoints_[static_cast<size_t>(r)]
                                    .get();

    auto dispatch = std::make_unique<net::Channel<RoutedRequest>>(
        rt_, "dispatch" + tag, net.lb_replica, seeder.Next());
    dispatch->SetDestination(replica_ep);
    dispatch->SetHandler([this, r](const RoutedRequest& routed) {
      replicas_[static_cast<size_t>(r)]->proxy()->OnTxnRequest(
          routed.request, routed.required);
    });
    dispatch->AttachMetrics(registry);
    ch_dispatch_.push_back(std::move(dispatch));

    auto response = std::make_unique<net::Channel<TxnResponse>>(
        rt_, "response" + tag, net.lb_replica, seeder.Next());
    response->SetDestination(lb_endpoint_.get());
    response->SetHandler([this](const TxnResponse& resp) {
      load_balancer_->OnProxyResponse(resp);
    });
    response->AttachMetrics(registry);
    ch_response_.push_back(std::move(response));

    auto cert_request = std::make_unique<net::Channel<WriteSet>>(
        rt_, "certreq" + tag, net.replica_certifier, seeder.Next());
    cert_request->SetDestination(certifier_endpoint_.get());
    cert_request->SetSizeFn(
        [](const WriteSet& ws) { return ws.SerializedBytes(); });
    cert_request->SetHandler([this](const WriteSet& ws) {
      certifier_->SubmitCertification(ws);
    });
    cert_request->AttachMetrics(registry);
    ch_cert_request_.push_back(std::move(cert_request));

    auto commit_notice = std::make_unique<net::Channel<TxnId>>(
        rt_, "commit_notice" + tag, net.replica_certifier, seeder.Next());
    commit_notice->SetDestination(certifier_endpoint_.get());
    commit_notice->SetHandler([this](const TxnId& txn) {
      certifier_->NotifyReplicaCommitted(txn);
    });
    commit_notice->AttachMetrics(registry);
    ch_commit_notice_.push_back(std::move(commit_notice));

    auto decision = std::make_unique<net::Channel<CertDecision>>(
        rt_, "decision" + tag, net.replica_certifier, seeder.Next());
    decision->SetDestination(replica_ep);
    decision->SetHandler([this, r](const CertDecision& d) {
      replicas_[static_cast<size_t>(r)]->proxy()->OnCertDecision(d);
      if (d.commit && ++commits_since_sweep_ >= kSweepEveryCommits) {
        commits_since_sweep_ = 0;
        SweepLowWaterMark();
      }
    });
    decision->AttachMetrics(registry);
    ch_decision_.push_back(std::move(decision));

    // One refresh stream per hosted certifier lane: partial replication
    // means a non-hosting replica never sees the lane's traffic at all.
    auto& refresh_streams =
        ch_refresh_.emplace_back(static_cast<size_t>(lanes));
    for (ShardId s = 0; s < lanes; ++s) {
      if (!ReplicaHostsShard(r, s)) continue;
      auto refresh = std::make_unique<net::Channel<RefreshBatch>>(
          rt_, "refresh" + LaneTag(s, r), net.refresh, seeder.Next());
      refresh->SetDestination(replica_ep);
      refresh->SetSizeFn(
          [](const RefreshBatch& batch) { return batch.SerializedBytes(); });
      refresh->SetHandler([this, r, s](const RefreshBatch& batch) {
        replicas_[static_cast<size_t>(r)]->proxy()->OnRefreshBatch(s, batch);
      });
      refresh->AttachMetrics(registry);
      refresh_streams[static_cast<size_t>(s)] = std::move(refresh);
    }

    auto global_commit = std::make_unique<net::Channel<TxnId>>(
        rt_, "global_commit" + tag, net.replica_certifier, seeder.Next());
    global_commit->SetDestination(replica_ep);
    global_commit->SetHandler([this, r](const TxnId& txn) {
      replicas_[static_cast<size_t>(r)]->proxy()->OnGlobalCommit(txn);
    });
    global_commit->AttachMetrics(registry);
    ch_global_commit_.push_back(std::move(global_commit));
  }

  // Primary -> standby certification stream (state-machine replication).
  // A forward still in flight when the standby is promoted lands on the
  // promoted certifier instead, where idempotent certification absorbs
  // it.
  ch_forward_ = std::make_unique<net::Channel<WriteSet>>(
      rt_, "standby_forward", net.replica_certifier, seeder.Next());
  ch_forward_->SetSizeFn(
      [](const WriteSet& ws) { return ws.SerializedBytes(); });
  ch_forward_->SetHandler([this](const WriteSet& ws) {
    Certifier* target = standby_certifier_ != nullptr
                            ? standby_certifier_.get()
                            : certifier_.get();
    target->SubmitCertification(ws);
  });
  ch_forward_->AttachMetrics(registry);

  // Replica -> certifier refresh-credit returns (flow control), one per
  // hosted lane.  Built in its own loop AFTER every pre-existing channel:
  // each construction consumes one fork of the network seeder, so
  // appending here keeps the per-channel RNG streams — and thus every
  // default-config run — identical to before flow control existed.
  for (ReplicaId r = 0; r < config_.replica_count; ++r) {
    auto& credit_streams = ch_credit_.emplace_back(static_cast<size_t>(lanes));
    for (ShardId s = 0; s < lanes; ++s) {
      if (!ReplicaHostsShard(r, s)) continue;
      auto credit = std::make_unique<net::Channel<int>>(
          rt_, "credit" + LaneTag(s, r), net.replica_certifier,
          seeder.Next());
      credit->SetDestination(certifier_endpoint_.get());
      credit->SetHandler([this, r, s](const int& credits) {
        certifier_->OnCreditReturned(s, r, credits);
      });
      credit->AttachMetrics(registry);
      credit_streams[static_cast<size_t>(s)] = std::move(credit);
    }
  }

  // Transport spans for the request path (tracing and the critical-path
  // profiler).  Trace fns fire on every actual delivery with the original
  // send time, so each span is the full transport delay the receiver
  // experienced — retransmissions and resequencing included.  Refresh,
  // commit-notice, global-commit and credit channels carry no per-txn
  // critical-path hop (the eager global wait is measured proxy-side), so
  // they stay untraced.
  obs::Tracer* tr = obs_->tracer();
  if (tr->active()) {
    ch_client_lb_->SetTraceFn(
        [tr](const TxnRequest& request, TimePoint sent, TimePoint at) {
          tr->Add({.name = "net.client_lb",
                   .category = "net",
                   .pid = obs::kLbPid,
                   .tid = static_cast<int64_t>(request.txn_id),
                   .start = sent,
                   .duration = at - sent,
                   .txn = request.txn_id});
        });
    ch_lb_client_->SetTraceFn(
        [tr](const TxnResponse& response, TimePoint sent, TimePoint at) {
          tr->Add({.name = "net.lb_client",
                   .category = "net",
                   .pid = obs::kLbPid,
                   .tid = static_cast<int64_t>(response.txn_id),
                   .start = sent,
                   .duration = at - sent,
                   .txn = response.txn_id});
        });
    for (ReplicaId r = 0; r < config_.replica_count; ++r) {
      const int32_t replica_pid = obs::kReplicaPidBase + r;
      ch_dispatch_[static_cast<size_t>(r)]->SetTraceFn(
          [tr, replica_pid](const RoutedRequest& routed, TimePoint sent,
                            TimePoint at) {
            tr->Add({.name = "net.dispatch",
                     .category = "net",
                     .pid = replica_pid,
                     .tid = static_cast<int64_t>(routed.request.txn_id),
                     .start = sent,
                     .duration = at - sent,
                     .txn = routed.request.txn_id});
          });
      ch_response_[static_cast<size_t>(r)]->SetTraceFn(
          [tr](const TxnResponse& response, TimePoint sent, TimePoint at) {
            tr->Add({.name = "net.response",
                     .category = "net",
                     .pid = obs::kLbPid,
                     .tid = static_cast<int64_t>(response.txn_id),
                     .start = sent,
                     .duration = at - sent,
                     .txn = response.txn_id});
          });
      ch_cert_request_[static_cast<size_t>(r)]->SetTraceFn(
          [tr](const WriteSet& ws, TimePoint sent, TimePoint at) {
            tr->Add({.name = "net.certreq",
                     .category = "net",
                     .pid = obs::kCertifierPid,
                     .tid = static_cast<int64_t>(ws.txn_id),
                     .start = sent,
                     .duration = at - sent,
                     .txn = ws.txn_id});
          });
      ch_decision_[static_cast<size_t>(r)]->SetTraceFn(
          [tr, replica_pid](const CertDecision& d, TimePoint sent,
                            TimePoint at) {
            tr->Add({.name = "net.decision",
                     .category = "net",
                     .pid = replica_pid,
                     .tid = static_cast<int64_t>(d.txn_id),
                     .start = sent,
                     .duration = at - sent,
                     .txn = d.txn_id});
          });
    }
  }
}

void ReplicatedSystem::Wire() {
  WireLoadBalancer();

  for (ReplicaId r = 0; r < config_.replica_count; ++r) {
    Proxy* proxy = replicas_[static_cast<size_t>(r)]->proxy();
    proxy->SetWaitCause(load_balancer_->policy().wait_cause());
    proxy->SetObservability(obs_.get());
    // Replica proxy -> load balancer (responses).
    proxy->SetResponseCallback([this, r](const TxnResponse& response) {
      ch_response_[static_cast<size_t>(r)]->Send(response);
    });
    // Replica proxy -> certifier (writesets + eager commit reports).
    proxy->SetCertRequestCallback([this, r](const WriteSet& ws) {
      ch_cert_request_[static_cast<size_t>(r)]->Send(ws);
    });
    proxy->SetReplicaCommittedCallback([this, r](TxnId txn) {
      ch_commit_notice_[static_cast<size_t>(r)]->Send(txn);
    });
    // Refresh flow control: only wired when the certifier runs with a
    // credit window — an unset callback keeps the proxy's refresh path
    // exactly as before.
    if (config_.certifier.refresh_credit_window > 0) {
      proxy->SetCreditCallback([this, r](ShardId lane, int credits) {
        ch_credit_[static_cast<size_t>(r)][static_cast<size_t>(lane)]->Send(
            credits);
      });
    }
  }

  WireCertifier();
}

void ReplicatedSystem::WireLoadBalancer() {
  load_balancer_->SetObservability(obs_.get());
  // Load balancer -> replica proxy (request dispatch).
  load_balancer_->SetDispatchCallback(
      [this](ReplicaId replica, const TxnRequest& request,
             const ShardVersions& required) {
        ch_dispatch_[static_cast<size_t>(replica)]->Send(
            RoutedRequest{request, required});
      });
  // Load balancer -> client (acknowledgments).
  load_balancer_->SetClientResponseCallback(
      [this](const TxnResponse& response) {
        ch_lb_client_->Send(response);
      });
}

void ReplicatedSystem::EmitFaultEvent(obs::EventKind kind,
                                      const char* component,
                                      ReplicaId replica) {
  obs::EventLog* log = obs_->event_log();
  if (!log->enabled()) return;
  obs::Event e;
  e.kind = kind;
  e.at = rt_->Now();
  e.replica = replica;
  e.detail = component;
  log->Append(std::move(e));
}

std::unique_ptr<LoadBalancer> ReplicatedSystem::MakeLoadBalancer() const {
  auto lb = std::make_unique<LoadBalancer>(
      rt_, config_.level, shard_map_->table_count(), config_.replica_count,
      config_.routing, config_.staleness_bound, config_.admission,
      shard_map_.get(), config_.hosted_shards);
  lb->SetTableSets(table_sets_);
  return lb;
}

void ReplicatedSystem::CrashLoadBalancer() {
  ++lb_failovers_;
  EmitFaultEvent(obs::EventKind::kFailover, "lb", kNoReplica);
  // The floor per shard: each certifier lane's current commit version.
  ShardVersions floors;
  for (ShardId s = 0; s < certifier_->lane_count(); ++s) {
    floors.emplace_back(s, certifier_->CommitVersion(s));
  }
  SCREP_LOG(kWarn) << "[system] load balancer crash (failover #"
                   << lb_failovers_ << "): promoting a standby with "
                      "conservative floor "
                   << certifier_->CommitVersion();
  // The standby holds no soft state: it learns the replica set, the shard
  // map and the table-set dictionary from configuration/catalog,
  // re-initializes its version trackers conservatively from the
  // certifier, and re-marks crashed replicas (hard state it can
  // re-probe).
  std::unique_ptr<LoadBalancer> standby = MakeLoadBalancer();
  standby->PromoteFrom(floors);
  for (ReplicaId r = 0; r < config_.replica_count; ++r) {
    const auto idx = static_cast<size_t>(r);
    if (replicas_[idx]->proxy()->down() || rejoining_[idx]) {
      standby->MarkReplicaDown(r);
    }
  }
  load_balancer_ = std::move(standby);
  WireLoadBalancer();
}

void ReplicatedSystem::WireCertifier() {
  // Only the active certifier reports: a standby processes the identical
  // stream and would double-count. On promotion the same counter names
  // continue their predecessor's totals.
  certifier_->SetObservability(obs_.get());
  // Certifier -> replicas (decisions, refresh fan-out, global commits).
  certifier_->SetDecisionCallback(
      [this](ReplicaId origin, const CertDecision& decision) {
        ch_decision_[static_cast<size_t>(origin)]->Send(decision);
      });
  certifier_->SetRefreshCallback(
      [this](ShardId lane, ReplicaId target, const RefreshBatch& batch) {
        refresh_channel(target, lane)->Send(batch);
      });
  certifier_->SetGlobalCommitCallback([this](ReplicaId origin, TxnId txn) {
    ch_global_commit_[static_cast<size_t>(origin)]->Send(txn);
  });
  if (standby_certifier_ != nullptr) {
    certifier_->SetForwardCallback(
        [this](const WriteSet& ws) { ch_forward_->Send(ws); });
  } else {
    certifier_->SetForwardCallback(nullptr);
  }
}

void ReplicatedSystem::CrashCertifier() {
  SCREP_CHECK_MSG(standby_certifier_ != nullptr,
                  "no standby certifier configured");
  SCREP_CHECK_MSG(!certifier_failed_over_, "certifier already failed over");
  certifier_failed_over_ = true;
  EmitFaultEvent(obs::EventKind::kFailover, "certifier", kNoReplica);
  SCREP_LOG(kWarn) << "[system] certifier crash: promoting the standby at "
                      "commit version "
                   << standby_certifier_->CommitVersion();
  // The primary is gone — muted, but kept allocated so simulated events
  // it still owns (disk completions, queued certifications) fire into
  // silence instead of freed memory. Its pending certifications forward
  // to the promoted certifier through the forward channel.
  dead_certifier_ = std::move(certifier_);
  dead_certifier_->SetMuted(true);
  dead_certifier_->SetObservability(nullptr);
  // The standby (identical deterministic state) takes over and starts
  // speaking on the real channels.
  certifier_ = std::move(standby_certifier_);
  certifier_->SetMuted(false);
  WireCertifier();
  // Replicas may have missed refreshes announced by the dead primary and
  // decisions for in-flight transactions: catch up lane by lane and
  // resubmit, one failover round trip later.
  for (ReplicaId r = 0; r < static_cast<ReplicaId>(replicas_.size()); ++r) {
    Proxy* proxy = replicas_[static_cast<size_t>(r)]->proxy();
    if (proxy->down()) continue;
    rt_->Schedule(config_.network.replica_certifier.RoundTrip(),
                   [this, r, proxy]() {
      if (proxy->down()) return;
      for (ShardId s = 0; s < certifier_->lane_count(); ++s) {
        if (!ReplicaHostsShard(r, s)) continue;
        const DbVersion from = proxy->ShardPublished(s);
        // Only a replica still rejoining (restarted below the retained
        // log) can lag the floor; its own recovery catch-up serves it.
        if (from < certifier_->FetchFloor(s)) continue;
        const Status st = certifier_->FetchSince(
            s, from, [proxy](const WriteSet& ws) { proxy->OnRefresh(ws); });
        SCREP_CHECK_MSG(st.ok(),
                        "failover catch-up failed: " << st.ToString());
      }
      proxy->ResubmitPendingCertifications();
    });
  }
}

void ReplicatedSystem::CrashReplica(ReplicaId replica) {
  SCREP_CHECK_MSG(!sharded(),
                  "replica crash unsupported with partitioned certification");
  Proxy* proxy = replicas_[static_cast<size_t>(replica)]->proxy();
  SCREP_CHECK_MSG(!proxy->down(), "replica already down");
  SCREP_CHECK_MSG(!IsReplicaPartitioned(replica),
                  "crash of a partitioned replica is not modelled");
  SCREP_LOG(kWarn) << "[system] crash of replica " << replica;
  EmitFaultEvent(obs::EventKind::kCrash, "replica", replica);
  proxy->Crash();
  std::erase(awaiting_peer_, replica);
  // Crash-stop at the transport: the endpoint closes, so anything still
  // addressed to the dead replica drops at its channel (counted there).
  replica_endpoints_[static_cast<size_t>(replica)]->Close();
  certifier_->MarkReplicaDown(replica);
  // The load balancer notices the failure and fails outstanding
  // transactions over to their clients (responses travel with latency).
  load_balancer_->MarkReplicaDown(replica);
}

void ReplicatedSystem::RecoverReplica(ReplicaId replica) {
  Proxy* proxy = replicas_[static_cast<size_t>(replica)]->proxy();
  SCREP_CHECK_MSG(proxy->down(), "replica is not down");
  EmitFaultEvent(obs::EventKind::kRecover, "replica", replica);
  SCREP_LOG(kInfo) << "[system] recovery of replica " << replica
                   << " from V_local=" << proxy->v_local()
                   << " (certifier at " << certifier_->CommitVersion() << ")";
  proxy->Restart();
  rejoining_[static_cast<size_t>(replica)] = true;
  replica_endpoints_[static_cast<size_t>(replica)]->Open();
  // The refresh channel forgets sequencing state from before the crash:
  // a retransmission that gave up while the endpoint was closed must not
  // leave a gap stalling post-recovery traffic (catch-up re-delivers
  // everything missed).
  refresh_channel(replica)->Reset();
  // Resume the refresh flow first so nothing is missed between the catch-
  // up and new commits, then catch up one round trip later.
  certifier_->MarkReplicaUp(replica);
  rt_->Schedule(config_.network.replica_certifier.RoundTrip(),
                [this, replica]() { CatchUpRecovered(replica); });
}

void ReplicatedSystem::CatchUpRecovered(ReplicaId replica) {
  Proxy* p = replicas_[static_cast<size_t>(replica)]->proxy();
  if (p->down()) return;  // crashed again before catch-up started
  const DbVersion target = certifier_->CommitVersion();
  if (p->v_local() < certifier_->FetchFloor()) {
    // The certifier's log no longer reaches back to this replica: rejoin
    // from the snapshot of a live peer the certifier can stream on from.
    Replica* peer = SnapshotPeer(replica);
    if (peer == nullptr) {
      SCREP_LOG(kWarn) << "[system] replica " << replica << " at V_local="
                       << p->v_local() << " is below the certifier's log ("
                       << certifier_->FetchFloor()
                       << ") and no live peer can give it a snapshot: "
                          "waiting for one";
      awaiting_peer_.push_back(replica);
      return;
    }
    const DbVersion from = p->v_local();
    p->InstallSnapshot(peer->db()->TakeSnapshot());
    ++snapshot_rejoins_;
    if (certifier_->eager()) {
      // The snapshot committed (from, V] here at once.  Report them as the
      // apply path would: a global commit may be waiting on this replica
      // for any of them (all lie above the prune mark, so the certifier
      // still holds them).
      const DbVersion v = p->v_local();
      const Status st = certifier_->FetchSince(
          0, std::max(from, certifier_->FetchFloor()),
          [this, replica, v](const WriteSet& ws) {
            if (ws.commit_version <= v) {
              ch_commit_notice_[static_cast<size_t>(replica)]->Send(
                  ws.txn_id);
            }
          });
      SCREP_CHECK_MSG(st.ok(), "snapshot commit reports: " << st.ToString());
    }
  }
  const Status st = certifier_->FetchSince(
      0, p->v_local(), [p](const WriteSet& ws) { p->OnRefresh(ws); });
  SCREP_CHECK_MSG(st.ok(), "catch-up fetch failed: " << st.ToString());
  // The replica rejoins the routing rotation only once it is current:
  // under the eager scheme nothing else would stop a freshly recovered
  // replica from serving stale snapshots.
  p->CallWhenVersionReached(target,
                            [this, replica]() { OnCaughtUp(replica); });
}

Replica* ReplicatedSystem::SnapshotPeer(ReplicaId replica) const {
  Replica* best = nullptr;
  for (ReplicaId r = 0; r < replica_count(); ++r) {
    Replica* peer = replicas_[static_cast<size_t>(r)].get();
    const Proxy* proxy = peer->proxy();
    if (r == replica || proxy->down() || IsReplicaPartitioned(r) ||
        proxy->v_local() < certifier_->FetchFloor()) {
      continue;
    }
    if (best == nullptr || proxy->v_local() > best->proxy()->v_local()) {
      best = peer;
    }
  }
  return best;
}

bool ReplicatedSystem::IsAwaitingPeer(ReplicaId replica) const {
  return std::find(awaiting_peer_.begin(), awaiting_peer_.end(), replica) !=
         awaiting_peer_.end();
}

void ReplicatedSystem::OnCaughtUp(ReplicaId replica) {
  rejoining_[static_cast<size_t>(replica)] = false;
  load_balancer_->MarkReplicaUp(replica);
  std::vector<ReplicaId> waiting;
  waiting.swap(awaiting_peer_);
  for (ReplicaId r : waiting) CatchUpRecovered(r);
}

bool ReplicatedSystem::IsReplicaDown(ReplicaId replica) const {
  return replicas_[static_cast<size_t>(replica)]->proxy()->down();
}

const std::vector<ShardId>& ReplicatedSystem::HostedShards(
    ReplicaId replica) const {
  static const std::vector<ShardId> kEverything;
  const auto& hosted = config_.hosted_shards;
  return static_cast<size_t>(replica) < hosted.size()
             ? hosted[static_cast<size_t>(replica)]
             : kEverything;
}

bool ReplicatedSystem::ReplicaHostsShard(ReplicaId replica,
                                         ShardId shard) const {
  const std::vector<ShardId>& set = HostedShards(replica);
  // An empty set hosts everything.
  return set.empty() || std::find(set.begin(), set.end(), shard) != set.end();
}

void ReplicatedSystem::SetReplicaLinksPartitioned(ReplicaId replica,
                                                  bool partitioned) {
  const auto r = static_cast<size_t>(replica);
  ch_dispatch_[r]->SetPartitioned(partitioned);
  ch_response_[r]->SetPartitioned(partitioned);
  ch_cert_request_[r]->SetPartitioned(partitioned);
  ch_commit_notice_[r]->SetPartitioned(partitioned);
  ch_decision_[r]->SetPartitioned(partitioned);
  ch_global_commit_[r]->SetPartitioned(partitioned);
  for (size_t s = 0; s < ch_refresh_[r].size(); ++s) {
    if (ch_refresh_[r][s]) ch_refresh_[r][s]->SetPartitioned(partitioned);
    if (ch_credit_[r][s]) ch_credit_[r][s]->SetPartitioned(partitioned);
  }
}

void ReplicatedSystem::PartitionReplica(ReplicaId replica) {
  SCREP_CHECK_MSG(!sharded(),
                  "partition faults unsupported with partitioned "
                  "certification");
  Proxy* proxy = replicas_[static_cast<size_t>(replica)]->proxy();
  SCREP_CHECK_MSG(!proxy->down(), "cannot partition a crashed replica");
  SCREP_CHECK_MSG(!IsReplicaPartitioned(replica),
                  "replica already partitioned");
  partitioned_[static_cast<size_t>(replica)] = true;
  EmitFaultEvent(obs::EventKind::kCrash, "partition", replica);
  SCREP_LOG(kWarn) << "[system] network partition of replica " << replica;
  SetReplicaLinksPartitioned(replica, true);
  // The replica itself keeps running, but the rest of the cluster hears
  // silence: one heartbeat round trip later the LB fails outstanding
  // transactions over and the certifier stops fanning refreshes to it.
  rt_->Schedule(config_.network.lb_replica.RoundTrip(), [this, replica]() {
    if (!IsReplicaPartitioned(replica)) return;  // healed before detection
    certifier_->MarkReplicaDown(replica);
    load_balancer_->MarkReplicaDown(replica);
  });
}

void ReplicatedSystem::HealReplicaPartition(ReplicaId replica) {
  SCREP_CHECK_MSG(IsReplicaPartitioned(replica), "replica is not partitioned");
  Proxy* proxy = replicas_[static_cast<size_t>(replica)]->proxy();
  partitioned_[static_cast<size_t>(replica)] = false;
  EmitFaultEvent(obs::EventKind::kRecover, "partition", replica);
  SCREP_LOG(kInfo) << "[system] partition of replica " << replica
                   << " heals at V_local=" << proxy->v_local()
                   << " (certifier at " << certifier_->CommitVersion() << ")";
  SetReplicaLinksPartitioned(replica, false);
  // Sends dropped at the cut (and retransmissions that gave up) left
  // sequence gaps on the refresh channel; the catch-up stream below
  // re-delivers that range, so the channel restarts clean.
  refresh_channel(replica)->Reset();
  certifier_->MarkReplicaUp(replica);
  const DbVersion from = proxy->v_local();
  rt_->Schedule(config_.network.replica_certifier.RoundTrip(),
                 [this, replica, from]() {
    Proxy* p = replicas_[static_cast<size_t>(replica)]->proxy();
    if (p->down() || IsReplicaPartitioned(replica)) return;  // cut again
    const DbVersion target = certifier_->CommitVersion();
    const Status st = certifier_->FetchSince(
        0, from, [p](const WriteSet& ws) { p->OnRefresh(ws); });
    SCREP_CHECK_MSG(st.ok(), "heal catch-up failed: " << st.ToString());
    // Transactions stuck awaiting decisions re-certify (idempotent at
    // the certifier — already-decided ones get their original verdict).
    p->ResubmitPendingCertifications();
    p->CallWhenVersionReached(target,
                              [this, replica]() { OnCaughtUp(replica); });
  });
}

void ReplicatedSystem::SweepLowWaterMark() {
  // Each lane's horizon: the oldest lane snapshot among the replicas that
  // are not crashed and host it (at K = 1 the oldest snapshot overall).
  std::vector<DbVersion> horizon(static_cast<size_t>(certifier_->lane_count()),
                                 std::numeric_limits<DbVersion>::max());
  for (ReplicaId r = 0; r < replica_count(); ++r) {
    Replica* replica = replicas_[static_cast<size_t>(r)].get();
    Proxy* proxy = replica->proxy();
    if (proxy->down()) continue;
    const DbVersion oldest = proxy->OldestActiveSnapshot();
    replica->db()->TruncateVersions(oldest);
    for (ShardId s = 0; s < certifier_->lane_count(); ++s) {
      if (!ReplicaHostsShard(r, s)) continue;
      DbVersion& h = horizon[static_cast<size_t>(s)];
      h = std::min(h, proxy->OldestActiveSnapshot(s));
    }
  }
  for (ShardId s = 0; s < certifier_->lane_count(); ++s) {
    const DbVersion h = horizon[static_cast<size_t>(s)];
    if (h != std::numeric_limits<DbVersion>::max()) {
      certifier_->PruneThrough(s, h);
    }
  }
  if (standby_certifier_ != nullptr) {
    standby_certifier_->MirrorPruneOf(*certifier_);
  }
}

std::string ReplicatedSystem::LaneTag(ShardId shard, ReplicaId replica) const {
  const std::string r = ".r" + std::to_string(replica);
  return sharded() ? ".s" + std::to_string(shard) + r : r;
}

void ReplicatedSystem::Submit(TxnRequest request) {
  request.submit_time = rt_->Now();
  ch_client_lb_->Send(request);
}

void ReplicatedSystem::RecordHistory(const TxnResponse& response,
                                     TimePoint ack_time) {
  obs::EventLog* event_log = obs_->event_log();
  if (history_ == nullptr && !event_log->enabled()) return;
  TxnRecord record;
  record.id = response.txn_id;
  record.session = response.session;
  record.replica = response.replica;
  record.submit_time = response.submit_time;
  record.start_time = response.start_time;
  record.ack_time = ack_time;
  record.snapshot = response.snapshot;
  record.commit_version = response.commit_version;
  record.committed = response.outcome == TxnOutcome::kCommitted;
  record.read_only = response.read_only;
  if (response.type != kUnknownTxnType) {
    const sql::PreparedTransaction& prepared = registry_.Get(response.type);
    for (const auto& stmt : prepared.statements) {
      if (std::find(record.table_set.begin(), record.table_set.end(),
                    stmt->table_id()) == record.table_set.end()) {
        record.table_set.push_back(stmt->table_id());
      }
    }
  }
  for (const auto& [table, version] : response.written_table_versions) {
    (void)version;
    record.tables_written.push_back(table);
  }
  record.keys_written = response.keys_written;
  if (event_log->enabled()) {
    obs::Event e;
    e.kind = obs::EventKind::kTxnFinished;
    e.at = ack_time;
    e.txn = record.id;
    e.session = record.session;
    e.replica = record.replica;
    e.snapshot = record.snapshot;
    e.commit_version = record.commit_version;
    e.committed = record.committed;
    e.read_only = record.read_only;
    e.submit_time = record.submit_time;
    e.start_time = record.start_time;
    e.table_set = record.table_set;
    e.tables_written = record.tables_written;
    e.keys_written = record.keys_written;
    // Sharded coordinates (empty at K = 1 — the JSONL stays identical).
    e.shard_versions = response.shard_versions;
    e.shard_snapshots = response.shard_snapshots;
    event_log->Append(std::move(e));
  }
  if (history_ != nullptr) history_->Add(std::move(record));
}

}  // namespace screp
