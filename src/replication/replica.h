// A replica: a standalone MVCC database instance plus its proxy.

#ifndef SCREP_REPLICATION_REPLICA_H_
#define SCREP_REPLICATION_REPLICA_H_

#include <memory>

#include "replication/proxy.h"
#include "storage/database.h"

namespace screp {

/// One node of the replicated system.
class Replica {
 public:
  /// `db` holds the replica's schema and initial rows; `map` and
  /// `hosted` are the proxy's shard map and hosted shard-set.
  Replica(runtime::Runtime* rt, ReplicaId id, std::unique_ptr<Database> db,
          const sql::TransactionRegistry* registry, ProxyConfig config,
          bool eager, const ShardMap* map, std::vector<ShardId> hosted);

  ReplicaId id() const { return id_; }
  Database* db() { return db_.get(); }
  const Database* db() const { return db_.get(); }
  Proxy* proxy() { return proxy_.get(); }
  const Proxy* proxy() const { return proxy_.get(); }

 private:
  ReplicaId id_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Proxy> proxy_;
};

}  // namespace screp

#endif  // SCREP_REPLICATION_REPLICA_H_
