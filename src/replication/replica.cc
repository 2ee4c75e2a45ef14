#include "replication/replica.h"

namespace screp {

Replica::Replica(runtime::Runtime* rt, ReplicaId id,
                 std::unique_ptr<Database> db,
                 const sql::TransactionRegistry* registry,
                 ProxyConfig config, bool eager, const ShardMap* map,
                 std::vector<ShardId> hosted)
    : id_(id), db_(std::move(db)) {
  proxy_ = std::make_unique<Proxy>(rt, id, db_.get(), registry, config,
                                   eager, map, std::move(hosted));
}

}  // namespace screp
