#include "core/session.hpp"

#include <cassert>

#include "core/cluster.hpp"

namespace fwkv {

Session::Session(Cluster& cluster, NodeId node, std::uint32_t client_id,
                 std::uint32_t slot)
    : cluster_(&cluster),
      node_(&cluster.node(node)),
      node_id_(node),
      client_id_(client_id),
      slot_(slot) {}

Transaction Session::begin(bool read_only) {
  Transaction tx(TxId(node_id_, slot_, next_local_seq_++), read_only,
                 cluster_->num_nodes());
  node_->begin(tx);
  return tx;
}

std::optional<Value> Session::read(Transaction& tx, Key key) {
  assert(tx.status() == TxStatus::kActive);
  return node_->read(tx, key);
}

void Session::write(Transaction& tx, Key key, Value value) {
  assert(tx.status() == TxStatus::kActive);
  assert(!tx.read_only() && "writes are not allowed in read-only txs");
  node_->write(tx, key, std::move(value));
}

bool Session::commit(Transaction& tx) {
  assert(tx.status() == TxStatus::kActive);
  return node_->commit(tx);
}

void Session::abort(Transaction& tx) { node_->abort(tx); }

}  // namespace fwkv
