#include "core/session.hpp"

#include <algorithm>
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

Session::~Session() {
  // A moved-from session has no transactions (a moved-from vector is
  // empty), so it publishes nothing.
  if (std::any_of(begun_.begin(), begun_.end(),
                  [](const Begun& b) { return b.read_only; })) {
    node_->publish_watermark(TxId(node_id_, slot_, next_local_seq_));
  }
}

void Session::finish(const Transaction& tx) {
  auto it = std::find_if(begun_.begin(), begun_.end(), [&](const Begun& b) {
    return b.seq == tx.id().local_seq();
  });
  if (it == begun_.end() || !it->open) return;  // finished already
  it->open = false;
  // The watermark moves only when the oldest open transaction finishes.
  // Only read-only transactions leave traces to reclaim, so a move that
  // covers none is not published.
  auto first_open = std::find_if(begun_.begin(), begun_.end(),
                                 [](const Begun& b) { return b.open; });
  const bool covers_read_only = std::any_of(
      begun_.begin(), first_open, [](const Begun& b) { return b.read_only; });
  begun_.erase(begun_.begin(), first_open);
  if (!covers_read_only) return;
  const std::uint32_t low =
      begun_.empty() ? next_local_seq_ : begun_.front().seq;
  node_->publish_watermark(TxId(node_id_, slot_, low));
}

Transaction Session::begin(bool read_only) {
  const std::uint32_t seq = next_local_seq_++;
  begun_.push_back(Begun{seq, read_only, true});
  Transaction tx(TxId(node_id_, slot_, seq), read_only, cluster_->num_nodes());
  node_->begin(tx);
  return tx;
}

std::optional<Value> Session::read(Transaction& tx, Key key) {
  if (tx.status() != TxStatus::kActive) return std::nullopt;
  return node_->read(tx, key);
}

void Session::write(Transaction& tx, Key key, Value value) {
  assert(tx.status() == TxStatus::kActive);
  assert(!tx.read_only() && "writes are not allowed in read-only txs");
  node_->write(tx, key, std::move(value));
}

bool Session::commit(Transaction& tx) {
  assert(tx.status() != TxStatus::kCommitted);
  const bool committed = tx.status() == TxStatus::kActive && node_->commit(tx);
  finish(tx);
  return committed;
}

void Session::abort(Transaction& tx) {
  node_->abort(tx);
  finish(tx);
}

}  // namespace fwkv
