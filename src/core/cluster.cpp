#include "core/cluster.hpp"

#include <cassert>
#include <stdexcept>

#include "core/mv_node.hpp"
#include "core/session.hpp"
#include "twopc/twopc_node.hpp"

namespace fwkv {

Cluster::Cluster(ClusterConfig config)
    : config_(config),
      mapper_(config.mapper
                  ? config.mapper
                  : std::make_shared<const ConsistentHashRing>(
                        config.num_nodes)),
      network_(std::make_unique<net::SimNetwork>(config.num_nodes,
                                                 config.net)) {
  assert(config_.num_nodes > 0);
  ctx_.network = network_.get();
  ctx_.mapper = mapper_.get();
  ctx_.config = config_.protocol_config;
  ctx_.num_nodes = config_.num_nodes;

  nodes_.reserve(config_.num_nodes);
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    switch (config_.protocol) {
      case Protocol::kFwKv:
        nodes_.push_back(std::make_unique<FwKvNode>(n, ctx_));
        break;
      case Protocol::kWalter:
        nodes_.push_back(std::make_unique<WalterNode>(n, ctx_));
        break;
      case Protocol::kTwoPC:
        nodes_.push_back(std::make_unique<TwoPcNode>(n, ctx_));
        break;
    }
    network_->register_endpoint(n, nodes_.back().get());
  }
  // The tick starts once every node is built.
  ctx_.network->schedule(tick_period(ctx_.config), [this] { tick(); });
}

Cluster::~Cluster() {
  // Messages (Decide, Propagate, Remove) and the tick may still be pending.
  // Tear the network down first: its destructor stops the timer, so no
  // handler or tick can touch a node being destroyed.
  network_.reset();
}

void Cluster::tick() {
  const auto now = KvNode::Clock::now();
  for (auto& node : nodes_) node->tick(now);
  // Through ctx_, not network_: reset() nulls network_ before the network's
  // destructor stops the timer, and this tick may be running then. The
  // entry is dropped once the timer has stopped.
  ctx_.network->schedule(tick_period(ctx_.config), [this] { tick(); });
}

void Cluster::load(Key key, Value value) {
  nodes_[mapper_->node_for(key)]->load(key, std::move(value));
}

Session Cluster::make_session(NodeId node, std::uint32_t client_id) {
  assert(node < config_.num_nodes);
  const std::uint32_t slot =
      next_session_slot_.fetch_add(1, std::memory_order_relaxed);
  // Checked in every build: a wrapped slot would reuse another session's
  // tx ids, which the participants' dedup would then drop as decided.
  if (slot > 0xffffu) {
    throw std::length_error("Cluster::make_session: TxId session field "
                            "exhausted (65536 sessions per cluster)");
  }
  return Session(*this, node, client_id, slot);
}

bool Cluster::quiesce(std::chrono::nanoseconds timeout) {
  // Propagation is batched; push the batches out so the quiescent state
  // reflects every commit that returned to a client.
  for (auto& node : nodes_) node->quiesce_flush();
  return network_->wait_quiescent(timeout);
}

NodeStats::Snapshot Cluster::aggregate_stats() const {
  NodeStats::Snapshot total;
  for (const auto& node : nodes_) total.merge(node->stats().snapshot());
  return total;
}

void Cluster::reset_stats() {
  for (auto& node : nodes_) node->stats().reset();
}

}  // namespace fwkv
