// Public entry point: a simulated FW-KV / Walter / 2PC-baseline cluster.
//
//   fwkv::ClusterConfig cfg;
//   cfg.num_nodes = 5;
//   cfg.protocol = fwkv::Protocol::kFwKv;
//   fwkv::Cluster cluster(cfg);
//   cluster.load(42, "hello");
//   auto session = cluster.make_session(/*node=*/0, /*client=*/0);
//   auto tx = session.begin();
//   session.write(tx, 42, "world");
//   session.commit(tx);
//
// The cluster owns the nodes' one periodic timer entry: every
// tick_period() it calls KvNode::tick(now) on each node, on the network's
// timer thread.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <vector>

#include "core/kv_node.hpp"
#include "core/protocol.hpp"
#include "net/network.hpp"

namespace fwkv {

class Session;

struct ClusterConfig {
  std::uint32_t num_nodes = 4;
  Protocol protocol = Protocol::kFwKv;
  net::NetConfig net;
  ProtocolConfig protocol_config;
  /// Custom key placement (e.g. TPC-C's warehouse-home placement). When
  /// null a ConsistentHashRing over num_nodes is used.
  std::shared_ptr<const KeyMapper> mapper;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::uint32_t num_nodes() const { return config_.num_nodes; }
  Protocol protocol() const { return config_.protocol; }
  const ClusterConfig& config() const { return config_; }

  /// Preferred site of `key` (§3.1), identical on every node.
  NodeId node_for_key(Key key) const { return mapper_->node_for(key); }

  /// Pre-run bulk load: installs the initial version on the preferred node.
  void load(Key key, Value value);

  /// A client handle bound to `node` (§2.3: clients begin transactions on
  /// the co-located node). `client_id` is the caller's label; the session's
  /// transaction ids are unique for the cluster's lifetime regardless (up
  /// to 65536 sessions per cluster, the width of TxId's session field;
  /// the next call throws std::length_error).
  Session make_session(NodeId node, std::uint32_t client_id);

  KvNode& node(NodeId id) { return *nodes_[id]; }
  const KvNode& node(NodeId id) const { return *nodes_[id]; }
  net::SimNetwork& network() { return *network_; }
  const KeyMapper& mapper() const { return *mapper_; }

  /// Wait until no message is in flight and no node buffers pending events.
  bool quiesce(
      std::chrono::nanoseconds timeout = std::chrono::seconds(10));

  /// Sum of all nodes' statistics.
  NodeStats::Snapshot aggregate_stats() const;
  void reset_stats();

 private:
  /// Runs every node's tick, then re-arms itself.
  void tick();

  ClusterConfig config_;
  std::shared_ptr<const KeyMapper> mapper_;
  std::unique_ptr<net::SimNetwork> network_;
  ClusterContext ctx_;
  std::vector<std::unique_ptr<KvNode>> nodes_;
  /// Hands each Session its own slot in the TxId layout.
  std::atomic<std::uint32_t> next_session_slot_{0};
};

}  // namespace fwkv
