// Abstract protocol node: the unit of deployment (§2.1). A node is both a
// server (handlers run on the delivering thread and never block) and the
// coordinator host for transactions begun by clients co-located with it.
// Its timed work (lock timeouts, the periodic propagation flush, gap
// repair) enters through one call, tick(now), which the Cluster makes on
// every node from its one periodic timer entry.
#pragma once

#include <chrono>
#include <optional>

#include "core/node_stats.hpp"
#include "core/protocol.hpp"
#include "core/transaction.hpp"
#include "net/network.hpp"

namespace fwkv {

class KvNode : public net::NodeEndpoint {
 public:
  using Clock = std::chrono::steady_clock;

  KvNode(NodeId id, ClusterContext& ctx) : id_(id), ctx_(ctx) {}
  ~KvNode() override = default;

  NodeId id() const { return id_; }
  NodeStats& stats() { return stats_; }
  const NodeStats& stats() const { return stats_; }

  // ---- client-side API (invoked from client threads on this node) ----

  /// Alg. 1: initialize T.VC from this node's siteVC, clear T.hasRead.
  virtual void begin(Transaction& tx) = 0;

  /// Alg. 2: read-your-writes, then remote/local ReadRequest. nullopt if
  /// the key does not exist, or if the read got no answer: `tx` is then
  /// aborted with kReadTimeout.
  virtual std::optional<Value> read(Transaction& tx, Key key) = 0;

  /// §4.2 lazy update: buffer into T.writeset.
  void write(Transaction& tx, Key key, Value value) {
    tx.buffer_write(key, std::move(value));
  }

  /// Alg. 4. Returns true on commit. On false the transaction is aborted
  /// and tx.abort_reason() says why.
  virtual bool commit(Transaction& tx) = 0;

  /// Client-initiated abort: releases nothing (locks are only taken during
  /// commit). A transaction aborted already keeps its reason.
  void abort(Transaction& tx) {
    if (tx.status() != TxStatus::kAborted) {
      tx.mark_aborted(AbortReason::kUserAbort);
    }
  }

  /// A session of this node moved its watermark past a read-only
  /// transaction: every transaction of the session below `low` (its node,
  /// session and lowest open seq) has finished, so FW-KV can reclaim their
  /// visible-read traces. Called by Session; default: nothing to reclaim.
  virtual void publish_watermark(TxId /*low*/) {}

  // ---- data loading (pre-run, single-writer) ----
  virtual void load(Key key, Value value) = 0;

  /// Push out any batched asynchronous work immediately (propagation
  /// batches). Called by Cluster::quiesce; default: nothing to flush.
  virtual void quiesce_flush() {}

  /// The cluster's clock tick, every tick_period() on the timer thread:
  /// does the work that is due at `now`. Default: none.
  virtual void tick(Clock::time_point /*now*/) {}

 protected:
  NodeId id_;
  ClusterContext& ctx_;
  NodeStats stats_;
};

}  // namespace fwkv
