// A client handle bound to one node of the cluster. Sessions are cheap;
// each closed-loop client thread owns one. Not thread-safe (one driver
// thread per session, matching the paper's closed-loop clients).
//
// A session tracks its lowest open transaction seq (its watermark) and
// publishes it to its node whenever it moves past a read-only transaction;
// the node reclaims the finished read-only transactions' traces by it.
// Move-only: a copy would issue the same TxIds from a second counter, and
// participants would drop its Prepares as already decided. A session must
// not outlive its cluster: its destructor may publish to its node.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/transaction.hpp"

namespace fwkv {

class Cluster;
class KvNode;

class Session {
 public:
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  Session(Session&&) noexcept = default;
  /// Moves the watermark past every transaction begun: transactions left
  /// open hold nothing back.
  ~Session();

  /// Begin a transaction on the co-located node. Read-only transactions
  /// must be declared by the programmer (§2.3).
  Transaction begin(bool read_only = false);

  /// Alg. 2. nullopt when the key does not exist, and also when the read
  /// got no answer in time: that aborts `tx` with kReadTimeout, so callers
  /// tell the two apart by tx.status(). A transaction that is no longer
  /// active reads nothing.
  std::optional<Value> read(Transaction& tx, Key key);

  /// §4.2: buffered until commit.
  void write(Transaction& tx, Key key, Value value);

  /// Alg. 4. On false, tx.abort_reason() explains the failure. Either way
  /// the transaction has finished. A transaction a read timeout aborted
  /// returns false at once. Transactions that prepare must commit in the
  /// order they began (see ParticipantTable): else the older one times out.
  bool commit(Transaction& tx);

  void abort(Transaction& tx);

  NodeId node_id() const { return node_id_; }
  std::uint32_t client_id() const { return client_id_; }

 private:
  friend class Cluster;
  Session(Cluster& cluster, NodeId node, std::uint32_t client_id,
          std::uint32_t slot);

  /// Marks `tx` finished and publishes the watermark if it moved past a
  /// read-only transaction.
  void finish(const Transaction& tx);

  Cluster* cluster_;
  KvNode* node_;
  NodeId node_id_;
  std::uint32_t client_id_;
  /// Cluster-unique: no two sessions of a cluster share a TxId.
  std::uint32_t slot_;
  std::uint32_t next_local_seq_ = 1;

  struct Begun {
    std::uint32_t seq;
    bool read_only;
    bool open;
  };
  /// The transactions from the lowest open one on, oldest first. A finished
  /// one stays until every older one has finished too.
  std::vector<Begun> begun_;
};

}  // namespace fwkv
