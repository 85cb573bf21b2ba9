// A client handle bound to one node of the cluster. Sessions are cheap;
// each closed-loop client thread owns one. Not thread-safe (one driver
// thread per session, matching the paper's closed-loop clients).
#pragma once

#include <cstdint>
#include <optional>

#include "core/transaction.hpp"

namespace fwkv {

class Cluster;
class KvNode;

class Session {
 public:
  /// Begin a transaction on the co-located node. Read-only transactions
  /// must be declared by the programmer (§2.3).
  Transaction begin(bool read_only = false);

  /// Alg. 2. nullopt iff the key does not exist (or the transaction is in a
  /// state where reads are no longer allowed).
  std::optional<Value> read(Transaction& tx, Key key);

  /// §4.2: buffered until commit.
  void write(Transaction& tx, Key key, Value value);

  /// Alg. 4. On false, tx.abort_reason() explains the failure.
  bool commit(Transaction& tx);

  void abort(Transaction& tx);

  NodeId node_id() const { return node_id_; }
  std::uint32_t client_id() const { return client_id_; }

 private:
  friend class Cluster;
  Session(Cluster& cluster, NodeId node, std::uint32_t client_id,
          std::uint32_t slot);

  Cluster* cluster_;
  KvNode* node_;
  NodeId node_id_;
  std::uint32_t client_id_;
  /// Cluster-unique: no two sessions of a cluster share a TxId.
  std::uint32_t slot_;
  std::uint32_t next_local_seq_ = 1;
};

}  // namespace fwkv
