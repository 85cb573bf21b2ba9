// Client-side transaction handle (§2.3 transaction model). A Transaction is
// created by Session::begin and driven by exactly one client thread; it is
// not thread-safe and never needs to be.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/vector_clock.hpp"
#include "core/protocol.hpp"

namespace fwkv {

enum class TxStatus : std::uint8_t { kActive, kCommitted, kAborted };

class Transaction {
 public:
  Transaction(TxId id, bool read_only, std::size_t cluster_size);

  TxId id() const { return id_; }
  bool read_only() const { return read_only_; }
  TxStatus status() const { return status_; }
  AbortReason abort_reason() const { return abort_reason_; }

  /// T.VC — the reading-snapshot vector clock (Alg. 1 line 2, Alg. 2 line 9).
  VectorClock& vc() { return vc_; }
  const VectorClock& vc() const { return vc_; }

  /// T.hasRead — sites whose snapshot entry is frozen (Alg. 2 line 8).
  AccessVector& has_read() { return has_read_; }
  const AccessVector& has_read() const { return has_read_; }

  /// T.writeset — buffered lazy updates (§4.2).
  const std::map<Key, Value>& write_set() const { return write_set_; }
  void buffer_write(Key key, Value value);
  std::optional<Value> written_value(Key key) const;

  /// Client-side cache of completed reads: repeatable reads within the
  /// transaction without re-contacting the owner node.
  std::optional<Value> cached_read(Key key) const;
  void cache_read(Key key, Value value);

  /// 2PC-baseline read validation set: key -> version observed.
  const std::map<Key, VersionId>& validation_set() const {
    return validation_set_;
  }
  void record_validation(Key key, VersionId version);

  /// Update transactions: every key whose read returned an older version
  /// than the newest one at its site, with that newest version's commit
  /// clock. Writing such a key dooms the commit: version-identity
  /// validation (§4.4) can never pass.
  const std::vector<std::pair<Key, VectorClock>>& missed_latest() const {
    return missed_latest_;
  }
  void record_missed_latest(Key key, VectorClock latest_vc);

  // Per-transaction freshness instrumentation (Ext. A experiment): a read
  // is stale when the returned version is older than the newest installed
  // version at the serving node at read time.
  std::uint32_t reads_issued() const { return reads_issued_; }
  std::uint64_t freshness_gap_sum() const { return freshness_gap_sum_; }
  std::uint32_t stale_reads() const { return stale_reads_; }
  void record_read_freshness(VersionId returned, VersionId latest);

  void mark_committed() { status_ = TxStatus::kCommitted; }
  void mark_aborted(AbortReason reason) {
    status_ = TxStatus::kAborted;
    abort_reason_ = reason;
  }

 private:
  TxId id_;
  bool read_only_;
  TxStatus status_ = TxStatus::kActive;
  AbortReason abort_reason_ = AbortReason::kNone;

  VectorClock vc_;
  AccessVector has_read_;
  std::map<Key, Value> write_set_;
  std::unordered_map<Key, Value> read_cache_;
  std::map<Key, VersionId> validation_set_;
  std::vector<std::pair<Key, VectorClock>> missed_latest_;

  std::uint32_t reads_issued_ = 0;
  std::uint64_t freshness_gap_sum_ = 0;
  std::uint32_t stale_reads_ = 0;
};

}  // namespace fwkv
