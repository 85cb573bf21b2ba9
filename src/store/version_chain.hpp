// Per-key multi-version list with the three version-selection policies of
// the evaluated systems:
//
//   select_read_only - FW-KV Alg. 3 lines 2-10 (visibility mask + VAS
//                      exclusion, then freshest remaining);
//   select_update    - FW-KV Alg. 3 lines 11-18 (visibility mask + SCORe-
//                      style conservative exclusion);
//   select_walter    - Walter: latest version whose producer's commit is
//                      already reflected in the begin-time snapshot
//                      (T.VC[v.origin] >= v.seq).
//
// The chain is NOT internally synchronized; MVStore guards each chain with a
// per-key latch.
#pragma once

#include <deque>
#include <optional>

#include "store/version.hpp"

namespace fwkv::store {

class VersionChain {
 public:
  /// Soft cap on chain length: pruning starts past this size, but a
  /// version is only pruned when its access-set is empty AND it is older
  /// than kRetention — an in-flight transaction (even one stalled by the
  /// scheduler) can still be served the version its snapshot requires.
  /// Memory stays bounded by the per-key write rate times the retention
  /// window.
  static constexpr std::size_t kMaxVersions = 64;
  static constexpr std::chrono::milliseconds kRetention{250};

  bool empty() const { return versions_.empty(); }
  std::size_t size() const { return versions_.size(); }

  const Version& latest() const { return versions_.back(); }
  Version& latest() { return versions_.back(); }

  /// The version with id `id`, or null if it was pruned. Ids run
  /// consecutively from the oldest version to the latest, so this is an
  /// index computation, not a search.
  Version* find(VersionId id);

  /// Append a new version; id is assigned (previous id + 1).
  Version& install(Value value, VectorClock vc, NodeId origin, SeqNo seq);

  /// FW-KV read-only rule. `reader` is inserted into the selected version's
  /// access set (visible-reads technique, Alg. 3 line 8).
  ReadResult select_read_only(const VectorClock& tvc,
                              const std::vector<bool>& has_read, TxId reader);

  /// FW-KV update-transaction rule. `snapshot_fixed` must be true iff the
  /// transaction has at least one has_read entry set — the conservative
  /// exclusion only applies after the first read (§4.3, Fig. 4).
  ReadResult select_update(const VectorClock& tvc,
                           const std::vector<bool>& has_read,
                           bool snapshot_fixed) const;

  /// Walter rule: snapshot fixed at begin, per-origin scalar visibility.
  ReadResult select_walter(const VectorClock& tvc) const;

  /// Alg. 5 validate() for this key: false iff the latest version was
  /// produced by a transaction the reader's clock does not cover.
  bool validate(const VectorClock& tvc) const;

  /// All read-only tx ids present in any version's access set (Alg. 5
  /// lines 8-10 collect from the written key).
  void collect_access_sets(std::vector<TxId>& out) const;

  /// Direct access for tests and the store's footprint count.
  std::deque<Version>& versions() { return versions_; }
  const std::deque<Version>& versions() const { return versions_; }

 private:
  ReadResult to_result(const Version& v) const;

  std::deque<Version> versions_;
};

}  // namespace fwkv::store
