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
// Every access-set mutation goes through the chain (registration in
// select_read_only, stamp, erase), so the chain keeps its floor: the lowest
// version that may carry an id. Prepare-time collection walks from there.
//
// The chain is NOT internally synchronized; MVStore guards each chain with a
// per-key latch.
#pragma once

#include <cstdint>
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

  /// The version with id `id`, or null if it was pruned. Ids run
  /// consecutively from the oldest version to the latest, so this is an
  /// index computation, not a search.
  const Version* find(VersionId id) const;

  /// Append a new version; id is assigned (previous id + 1).
  const Version& install(Value value, VectorClock vc, NodeId origin,
                         SeqNo seq);

  /// Install-time stamp on the latest version (Alg. 5 line 19): registers
  /// `id` and excludes it from that version's visibility. Returns true if
  /// the id was not there yet.
  bool stamp(TxId id);

  /// Erases `id` from version `vid`'s access set. Returns false, and does
  /// nothing, if the version was pruned or does not hold the id.
  bool erase(VersionId vid, TxId id);

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
  /// lines 8-10 collect from the written key), once per version that holds
  /// one. Only the versions from the floor to the latest can hold an id, so
  /// only those are walked; returns how many that was.
  std::size_t collect_access_sets(std::vector<TxId>& out) const;

  /// Read access for tests and the store's footprint count.
  const std::deque<Version>& versions() const { return versions_; }

 private:
  ReadResult to_result(const Version& v) const;
  /// Registers (or, with `exclude`, stamps) `id` on versions_[at] and
  /// lowers the floor to it.
  bool insert_at(std::size_t at, TxId id, bool exclude);

  std::deque<Version> versions_;
  /// Index into versions_ of the floor: no version below it has a
  /// non-empty access set, and it is either versions_.size() (no version
  /// holds an id) or a version whose access set is not empty. Kept last, in
  /// 32 bits, so MVStore's per-key latch fits in the tail padding after it.
  std::uint32_t floor_ = 0;
};

}  // namespace fwkv::store
