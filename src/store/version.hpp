// A single committed version of a shared object (§4.1 "Metadata").
#pragma once

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/ids.hpp"
#include "common/vector_clock.hpp"

namespace fwkv::store {

/// One entry of a key's multi-version list. Its access set changes only
/// through the owning VersionChain, which keeps the chain's floor (see
/// VersionChain::collect_access_sets), under the chain's latch (MVStore).
struct Version {
  Value value;
  /// Commit vector clock of the producing transaction ("v.VC").
  VectorClock vc;
  /// Per-key monotonically increasing identifier ("v.id").
  VersionId id = 0;
  /// Node where the producing transaction committed (its coordinator).
  NodeId origin = 0;
  /// Producing transaction's sequence number at `origin` (== vc[origin]).
  SeqNo seq = 0;
  /// Install time; GC never prunes versions younger than the retention
  /// window, so a running transaction's snapshot stays servable.
  std::chrono::steady_clock::time_point created;

  /// Version-access-set ("v.accessSet"): ids of read-only transactions that
  /// read this version, plus ids transitively propagated by committing
  /// update transactions (Alg. 5 line 19). Small in practice (Fig. 6), so a
  /// flat vector beats a node-based set.
  const std::vector<TxId>& access_set() const { return access_set_; }

  bool access_set_contains(TxId id_in) const {
    return std::find(access_set_.begin(), access_set_.end(), id_in) !=
           access_set_.end();
  }

  bool excluded_contains(TxId id_in) const {
    return std::find(excluded_.begin(), excluded_.end(), id_in) !=
           excluded_.end();
  }

 private:
  friend class VersionChain;

  /// Returns true if the id was inserted (false if already present).
  bool access_set_insert(TxId id_in) {
    if (access_set_contains(id_in)) return false;
    access_set_.push_back(id_in);
    return true;
  }

  /// Install-time stamp: registers the id AND excludes it from visibility.
  /// Returns true if the id was inserted.
  bool stamp_insert(TxId id_in) {
    if (!access_set_insert(id_in)) return false;
    excluded_.push_back(id_in);
    return true;
  }

  /// Returns true if the id was present and removed.
  bool access_set_erase(TxId id_in) {
    auto it = std::find(access_set_.begin(), access_set_.end(), id_in);
    if (it == access_set_.end()) return false;
    *it = access_set_.back();
    access_set_.pop_back();
    auto ex = std::find(excluded_.begin(), excluded_.end(), id_in);
    if (ex != excluded_.end()) {
      *ex = excluded_.back();
      excluded_.pop_back();
    }
    return true;
  }

  std::vector<TxId> access_set_;
  /// The subset of access_set_ stamped at install time (Alg. 5 line 19):
  /// readers with an anti-dependency on the producing transaction, which
  /// must NOT be served this version. Kept apart from read-time
  /// registrations because a retried/redelivered read finds its own id
  /// already registered — that means "already read", not "excluded", and
  /// serving an older version in that case tears the reader's snapshot.
  std::vector<TxId> excluded_;
};

/// Outcome of a version-selection read (Alg. 3 line 19 payload).
struct ReadResult {
  bool found = false;
  Value value;
  VectorClock vc;
  VersionId id = 0;
  /// Freshness instrumentation: id of the newest installed version at the
  /// time the read was served.
  VersionId latest_id = 0;
  /// Commit clock of that newest version when it is not the one returned
  /// (a stale read); empty otherwise.
  VectorClock latest_vc;
};

}  // namespace fwkv::store
