// A single committed version of a shared object (§4.1 "Metadata").
#pragma once

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/ids.hpp"
#include "common/vector_clock.hpp"

namespace fwkv::store {

/// One entry of a key's multi-version list. Mutation of `access_set` is
/// guarded by the owning chain's latch (see MVStore).
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
  /// Version-access-set ("v.accessSet"): ids of read-only transactions that
  /// read this version, plus ids transitively propagated by committing
  /// update transactions (Alg. 5 line 19). Small in practice (Fig. 6), so a
  /// flat vector beats a node-based set.
  std::vector<TxId> access_set;
  /// The subset of access_set stamped at install time (Alg. 5 line 19):
  /// readers with an anti-dependency on the producing transaction, which
  /// must NOT be served this version. Kept apart from read-time
  /// registrations because a retried/redelivered read finds its own id
  /// already registered — that means "already read", not "excluded", and
  /// serving an older version in that case tears the reader's snapshot.
  std::vector<TxId> excluded;
  /// Install time; GC never prunes versions younger than the retention
  /// window, so a running transaction's snapshot stays servable.
  std::chrono::steady_clock::time_point created;

  bool access_set_contains(TxId id_in) const {
    return std::find(access_set.begin(), access_set.end(), id_in) !=
           access_set.end();
  }

  /// Returns true if the id was inserted (false if already present).
  bool access_set_insert(TxId id_in) {
    if (access_set_contains(id_in)) return false;
    access_set.push_back(id_in);
    return true;
  }

  bool excluded_contains(TxId id_in) const {
    return std::find(excluded.begin(), excluded.end(), id_in) !=
           excluded.end();
  }

  /// Install-time stamp: registers the id AND excludes it from visibility.
  /// Returns true if the id was inserted.
  bool stamp_insert(TxId id_in) {
    if (!access_set_insert(id_in)) return false;
    excluded.push_back(id_in);
    return true;
  }

  /// Returns true if the id was present and removed.
  bool access_set_erase(TxId id_in) {
    auto it = std::find(access_set.begin(), access_set.end(), id_in);
    if (it == access_set.end()) return false;
    *it = access_set.back();
    access_set.pop_back();
    auto ex = std::find(excluded.begin(), excluded.end(), id_in);
    if (ex != excluded.end()) {
      *ex = excluded.back();
      excluded.pop_back();
    }
    return true;
  }
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
