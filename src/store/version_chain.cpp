#include "store/version_chain.hpp"

#include <cassert>

namespace fwkv::store {

Version& VersionChain::install(Value value, VectorClock vc, NodeId origin,
                               SeqNo seq) {
  Version v;
  v.value = std::move(value);
  v.vc = std::move(vc);
  v.id = versions_.empty() ? 1 : versions_.back().id + 1;
  v.origin = origin;
  v.seq = seq;
  const auto now = std::chrono::steady_clock::now();
  v.created = now;
  versions_.push_back(std::move(v));
  // Bound the chain. A version may be pruned only when (a) it is past the
  // soft cap, (b) its access-set is empty (a non-empty VAS would dangle
  // the node's reverse index), and (c) it has aged out of the retention
  // window (a live snapshot might still need it).
  while (versions_.size() > kMaxVersions &&
         versions_.front().access_set.empty() &&
         now - versions_.front().created > kRetention) {
    versions_.pop_front();
  }
  return versions_.back();
}

Version* VersionChain::find(VersionId id) {
  if (versions_.empty() || id < versions_.front().id) return nullptr;
  const std::size_t at = id - versions_.front().id;
  return at < versions_.size() ? &versions_[at] : nullptr;
}

ReadResult VersionChain::to_result(const Version& v) const {
  ReadResult r;
  r.found = true;
  r.value = v.value;
  r.vc = v.vc;
  r.id = v.id;
  r.latest_id = versions_.back().id;
  if (r.id != r.latest_id) r.latest_vc = versions_.back().vc;
  return r;
}

ReadResult VersionChain::select_read_only(const VectorClock& tvc,
                                          const std::vector<bool>& has_read,
                                          TxId reader) {
  if (versions_.empty()) return {};
  const Version* fallback_visible = nullptr;
  for (auto it = versions_.rbegin(); it != versions_.rend(); ++it) {
    if (!it->vc.leq_masked(tvc, has_read)) continue;  // Alg. 3 line 4
    // Alg. 3 lines 5-6: skip versions the reader was stamped onto at
    // install (anti-dependency). A plain read-time registration of our own
    // id is NOT an exclusion: it means a previous delivery of this same
    // read (rpc retry, duplicated request) already chose a version — fall
    // through and serve fresh, which is idempotent because registration
    // only ever widens future writers' collected sets.
    if (it->excluded_contains(reader)) {
      if (fallback_visible == nullptr) fallback_visible = &*it;
      continue;
    }
    Version& chosen = const_cast<Version&>(*it);
    chosen.access_set_insert(reader);  // Alg. 3 line 8 (visible read)
    return to_result(chosen);
  }
  // Every visible version excludes the reader: its snapshot predates all
  // of them (only reachable if GC pruned past the snapshot, which the
  // chain retention bound makes practically impossible). Serve the newest
  // excluded version as a best effort.
  if (fallback_visible != nullptr) return to_result(*fallback_visible);
  // No version visible at all: only reachable if GC pruned past the
  // snapshot, which the chain bound makes practically impossible. Serve the
  // oldest version as a best effort.
  return to_result(versions_.front());
}

ReadResult VersionChain::select_update(const VectorClock& tvc,
                                       const std::vector<bool>& has_read,
                                       bool snapshot_fixed) const {
  if (versions_.empty()) return {};
  for (auto it = versions_.rbegin(); it != versions_.rend(); ++it) {
    const Version& v = *it;
    if (!v.vc.leq_masked(tvc, has_read)) continue;  // Alg. 3 line 13
    if (snapshot_fixed) {
      // Alg. 3 line 14: conservatively exclude versions that may have been
      // produced by a transaction concurrent with (or unknown to) T: equal
      // to T's clock on every already-read site, yet ahead of it on some
      // site T has not read from.
      bool eq_on_read_sites = v.vc.eq_masked(tvc, has_read);
      if (eq_on_read_sites) {
        bool ahead_on_unread_site = false;
        for (std::size_t s = 0; s < has_read.size(); ++s) {
          if (!has_read[s] && v.vc[s] > tvc[s]) {
            ahead_on_unread_site = true;
            break;
          }
        }
        if (ahead_on_unread_site) continue;  // excluded
      }
    }
    return to_result(v);
  }
  return to_result(versions_.front());
}

ReadResult VersionChain::select_walter(const VectorClock& tvc) const {
  if (versions_.empty()) return {};
  for (auto it = versions_.rbegin(); it != versions_.rend(); ++it) {
    // Walter visibility: the producer's commit (seq at its origin) must be
    // covered by the begin-time snapshot. The snapshot never advances.
    if (it->seq <= tvc[it->origin]) return to_result(*it);
  }
  return to_result(versions_.front());
}

bool VersionChain::validate(const VectorClock& tvc) const {
  if (versions_.empty()) return true;
  const Version& last = versions_.back();
  // Alg. 5 lines 28-32: abort if the latest version was produced by a
  // transaction whose commit T's clock does not cover.
  return last.vc[last.origin] <= tvc[last.origin];
}

void VersionChain::collect_access_sets(std::vector<TxId>& out) const {
  for (const auto& v : versions_) {
    for (TxId id : v.access_set) {
      out.push_back(id);
    }
  }
}

}  // namespace fwkv::store
