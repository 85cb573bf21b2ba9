#include "store/version_chain.hpp"

#include <algorithm>
#include <cassert>

namespace fwkv::store {

const Version& VersionChain::install(Value value, VectorClock vc,
                                     NodeId origin, SeqNo seq) {
  Version v;
  v.value = std::move(value);
  v.vc = std::move(vc);
  v.id = versions_.empty() ? 1 : versions_.back().id + 1;
  v.origin = origin;
  v.seq = seq;
  const auto now = std::chrono::steady_clock::now();
  v.created = now;
  // A floor past the latest stays past it: the new version holds no id yet.
  if (floor_ == versions_.size()) ++floor_;
  versions_.push_back(std::move(v));
  // Bound the chain. A version may be pruned only when (a) it is past the
  // soft cap, (b) its access-set is empty (a non-empty VAS would dangle
  // the node's reverse index), and (c) it has aged out of the retention
  // window (a live snapshot might still need it). A pruned version sits
  // below the floor, so the floor's index moves down with it.
  while (versions_.size() > kMaxVersions &&
         versions_.front().access_set_.empty() &&
         now - versions_.front().created > kRetention) {
    versions_.pop_front();
    if (floor_ > 0) --floor_;
  }
  return versions_.back();
}

const Version* VersionChain::find(VersionId id) const {
  if (versions_.empty() || id < versions_.front().id) return nullptr;
  const std::size_t at = id - versions_.front().id;
  return at < versions_.size() ? &versions_[at] : nullptr;
}

bool VersionChain::insert_at(std::size_t at, TxId id, bool exclude) {
  Version& v = versions_[at];
  if (!(exclude ? v.stamp_insert(id) : v.access_set_insert(id))) return false;
  // An id may land below the floor: a stale read registers on an older
  // version than the ones that hold ids.
  floor_ = std::min(floor_, static_cast<std::uint32_t>(at));
  return true;
}

bool VersionChain::stamp(TxId id) {
  assert(!versions_.empty());
  return insert_at(versions_.size() - 1, id, /*exclude=*/true);
}

bool VersionChain::erase(VersionId vid, TxId id) {
  if (find(vid) == nullptr) return false;
  const std::size_t at = vid - versions_.front().id;
  if (!versions_[at].access_set_erase(id)) return false;
  // The floor's version emptied: move up to the next one that holds an id.
  if (at == floor_) {
    while (floor_ < versions_.size() && versions_[floor_].access_set_.empty()) {
      ++floor_;
    }
  }
  return true;
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
    // Alg. 3 line 8 (visible read).
    insert_at(static_cast<std::size_t>(versions_.rend() - it) - 1, reader,
              /*exclude=*/false);
    return to_result(*it);
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

std::size_t VersionChain::collect_access_sets(std::vector<TxId>& out) const {
  for (std::size_t at = floor_; at < versions_.size(); ++at) {
    const auto& ids = versions_[at].access_set_;
    out.insert(out.end(), ids.begin(), ids.end());
  }
  return versions_.size() - floor_;
}

}  // namespace fwkv::store
