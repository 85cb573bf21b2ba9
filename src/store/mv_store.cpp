#include "store/mv_store.hpp"

#include <algorithm>
#include <cassert>

#include "common/consistent_hash.hpp"

namespace fwkv::store {

MVStore::MVStore(std::size_t shards, std::size_t removed_capacity)
    : removed_stripe_cap_(std::max<std::size_t>(
          1, removed_capacity / kRemovedStripes)) {
  assert(shards > 0);
  map_shards_.reserve(shards);
  index_shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    map_shards_.push_back(std::make_unique<MapShard>());
    index_shards_.push_back(std::make_unique<IndexShard>());
  }
}

MVStore::~MVStore() = default;

MVStore::Entry* MVStore::find_entry(Key key) const {
  const auto& shard = *map_shards_[hash_key(key) % map_shards_.size()];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  return it == shard.map.end() ? nullptr : it->second.get();
}

MVStore::Entry& MVStore::get_or_create_entry(Key key) {
  if (Entry* e = find_entry(key)) return *e;
  auto& shard = *map_shards_[hash_key(key) % map_shards_.size()];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  auto& slot = shard.map[key];
  if (!slot) slot = std::make_unique<Entry>();
  return *slot;
}

void MVStore::load(Key key, Value value, std::size_t cluster_size) {
  Entry& e = get_or_create_entry(key);
  e.latch.lock();
  e.chain.install(std::move(value), VectorClock(cluster_size), /*origin=*/0,
                  /*seq=*/0);
  e.latch.unlock();
}

bool MVStore::contains(Key key) const { return find_entry(key) != nullptr; }

std::size_t MVStore::key_count() const {
  std::size_t n = 0;
  for (const auto& shard : map_shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    n += shard->map.size();
  }
  return n;
}

ReadResult MVStore::read_read_only(Key key, const VectorClock& tvc,
                                   const std::vector<bool>& has_read,
                                   TxId reader) {
  Entry* e = find_entry(key);
  if (e == nullptr) return {};
  // Exclusive: select_read_only inserts the reader id into the chosen
  // version's access set (visible read, Alg. 3 line 8). No reverse-index
  // registration here — the reader's Remove batch carries this key, and
  // remove_txs erases the id through that list.
  e->latch.lock();
  ReadResult r = e->chain.select_read_only(tvc, has_read, reader);
  e->latch.unlock();
  return r;
}

ReadResult MVStore::read_update(Key key, const VectorClock& tvc,
                                const std::vector<bool>& has_read,
                                bool snapshot_fixed) const {
  Entry* e = find_entry(key);
  if (e == nullptr) return {};
  e->latch.lock_shared();
  ReadResult r = e->chain.select_update(tvc, has_read, snapshot_fixed);
  e->latch.unlock_shared();
  return r;
}

ReadResult MVStore::read_walter(Key key, const VectorClock& tvc) const {
  Entry* e = find_entry(key);
  if (e == nullptr) return {};
  e->latch.lock_shared();
  ReadResult r = e->chain.select_walter(tvc);
  e->latch.unlock_shared();
  return r;
}

bool MVStore::validate_key(Key key, const VectorClock& tvc) const {
  Entry* e = find_entry(key);
  if (e == nullptr) return true;  // blind insert of a fresh key
  e->latch.lock_shared();
  const bool ok = e->chain.validate(tvc);
  e->latch.unlock_shared();
  return ok;
}

bool MVStore::validate_key_version(Key key, VersionId observed) const {
  Entry* e = find_entry(key);
  if (e == nullptr) return observed == 0;
  e->latch.lock_shared();
  const bool ok = !e->chain.empty() && e->chain.latest().id == observed;
  e->latch.unlock_shared();
  return ok;
}

void MVStore::collect_access_sets(std::span<const Key> keys,
                                  std::vector<TxId>& out) const {
  for (Key k : keys) {
    Entry* e = find_entry(k);
    if (e == nullptr) continue;
    e->latch.lock_shared();
    e->chain.collect_access_sets(out);
    e->latch.unlock_shared();
  }
}

void MVStore::install(Key key, Value value, const VectorClock& commit_vc,
                      NodeId origin, SeqNo seq,
                      std::span<const TxId> collected) {
  Entry& e = get_or_create_entry(key);
  std::vector<TxId> stamped;
  VersionId vid = 0;
  e.latch.lock();
  {
    Version& v = e.chain.install(std::move(value), commit_vc, origin, seq);
    vid = v.id;
    for (TxId id : collected) {
      if (recently_removed(id)) continue;  // the RO tx already finished
      if (v.stamp_insert(id)) stamped.push_back(id);
    }
  }
  e.latch.unlock();
  // Registrations happen after the latch is released (lock-order rule).
  if (stamped.empty()) return;
  register_readers(stamped, &e, vid);
  // A Remove that marked an id removed after the check above may also have
  // searched the index before the registration landed: erase it here.
  for (TxId id : stamped) {
    if (recently_removed(id)) erase_stamps(id);
  }
}

void MVStore::register_readers(std::span<const TxId> ids, Entry* entry,
                               VersionId version_id) {
  // Group the stamped ids by index shard so each shard lock involved is
  // taken once per install, not once per id. Collected sets are small
  // (Fig. 6), so sorting a scratch vector is cheaper than repeated locking.
  std::vector<std::pair<std::size_t, TxId>> by_shard;
  by_shard.reserve(ids.size());
  for (TxId id : ids) {
    by_shard.emplace_back(std::hash<TxId>{}(id) % index_shards_.size(), id);
  }
  std::sort(by_shard.begin(), by_shard.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t i = 0;
  while (i < by_shard.size()) {
    const std::size_t shard_idx = by_shard[i].first;
    auto& shard = *index_shards_[shard_idx];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (; i < by_shard.size() && by_shard[i].first == shard_idx; ++i) {
      shard.map[by_shard[i].second].push_back(IndexRef{entry, version_id});
    }
    shard.ids.store(shard.map.size(), std::memory_order_release);
  }
}

MVStore::IndexShard& MVStore::index_shard(TxId tx) const {
  return *index_shards_[std::hash<TxId>{}(tx) % index_shards_.size()];
}

void MVStore::erase_stamps(TxId tx) {
  auto& shard = index_shard(tx);
  // A shard that holds no stamped id at all is skipped without its lock.
  // An install that registers after this load re-checks recently_removed,
  // which the caller set first, so the skip cannot strand a stamp.
  if (shard.ids.load(std::memory_order_acquire) == 0) return;
  std::vector<IndexRef> refs;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(tx);
    if (it == shard.map.end()) return;
    refs = std::move(it->second);
    shard.map.erase(it);
    shard.ids.store(shard.map.size(), std::memory_order_release);
  }
  for (const IndexRef& ref : refs) {
    // Duplicate refs for the same version (or a version erased by both the
    // key-list pass and this one) degrade to no-op erases.
    ref.entry->latch.lock();
    if (Version* v = ref.entry->chain.find(ref.version_id)) {
      v->access_set_erase(tx);
    }
    ref.entry->latch.unlock();
  }
}

void MVStore::remove_txs(std::span<const TxId> txs,
                         std::span<const Key> read_keys) {
  // Marked first: an install from here on does not stamp these ids, or
  // erases the stamp itself if it raced past its first check.
  for (TxId tx : txs) note_removed(tx);
  // The transactions' own visible-read traces, one latch per key.
  for (Key k : read_keys) {
    Entry* e = find_entry(k);
    if (e == nullptr) continue;
    e->latch.lock();
    for (auto& v : e->chain.versions()) {
      for (TxId tx : txs) v.access_set_erase(tx);
    }
    e->latch.unlock();
  }
  // Ids stamped onto other keys by committing writers (Alg. 5 line 19):
  // the RO client cannot know those locations, so the reverse index does.
  for (TxId tx : txs) erase_stamps(tx);
}

std::size_t MVStore::access_set_footprint() const {
  std::size_t n = 0;
  for (const auto& shard : map_shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    for (const auto& [key, entry] : shard->map) {
      entry->latch.lock_shared();
      for (const auto& v : entry->chain.versions()) n += v.access_set.size();
      entry->latch.unlock_shared();
    }
  }
  return n;
}

MVStore::RemovedStripe& MVStore::removed_stripe(TxId tx) const {
  return removed_[std::hash<TxId>{}(tx) % kRemovedStripes];
}

bool MVStore::recently_removed(TxId tx) const {
  RemovedStripe& stripe = removed_stripe(tx);
  std::lock_guard<std::mutex> lock(stripe.mu);
  return stripe.set.count(tx) > 0;
}

void MVStore::note_removed(TxId tx) {
  RemovedStripe& stripe = removed_stripe(tx);
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (stripe.set.insert(tx).second) {
    stripe.ring.push_back(tx);
    if (stripe.ring.size() > removed_stripe_cap_) {
      stripe.set.erase(stripe.ring.front());
      stripe.ring.pop_front();
    }
  }
}

}  // namespace fwkv::store
