#include "store/mv_store.hpp"

#include <algorithm>
#include <cassert>

#include "common/consistent_hash.hpp"

namespace fwkv::store {

MVStore::MVStore(std::size_t shards) {
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
  // version's access set (visible read, Alg. 3 line 8).
  e->latch.lock();
  ReadResult r = e->chain.select_read_only(tvc, has_read, reader);
  e->latch.unlock();
  if (r.found) register_ids(*e, r.id, std::span<const TxId>(&reader, 1));
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
  const std::size_t first = out.size();
  for (Key k : keys) {
    Entry* e = find_entry(k);
    if (e == nullptr) continue;
    e->latch.lock_shared();
    e->chain.collect_access_sets(out);
    e->latch.unlock_shared();
  }
  // An id can still sit in an access set for the moment between its
  // watermark's arrival and the erase of its refs; do not spread it.
  out.erase(std::remove_if(out.begin() + static_cast<std::ptrdiff_t>(first),
                           out.end(), [this](TxId id) { return finished(id); }),
            out.end());
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
      if (v.stamp_insert(id)) stamped.push_back(id);
    }
  }
  e.latch.unlock();
  if (!stamped.empty()) register_ids(e, vid, stamped);
}

MVStore::IndexShard& MVStore::index_shard(std::uint32_t session) const {
  return *index_shards_[std::hash<TxId>{}(TxId(std::uint64_t{session} << 32)) %
                        index_shards_.size()];
}

bool MVStore::finished(TxId id) const {
  const IndexShard& shard = index_shard(session_of(id));
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.sessions.find(session_of(id));
  return it != shard.sessions.end() &&
         id.local_seq() < it->second.finished_below;
}

void MVStore::register_ids(Entry& e, VersionId vid,
                           std::span<const TxId> ids) {
  std::vector<TxId> late;
  for (TxId id : ids) {
    IndexShard& shard = index_shard(session_of(id));
    std::lock_guard<std::mutex> lock(shard.mu);
    SessionIndex& s = shard.sessions[session_of(id)];
    // Checked under the shard lock that finish_below advances the
    // watermark under: either this registration lands first and the step
    // erases it, or the step came first and the id is not registered.
    if (id.local_seq() < s.finished_below) {
      late.push_back(id);
      continue;
    }
    auto at = std::upper_bound(
        s.refs.begin(), s.refs.end(), id.local_seq(),
        [](std::uint32_t seq, const IndexRef& r) { return seq < r.seq; });
    s.refs.insert(at, IndexRef{id.local_seq(), &e, vid});
  }
  if (late.empty()) return;
  e.latch.lock();
  if (Version* v = e.chain.find(vid)) {
    for (TxId id : late) v->access_set_erase(id);
  }
  e.latch.unlock();
}

void MVStore::finish_below(std::span<const TxId> watermarks) {
  std::vector<IndexRef> done;
  for (TxId w : watermarks) {
    const std::uint32_t session = session_of(w);
    done.clear();
    {
      IndexShard& shard = index_shard(session);
      std::lock_guard<std::mutex> lock(shard.mu);
      SessionIndex& s = shard.sessions[session];
      if (w.local_seq() <= s.finished_below) continue;
      s.finished_below = w.local_seq();
      auto end = std::lower_bound(
          s.refs.begin(), s.refs.end(), w.local_seq(),
          [](const IndexRef& r, std::uint32_t seq) { return r.seq < seq; });
      done.assign(s.refs.begin(), end);
      s.refs.erase(s.refs.begin(), end);
    }
    for (const IndexRef& ref : done) {
      // A ref whose version was pruned, or whose id another ref of the
      // same version already erased, degrades to a no-op.
      ref.entry->latch.lock();
      if (Version* v = ref.entry->chain.find(ref.version_id)) {
        v->access_set_erase(TxId((std::uint64_t{session} << 32) | ref.seq));
      }
      ref.entry->latch.unlock();
    }
  }
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

std::size_t MVStore::reverse_index_size() const {
  std::size_t n = 0;
  for (const auto& shard : index_shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [session, s] : shard->sessions) n += s.refs.size();
  }
  return n;
}

}  // namespace fwkv::store
