#include "store/lock_table.hpp"

#include <algorithm>
#include <cassert>

#include "common/consistent_hash.hpp"

namespace fwkv::store {

LockTable::LockTable(std::size_t shards) {
  assert(shards > 0);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

LockTable::Shard& LockTable::shard_for(Key key) {
  return *shards_[hash_key(key) % shards_.size()];
}

const LockTable::Shard& LockTable::shard_for(Key key) const {
  return *shards_[hash_key(key) % shards_.size()];
}

bool LockTable::lock_exclusive(Key key, TxId owner,
                               std::chrono::nanoseconds timeout) {
  Shard& s = shard_for(key);
  std::unique_lock<std::mutex> lock(s.mu);
  auto take = [&] {
    LockState& st = s.locks[key];
    // The owner's re-acquisition is idempotent.
    if (st.exclusive_owner != owner && !st.idle()) return false;
    st.exclusive_owner = owner;
    return true;
  };
  if (take()) return true;
  return timeout > std::chrono::nanoseconds::zero() &&
         s.cv.wait_until(lock, std::chrono::steady_clock::now() + timeout,
                         take);
}

bool LockTable::lock_shared(Key key, TxId /*owner*/,
                            std::chrono::nanoseconds timeout) {
  Shard& s = shard_for(key);
  std::unique_lock<std::mutex> lock(s.mu);
  LockState* st = &s.locks[key];
  if (!st->exclusive_owner.valid()) {
    ++st->shared_count;
    return true;
  }
  if (timeout <= std::chrono::nanoseconds::zero()) return false;
  // Queue behind the holder. The entry outlives the wait: it is not idle
  // while shared_waiting is non-zero, so no unlock erases it.
  ++st->shared_waiting;
  bool got = s.cv.wait_until(lock, std::chrono::steady_clock::now() + timeout,
                             [st] { return !st->exclusive_owner.valid(); });
  --st->shared_waiting;
  if (got) {
    ++st->shared_count;
  } else if (st->idle()) {
    s.locks.erase(key);
  }
  lock.unlock();
  // A writer held back by this waiter may go now.
  if (!got) s.cv.notify_all();
  return got;
}

void LockTable::unlock_exclusive(Key key, TxId owner) {
  Shard& s = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.locks.find(key);
    assert(it != s.locks.end());
    assert(it->second.exclusive_owner == owner);
    (void)owner;
    it->second.exclusive_owner = kInvalidTxId;
    if (it->second.idle()) s.locks.erase(it);
  }
  s.cv.notify_all();
}

void LockTable::unlock_shared(Key key, TxId /*owner*/) {
  Shard& s = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.locks.find(key);
    assert(it != s.locks.end());
    assert(it->second.shared_count > 0);
    --it->second.shared_count;
    if (it->second.idle()) s.locks.erase(it);
  }
  s.cv.notify_all();
}

bool LockTable::lock_all_exclusive(std::span<const Key> sorted_keys,
                                   TxId owner,
                                   std::chrono::nanoseconds per_key_timeout) {
  assert(std::is_sorted(sorted_keys.begin(), sorted_keys.end()));
  for (std::size_t i = 0; i < sorted_keys.size(); ++i) {
    if (!lock_exclusive(sorted_keys[i], owner, per_key_timeout)) {
      unlock_all_exclusive(sorted_keys.first(i), owner);
      return false;
    }
  }
  return true;
}

void LockTable::unlock_all_exclusive(std::span<const Key> keys, TxId owner) {
  for (Key k : keys) unlock_exclusive(k, owner);
}

bool LockTable::held_exclusive(Key key, TxId owner) const {
  const Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.locks.find(key);
  return it != s.locks.end() && it->second.exclusive_owner == owner;
}

}  // namespace fwkv::store
