#include "store/lock_table.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <mutex>

#include "common/consistent_hash.hpp"

namespace fwkv::store {

namespace {

/// This thread's Scope depth and settled continuations.
struct RunQueue {
  std::uint32_t depth = 0;
  std::deque<std::function<void()>> ready;
};
thread_local RunQueue t_run;

}  // namespace

LockTable::Scope::Scope() { ++t_run.depth; }

LockTable::Scope::~Scope() {
  RunQueue& q = t_run;
  if (q.depth > 1) {
    --q.depth;
    return;
  }
  // The depth stays 1 while the continuations run, so the Scopes inside
  // them only queue more: a chain of waiters is a loop, not a recursion.
  while (!q.ready.empty()) {
    auto run = std::move(q.ready.front());
    q.ready.pop_front();
    run();
  }
  q.depth = 0;
}

LockTable::LockTable(Counter* contended, std::size_t shards) {
  assert(shards > 0);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(contended));
  }
}

LockTable::Shard& LockTable::shard_for(Key key) const {
  return *shards_[hash_key(key) % shards_.size()];
}

bool LockTable::grant(LockState& st, TxId owner, Mode mode) {
  if (mode == Mode::kShared) {
    if (st.exclusive_owner.valid()) return false;
    ++st.shared_count;
    return true;
  }
  if (st.exclusive_owner != owner && !st.idle()) return false;
  st.exclusive_owner = owner;
  return true;
}

bool LockTable::lock(Key key, TxId owner, Mode mode) {
  Shard& s = shard_for(key);
  std::lock_guard<Mutex> lock(s.mu);
  // A refused call finds the key held, so it adds no entry.
  return grant(s.locks[key], owner, mode);
}

bool LockTable::lock_all(const Keys& keys, TxId owner) {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto [key, mode] = keys.at(i);
    if (!lock(key, owner, mode)) {
      unlock_all(keys, owner, i);
      return false;
    }
  }
  return true;
}

void LockTable::settle(Waiter& w, bool granted) {
  t_run.ready.push_back([this, resume = std::move(w.resume), granted] {
    resume(granted);
    --parked_;  // after its sends: quiescence must not pass in between
  });
}

void LockTable::park(Key key, TxId owner, Mode mode,
                     Clock::time_point deadline, Resume resume) {
  Scope scope;
  ++parked_;
  Shard& s = shard_for(key);
  Waiter w{owner, mode, deadline, std::move(resume)};
  std::lock_guard<Mutex> lock(s.mu);
  LockState& st = s.locks[key];
  // The key may have been released since lock() refused it.
  if (grant(st, owner, mode)) return settle(w, true);
  if (mode == Mode::kShared) ++st.readers_parked;
  st.waiters.push_back(std::move(w));
  ++s.waiting;
}

std::size_t LockTable::expire(Clock::time_point now) {
  if (parked_ == 0) return 0;
  Scope scope;
  std::size_t settled = 0;
  for (const auto& s : shards_) {
    if (s->waiting == 0) continue;
    std::lock_guard<Mutex> lock(s->mu);
    for (auto it = s->locks.begin(); it != s->locks.end();) {
      LockState& st = it->second;
      for (auto w = st.waiters.begin(); w != st.waiters.end();) {
        if (w->deadline > now) {
          ++w;
          continue;
        }
        if (w->mode == Mode::kShared) --st.readers_parked;
        settle(*w, false);
        w = st.waiters.erase(w);
        --s->waiting;
        ++settled;
      }
      if (st.idle()) {
        it = s->locks.erase(it);
      } else {
        ++it;
      }
    }
  }
  return settled;
}

void LockTable::grant_waiters_locked(Shard& s, LockState& st) {
  if (st.exclusive_owner.valid()) return;
  for (auto w = st.waiters.begin(); st.readers_parked > 0;) {
    if (w->mode != Mode::kShared) {
      ++w;
      continue;
    }
    --st.readers_parked;
    ++st.shared_count;
    settle(*w, true);
    w = st.waiters.erase(w);
    --s.waiting;
  }
  if (st.shared_count > 0 || st.waiters.empty()) return;
  st.exclusive_owner = st.waiters.front().owner;
  settle(st.waiters.front(), true);
  st.waiters.pop_front();
  --s.waiting;
}

void LockTable::park_all(Keys keys, TxId owner,
                         std::chrono::nanoseconds per_key, Resume then,
                         std::size_t next) {
  for (; next < keys.size(); ++next) {
    const auto [key, mode] = keys.at(next);
    if (lock(key, owner, mode)) continue;
    park(key, owner, mode, Clock::now() + per_key,
         [=, this, keys = std::move(keys), then = std::move(then)](
             bool granted) mutable {
           if (granted) {
             return park_all(std::move(keys), owner, per_key, std::move(then),
                             next + 1);
           }
           unlock_all(keys, owner, next);
           then(false);
         });
    return;
  }
  then(true);
}

void LockTable::unlock(Key key, [[maybe_unused]] TxId owner, Mode mode) {
  Scope scope;
  Shard& s = shard_for(key);
  std::lock_guard<Mutex> lock(s.mu);
  auto it = s.locks.find(key);
  assert(it != s.locks.end());
  LockState& st = it->second;
  if (mode == Mode::kExclusive) {
    assert(st.exclusive_owner == owner);
    st.exclusive_owner = kInvalidTxId;
  } else {
    assert(st.shared_count > 0);
    --st.shared_count;
  }
  grant_waiters_locked(s, st);
  if (st.idle()) s.locks.erase(it);
}

void LockTable::unlock_all(const Keys& keys, TxId owner, std::size_t n) {
  Scope scope;
  for (std::size_t i = 0; i < std::min(n, keys.size()); ++i) {
    const auto [key, mode] = keys.at(i);
    unlock(key, owner, mode);
  }
}

bool LockTable::held_exclusive(Key key, TxId owner) const {
  Shard& s = shard_for(key);
  std::lock_guard<Mutex> lock(s.mu);
  auto it = s.locks.find(key);
  return it != s.locks.end() && it->second.exclusive_owner == owner;
}

std::size_t LockTable::size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<Mutex> lock(s->mu);
    n += s->locks.size();
  }
  return n;
}

}  // namespace fwkv::store
