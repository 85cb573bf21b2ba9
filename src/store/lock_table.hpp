// Per-key transactional locks with owner tracking and timed acquisition
// (the paper sets the acquisition timeout to 1 ms, matching ~50 message
// flight times on its testbed; the simulator keeps the same ratio).
//
// Modes:
//   exclusive - 2PC prepare on written keys (Alg. 5 line 3);
//   shared    - FW-KV read handlers (Alg. 3 lines 3/12; the paper notes
//               read-only transactions may run read handlers concurrently,
//               so reads share), and 2PC-baseline read validation.
//
// Acquisition of multiple keys must be performed in sorted key order by the
// caller; combined with timeouts this makes the table deadlock-free.
//
// A zero timeout is a try: the call succeeds exactly when a waiting call
// would succeed at once, and otherwise returns false without waiting,
// reading the clock, queueing a reader or waking anyone, so the table is
// left as it was. The network's timer thread, which must never block, locks
// that way.
//
// Readers are not starved: a fresh exclusive acquisition also waits while
// shared callers are queued behind the current exclusive holder, so a
// writer that releases and re-locks a key in a loop lets the waiting
// readers in at its next release.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"

namespace fwkv::store {

class LockTable {
 public:
  explicit LockTable(std::size_t shards = 64);

  /// Acquire an exclusive lock; blocks up to `timeout` while the key is
  /// held or shared callers wait for it. Re-acquisition by the current
  /// exclusive owner succeeds immediately (idempotent).
  bool lock_exclusive(Key key, TxId owner, std::chrono::nanoseconds timeout);

  /// Acquire a shared lock; blocks up to `timeout` while an exclusive
  /// holder is present.
  bool lock_shared(Key key, TxId owner, std::chrono::nanoseconds timeout);

  void unlock_exclusive(Key key, TxId owner);
  void unlock_shared(Key key, TxId owner);

  /// Sorted, all-or-nothing multi-key exclusive acquisition: on any timeout
  /// the keys already acquired are released and false is returned.
  bool lock_all_exclusive(std::span<const Key> sorted_keys, TxId owner,
                          std::chrono::nanoseconds per_key_timeout);
  void unlock_all_exclusive(std::span<const Key> keys, TxId owner);

  /// True iff `owner` holds the exclusive lock on `key` (test helper).
  bool held_exclusive(Key key, TxId owner) const;

 private:
  struct LockState {
    TxId exclusive_owner = kInvalidTxId;
    std::uint32_t shared_count = 0;
    /// lock_shared callers blocked behind the exclusive holder.
    std::uint32_t shared_waiting = 0;

    /// Nobody holds or waits to share the key: a fresh exclusive
    /// acquisition may take it, and the entry may be erased.
    bool idle() const {
      return !exclusive_owner.valid() && shared_count == 0 &&
             shared_waiting == 0;
    }
  };
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<Key, LockState> locks;
  };

  Shard& shard_for(Key key);
  const Shard& shard_for(Key key) const;

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace fwkv::store
