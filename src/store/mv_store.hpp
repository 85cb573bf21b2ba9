// Per-node multi-versioned data repository (§2.2) with the reverse
// version-access-set index that makes Remove handling (Alg. 6 lines 5-10)
// O(entries-for-the-finished-ids) instead of O(store).
//
// Synchronization layers, innermost to outermost:
//   1. shard maps (shared_mutex)       - key lookup / creation;
//   2. per-key latch (EntryLatch)      - reader-writer: chain/VAS mutation
//      (including a read-only read's stamp) takes it exclusive, other reads
//      and validation take it shared. It is the only lock on a key inside
//      the store; validation needs no lock-free lane because it runs while
//      the prepare holds the key exclusive in the LockTable, so no install
//      can race it;
//   3. LockTable (owned by the node)   - transactional isolation windows.
// The reverse index has its own shards and is never held together with a
// key latch (registrations are applied after the latch is released), so the
// store is free of lock-order cycles. Every id in an access set is in the
// reverse index: a read-only read's registration and a writer's stamp
// (Alg. 5 line 19) go through the same helper. The index is sharded by
// session and ordered by seq, and a session finishes its ids in seq order,
// so one watermark ("every id of this session below seq s has finished")
// erases a session's whole finished range at once. The same per-session
// watermark stops a late read or install from registering a finished id.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "store/version_chain.hpp"

namespace fwkv::store {

/// Per-key reader-writer spin latch (4 bytes, no futex on the fast path).
/// Chain critical sections are tens of nanoseconds, so contended waiters
/// spin briefly and then yield; shared mode lets concurrent readers of a
/// hot key proceed without serializing (a std::mutex would).
class EntryLatch {
 public:
  void lock() {
    // Claim the writer bit first (stops new readers), then drain readers.
    std::uint32_t s = state_.load(std::memory_order_relaxed);
    int spins = 0;
    for (;;) {
      if ((s & kWriter) == 0) {
        if (state_.compare_exchange_weak(s, s | kWriter,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
          break;
        }
      } else {
        backoff(spins);
        s = state_.load(std::memory_order_relaxed);
      }
    }
    spins = 0;
    while (state_.load(std::memory_order_acquire) != kWriter) backoff(spins);
  }

  void unlock() { state_.store(0, std::memory_order_release); }

  void lock_shared() {
    std::uint32_t s = state_.load(std::memory_order_relaxed);
    int spins = 0;
    for (;;) {
      if ((s & kWriter) == 0) {
        if (state_.compare_exchange_weak(s, s + kReader,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
          return;
        }
      } else {
        backoff(spins);
        s = state_.load(std::memory_order_relaxed);
      }
    }
  }

  void unlock_shared() { state_.fetch_sub(kReader, std::memory_order_release); }

 private:
  static constexpr std::uint32_t kWriter = 1u;
  static constexpr std::uint32_t kReader = 2u;

  static void backoff(int& spins) {
    // This simulator regularly runs more lanes than cores; yield early so a
    // descheduled latch holder gets CPU time instead of being spun against.
    if (++spins > 8) std::this_thread::yield();
  }

  std::atomic<std::uint32_t> state_{0};
};

class MVStore {
 public:
  explicit MVStore(std::size_t shards = 64);
  ~MVStore();

  /// Bulk-load path: install an initial version with an all-zero commit
  /// clock (visible to every snapshot).
  void load(Key key, Value value, std::size_t cluster_size);

  bool contains(Key key) const;
  std::size_t key_count() const;

  /// FW-KV read-only rule; registers `reader` in the selected version's
  /// access set and in the reverse index. A read that arrives after its
  /// session's watermark passed `reader` (a late duplicate) leaves no trace.
  ReadResult read_read_only(Key key, const VectorClock& tvc,
                            const std::vector<bool>& has_read, TxId reader);

  /// FW-KV update-transaction rule (no VAS side effects).
  ReadResult read_update(Key key, const VectorClock& tvc,
                         const std::vector<bool>& has_read,
                         bool snapshot_fixed) const;

  /// Walter rule (begin-time snapshot, no VAS).
  ReadResult read_walter(Key key, const VectorClock& tvc) const;

  /// Alg. 5 validate() over one written key (clock rule, blind writes).
  bool validate_key(Key key, const VectorClock& tvc) const;

  /// Validation by version identity for read-modify-write keys: true iff
  /// the latest version is still the one the transaction observed.
  bool validate_key_version(Key key, VersionId observed) const;

  /// Alg. 5 lines 8-10: union of access sets across the written keys,
  /// without the ids already known here to have finished.
  void collect_access_sets(std::span<const Key> keys,
                           std::vector<TxId>& out) const;

  /// Install a new version of `key` and stamp `collected` into its access
  /// set (Alg. 5 lines 17-20), except ids that have finished. Creates the
  /// key if absent (TPC-C inserts).
  void install(Key key, Value value, const VectorClock& commit_vc,
               NodeId origin, SeqNo seq, std::span<const TxId> collected);

  /// Alg. 6 lines 5-10 by watermark: each names a session (a TxId's node
  /// and session fields) and its lowest open seq. Erases the session's ids
  /// below it from every access set on this node and stops later reads and
  /// installs from registering them. A watermark that does not move its
  /// session up (a duplicate, a reordered older one) is a no-op.
  void finish_below(std::span<const TxId> watermarks);

  /// Sum of access-set sizes across the node (space-overhead metric, §5.1).
  std::size_t access_set_footprint() const;

  /// Number of (id, version) registrations in the reverse index (tests).
  std::size_t reverse_index_size() const;

  /// Test/example helper: run `fn` with the key's chain latched exclusive.
  template <typename Fn>
  bool with_chain(Key key, Fn&& fn) {
    Entry* e = find_entry(key);
    if (e == nullptr) return false;
    e->latch.lock();
    fn(e->chain);
    e->latch.unlock();
    return true;
  }

 private:
  struct Entry {
    mutable EntryLatch latch;
    VersionChain chain;
  };
  struct MapShard {
    mutable std::shared_mutex mu;
    std::unordered_map<Key, std::unique_ptr<Entry>> map;
  };

  /// Where a registered id sits: its seq (the session is the index key),
  /// the entry and the version.
  struct IndexRef {
    std::uint32_t seq;
    Entry* entry;
    VersionId version_id;
  };
  /// One session's part of the reverse index.
  struct SessionIndex {
    /// The session's watermark here: every id below this seq has finished.
    std::uint32_t finished_below = 0;
    /// Registered ids, ordered by seq.
    std::vector<IndexRef> refs;
  };
  struct IndexShard {
    mutable std::mutex mu;
    /// Keyed by session_of(id).
    std::unordered_map<std::uint32_t, SessionIndex> sessions;
  };

  /// The node and session fields of `id`.
  static std::uint32_t session_of(TxId id) {
    return static_cast<std::uint32_t>(id.raw >> 32);
  }
  Entry* find_entry(Key key) const;
  Entry& get_or_create_entry(Key key);
  IndexShard& index_shard(std::uint32_t session) const;
  bool finished(TxId id) const;
  /// Registers `ids`, just inserted into version `vid` of `e`, in the
  /// reverse index. Runs after the latch is released (lock-order rule).
  /// An id whose watermark has already passed it is not registered and is
  /// erased from the version again.
  void register_ids(Entry& e, VersionId vid, std::span<const TxId> ids);

  std::vector<std::unique_ptr<MapShard>> map_shards_;
  std::vector<std::unique_ptr<IndexShard>> index_shards_;
};

}  // namespace fwkv::store
