// Per-node multi-versioned data repository (§2.2) with the reverse
// version-access-set index that makes Remove handling (Alg. 6 lines 5-10)
// O(entries-for-this-tx) instead of O(store).
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
// store is free of lock-order cycles. The reverse index only tracks ids
// stamped by committing update transactions (Alg. 5 line 19) — a read-only
// transaction's own registrations are deregistered through the key list
// its Remove batch carries (one latch per key per batch, not one index
// lock per read). Every node receives every finished read-only id, so
// remove_txs marks each id removed once and skips the index shards that
// hold no stamp at all.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <deque>
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
  /// Transactions whose Remove already ran: late collected-set stamping for
  /// them is suppressed so their ids cannot leak into new versions forever.
  /// The memory is a ring (total capacity across stripes); overflowing it
  /// forgets the oldest finished transactions.
  static constexpr std::size_t kRemovedRing = 1 << 16;

  explicit MVStore(std::size_t shards = 64,
                   std::size_t removed_capacity = kRemovedRing);
  ~MVStore();

  /// Bulk-load path: install an initial version with an all-zero commit
  /// clock (visible to every snapshot).
  void load(Key key, Value value, std::size_t cluster_size);

  bool contains(Key key) const;
  std::size_t key_count() const;

  /// FW-KV read-only rule; registers `reader` in the selected version's
  /// access set. Deregistration is the caller's duty: the finished
  /// transaction's Remove must carry the keys it read here (remove_txs).
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

  /// Alg. 5 lines 8-10: union of access sets across the written keys.
  void collect_access_sets(std::span<const Key> keys,
                           std::vector<TxId>& out) const;

  /// Install a new version of `key` and stamp `collected` into its access
  /// set (Alg. 5 lines 17-20). Creates the key if absent (TPC-C inserts).
  void install(Key key, Value value, const VectorClock& commit_vc,
               NodeId origin, SeqNo seq, std::span<const TxId> collected);

  /// Alg. 6 lines 5-10 for a batch of finished read-only transactions:
  /// erase every id in `txs` from every access set on this node.
  /// `read_keys` holds the keys they read here (each key is latched once
  /// for the whole batch); ids stamped onto other keys by committing
  /// writers are found through the reverse index.
  void remove_txs(std::span<const TxId> txs, std::span<const Key> read_keys);
  void remove_tx(TxId tx, std::span<const Key> read_keys = {}) {
    remove_txs(std::span<const TxId>(&tx, 1), read_keys);
  }

  /// Sum of access-set sizes across the node (space-overhead metric, §5.1).
  std::size_t access_set_footprint() const;

  /// Introspection (tests): is late stamping of `tx` currently suppressed?
  bool recently_removed(TxId tx) const;

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

  /// Where a stamped transaction id sits: which entry and which version id.
  struct IndexRef {
    Entry* entry;
    VersionId version_id;
  };
  struct IndexShard {
    std::mutex mu;
    std::unordered_map<TxId, std::vector<IndexRef>> map;
    /// map.size(), stored under mu; read without it to skip empty shards.
    std::atomic<std::size_t> ids{0};
  };

  /// Striped removed-transaction memory: installs on different stripes
  /// never serialize (the former single removed_mu_ was taken once per
  /// collected id on every install).
  static constexpr std::size_t kRemovedStripes = 16;
  struct RemovedStripe {
    mutable std::mutex mu;
    std::unordered_set<TxId> set;
    std::deque<TxId> ring;
  };

  Entry* find_entry(Key key) const;
  Entry& get_or_create_entry(Key key);
  /// Batch-register stamped ids for one installed version: each index shard
  /// involved is locked once, not once per id.
  void register_readers(std::span<const TxId> ids, Entry* entry,
                        VersionId version_id);
  IndexShard& index_shard(TxId tx) const;
  /// Erases the stamped copies of `tx` found through the reverse index.
  void erase_stamps(TxId tx);
  RemovedStripe& removed_stripe(TxId tx) const;
  void note_removed(TxId tx);

  std::vector<std::unique_ptr<MapShard>> map_shards_;
  std::vector<std::unique_ptr<IndexShard>> index_shards_;

  mutable std::array<RemovedStripe, kRemovedStripes> removed_;
  std::size_t removed_stripe_cap_;
};

}  // namespace fwkv::store
