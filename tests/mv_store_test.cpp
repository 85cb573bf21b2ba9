// MVStore: reverse index, watermark-driven Remove handling, collected-set
// stamping.
#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <thread>
#include <vector>

#include "store/mv_store.hpp"
#include "store/sv_store.hpp"

namespace fwkv::store {
namespace {

constexpr std::size_t kNodes = 3;
const TxId kRo1(1, 0, 1);
const TxId kRo2(2, 0, 1);

VectorClock zero() { return VectorClock(kNodes); }
std::vector<bool> no_mask() { return std::vector<bool>(kNodes, false); }

/// The Remove of `tx`: its session's watermark moves just past it.
void finish(MVStore& store, TxId tx) {
  const TxId watermark(tx.node(), tx.session(), tx.local_seq() + 1);
  store.finish_below(std::span<const TxId>(&watermark, 1));
}

TEST(MVStoreTest, LoadAndContains) {
  MVStore store;
  EXPECT_FALSE(store.contains(1));
  store.load(1, "a", kNodes);
  EXPECT_TRUE(store.contains(1));
  EXPECT_EQ(store.key_count(), 1u);
}

TEST(MVStoreTest, MissingKeyReadsNotFound) {
  MVStore store;
  EXPECT_FALSE(store.read_read_only(9, zero(), no_mask(), kRo1).found);
  EXPECT_FALSE(store.read_update(9, zero(), no_mask(), false).found);
  EXPECT_FALSE(store.read_walter(9, zero()).found);
}

TEST(MVStoreTest, ReadOnlyReadRegistersAndRemoveErases) {
  MVStore store;
  store.load(1, "a", kNodes);
  auto r = store.read_read_only(1, zero(), no_mask(), kRo1);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.value, "a");

  std::vector<TxId> collected;
  store.collect_access_sets(std::vector<Key>{1}, collected);
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected[0], kRo1);
  EXPECT_EQ(store.reverse_index_size(), 1u);

  finish(store, kRo1);
  collected.clear();
  store.collect_access_sets(std::vector<Key>{1}, collected);
  EXPECT_TRUE(collected.empty());
  EXPECT_EQ(store.reverse_index_size(), 0u);
}

TEST(MVStoreTest, RemoveCleansEveryListedKey) {
  MVStore store;
  store.load(1, "a", kNodes);
  store.load(2, "b", kNodes);
  store.read_read_only(1, zero(), no_mask(), kRo1);
  store.read_read_only(2, zero(), no_mask(), kRo1);
  finish(store, kRo1);
  std::vector<TxId> collected;
  store.collect_access_sets(std::vector<Key>{1, 2}, collected);
  EXPECT_TRUE(collected.empty());
}

TEST(MVStoreTest, RemoveOnlyTargetsTheGivenTx) {
  MVStore store;
  store.load(1, "a", kNodes);
  store.read_read_only(1, zero(), no_mask(), kRo1);
  store.read_read_only(1, zero(), no_mask(), kRo2);
  finish(store, kRo1);
  std::vector<TxId> collected;
  store.collect_access_sets(std::vector<Key>{1}, collected);
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected[0], kRo2);
}

TEST(MVStoreTest, RemoveIsIdempotent) {
  MVStore store;
  store.load(1, "a", kNodes);
  store.read_read_only(1, zero(), no_mask(), kRo1);
  finish(store, kRo1);
  finish(store, kRo1);  // second remove: no-op
  EXPECT_EQ(store.access_set_footprint(), 0u);
}

TEST(MVStoreTest, RemoveToleratesUnknownAndDuplicateWatermarks) {
  MVStore store;
  store.load(1, "a", kNodes);
  store.read_read_only(1, zero(), no_mask(), kRo1);
  const TxId ahead(kRo1.node(), kRo1.session(), kRo1.local_seq() + 1);
  const TxId behind(kRo1.node(), kRo1.session(), kRo1.local_seq());
  // A repeated watermark, one for a session this node never saw, and an
  // older one arriving late must all degrade to no-ops.
  store.finish_below(std::vector<TxId>{ahead, ahead, TxId(9, 9, 5)});
  store.finish_below(std::vector<TxId>{behind});
  EXPECT_EQ(store.access_set_footprint(), 0u);
  // The older watermark did not move the session back.
  store.read_read_only(1, zero(), no_mask(), kRo1);
  EXPECT_EQ(store.access_set_footprint(), 0u);
  EXPECT_EQ(store.reverse_index_size(), 0u);
}

TEST(MVStoreTest, InstallStampsCollectedSet) {
  // Alg. 5 lines 17-20: the new version inherits the committing
  // transaction's collected anti-dependencies.
  MVStore store;
  store.load(1, "a", kNodes);
  VectorClock commit_vc(kNodes);
  commit_vc[0] = 1;
  std::vector<TxId> collected{kRo1, kRo2};
  store.install(1, "b", commit_vc, 0, 1, collected);

  std::vector<TxId> found;
  store.collect_access_sets(std::vector<Key>{1}, found);
  EXPECT_EQ(found.size(), 2u);
  // The stamped ids are removable through the reverse index: the
  // finishing transactions never read key 1.
  finish(store, kRo1);
  finish(store, kRo2);
  EXPECT_EQ(store.access_set_footprint(), 0u);
}

TEST(MVStoreTest, LateStampingOfRemovedTxIsSuppressed) {
  // A Remove raced ahead of a Decide that would re-stamp the id: the store
  // must not resurrect the finished transaction's id.
  MVStore store;
  store.load(1, "a", kNodes);
  store.read_read_only(1, zero(), no_mask(), kRo1);
  finish(store, kRo1);

  VectorClock commit_vc(kNodes);
  commit_vc[0] = 1;
  store.install(1, "b", commit_vc, 0, 1, std::vector<TxId>{kRo1});
  EXPECT_EQ(store.access_set_footprint(), 0u)
      << "removed transaction's id leaked into a new version";
  EXPECT_EQ(store.reverse_index_size(), 0u);
}

TEST(MVStoreTest, IdFinishedLongAgoNeverStampsAgain) {
  // A late install names an id that finished more than 2^16 finishes
  // earlier. A bounded memory of finished ids would have forgotten it by
  // then; the session watermark does not forget.
  MVStore store;
  store.load(1, "a", kNodes);
  finish(store, kRo1);
  for (std::uint32_t i = 1; i <= (1u << 17); ++i) finish(store, TxId(1, 7, i));

  VectorClock commit_vc(kNodes);
  commit_vc[0] = 1;
  store.install(1, "b", commit_vc, 0, 1, std::vector<TxId>{kRo1});
  EXPECT_EQ(store.access_set_footprint(), 0u)
      << "a long-finished id was stamped onto a new version";
  EXPECT_EQ(store.reverse_index_size(), 0u);
}

TEST(MVStoreTest, LateReadOfFinishedTxRegistersNothing) {
  // A duplicate of a read-only read arrives after its session's watermark
  // passed it: it is served, but leaves no trace.
  MVStore store;
  store.load(1, "a", kNodes);
  finish(store, kRo1);
  EXPECT_TRUE(store.read_read_only(1, zero(), no_mask(), kRo1).found);
  EXPECT_EQ(store.access_set_footprint(), 0u);
  EXPECT_EQ(store.reverse_index_size(), 0u);
}

TEST(MVStoreTest, DuplicateIndexRefsForSameVersionAreHarmless) {
  // A redelivered read registers its id on the same version twice: the
  // second erase through the reverse index must be a no-op. A writer's
  // stamp of the same id on a newer version is a ref of its own.
  MVStore store;
  store.load(1, "a", kNodes);
  store.read_read_only(1, zero(), no_mask(), kRo1);  // VAS of version 1
  store.read_read_only(1, zero(), no_mask(), kRo1);  // the redelivery

  VectorClock commit_vc(kNodes);
  commit_vc[0] = 1;
  // Stamps kRo1 onto version 2 AND registers an index ref for it.
  store.install(1, "b", commit_vc, 0, 1, std::vector<TxId>{kRo1});
  EXPECT_EQ(store.access_set_footprint(), 2u);
  EXPECT_EQ(store.reverse_index_size(), 3u);

  finish(store, kRo1);
  EXPECT_EQ(store.access_set_footprint(), 0u);
  EXPECT_EQ(store.reverse_index_size(), 0u);
}

TEST(MVStoreTest, ConcurrentInstallRacingRemove) {
  // Alg. 5/6 race: Decides stamping a finishing RO transaction's id run
  // concurrently with its Remove. Whatever interleaving occurs, no trace of
  // the id may remain (either the install saw the watermark and erased its
  // stamp, or the reverse index reclaimed it).
  MVStore store;
  constexpr Key kKeys = 8;
  for (Key k = 0; k < kKeys; ++k) store.load(k, "v", kNodes);
  const TxId victim(5, 1, 1);
  std::atomic<bool> stop{false};

  std::thread installer([&] {
    SeqNo seq = 0;
    std::vector<TxId> collected{victim};
    while (!stop.load()) {
      VectorClock commit_vc(kNodes);
      commit_vc[0] = ++seq;
      store.install(seq % kKeys, "w", commit_vc, 0, seq, collected);
    }
  });
  std::thread remover([&] {
    while (!stop.load()) {
      finish(store, victim);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop = true;
  installer.join();
  remover.join();

  finish(store, victim);  // a repeated watermark reclaims nothing new
  EXPECT_EQ(store.access_set_footprint(), 0u);
  EXPECT_EQ(store.reverse_index_size(), 0u);
}

TEST(MVStoreTest, InstallRacingItsOnlyRemoveLeavesNoStamp) {
  // Every id is removed exactly once, while an install that stamps it is in
  // flight, and nothing reclaims afterwards. A Remove that moves the
  // watermark between the install's stamp and its index registration finds
  // no index entry; the install itself must then erase the stamp.
  MVStore store;
  constexpr Key kKeys = 8;
  constexpr std::uint32_t kIds = 20000;
  for (Key k = 0; k < kKeys; ++k) store.load(k, "v", kNodes);
  std::atomic<std::uint32_t> installing{0};

  std::thread installer([&] {
    for (std::uint32_t i = 1; i <= kIds; ++i) {
      installing.store(i, std::memory_order_release);
      VectorClock commit_vc(kNodes);
      commit_vc[0] = i;
      const std::vector<TxId> collected{TxId(5, 1, i)};
      store.install(i % kKeys, "w", commit_vc, 0, i, collected);
    }
  });
  std::thread remover([&] {
    for (std::uint32_t i = 1; i <= kIds; ++i) {
      while (installing.load(std::memory_order_acquire) < i) {
      }
      finish(store, TxId(5, 1, i));
    }
  });
  installer.join();
  remover.join();
  EXPECT_EQ(store.access_set_footprint(), 0u);
  EXPECT_EQ(store.reverse_index_size(), 0u);
}

TEST(MVStoreTest, BatchedRemoveErasesReadsAndStampsOfEveryId) {
  MVStore store;
  store.load(1, "a", kNodes);
  store.load(2, "b", kNodes);
  store.read_read_only(1, zero(), no_mask(), kRo1);
  store.read_read_only(2, zero(), no_mask(), kRo2);
  VectorClock commit_vc(kNodes);
  commit_vc[0] = 1;
  store.install(3, "c", commit_vc, 0, 1, std::vector<TxId>{kRo1, kRo2});
  ASSERT_EQ(store.access_set_footprint(), 4u);

  store.finish_below(std::vector<TxId>{TxId(1, 0, 2), TxId(2, 0, 2)});
  EXPECT_EQ(store.access_set_footprint(), 0u);
  EXPECT_EQ(store.reverse_index_size(), 0u);
}

TEST(MVStoreTest, ValidateMatchesConcurrentInstalls) {
  // Validation under the shared entry latch must agree with chain state
  // while installs mutate it. Validity of the *current* clock flips with each install, so
  // check the invariants that hold at all times instead of exact values.
  MVStore store;
  store.load(1, "v", kNodes);
  std::atomic<bool> stop{false};
  std::atomic<SeqNo> installed{0};

  std::thread installer([&] {
    SeqNo seq = 0;
    while (!stop.load()) {
      VectorClock commit_vc(kNodes);
      commit_vc[0] = ++seq;
      store.install(1, "w", commit_vc, 0, seq, {});
      installed.store(seq);
    }
  });
  std::thread validator([&] {
    VectorClock all_ahead(kNodes);
    all_ahead[0] = 1u << 30;
    VectorClock stale(kNodes);  // covers only the preloaded version
    while (!stop.load()) {
      EXPECT_TRUE(store.validate_key(1, all_ahead));
      if (installed.load() > 0) {
        // At least one install happened: the latest version's clock entry
        // is beyond the stale snapshot.
        EXPECT_FALSE(store.validate_key(1, stale));
        EXPECT_FALSE(store.validate_key_version(1, 1));
      }
      EXPECT_FALSE(store.validate_key_version(1, 0));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop = true;
  installer.join();
  validator.join();
}

TEST(MVStoreTest, InstallCreatesMissingKey) {
  // TPC-C inserts (orders, order lines) write keys that were never loaded.
  MVStore store;
  VectorClock commit_vc(kNodes);
  commit_vc[1] = 4;
  store.install(77, "row", commit_vc, 1, 4, {});
  EXPECT_TRUE(store.contains(77));
  auto r = store.read_read_only(77, zero(), no_mask(), kRo1);
  EXPECT_EQ(r.value, "row");
}

TEST(MVStoreTest, ValidateKeyVersion) {
  MVStore store;
  store.load(1, "a", kNodes);  // version id 1
  EXPECT_TRUE(store.validate_key_version(1, 1));
  EXPECT_FALSE(store.validate_key_version(1, 0));
  VectorClock commit_vc(kNodes);
  commit_vc[0] = 1;
  store.install(1, "b", commit_vc, 0, 1, {});
  EXPECT_FALSE(store.validate_key_version(1, 1));
  EXPECT_TRUE(store.validate_key_version(1, 2));
  // Absent key: only "never observed" (0) validates.
  EXPECT_TRUE(store.validate_key_version(99, 0));
  EXPECT_FALSE(store.validate_key_version(99, 3));
}

TEST(MVStoreTest, ValidateKeyClockRule) {
  MVStore store;
  store.load(1, "a", kNodes);
  VectorClock commit_vc(kNodes);
  commit_vc[2] = 5;
  store.install(1, "b", commit_vc, 2, 5, {});
  VectorClock stale(kNodes);
  stale[2] = 4;
  EXPECT_FALSE(store.validate_key(1, stale));
  VectorClock fresh(kNodes);
  fresh[2] = 5;
  EXPECT_TRUE(store.validate_key(1, fresh));
  EXPECT_TRUE(store.validate_key(424242, stale)) << "absent key is valid";
}

TEST(MVStoreTest, FootprintCountsAllAccessSetEntries) {
  MVStore store;
  store.load(1, "a", kNodes);
  store.load(2, "b", kNodes);
  store.read_read_only(1, zero(), no_mask(), kRo1);
  store.read_read_only(2, zero(), no_mask(), kRo1);
  store.read_read_only(2, zero(), no_mask(), kRo2);
  EXPECT_EQ(store.access_set_footprint(), 3u);
}

TEST(MVStoreTest, ConcurrentReadersAndRemovers) {
  MVStore store;
  for (Key k = 0; k < 16; ++k) store.load(k, "v", kNodes);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::uint32_t seq = 0;
      while (!stop.load()) {
        TxId me(static_cast<NodeId>(t), 1, ++seq);
        for (Key k = 0; k < 16; ++k) {
          store.read_read_only(k, zero(), no_mask(), me);
        }
        finish(store, me);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop = true;
  for (auto& t : threads) t.join();
  // Every reader removed itself: the store must be clean again.
  EXPECT_EQ(store.access_set_footprint(), 0u);
  EXPECT_EQ(store.reverse_index_size(), 0u);
}

TEST(MVStoreTest, WithChainRunsUnderLatch) {
  MVStore store;
  store.load(5, "x", kNodes);
  bool ran = false;
  EXPECT_TRUE(store.with_chain(5, [&](VersionChain& chain) {
    ran = true;
    EXPECT_EQ(chain.latest().value, "x");
  }));
  EXPECT_TRUE(ran);
  EXPECT_FALSE(store.with_chain(99, [](VersionChain&) {}));
}

TEST(SVStoreTest, BasicsAndValidation) {
  SVStore store;
  store.load(1, "a");
  auto item = store.read(1);
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->value, "a");
  EXPECT_EQ(item->version, 1u);
  EXPECT_TRUE(store.validate(1, 1));
  store.install(1, "b");
  EXPECT_FALSE(store.validate(1, 1));
  EXPECT_TRUE(store.validate(1, 2));
  EXPECT_EQ(store.read(1)->value, "b");
  EXPECT_FALSE(store.read(404).has_value());
  EXPECT_TRUE(store.validate(404, 0));
  EXPECT_EQ(store.key_count(), 1u);
}

TEST(SVStoreTest, InstallCreates) {
  SVStore store;
  store.install(7, "new");
  EXPECT_EQ(store.read(7)->version, 1u);
}

}  // namespace
}  // namespace fwkv::store
