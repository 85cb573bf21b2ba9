// Version-selection rules (Alg. 3) at the chain level, including the
// paper's Fig. 2 / Fig. 3 vector-clock configurations.
#include <gtest/gtest.h>

#include <random>
#include <thread>

#include "store/version_chain.hpp"

namespace fwkv::store {
namespace {

const TxId kReader(3, 0, 1);

VectorClock vc(std::initializer_list<SeqNo> init) { return VectorClock(init); }

/// value "v<id>", commit clock with [origin]=seq plus explicit extras.
const Version& add(VersionChain& chain, std::size_t nodes, NodeId origin, SeqNo seq,
             std::initializer_list<SeqNo> clock = {}) {
  VectorClock commit_vc =
      clock.size() == 0 ? VectorClock(nodes) : VectorClock(clock);
  commit_vc[origin] = seq;
  std::string value = "v";
  value += std::to_string(seq);
  return chain.install(std::move(value), std::move(commit_vc), origin, seq);
}

TEST(VersionChainTest, InstallAssignsMonotonicIds) {
  VersionChain chain;
  EXPECT_EQ(add(chain, 3, 0, 1).id, 1u);
  EXPECT_EQ(add(chain, 3, 0, 2).id, 2u);
  EXPECT_EQ(add(chain, 3, 1, 1).id, 3u);
  EXPECT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain.latest().id, 3u);
}

TEST(VersionChainTest, FindLocatesVersionsById) {
  VersionChain chain;
  EXPECT_EQ(chain.find(1), nullptr);
  for (SeqNo s = 1; s <= 5; ++s) add(chain, 2, 0, s);
  ASSERT_NE(chain.find(3), nullptr);
  EXPECT_EQ(chain.find(3)->id, 3u);
  EXPECT_EQ(chain.find(5)->id, 5u);
  EXPECT_EQ(chain.find(0), nullptr);
  EXPECT_EQ(chain.find(6), nullptr);
}

TEST(VersionChainTest, GcRespectsRetentionThenBoundsChain) {
  VersionChain chain;
  for (SeqNo s = 1; s <= VersionChain::kMaxVersions + 40; ++s) {
    add(chain, 2, 0, s);
  }
  // Everything is younger than the retention window: nothing pruned yet,
  // so a stalled reader can still be served any of these versions.
  EXPECT_EQ(chain.size(), VersionChain::kMaxVersions + 40);
  std::this_thread::sleep_for(VersionChain::kRetention +
                              std::chrono::milliseconds(50));
  add(chain, 2, 0, VersionChain::kMaxVersions + 41);
  EXPECT_LE(chain.size(), VersionChain::kMaxVersions + 1);
  EXPECT_EQ(chain.latest().id, VersionChain::kMaxVersions + 41);
  // Pruned from the front: the oldest ids are gone, the rest still resolve.
  const VersionId front = chain.versions().front().id;
  EXPECT_GT(front, 1u);
  EXPECT_EQ(chain.find(1), nullptr);
  EXPECT_EQ(chain.find(front - 1), nullptr);
  ASSERT_NE(chain.find(front), nullptr);
  EXPECT_EQ(chain.find(front)->id, front);
  EXPECT_EQ(chain.find(chain.latest().id)->id, chain.latest().id);
}

TEST(VersionChainTest, GcSkipsVersionsWithAccessSets) {
  VersionChain chain;
  add(chain, 2, 0, 1);
  chain.select_read_only(vc({0, 0}), {false, false}, kReader);
  for (SeqNo s = 2; s <= VersionChain::kMaxVersions + 10; ++s) {
    add(chain, 2, 0, s);
  }
  // The pinned first version blocks pruning (prune stops at non-empty VAS).
  EXPECT_EQ(chain.versions().front().id, 1u);
}

TEST(VersionChainTest, AccessSetInsertEraseContains) {
  VersionChain chain;
  const Version& v = add(chain, 2, 0, 1);
  EXPECT_FALSE(v.access_set_contains(kReader));
  chain.select_read_only(vc({0, 0}), {false, false}, kReader);
  chain.select_read_only(vc({0, 0}), {false, false}, kReader);
  EXPECT_EQ(v.access_set().size(), 1u) << "duplicate insert";
  EXPECT_TRUE(v.access_set_contains(kReader));
  EXPECT_FALSE(v.excluded_contains(kReader));
  EXPECT_TRUE(chain.erase(v.id, kReader));
  EXPECT_FALSE(chain.erase(v.id, kReader));
  EXPECT_FALSE(chain.erase(v.id + 1, kReader)) << "no such version";
  // Stamped ids live in both sets; one erase clears both.
  EXPECT_TRUE(chain.stamp(kReader));
  EXPECT_FALSE(chain.stamp(kReader)) << "duplicate stamp";
  EXPECT_TRUE(v.excluded_contains(kReader));
  EXPECT_TRUE(chain.erase(v.id, kReader));
  EXPECT_FALSE(v.excluded_contains(kReader));
  EXPECT_FALSE(v.access_set_contains(kReader));
}

// ---- read-only selection (Alg. 3 lines 2-10) ----

TEST(ReadOnlySelect, FirstContactReturnsLatest) {
  VersionChain chain;
  add(chain, 3, 1, 1);
  add(chain, 3, 1, 2);
  add(chain, 3, 2, 9);  // far ahead of any snapshot
  // No site read yet: everything is visible, freshest id wins.
  auto r = chain.select_read_only(vc({0, 0, 0}), {false, false, false},
                                  kReader);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.value, "v9");
  EXPECT_EQ(r.latest_id, 3u);
}

TEST(ReadOnlySelect, RegistersReaderInAccessSet) {
  VersionChain chain;
  add(chain, 3, 1, 1);
  chain.select_read_only(vc({0, 0, 0}), {false, false, false}, kReader);
  EXPECT_TRUE(chain.latest().access_set_contains(kReader));
}

TEST(ReadOnlySelect, MaskConstrainsVisibility) {
  VersionChain chain;
  add(chain, 3, 1, 5);
  add(chain, 3, 1, 8);
  // Reader already read from site 1 with T.VC[1] = 5: v(seq 8) invisible.
  auto r = chain.select_read_only(vc({0, 5, 0}), {false, true, false},
                                  kReader);
  EXPECT_EQ(r.value, "v5");
}

TEST(ReadOnlySelect, AccessSetExcludesAntiDependentVersion) {
  // Fig. 2: y1 was stamped with T1's id at install (propagated by T3's
  // commit); T1's read of y must fall back to y0 even though y1 is visible.
  VersionChain chain;
  add(chain, 3, 1, 5);                           // y0
  add(chain, 3, 2, 7);                           // y1
  chain.stamp(kReader);                          // excluded={T1}
  auto r = chain.select_read_only(vc({0, 7, 0}), {false, true, false},
                                  kReader);
  EXPECT_EQ(r.value, "v5") << "anti-dependent version was returned";
}

TEST(ReadOnlySelect, ReadRegistrationDoesNotExclude) {
  // A plain read-time registration (retried/redelivered rpc) is not an
  // anti-dependency: the re-read must be served the registered version,
  // not be bounced to an older one (that would tear the snapshot).
  VersionChain chain;
  add(chain, 3, 1, 5);
  add(chain, 3, 1, 7);
  chain.select_read_only(vc({0, 7, 0}), {false, true, false}, kReader);
  ASSERT_TRUE(chain.latest().access_set_contains(kReader));
  auto r = chain.select_read_only(vc({0, 7, 0}), {false, true, false},
                                  kReader);
  EXPECT_EQ(r.value, "v7") << "retried read was served a stale version";
}

TEST(ReadOnlySelect, FallsBackToNewestExcludedVersion) {
  // Every visible version is stamped against the reader: return the newest
  // of them rather than nothing (best effort past GC's retention bound).
  VersionChain chain;
  add(chain, 2, 0, 1);
  chain.stamp(kReader);
  add(chain, 2, 0, 2);
  chain.stamp(kReader);
  auto r = chain.select_read_only(vc({2, 0}), {true, false}, kReader);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.value, "v2");
}

TEST(ReadOnlySelect, EmptyChainNotFound) {
  VersionChain chain;
  EXPECT_FALSE(
      chain.select_read_only(vc({0, 0}), {false, false}, kReader).found);
}

TEST(ReadOnlySelect, LatestIdReportsFreshnessGap) {
  VersionChain chain;
  add(chain, 2, 0, 1);
  add(chain, 2, 0, 2);
  add(chain, 2, 0, 3);
  auto r = chain.select_read_only(vc({1, 0}), {true, false}, kReader);
  EXPECT_EQ(r.id, 1u);
  EXPECT_EQ(r.latest_id, 3u);  // gap of 2 versions
}

// ---- update-transaction selection (Alg. 3 lines 11-18) ----

TEST(UpdateSelect, FirstReadReturnsLatestRegardlessOfSnapshot) {
  // Fig. 4: T1's begin snapshot is <2,5> but x1 has VC <2,7>; the first
  // read still returns x1.
  VersionChain chain;
  add(chain, 2, 1, 4, {2, 4});  // x0
  add(chain, 2, 1, 7, {2, 7});  // x1
  auto r = chain.select_update(vc({2, 5}), {false, false},
                               /*snapshot_fixed=*/false);
  EXPECT_EQ(r.value, "v7");
}

TEST(UpdateSelect, Figure3SafeSnapshotExcludesSuspectVersion) {
  // Fig. 3: T1 read x0 at N2 (T1.VC = <2,7,6>, hasRead = {N2}); T3 then
  // committed y1 with VC <2,7,7>. y1 is equal on the read site (7) and
  // ahead on unread N3 (7 > 6) -> excluded; y0 is returned.
  VersionChain chain;
  add(chain, 3, 1, 5, {2, 5, 6});  // y0
  add(chain, 3, 2, 7, {2, 7, 7});  // y1
  auto r = chain.select_update(vc({2, 7, 6}), {false, true, false},
                               /*snapshot_fixed=*/true);
  EXPECT_EQ(r.value, "v5");
}

TEST(UpdateSelect, NotExcludedWhenReadSiteEntryDiffers) {
  // If the candidate's clock is *behind* on a read site, the equality
  // clause fails and the version stays visible.
  VersionChain chain;
  add(chain, 3, 1, 5, {0, 5, 0});
  add(chain, 3, 2, 7, {0, 6, 7});  // behind on read site 1 (6 < 7)
  auto r = chain.select_update(vc({0, 7, 0}), {false, true, false}, true);
  EXPECT_EQ(r.value, "v7");
}

TEST(UpdateSelect, VisibilityMaskStillApplies) {
  VersionChain chain;
  add(chain, 3, 1, 5, {0, 5, 0});
  add(chain, 3, 1, 9, {0, 9, 0});  // ahead on the read site -> invisible
  auto r = chain.select_update(vc({0, 7, 0}), {false, true, false}, true);
  EXPECT_EQ(r.value, "v5");
}

TEST(UpdateSelect, ExclusionRequiresAheadOnUnreadSite) {
  // Equal on read sites but NOT ahead anywhere unread: the version is a
  // committed predecessor, not a concurrency suspect.
  VersionChain chain;
  add(chain, 3, 1, 5, {0, 5, 0});
  add(chain, 3, 1, 7, {0, 7, 0});
  auto r = chain.select_update(vc({0, 7, 5}), {false, true, false}, true);
  EXPECT_EQ(r.value, "v7");
}

// ---- Walter selection ----

TEST(WalterSelect, VisibleByOriginSeqOnly) {
  VersionChain chain;
  add(chain, 3, 1, 5);
  add(chain, 3, 2, 9);
  // Snapshot covers origin 1 up to 5 but origin 2 only up to 8.
  auto r = chain.select_walter(vc({0, 5, 8}));
  EXPECT_EQ(r.value, "v5");
  // After the propagate arrives, seq 9 becomes visible.
  EXPECT_EQ(chain.select_walter(vc({0, 5, 9})).value, "v9");
}

TEST(WalterSelect, SnapshotNeverSeesFutureLocalCommits) {
  VersionChain chain;
  add(chain, 2, 0, 1);
  add(chain, 2, 0, 2);
  add(chain, 2, 0, 3);
  EXPECT_EQ(chain.select_walter(vc({2, 0})).value, "v2");
}

TEST(WalterSelect, InitialLoadAlwaysVisible) {
  VersionChain chain;
  chain.install("init", VectorClock(2), 0, 0);
  EXPECT_EQ(chain.select_walter(vc({0, 0})).value, "init");
}

// ---- validation (Alg. 5 lines 27-34) ----

TEST(ValidateTest, PassesWhenSnapshotCoversLatest) {
  VersionChain chain;
  add(chain, 2, 1, 7, {2, 7});
  EXPECT_TRUE(chain.validate(vc({2, 7})));
  EXPECT_TRUE(chain.validate(vc({0, 9})));
}

TEST(ValidateTest, FailsWhenLatestIsAhead) {
  VersionChain chain;
  add(chain, 2, 1, 7, {2, 7});
  EXPECT_FALSE(chain.validate(vc({9, 6})))
      << "stale snapshot on the updater's site must fail validation";
}

TEST(ValidateTest, EmptyChainAlwaysValid) {
  VersionChain chain;
  EXPECT_TRUE(chain.validate(vc({0, 0})));
}

// ---- collect (Alg. 5 lines 8-10) ----

TEST(CollectTest, GathersAllAccessSets) {
  VersionChain chain;
  add(chain, 2, 0, 1);
  chain.select_read_only(vc({0, 0}), {false, false}, TxId(1, 0, 1));
  add(chain, 2, 0, 2);
  chain.select_read_only(vc({0, 0}), {false, false}, TxId(1, 0, 2));
  chain.stamp(TxId(2, 0, 3));
  std::vector<TxId> out;
  chain.collect_access_sets(out);
  EXPECT_EQ(out.size(), 3u);
}

// Parameterized sweep: for any chain and mask, the RO selection never
// returns a version that violates the masked visibility rule, and always
// returns the freshest non-excluded candidate.
class SelectionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SelectionPropertyTest, ReadOnlySelectionIsMaximalAndVisible) {
  std::mt19937_64 rng(GetParam() * 131 + 17);
  for (int iter = 0; iter < 60; ++iter) {
    const std::size_t nodes = 2 + rng() % 4;
    VersionChain chain;
    for (int v = 0; v < 12; ++v) {
      VectorClock commit_vc(nodes);
      for (std::size_t i = 0; i < nodes; ++i) commit_vc[i] = rng() % 6;
      const auto origin = static_cast<NodeId>(rng() % nodes);
      const SeqNo seq = rng() % 6 + 1;
      commit_vc[origin] = seq;
      chain.install("x", std::move(commit_vc), origin, seq);
    }
    VectorClock tvc(nodes);
    std::vector<bool> mask(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      tvc[i] = rng() % 6;
      mask[i] = rng() % 2 == 0;
    }
    const TxId reader(9, 9, static_cast<std::uint32_t>(iter));
    auto r = chain.select_read_only(tvc, mask, reader);
    ASSERT_TRUE(r.found);
    bool exists_fresher_visible = false;
    for (const auto& v : chain.versions()) {
      if (v.id <= r.id) continue;
      if (v.vc.leq_masked(tvc, mask) && !v.access_set_contains(reader)) {
        // The only id the reader occupies is the one it was just given.
        exists_fresher_visible = true;
      }
    }
    EXPECT_FALSE(exists_fresher_visible)
        << "selection skipped a fresher visible version";
    // The returned version is visible under the mask (unless fallback).
    EXPECT_TRUE(r.vc.leq_masked(tvc, mask) || chain.versions().front().id == r.id);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectionPropertyTest, ::testing::Range(0, 5));

}  // namespace
}  // namespace fwkv::store
