// Randomized PSI history checking. Writer transactions update *groups* of
// keys atomically, tagging every key in the group with (writer, epoch).
// Reader transactions snapshot whole groups and assert, post-hoc, the
// observable guarantees PSI gives:
//
//   G1. Group atomicity: all keys of a group carry the same epoch in any
//       snapshot (no torn groups = no read skew).
//   G2. Per-reader session monotonicity over a single origin's commits:
//       successive snapshots of the same reader never observe an origin's
//       epoch counter going backwards (commits from one site are applied
//       in seq order everywhere).
//
// The long-fork probe covers the cross-origin ordering anomaly separately;
// here we hammer the per-origin guarantees with many groups, writers and
// interleavings, under normal and delayed propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <type_traits>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/session.hpp"

namespace fwkv {
namespace {

using namespace std::chrono_literals;

constexpr std::uint32_t kGroups = 6;
constexpr std::uint32_t kKeysPerGroup = 3;

Key group_key(std::uint32_t group, std::uint32_t idx) {
  return group * 100 + idx;
}

// gtest names a test after the bytes of a parameter it cannot print, and
// ctest registers it under that name. `pad` spells out what would be
// padding, so no indeterminate byte reaches the name and it is the same
// on every build and run.
struct HistoryCase {
  HistoryCase(Protocol p, std::chrono::milliseconds delay)
      : protocol(p), propagate_delay(delay) {}
  Protocol protocol;
  std::uint8_t pad[7] = {};
  std::chrono::milliseconds propagate_delay;
};
static_assert(std::has_unique_object_representations_v<HistoryCase>);

/// Drives the writer/reader swarm against `cluster` for `run_for` and
/// checks G1/G2. `label` names the configuration in failure messages (the
/// chaos variant puts the fault seed here so a violation is reproducible).
/// `min_snapshots`/`min_commits` guard against a silently wedged run.
void run_group_history(Cluster& cluster, std::chrono::milliseconds run_for,
                       std::uint64_t min_snapshots, std::uint64_t min_commits,
                       const std::string& label) {
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    for (std::uint32_t i = 0; i < kKeysPerGroup; ++i) {
      cluster.load(group_key(g, i), "0");
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> regressions{0};
  std::atomic<std::uint64_t> snapshots{0};
  std::atomic<std::uint64_t> commits{0};

  // One writer per node; each writer picks a random group and rewrites all
  // of its keys to the writer's next epoch (read-modify-write so conflicts
  // are detected).
  std::vector<std::thread> threads;
  for (NodeId n = 0; n < 3; ++n) {
    threads.emplace_back([&, n] {
      Session s = cluster.make_session(n, 0);
      Rng rng(n * 7919 + 13);
      std::uint64_t epoch = 1;
      while (!stop.load(std::memory_order_acquire)) {
        const auto g = static_cast<std::uint32_t>(rng.next_below(kGroups));
        auto tx = s.begin();
        bool ok = true;
        for (std::uint32_t i = 0; i < kKeysPerGroup && ok; ++i) {
          ok = s.read(tx, group_key(g, i)).has_value();
        }
        if (!ok) continue;
        const std::string tag =
            std::to_string(n) + ":" + std::to_string(epoch);
        for (std::uint32_t i = 0; i < kKeysPerGroup; ++i) {
          s.write(tx, group_key(g, i), tag);
        }
        if (s.commit(tx)) {
          ++epoch;
          commits.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Readers: snapshot one group per transaction; check G1 within the
  // snapshot and G2 against the last epoch this reader observed from each
  // (group, writer) pair.
  for (NodeId n = 0; n < 3; ++n) {
    threads.emplace_back([&, n] {
      Session s = cluster.make_session(n, 1);
      Rng rng(n * 104729 + 29);
      // last_seen[group][writer] = highest epoch observed.
      std::vector<std::array<std::uint64_t, 3>> last_seen(
          kGroups, {0, 0, 0});
      while (!stop.load(std::memory_order_acquire)) {
        const auto g = static_cast<std::uint32_t>(rng.next_below(kGroups));
        auto tx = s.begin(true);
        std::vector<std::string> values;
        bool ok = true;
        for (std::uint32_t i = 0; i < kKeysPerGroup && ok; ++i) {
          auto v = s.read(tx, group_key(g, i));
          ok = v.has_value();
          if (ok) values.push_back(*v);
        }
        if (!s.commit(tx) || !ok) continue;
        snapshots.fetch_add(1, std::memory_order_relaxed);
        // G1: all keys of the group carry the same tag.
        for (const auto& v : values) {
          if (v != values[0]) {
            torn.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
        // G2: the observed (writer, epoch) never regresses per group.
        if (values[0] != "0") {
          const auto colon = values[0].find(':');
          ASSERT_NE(colon, std::string::npos);
          const auto writer = static_cast<std::size_t>(
              std::strtoul(values[0].substr(0, colon).c_str(), nullptr, 10));
          const std::uint64_t epoch =
              std::strtoull(values[0].substr(colon + 1).c_str(), nullptr, 10);
          ASSERT_LT(writer, 3u);
          auto& seen = last_seen[g][writer];
          // A strictly smaller epoch from the same writer on the same
          // group means the snapshot moved backwards in that writer's
          // commit order. Note: seeing an *older other-writer* tag is
          // legal under PSI (the newer write may not be visible yet), so
          // only same-writer regressions count.
          if (epoch < seen) regressions.fetch_add(1, std::memory_order_relaxed);
          if (epoch > seen) seen = epoch;
        }
      }
    });
  }

  std::this_thread::sleep_for(run_for);
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  ASSERT_TRUE(cluster.quiesce(10s)) << label;

  ASSERT_GT(snapshots.load(), min_snapshots) << label;
  ASSERT_GT(commits.load(), min_commits) << label;
  EXPECT_EQ(torn.load(), 0u)
      << "read skew: torn group snapshot; " << label;
  EXPECT_EQ(regressions.load(), 0u)
      << "per-origin commit order regressed within a reader session; "
      << label;
}

class PsiHistoryTest : public ::testing::TestWithParam<HistoryCase> {};

TEST_P(PsiHistoryTest, GroupSnapshotsAreAtomicAndMonotone) {
  const auto param = GetParam();
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.protocol = param.protocol;
  cfg.net.one_way_latency = std::chrono::microseconds(20);
  cfg.net.propagate_extra_delay = param.propagate_delay;
  Cluster cluster(cfg);
  run_group_history(cluster, 400ms, /*min_snapshots=*/100,
                    /*min_commits=*/10, protocol_name(param.protocol));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PsiHistoryTest,
    ::testing::Values(HistoryCase{Protocol::kFwKv, 0ms},
                      HistoryCase{Protocol::kFwKv, 3ms},
                      HistoryCase{Protocol::kWalter, 0ms},
                      HistoryCase{Protocol::kWalter, 3ms},
                      HistoryCase{Protocol::kTwoPC, 0ms}),
    [](const auto& info) {
      std::string name = protocol_name(info.param.protocol);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name + (info.param.propagate_delay.count() > 0 ? "Delayed" : "");
    });

#ifdef FWKV_CHAOS_SUITE
// Chaos variant: the same G1/G2 guarantees must hold while the network
// drops, duplicates and reorders 5% of every message class and one link
// partitions mid-run. Every assertion carries the seed, so a violation is
// reproducible by constructing the same FaultPlan.
struct ChaosHistoryCase {
  ChaosHistoryCase(Protocol p, std::uint64_t s) : protocol(p), seed(s) {}
  Protocol protocol;
  std::uint8_t pad[7] = {};  // see HistoryCase
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<ChaosHistoryCase>);

class ChaosHistoryTest : public ::testing::TestWithParam<ChaosHistoryCase> {};

TEST_P(ChaosHistoryTest, GroupGuaranteesHoldUnderFaults) {
  const auto param = GetParam();
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.protocol = param.protocol;
  cfg.net.one_way_latency = std::chrono::microseconds(20);
  cfg.net.faults = net::FaultPlan::uniform(param.seed, 0.05, 0.05, 0.05);
  // One link flaps mid-run and heals.
  cfg.net.faults.partitions.push_back(
      net::LinkPartition{0, 1, 50ms, 60ms, /*bidirectional=*/true});
  // Recovery timeouts sized to the 20 us simulated latency so retries and
  // timeout aborts land inside the run window.
  cfg.protocol_config.rpc_timeout = 50ms;
  cfg.protocol_config.prepare_timeout = 30ms;
  cfg.protocol_config.decide_ack_timeout = 10ms;
  cfg.protocol_config.gap_request_delay = 3ms;
  Cluster cluster(cfg);
  run_group_history(
      cluster, 400ms, /*min_snapshots=*/20, /*min_commits=*/5,
      std::string("reproduce: FaultPlan::uniform(") +
          std::to_string(param.seed) + ", 0.05, 0.05, 0.05) + partition(0,1"
          ",50ms,60ms), protocol " + protocol_name(param.protocol));
}

std::vector<ChaosHistoryCase> chaos_history_cases() {
  const std::uint64_t seeds[] = {11, 23, 37, 41, 59, 67, 83, 97};
  std::vector<ChaosHistoryCase> cases;
  for (Protocol p :
       {Protocol::kFwKv, Protocol::kWalter, Protocol::kTwoPC}) {
    for (auto s : seeds) cases.push_back({p, s});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ChaosHistoryTest, ::testing::ValuesIn(chaos_history_cases()),
    [](const auto& info) {
      std::string name = protocol_name(info.param.protocol);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name + "Seed" + std::to_string(info.param.seed);
    });
#endif  // FWKV_CHAOS_SUITE

}  // namespace
}  // namespace fwkv
