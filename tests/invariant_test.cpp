// System-wide property tests: safety invariants under concurrent load and
// failure-ish conditions (delayed propagation).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <type_traits>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/mv_node.hpp"
#include "core/session.hpp"

namespace fwkv {
namespace {

using namespace std::chrono_literals;

std::int64_t parse(const Value& v) {
  return std::strtoll(v.c_str(), nullptr, 10);
}

// gtest names a test after the bytes of a parameter it cannot print, and
// ctest registers it under that name. `pad` spells out what would be
// padding, so no indeterminate byte reaches the name and it is the same
// on every build and run.
struct InvariantCase {
  InvariantCase(Protocol p, std::chrono::milliseconds delay)
      : protocol(p), propagate_delay(delay) {}
  Protocol protocol;
  std::uint8_t pad[7] = {};
  std::chrono::milliseconds propagate_delay;
};
static_assert(std::has_unique_object_representations_v<InvariantCase>);

/// Random transfers between accounts for `run_for`, then a full audit:
/// total balance must be exactly conserved. `label` names the
/// configuration in failure output (the chaos variant embeds its fault
/// seed so a violation is reproducible).
void run_money_conservation(Cluster& cluster,
                            std::chrono::milliseconds run_for,
                            const std::string& label) {
  constexpr Key kAccounts = 24;
  constexpr std::int64_t kInitial = 100;
  for (Key a = 0; a < kAccounts; ++a) {
    cluster.load(a, std::to_string(kInitial));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> commits{0};
  std::vector<std::thread> threads;
  for (std::uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    threads.emplace_back([&, n] {
      Session s = cluster.make_session(n, 0);
      Rng rng(n * 101 + 7);
      while (!stop.load(std::memory_order_acquire)) {
        Key from = rng.next_below(kAccounts);
        Key to = rng.next_below(kAccounts);
        if (from == to) continue;
        auto tx = s.begin();
        auto fb = s.read(tx, from);
        auto tb = s.read(tx, to);
        if (!fb || !tb) continue;
        const std::int64_t amount = 1 + static_cast<std::int64_t>(rng.next_below(5));
        s.write(tx, from, std::to_string(parse(*fb) - amount));
        s.write(tx, to, std::to_string(parse(*tb) + amount));
        if (s.commit(tx)) commits.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(run_for);
  stop = true;
  for (auto& t : threads) t.join();
  ASSERT_TRUE(cluster.quiesce(10s)) << label;
  ASSERT_GT(commits.load(), 0u) << label;

  // Under fault injection a read can exhaust its retries, which aborts the
  // audit; start it over: it must observe every account in one snapshot.
  Session auditor = cluster.make_session(0, 50);
  std::int64_t total = 0;
  Key a = 0;
  for (int attempt = 0; attempt < 20 && a < kAccounts; ++attempt) {
    auto audit = auditor.begin(true);
    total = 0;
    for (a = 0; a < kAccounts; ++a) {
      auto v = auditor.read(audit, a);
      if (!v) break;
      total += parse(*v);
    }
    if (a < kAccounts) {
      ASSERT_EQ(audit.abort_reason(), AbortReason::kReadTimeout)
          << "account " << a << " is missing; " << label;
    }
    auditor.commit(audit);
  }
  ASSERT_EQ(a, kAccounts) << "audit reads kept timing out; " << label;
  EXPECT_EQ(total, kInitial * kAccounts)
      << "conservation violated after " << commits.load() << " transfers; "
      << label;
}

class MoneyConservationTest
    : public ::testing::TestWithParam<InvariantCase> {};

TEST_P(MoneyConservationTest, TotalBalanceIsInvariant) {
  // Transfers read-modify-write both accounts: every protocol must detect
  // write-write conflicts, so no money is created or destroyed — even when
  // propagation lags (the Fig. 7 failure condition).
  const auto param = GetParam();
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.protocol = param.protocol;
  cfg.net.one_way_latency = std::chrono::microseconds(20);
  cfg.net.propagate_extra_delay = param.propagate_delay;
  Cluster cluster(cfg);
  run_money_conservation(cluster, 300ms, protocol_name(param.protocol));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MoneyConservationTest,
    ::testing::Values(InvariantCase{Protocol::kFwKv, 0ms},
                      InvariantCase{Protocol::kFwKv, 2ms},
                      InvariantCase{Protocol::kWalter, 0ms},
                      InvariantCase{Protocol::kWalter, 2ms},
                      InvariantCase{Protocol::kTwoPC, 0ms}),
    [](const auto& info) {
      std::string name = protocol_name(info.param.protocol);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name + (info.param.propagate_delay.count() > 0 ? "Delayed" : "");
    });

class ZeroDelayMoneyConservationTest
    : public ::testing::TestWithParam<Protocol> {};

TEST_P(ZeroDelayMoneyConservationTest, TotalBalanceIsInvariant) {
  // At 0 us every read and prepare runs on the sending client's thread,
  // concurrently with the other clients' handlers on theirs, and an
  // all-local retry is cheap enough to meet a stale read again and again.
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.protocol = GetParam();
  cfg.net.one_way_latency = std::chrono::microseconds(0);
  Cluster cluster(cfg);
  run_money_conservation(cluster, 300ms, protocol_name(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ZeroDelayMoneyConservationTest,
    ::testing::Values(Protocol::kFwKv, Protocol::kWalter, Protocol::kTwoPC),
    [](const auto& info) {
      std::string name = protocol_name(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

#ifdef FWKV_CHAOS_SUITE
// Chaos variant: conservation must survive 5% drop/duplicate/reorder on
// every message class plus a healing partition. Exercises timeout aborts,
// prepare/decide retries and gap repair end to end; the audit then proves
// none of that machinery double-applied or lost a committed transfer.
struct ChaosInvariantCase {
  ChaosInvariantCase(Protocol p, std::uint64_t s) : protocol(p), seed(s) {}
  Protocol protocol;
  std::uint8_t pad[7] = {};  // see InvariantCase
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<ChaosInvariantCase>);

class ChaosMoneyConservationTest
    : public ::testing::TestWithParam<ChaosInvariantCase> {};

TEST_P(ChaosMoneyConservationTest, TotalBalanceIsInvariantUnderFaults) {
  const auto param = GetParam();
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.protocol = param.protocol;
  cfg.net.one_way_latency = std::chrono::microseconds(20);
  cfg.net.faults = net::FaultPlan::uniform(param.seed, 0.05, 0.05, 0.05);
  cfg.net.faults.partitions.push_back(
      net::LinkPartition{1, 2, 40ms, 50ms, /*bidirectional=*/true});
  cfg.protocol_config.rpc_timeout = 50ms;
  cfg.protocol_config.prepare_timeout = 30ms;
  cfg.protocol_config.decide_ack_timeout = 10ms;
  cfg.protocol_config.gap_request_delay = 3ms;
  Cluster cluster(cfg);
  run_money_conservation(
      cluster, 300ms,
      std::string("reproduce: FaultPlan::uniform(") +
          std::to_string(param.seed) + ", 0.05, 0.05, 0.05) + partition(1,2"
          ",40ms,50ms), protocol " + protocol_name(param.protocol));
}

std::vector<ChaosInvariantCase> chaos_invariant_cases() {
  const std::uint64_t seeds[] = {11, 23, 37, 41, 59, 67, 83, 97};
  std::vector<ChaosInvariantCase> cases;
  for (Protocol p :
       {Protocol::kFwKv, Protocol::kWalter, Protocol::kTwoPC}) {
    for (auto s : seeds) cases.push_back({p, s});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ChaosMoneyConservationTest,
    ::testing::ValuesIn(chaos_invariant_cases()), [](const auto& info) {
      std::string name = protocol_name(info.param.protocol);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name + "Seed" + std::to_string(info.param.seed);
    });
#endif  // FWKV_CHAOS_SUITE

class SnapshotAtomicityTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(SnapshotAtomicityTest, PairsWrittenTogetherAreReadTogether) {
  // Writers always update (x, y) to the same counter in one transaction;
  // both keys live on the same node. Any reader — under any of the three
  // protocols — must observe x == y: a torn pair means the snapshot broke.
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.protocol = GetParam();
  cfg.net.one_way_latency = std::chrono::microseconds(20);
  Cluster cluster(cfg);

  Key x = 0;
  while (cluster.node_for_key(x) != 1) ++x;
  Key y = x + 1;
  while (cluster.node_for_key(y) != 1) ++y;
  cluster.load(x, "0");
  cluster.load(y, "0");

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> reads{0};

  std::thread writer([&] {
    Session s = cluster.make_session(1, 0);
    std::int64_t counter = 1;
    while (!stop.load(std::memory_order_acquire)) {
      auto tx = s.begin();
      auto xv = s.read(tx, x);
      auto yv = s.read(tx, y);
      if (!xv || !yv) continue;
      s.write(tx, x, std::to_string(counter));
      s.write(tx, y, std::to_string(counter));
      if (s.commit(tx)) ++counter;
    }
  });
  std::vector<std::thread> readers;
  for (NodeId n = 0; n < 3; ++n) {
    readers.emplace_back([&, n] {
      Session s = cluster.make_session(n, 1);
      while (!stop.load(std::memory_order_acquire)) {
        auto tx = s.begin(true);
        auto xv = s.read(tx, x);
        auto yv = s.read(tx, y);
        if (!s.commit(tx)) continue;  // 2PC validation may abort
        if (xv && yv) {
          reads.fetch_add(1);
          if (*xv != *yv) torn.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(300ms);
  stop = true;
  writer.join();
  for (auto& t : readers) t.join();
  ASSERT_TRUE(cluster.quiesce(10s));
  ASSERT_GT(reads.load(), 0u);
  EXPECT_EQ(torn.load(), 0u) << "read skew: snapshot returned a torn pair";
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, SnapshotAtomicityTest,
                         ::testing::Values(Protocol::kFwKv, Protocol::kWalter,
                                           Protocol::kTwoPC),
                         [](const auto& info) {
                           switch (info.param) {
                             case Protocol::kFwKv:
                               return "FwKv";
                             case Protocol::kWalter:
                               return "Walter";
                             default:
                               return "TwoPC";
                           }
                         });

TEST(MonotonicSiteVcTest, SiteVcNeverRegresses) {
  Cluster cluster([] {
    ClusterConfig cfg;
    cfg.num_nodes = 3;
    cfg.protocol = Protocol::kFwKv;
    cfg.net.one_way_latency = std::chrono::microseconds(20);
    return cfg;
  }());
  for (Key k = 0; k < 30; ++k) cluster.load(k, "v");

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Session s = cluster.make_session(0, 0);
    int i = 0;
    while (!stop) {
      auto tx = s.begin();
      s.write(tx, static_cast<Key>(i++ % 30), "w");
      s.commit(tx);
    }
  });

  auto& node1 = dynamic_cast<MvNodeBase&>(cluster.node(1));
  VectorClock last = node1.site_vc();
  bool regressed = false;
  for (int probe = 0; probe < 200; ++probe) {
    VectorClock now = node1.site_vc();
    if (!last.leq(now)) regressed = true;
    last = now;
    std::this_thread::sleep_for(1ms);
  }
  stop = true;
  writer.join();
  EXPECT_FALSE(regressed);
  ASSERT_TRUE(cluster.quiesce());
}

TEST(SerializableYcsbEquivalenceTest, ReadModifyWriteCountersAreExact) {
  // §5: "since update transactions in YCSB write the same keys they read,
  // the final execution is equivalent to ... Serializability". Counters
  // incremented by read-modify-write transactions must equal the number of
  // committed increments exactly.
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.protocol = Protocol::kFwKv;
  cfg.net.one_way_latency = std::chrono::microseconds(20);
  Cluster cluster(cfg);
  constexpr Key kKeys = 8;
  for (Key k = 0; k < kKeys; ++k) cluster.load(k, "0");

  std::atomic<std::uint64_t> committed_increments{0};
  std::vector<std::thread> threads;
  for (NodeId n = 0; n < 3; ++n) {
    threads.emplace_back([&, n] {
      Session s = cluster.make_session(n, 0);
      Rng rng(n + 1);
      for (int i = 0; i < 300; ++i) {
        Key k = rng.next_below(kKeys);
        auto tx = s.begin();
        auto v = s.read(tx, k);
        if (!v) continue;
        s.write(tx, k, std::to_string(parse(*v) + 1));
        if (s.commit(tx)) committed_increments.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(cluster.quiesce(10s));

  Session auditor = cluster.make_session(0, 9);
  auto audit = auditor.begin(true);
  std::int64_t total = 0;
  for (Key k = 0; k < kKeys; ++k) {
    total += parse(auditor.read(audit, k).value());
  }
  auditor.commit(audit);
  EXPECT_EQ(static_cast<std::uint64_t>(total), committed_increments.load());
}

}  // namespace
}  // namespace fwkv
