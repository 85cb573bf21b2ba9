// Long-fork probe assertions (§2.4, §3.3): FW-KV first-contact reads are
// never stale w.r.t. committed-before-start updates; Walter's are, whenever
// propagation lags.
#include <gtest/gtest.h>

#include "runtime/longfork.hpp"

namespace fwkv::runtime {
namespace {

LongForkProbeConfig probe(Protocol p) {
  LongForkProbeConfig cfg;
  cfg.protocol = p;
  cfg.min_snapshots = 200;
  cfg.one_way_latency = std::chrono::microseconds(50);
  cfg.propagate_extra_delay = std::chrono::milliseconds(2);
  return cfg;
}

TEST(LongForkTest, FwKvNeverMissesSettledUpdates) {
  auto result = run_long_fork_probe(probe(Protocol::kFwKv));
  ASSERT_GT(result.snapshots, 100u) << "probe produced too little data";
  ASSERT_GT(result.updates_committed, 10u);
  EXPECT_EQ(result.stale_first_reads, 0u)
      << "an FW-KV first-contact read returned a version older than a "
         "commit that completed before the transaction began";
  EXPECT_EQ(result.stale_long_fork_pairs, 0u);
}

TEST(LongForkTest, WalterMissesSettledUpdatesUnderDelay) {
  auto result = run_long_fork_probe(probe(Protocol::kWalter));
  ASSERT_GT(result.snapshots, 100u);
  ASSERT_GT(result.updates_committed, 10u);
  EXPECT_GT(result.stale_first_reads, 0u)
      << "Walter with 2 ms propagate delay should serve stale reads";
}

TEST(LongForkTest, WalterStalenessScalesWithDelay) {
  // Updates 5 ms apart: at a 100 us delay a commit reaches the readers'
  // nodes within about the 1 ms propagation flush, so most first-contact
  // reads are fresh; at 10 ms every read misses the latest commit. Enough
  // snapshots to span many update intervals.
  auto short_delay = probe(Protocol::kWalter);
  short_delay.min_snapshots = 2000;
  short_delay.propagate_extra_delay = std::chrono::microseconds(100);
  short_delay.update_interval = std::chrono::milliseconds(5);
  auto long_delay = short_delay;
  long_delay.propagate_extra_delay = std::chrono::milliseconds(10);

  auto quick = run_long_fork_probe(short_delay);
  auto slow = run_long_fork_probe(long_delay);
  ASSERT_GT(quick.reads, 0u);
  ASSERT_GT(slow.reads, 0u);
  EXPECT_GT(slow.stale_first_read_rate(), quick.stale_first_read_rate())
      << "staleness should grow with the propagation delay";
}

}  // namespace
}  // namespace fwkv::runtime
