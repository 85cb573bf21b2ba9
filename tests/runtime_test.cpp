// Driver, metrics and report-table behaviour.
#include <gtest/gtest.h>

#include <sstream>

#include "runtime/driver.hpp"
#include "runtime/report.hpp"
#include "workload/ycsb.hpp"

namespace fwkv::runtime {
namespace {

TEST(ClientStatsTest, MergeSums) {
  ClientStats a;
  a.ro_commits = 2;
  a.update_commits = 3;
  a.aborts_lock = 1;
  a.reads = 10;
  ClientStats b;
  b.ro_commits = 5;
  b.aborts_validation = 4;
  b.stale_reads = 2;
  a.merge(b);
  EXPECT_EQ(a.ro_commits, 7u);
  EXPECT_EQ(a.commits(), 10u);
  EXPECT_EQ(a.aborts(), 5u);
  EXPECT_EQ(a.stale_reads, 2u);
}

TEST(RunResultTest, DerivedMetrics) {
  RunResult r;
  r.seconds = 2.0;
  r.clients.ro_commits = 600;
  r.clients.update_commits = 400;
  r.clients.aborts_validation = 100;
  r.clients.reads = 2000;
  r.clients.stale_reads = 200;
  r.clients.freshness_gap_sum = 400;
  r.clients.latency_ns_sum = 1'000'000;
  r.clients.latency_samples = 1000;

  EXPECT_DOUBLE_EQ(r.throughput_tps(), 500.0);
  EXPECT_DOUBLE_EQ(r.abort_rate(), 100.0 / 500.0);
  EXPECT_DOUBLE_EQ(r.stale_read_fraction(), 0.1);
  EXPECT_DOUBLE_EQ(r.mean_freshness_gap(), 0.2);
  EXPECT_DOUBLE_EQ(r.mean_latency_us(), 1.0);
}

TEST(RunResultTest, EmptyResultIsAllZero) {
  RunResult r;
  EXPECT_EQ(r.throughput_tps(), 0.0);
  EXPECT_EQ(r.abort_rate(), 0.0);
  EXPECT_EQ(r.stale_read_fraction(), 0.0);
  EXPECT_EQ(r.mean_latency_us(), 0.0);
}

TEST(RunResultTest, MergeTrialPoolsAndAverages) {
  RunResult a;
  a.seconds = 1.0;
  a.clients.update_commits = 100;
  RunResult b;
  b.seconds = 1.0;
  b.clients.update_commits = 300;
  a.merge_trial(b);
  EXPECT_DOUBLE_EQ(a.throughput_tps(), 200.0);  // (100+300)/2s
}

TEST(RunResultTest, SummaryMentionsProtocol) {
  RunResult r;
  r.protocol = Protocol::kWalter;
  r.seconds = 1;
  EXPECT_NE(r.summary().find("Walter"), std::string::npos);
}

TEST(RunWithRetriesTest, CountsAbortsAndFinalCommit) {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.net.one_way_latency = std::chrono::microseconds(5);
  Cluster cluster(cfg);
  cluster.load(1, "0");

  Session victim = cluster.make_session(0, 0);
  Session winner = cluster.make_session(1, 0);
  ClientStats stats;

  int attempt = 0;
  bool ok = run_with_retries(
      victim, stats, /*read_only=*/false, /*max_retries=*/10,
      [&](Session& s, Transaction& tx) {
        ++attempt;
        auto v = s.read(tx, 1);
        if (!v) return false;
        if (attempt == 1) {
          // Sabotage the first attempt: another client overwrites key 1
          // between our read and our commit.
          auto wtx = winner.begin();
          winner.read(wtx, 1);
          winner.write(wtx, 1, "интервенция");
          EXPECT_TRUE(winner.commit(wtx));
          EXPECT_TRUE(cluster.quiesce());
        }
        s.write(tx, 1, "mine");
        return true;
      });
  EXPECT_TRUE(ok);
  EXPECT_EQ(attempt, 2);
  EXPECT_EQ(stats.update_commits, 1u);
  EXPECT_EQ(stats.aborts(), 1u);
  ASSERT_TRUE(cluster.quiesce());
}

TEST(RunWithRetriesTest, TimedOutReadIsCountedAndRetried) {
  // Node 0's ReadRequests to node 1 are lost for the first 150 ms. The
  // first attempt's read and its one re-send (60 ms later) fall inside that
  // window, so the attempt aborts with kReadTimeout at about 180 ms; the
  // body's false on that aborted transaction is an abort, not an abandon,
  // and the retry reads and commits after the window.
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.net.one_way_latency = std::chrono::microseconds(5);
  cfg.net.faults.partitions.push_back(net::LinkPartition{
      0, 1, std::chrono::milliseconds(0), std::chrono::milliseconds(150),
      /*bidirectional=*/false});
  cfg.protocol_config.rpc_timeout = std::chrono::milliseconds(20);
  cfg.protocol_config.prepare_attempts = 2;
  cfg.protocol_config.prepare_timeout = std::chrono::milliseconds(60);
  Cluster cluster(cfg);
  Key k = 0;
  while (cluster.node_for_key(k) != 1) ++k;
  cluster.load(k, "0");

  Session s = cluster.make_session(0, 0);
  ClientStats stats;
  int attempt = 0;
  bool ok = run_with_retries(s, stats, /*read_only=*/false, /*max_retries=*/10,
                             [&](Session& session, Transaction& tx) {
                               ++attempt;
                               auto v = session.read(tx, k);
                               if (!v) return false;
                               session.write(tx, k, "1");
                               return true;
                             });
  EXPECT_TRUE(ok);
  EXPECT_EQ(attempt, 2);
  EXPECT_EQ(stats.update_commits, 1u);
  EXPECT_EQ(stats.aborts(), 1u);
  EXPECT_EQ(cluster.aggregate_stats().read_retries, 1u);
  ASSERT_TRUE(cluster.quiesce());
}

TEST(RunWithRetriesTest, AbandonReturnsFalseWithoutCounting) {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.net.one_way_latency = std::chrono::microseconds(5);
  Cluster cluster(cfg);
  Session s = cluster.make_session(0, 0);
  ClientStats stats;
  bool ok = run_with_retries(s, stats, true, 10,
                             [](Session&, Transaction&) { return false; });
  EXPECT_FALSE(ok);
  EXPECT_EQ(stats.commits(), 0u);
  EXPECT_EQ(stats.aborts(), 0u);
}

TEST(DriverTest, MeasuresOnlyTheMeasurementWindow) {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.net.one_way_latency = std::chrono::microseconds(10);
  Cluster cluster(cfg);
  ycsb::YcsbConfig ycfg;
  ycfg.total_keys = 200;
  ycfg.read_only_ratio = 0.5;
  ycsb::YcsbWorkload workload(ycfg);
  workload.load(cluster);

  DriverConfig dcfg;
  dcfg.clients_per_node = 2;
  dcfg.warmup = std::chrono::milliseconds(50);
  dcfg.measure = std::chrono::milliseconds(200);
  auto result = run_driver(cluster, workload, dcfg);
  EXPECT_GT(result.clients.commits(), 0u);
  EXPECT_NEAR(result.seconds, 0.2, 0.1);
  // Node-side counters were reset at the window edge: commits seen by the
  // nodes during measurement are close to client-side counts.
  EXPECT_LE(result.nodes.total_commits(),
            result.clients.commits() + result.clients.aborts() + 50);
  ASSERT_TRUE(cluster.quiesce());
}

TEST(TableTest, FormatsAlignedColumns) {
  Table t("demo", {"col", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("col"), std::string::npos);
}

TEST(TableTest, ShortRowsArePadded) {
  Table t("x", {"a", "b", "c"});
  t.add_row({"only-one"});
  std::ostringstream os;
  t.print(os);  // must not crash
  EXPECT_NE(os.str().find("only-one"), std::string::npos);
}

TEST(TableTest, Formatting) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
  EXPECT_EQ(Table::fmt_pct(0.256), "25.6%");
}

}  // namespace
}  // namespace fwkv::runtime
