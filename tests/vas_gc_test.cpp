// Version-access-set garbage collection at cluster level (Alg. 4 line 4,
// Alg. 6 lines 5-10): once a cluster has quiesced, no access set or
// reverse index on any node may still hold the id of a finished read-only
// transaction, whether it committed or aborted, and wherever writers
// stamped it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/mv_node.hpp"
#include "core/session.hpp"

namespace fwkv {
namespace {

std::size_t total_footprint(Cluster& cluster) {
  std::size_t n = 0;
  for (NodeId i = 0; i < cluster.num_nodes(); ++i) {
    n += dynamic_cast<MvNodeBase&>(cluster.node(i))
             .mv_store()
             .access_set_footprint();
  }
  return n;
}

std::size_t total_index(Cluster& cluster) {
  std::size_t n = 0;
  for (NodeId i = 0; i < cluster.num_nodes(); ++i) {
    n += dynamic_cast<MvNodeBase&>(cluster.node(i))
             .mv_store()
             .reverse_index_size();
  }
  return n;
}

Key key_on(const Cluster& cluster, NodeId node, Key start = 0) {
  Key k = start;
  while (cluster.node_for_key(k) != node) ++k;
  return k;
}

TEST(VasGcTest, StampOnANodeTheReaderNeverContactedIsReclaimed) {
  // The reader reads x on node 1 only. A writer of x and y collects its id
  // at x's prepare and stamps it onto the new y on node 2 (Alg. 5 line 19),
  // so the reader's Remove has to reach node 2 as well.
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  Cluster cluster(cfg);
  const Key x = key_on(cluster, 1);
  const Key y = key_on(cluster, 2);
  cluster.load(x, "x0");
  cluster.load(y, "y0");

  Session reader = cluster.make_session(0, 0);
  Session writer = cluster.make_session(3, 0);
  Transaction ro = reader.begin(true);
  ASSERT_EQ(reader.read(ro, x), "x0");
  Transaction up = writer.begin();
  writer.write(up, x, "x1");
  writer.write(up, y, "y1");
  ASSERT_TRUE(writer.commit(up));
  ASSERT_TRUE(cluster.quiesce());
  ASSERT_GT(dynamic_cast<MvNodeBase&>(cluster.node(2))
                .mv_store()
                .access_set_footprint(),
            0u)
      << "the writer did not stamp the reader's id onto y";

  ASSERT_TRUE(reader.commit(ro));
  ASSERT_TRUE(cluster.quiesce());
  EXPECT_EQ(total_footprint(cluster), 0u);
  EXPECT_EQ(total_index(cluster), 0u);
}

TEST(VasGcTest, ReadOnlyAbortLeavesNoStamps) {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  Cluster cluster(cfg);
  for (Key k = 0; k < 8; ++k) {
    cluster.load(k, std::string("v") + std::to_string(k));
  }

  Session session = cluster.make_session(0, 0);
  Transaction ro = session.begin(true);
  for (Key k = 0; k < 8; ++k) ASSERT_TRUE(session.read(ro, k).has_value());
  ASSERT_EQ(total_footprint(cluster), 8u);
  session.abort(ro);
  ASSERT_TRUE(cluster.quiesce());
  EXPECT_EQ(total_footprint(cluster), 0u)
      << "an aborted read-only transaction left its visible reads behind";
  EXPECT_EQ(total_index(cluster), 0u);
}

TEST(VasGcTest, LateDuplicateReadRegistersNothing) {
  // A duplicate of a read-only ReadRequest (a retry, a duplicated
  // delivery) reaches the key's site after the reader's watermark did. It
  // is served, but must leave no trace: nothing would ever reclaim it.
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  Cluster cluster(cfg);
  const Key x = key_on(cluster, 1);
  cluster.load(x, "x0");

  Session reader = cluster.make_session(0, 0);
  Transaction ro = reader.begin(true);
  net::ReadRequest dup;
  dup.rpc_id = 1ull << 62;  // no call waits for it: the reply is dropped
  dup.reply_to = 0;
  dup.tx = net::TxDescriptor{ro.id(), true, ro.vc(), ro.has_read()};
  dup.key = x;
  ASSERT_EQ(reader.read(ro, x), "x0");
  ASSERT_TRUE(reader.commit(ro));
  ASSERT_TRUE(cluster.quiesce());
  ASSERT_EQ(total_footprint(cluster), 0u);

  cluster.network().send(0, 1, dup);
  ASSERT_TRUE(cluster.quiesce());
  EXPECT_EQ(total_footprint(cluster), 0u)
      << "a late read left a finished reader's id on the version";
  EXPECT_EQ(total_index(cluster), 0u);
}

TEST(VasGcTest, PeriodicFlushReclaimsWithoutQuiesce) {
  // No Propagate is due (nothing commits an update), so only the periodic
  // flush can carry the reader's id to the other nodes.
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  Cluster cluster(cfg);
  for (Key k = 0; k < 8; ++k) cluster.load(k, "v");

  Session session = cluster.make_session(0, 0);
  Transaction ro = session.begin(true);
  for (Key k = 0; k < 8; ++k) ASSERT_TRUE(session.read(ro, k).has_value());
  ASSERT_TRUE(session.commit(ro));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (total_footprint(cluster) != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(total_footprint(cluster), 0u);
  EXPECT_EQ(total_index(cluster), 0u);
}

TEST(VasGcTest, LostTableIsResentWhenAnotherSessionMoves) {
  // Session A leaves its read-only id on node 1, then finishes while node
  // 0's messages to node 1 are lost, and never moves again. Session B's
  // later move must bring A's watermark along: node 0 sends its whole
  // table of session watermarks, not only the ones that moved.
  using namespace std::chrono_literals;
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.net.faults.partitions.push_back(
      net::LinkPartition{0, 1, 200ms, 200ms, /*bidirectional=*/false});
  std::atomic<int> lost_tables{0};  // outlives the cluster's hook
  Cluster cluster(cfg);
  const Key x = key_on(cluster, 1);
  cluster.load(x, "x0");
  cluster.network().set_fault_hook([&](const net::FaultEvent& e) {
    if (e.from == 0 && e.to == 1 && e.type == net::MessageType::kRemove) {
      lost_tables.fetch_add(1);
    }
  });
  const auto start = std::chrono::steady_clock::now();
  auto& node1 = dynamic_cast<MvNodeBase&>(cluster.node(1)).mv_store();

  Session a = cluster.make_session(0, 0);
  Session b = cluster.make_session(0, 1);
  Transaction ro = a.begin(true);
  ASSERT_EQ(a.read(ro, x), "x0");  // before the partition
  ASSERT_GT(node1.access_set_footprint(), 0u);
  std::this_thread::sleep_until(start + 250ms);
  ASSERT_TRUE(a.commit(ro));  // inside it
  std::this_thread::sleep_until(start + 450ms);
  ASSERT_GT(lost_tables.load(), 0) << "A's watermark was not lost";

  Transaction moved = b.begin(true);
  ASSERT_TRUE(b.commit(moved));
  ASSERT_TRUE(cluster.quiesce());
  EXPECT_EQ(node1.reverse_index_size(), 0u)
      << "A's id is still registered on node 1";
  EXPECT_EQ(node1.access_set_footprint(), 0u);
}

TEST(VasGcTest, NoRemoveIsSentFromAClientThread) {
  // A read-only commit only publishes its session's watermark: the table
  // reaches the other nodes from the flush tick, never from the client.
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.net.one_way_latency = std::chrono::nanoseconds(0);
  Cluster cluster(cfg);
  for (Key k = 0; k < 8; ++k) cluster.load(k, "v");
  const std::thread::id client = std::this_thread::get_id();
  std::atomic<int> client_removes{0};
  cluster.network().set_send_hook(
      [&](NodeId, NodeId, const net::Message& m) {
        if (std::holds_alternative<net::RemoveMessage>(m) &&
            std::this_thread::get_id() == client) {
          client_removes.fetch_add(1);
        }
      });

  Session session = cluster.make_session(0, 0);
  for (int i = 0; i < 8; ++i) {
    Transaction ro = session.begin(true);
    for (Key k = 0; k < 8; ++k) ASSERT_TRUE(session.read(ro, k).has_value());
    ASSERT_TRUE(session.commit(ro));
  }
  cluster.network().set_send_hook(nullptr);
  EXPECT_EQ(client_removes.load(), 0);
  ASSERT_TRUE(cluster.quiesce());
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    EXPECT_EQ(dynamic_cast<MvNodeBase&>(cluster.node(n))
                  .mv_store()
                  .access_set_footprint(),
              0u)
        << "node " << n;
  }
}

class QuiescedFootprintTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(QuiescedFootprintTest, ContendedRunLeavesNoStamps) {
  // 4 nodes at 0 us, one client per node, 2-key transactions over 200
  // uniform keys, half of them read-only: writers collect and stamp
  // read-only ids on every participant, and aborted updates are dropped.
  constexpr Key kKeys = 200;
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  Cluster cluster(cfg);
  for (Key k = 0; k < kKeys; ++k) cluster.load(k, "0");

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ro_commits{0};
  std::atomic<std::uint64_t> upd_commits{0};
  std::vector<std::thread> clients;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    clients.emplace_back([&, n] {
      Session session = cluster.make_session(n, n);
      Rng rng(GetParam() * 1000 + n);
      while (!stop.load(std::memory_order_relaxed)) {
        const Key a = rng.next_below(kKeys);
        Key b = rng.next_below(kKeys - 1);
        if (b >= a) ++b;
        const bool read_only = rng.next_bool(0.5);
        Transaction tx = session.begin(read_only);
        session.read(tx, a);
        session.read(tx, b);
        if (!read_only) {
          session.write(tx, a, "a");
          session.write(tx, b, "b");
        }
        if (session.commit(tx)) {
          (read_only ? ro_commits : upd_commits).fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop = true;
  for (auto& t : clients) t.join();
  ASSERT_TRUE(cluster.quiesce());

  ASSERT_GT(ro_commits.load(), 100u);
  ASSERT_GT(upd_commits.load(), 100u);
  EXPECT_EQ(total_footprint(cluster), 0u);
  EXPECT_EQ(total_index(cluster), 0u)
      << "the reverse index still holds a finished id";
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    const auto& node = dynamic_cast<TwoPhaseNode&>(cluster.node(n));
    EXPECT_EQ(node.lock_table().size(), 0u)
        << "node " << n << " still holds or parks a lock";
    EXPECT_EQ(node.participant_entries(), 0u)
        << "node " << n << " still has an open ParticipantTable entry";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuiescedFootprintTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace fwkv
