// Targeted recovery scenarios for the fault-injection hardening: a
// participant stalling mid-Prepare, lost reads, redelivered Prepares, and
// gap repair of dropped Propagate traffic. The chaos property suites (psi_history,
// invariant) cover these paths statistically; here each mechanism is
// exercised in isolation with a deterministic schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/mv_node.hpp"
#include "core/session.hpp"

namespace fwkv {
namespace {

using namespace std::chrono_literals;

/// A key whose preferred node is `node`, starting the search at `hint`.
Key key_on_node(const Cluster& cluster, NodeId node, Key hint = 0) {
  Key k = hint;
  while (cluster.node_for_key(k) != node) ++k;
  return k;
}

class ParticipantStallTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(ParticipantStallTest, CoordinatorTimesOutAndLocksAreReleased) {
  // A participant stalls before it can process a Prepare: the link from
  // the coordinator's node 0 to node 1 takes 400 ms. The coordinator must
  // timeout-abort (not hang), and once the participant has processed the
  // late Prepare and abort Decide, its locks must be free: a retry of the
  // same writes, from node 2, whose link to node 1 is fast, commits.
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.protocol = GetParam();
  cfg.net.one_way_latency = std::chrono::microseconds(20);
  cfg.net.link_latency.assign(3,
                              std::vector<std::chrono::nanoseconds>(3, -1ns));
  cfg.net.link_latency[0][1] = 400ms;
  cfg.protocol_config.rpc_timeout = 60ms;
  Cluster cluster(cfg);

  const Key remote = key_on_node(cluster, 1);
  cluster.load(remote, "seed");

  Session s = cluster.make_session(0, 0);
  auto tx = s.begin();
  s.write(tx, remote, "stalled");  // blind write: only Prepare goes out
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(s.commit(tx)) << "commit succeeded against a stalled node";
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 350ms)
      << "coordinator waited out the stall instead of timing out";
  EXPECT_EQ(tx.abort_reason(), AbortReason::kVoteTimeout);
  EXPECT_GE(cluster.aggregate_stats().aborts_vote_timeout, 1u);

  // Let the stall elapse; the late Prepare (locks taken, vote dropped as
  // its round has ended) and abort Decide (locks released) land.
  std::this_thread::sleep_for(450ms);
  ASSERT_TRUE(cluster.quiesce(10s));

  Session fast = cluster.make_session(2, 0);
  auto retry = fast.begin();
  fast.write(retry, remote, "recovered");
  EXPECT_TRUE(fast.commit(retry))
      << "locks still held after the participant resumed";

  auto check = fast.begin(true);
  auto v = fast.read(check, remote);
  fast.commit(check);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "recovered");
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ParticipantStallTest,
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

class LostReadTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(LostReadTest, ReadWithNoReplyAbortsWithReadTimeout) {
  // Every ReadRequest is lost. A remote read re-sends like a Prepare and,
  // with no reply after the last attempt, aborts its transaction with
  // kReadTimeout: it must not pass for a read of an absent key, which a
  // read-only transaction could then commit. A read of the session's own
  // node is a direct call, which no fault touches.
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.protocol = GetParam();
  cfg.net.one_way_latency = std::chrono::microseconds(20);
  cfg.net.faults
      .message[static_cast<std::size_t>(net::MessageType::kReadRequest)]
      .drop = 1.0;
  cfg.protocol_config.rpc_timeout = 50ms;
  cfg.protocol_config.prepare_timeout = 10ms;
  Cluster cluster(cfg);
  const Key own = key_on_node(cluster, 0);
  const Key remote = key_on_node(cluster, 1);
  cluster.load(own, "o");
  cluster.load(remote, "r");

  Session s = cluster.make_session(0, 0);
  auto tx = s.begin(true);
  EXPECT_FALSE(s.read(tx, remote).has_value());
  EXPECT_EQ(tx.status(), TxStatus::kAborted);
  EXPECT_EQ(tx.abort_reason(), AbortReason::kReadTimeout);
  EXPECT_FALSE(s.read(tx, own).has_value()) << "an aborted tx read on";
  EXPECT_FALSE(s.commit(tx)) << "a read that got no answer passed as absent";
  EXPECT_EQ(tx.abort_reason(), AbortReason::kReadTimeout);

  const auto stats = cluster.aggregate_stats();
  EXPECT_EQ(stats.read_retries, cfg.protocol_config.prepare_attempts - 1);
  EXPECT_EQ(stats.prepare_retries, 0u);
  EXPECT_EQ(stats.total_commits(), 0u);

  auto own_only = s.begin(true);
  EXPECT_EQ(s.read(own_only, own), "o");
  EXPECT_TRUE(s.commit(own_only));

  ASSERT_TRUE(cluster.quiesce(10s));
  if (GetParam() != Protocol::kTwoPC) {
    for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
      EXPECT_EQ(dynamic_cast<const MvNodeBase&>(cluster.node(n))
                    .mv_store()
                    .reverse_index_size(),
                0u)
          << "node " << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, LostReadTest,
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

class DuplicatePrepareTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(DuplicatePrepareTest, RedeliveredPreparesAreIdempotent) {
  // Every Prepare is delivered twice. Participants must deduplicate by tx
  // id (the duplicate may race the original or arrive after the Decide);
  // a double-applied Prepare would deadlock its own retry on the lock
  // table or leak locks. All transfers and the final audit must succeed.
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.protocol = GetParam();
  cfg.net.one_way_latency = std::chrono::microseconds(20);
  cfg.net.faults.seed = 7;
  cfg.net.faults
      .message[static_cast<std::size_t>(net::MessageType::kPrepareRequest)]
      .duplicate = 1.0;
  cfg.protocol_config.rpc_timeout = 100ms;
  Cluster cluster(cfg);

  constexpr Key kKeys = 9;
  for (Key k = 0; k < kKeys; ++k) cluster.load(k, "0");

  Session s = cluster.make_session(0, 0);
  Rng rng(5);
  std::uint64_t committed = 0;
  for (int i = 0; i < 120; ++i) {
    const Key k = rng.next_below(kKeys);
    auto tx = s.begin();
    auto v = s.read(tx, k);
    if (!v) continue;
    s.write(tx, k, std::to_string(std::strtoll(v->c_str(), nullptr, 10) + 1));
    if (s.commit(tx)) ++committed;
  }
  ASSERT_TRUE(cluster.quiesce(10s));
  ASSERT_GT(committed, 0u);
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    const auto& node = dynamic_cast<const TwoPhaseNode&>(cluster.node(n));
    EXPECT_EQ(node.lock_table().size(), 0u)
        << "node " << n << ": a redelivered Prepare left a lock behind";
    EXPECT_EQ(node.participant_entries(), 0u) << "node " << n;
  }

  auto audit = s.begin(true);
  std::int64_t total = 0;
  for (Key k = 0; k < kKeys; ++k) {
    auto v = s.read(audit, k);
    ASSERT_TRUE(v.has_value());
    total += std::strtoll(v->c_str(), nullptr, 10);
  }
  s.commit(audit);
  EXPECT_EQ(static_cast<std::uint64_t>(total), committed)
      << "a duplicated Prepare was double-applied or lost";
  EXPECT_GT(cluster.aggregate_stats().dup_drops, 0u)
      << "dedup never fired although every Prepare was duplicated";
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, DuplicatePrepareTest,
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

class StalePrepareTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(StalePrepareTest, PrepareCopyLandingAfterTheNextCommitLocksNothing) {
  // Every Prepare is delivered twice, the copy up to kLate after the
  // original. The copy of the session's first Prepare lands after that
  // transaction's Decide and after the session's next commit. The
  // participant must take it for stale, by its session's decided mark, and
  // lock nothing: a fresh lock there would never be released.
  constexpr auto kLate = 200ms;
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.protocol = GetParam();
  cfg.net.one_way_latency = std::chrono::microseconds(20);
  cfg.net.faults.seed = 3;
  cfg.net.faults
      .message[static_cast<std::size_t>(net::MessageType::kPrepareRequest)]
      .duplicate = 1.0;
  cfg.net.faults.reorder_max_extra = kLate;
  Cluster cluster(cfg);

  std::atomic<std::int64_t> first_copy_ns{0};
  cluster.network().set_fault_hook([&](const net::FaultEvent& e) {
    if (e.type == net::MessageType::kPrepareRequest && e.from == 0 &&
        e.to == 1 && e.index == 0 && e.kind == net::FaultKind::kDuplicate) {
      first_copy_ns = e.extra_ns;
    }
  });

  const Key first = key_on_node(cluster, 1);
  const Key second = key_on_node(cluster, 1, first + 1);
  cluster.load(first, "0");
  cluster.load(second, "0");

  Session s = cluster.make_session(0, 0);
  const auto t0 = std::chrono::steady_clock::now();
  for (Key k : {first, second}) {
    auto tx = s.begin();
    s.write(tx, k, "1");  // blind write: node 1 sees a Prepare and a Decide
    ASSERT_TRUE(s.commit(tx));
  }
  const auto both_committed = std::chrono::steady_clock::now() - t0;
  ASSERT_GT(std::chrono::nanoseconds(first_copy_ns.load()), both_committed)
      << "seed 3 no longer delays the first copy past the next commit";

  ASSERT_TRUE(cluster.quiesce(10s));
  EXPECT_GE(cluster.aggregate_stats().dup_drops, 2u)
      << "a Prepare copy was not dropped";
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    const auto& node = dynamic_cast<const TwoPhaseNode&>(cluster.node(n));
    EXPECT_EQ(node.lock_table().size(), 0u)
        << "node " << n << ": a stale Prepare re-locked its keys";
    EXPECT_EQ(node.participant_entries(), 0u) << "node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, StalePrepareTest,
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

class GapRepairTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(GapRepairTest, SiteVcCatchesUpThroughResendRequests) {
  // Propagates from node 0 are dropped 90% of the time. Local-only commits
  // at node 0 reach the other sites only via Propagate, so a later
  // cross-site Decide arrives with a seq gap; the receiver's watchdog must
  // keep re-requesting the missing range until a replay survives the loss.
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.protocol = GetParam();
  cfg.net.one_way_latency = std::chrono::microseconds(20);
  cfg.net.faults.seed = 13;
  cfg.net.faults
      .message[static_cast<std::size_t>(net::MessageType::kPropagate)]
      .drop = 0.9;
  cfg.protocol_config.rpc_timeout = 100ms;
  cfg.protocol_config.gap_request_delay = 2ms;
  Cluster cluster(cfg);

  const Key local = key_on_node(cluster, 0);
  const Key remote = key_on_node(cluster, 1);
  cluster.load(local, "0");
  cluster.load(remote, "0");

  Session s = cluster.make_session(0, 0);
  for (int round = 0; round < 20; ++round) {
    // Local-only commits: their seqs travel by Propagate alone.
    for (int i = 0; i < 5; ++i) {
      auto tx = s.begin();
      s.write(tx, local, std::to_string(round * 10 + i));
      ASSERT_TRUE(s.commit(tx));
    }
    // A cross-site commit delivers a Decide with a seq beyond the dropped
    // Propagate range, opening a gap at node 1. It can abort while the
    // previous round's write lock waits behind a not-yet-repaired gap, so
    // retry until the repair lets it through.
    bool committed = false;
    for (int attempt = 0; attempt < 200 && !committed; ++attempt) {
      auto tx = s.begin();
      s.write(tx, remote, std::to_string(round));
      committed = s.commit(tx);
      if (!committed) std::this_thread::sleep_for(2ms);
    }
    ASSERT_TRUE(committed) << "cross-site commit starved in round " << round;
  }
  ASSERT_TRUE(cluster.quiesce(10s))
      << "gap repair failed to converge (seed 13, 90% Propagate loss)";

  const auto& origin =
      dynamic_cast<const MvNodeBase&>(cluster.node(0));
  const auto& receiver =
      dynamic_cast<const MvNodeBase&>(cluster.node(1));
  EXPECT_EQ(receiver.site_vc()[0], origin.site_vc()[0])
      << "node 1 never caught up with node 0's commit sequence";

  const auto stats = cluster.aggregate_stats();
  EXPECT_GT(stats.gap_requests, 0u) << "watchdog never requested the gap";
  EXPECT_GT(stats.gap_resends, 0u) << "origin never replayed the gap";
}

INSTANTIATE_TEST_SUITE_P(PsiProtocols, GapRepairTest,
                         ::testing::Values(Protocol::kFwKv,
                                           Protocol::kWalter),
                         [](const auto& info) {
                           return info.param == Protocol::kFwKv ? "FwKv"
                                                                : "Walter";
                         });

}  // namespace
}  // namespace fwkv
