// Cross-protocol behavioural tests: transaction semantics, abort reasons,
// commit machinery, in-order application, propagation batching.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "core/cluster.hpp"
#include "core/mv_node.hpp"
#include "core/session.hpp"

namespace fwkv {
namespace {

using namespace std::chrono_literals;

ClusterConfig base_config(Protocol p, std::uint32_t nodes = 3) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.protocol = p;
  cfg.net.one_way_latency = std::chrono::microseconds(20);
  cfg.net.serialize_messages = true;
  return cfg;
}

Key key_on(const Cluster& cluster, NodeId node, Key start = 0) {
  Key k = start;
  while (cluster.node_for_key(k) != node) ++k;
  return k;
}

/// Counts the messages the network sends, by type, from the moment it is
/// constructed (through the send hook).
class SentCounter {
 public:
  explicit SentCounter(Cluster& cluster) {
    cluster.network().set_send_hook(
        [this](NodeId, NodeId, const net::Message& m) {
          std::lock_guard<std::mutex> lock(mu_);
          ++counts_[net::type_of(m)];
        });
  }
  std::uint64_t operator[](net::MessageType t) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counts_.find(t);
    return it == counts_.end() ? 0 : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::map<net::MessageType, std::uint64_t> counts_;
};

std::string protocol_name(const ::testing::TestParamInfo<Protocol>& info) {
  switch (info.param) {
    case Protocol::kFwKv:
      return "FwKv";
    case Protocol::kWalter:
      return "Walter";
    default:
      return "TwoPC";
  }
}

class ProtocolTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(ProtocolTest, EmptyTransactionCommits) {
  Cluster cluster(base_config(GetParam()));
  Session s = cluster.make_session(0, 0);
  auto tx = s.begin();
  EXPECT_TRUE(s.commit(tx));
  EXPECT_EQ(tx.status(), TxStatus::kCommitted);
}

TEST_P(ProtocolTest, WriteOnlyTransaction) {
  Cluster cluster(base_config(GetParam()));
  cluster.load(1, "old");
  Session s = cluster.make_session(0, 0);
  auto tx = s.begin();
  s.write(tx, 1, "new");
  ASSERT_TRUE(s.commit(tx));
  ASSERT_TRUE(cluster.quiesce());
  auto check = s.begin(true);
  EXPECT_EQ(s.read(check, 1), "new");
  s.commit(check);
}

TEST_P(ProtocolTest, RepeatableReadsWithinTransaction) {
  Cluster cluster(base_config(GetParam()));
  cluster.load(1, "v1");
  Session reader = cluster.make_session(0, 0);
  Session writer = cluster.make_session(1, 0);

  auto tx = reader.begin(true);
  EXPECT_EQ(reader.read(tx, 1), "v1");
  auto wtx = writer.begin();
  writer.write(wtx, 1, "v2");
  ASSERT_TRUE(writer.commit(wtx));
  ASSERT_TRUE(cluster.quiesce());
  // The same transaction re-reads its own snapshot value.
  EXPECT_EQ(reader.read(tx, 1), "v1");
  if (GetParam() == Protocol::kTwoPC) {
    // The serializable baseline validates reads at commit: the overwrite
    // forces an abort (this is why its read-only transactions are costly).
    EXPECT_FALSE(reader.commit(tx));
  } else {
    // PSI read-only transactions are abort-free.
    EXPECT_TRUE(reader.commit(tx));
  }
}

TEST_P(ProtocolTest, WriteWriteConflictAbortsExactlyOne) {
  // Two transactions read-modify-write the same key concurrently: exactly
  // one commits, under every protocol (PSI forbids lost updates).
  Cluster cluster(base_config(GetParam()));
  cluster.load(5, "0");
  Session a = cluster.make_session(0, 0);
  Session b = cluster.make_session(1, 0);

  auto ta = a.begin();
  auto tb = b.begin();
  ASSERT_TRUE(a.read(ta, 5).has_value());
  ASSERT_TRUE(b.read(tb, 5).has_value());
  a.write(ta, 5, "from-a");
  b.write(tb, 5, "from-b");
  const bool a_ok = a.commit(ta);
  ASSERT_TRUE(cluster.quiesce());
  const bool b_ok = b.commit(tb);
  EXPECT_TRUE(a_ok);
  EXPECT_FALSE(b_ok) << "lost update: both conflicting writers committed";
  EXPECT_EQ(tb.abort_reason(), AbortReason::kValidation);
}

TEST_P(ProtocolTest, AbortReleasesLocksForLaterTransactions) {
  Cluster cluster(base_config(GetParam()));
  cluster.load(5, "0");
  Session a = cluster.make_session(0, 0);
  Session b = cluster.make_session(1, 0);

  // Make b abort on validation.
  auto tb = b.begin();
  ASSERT_TRUE(b.read(tb, 5).has_value());
  auto ta = a.begin();
  ASSERT_TRUE(a.read(ta, 5).has_value());
  a.write(ta, 5, "x");
  ASSERT_TRUE(a.commit(ta));
  ASSERT_TRUE(cluster.quiesce());
  b.write(tb, 5, "y");
  ASSERT_FALSE(b.commit(tb));

  // The key must be lockable again.
  auto tc = a.begin();
  ASSERT_TRUE(a.read(tc, 5).has_value());
  a.write(tc, 5, "z");
  EXPECT_TRUE(a.commit(tc));
}

TEST_P(ProtocolTest, MultiSiteCommitInstallsEverywhere) {
  Cluster cluster(base_config(GetParam()));
  const Key k0 = key_on(cluster, 0);
  const Key k1 = key_on(cluster, 1);
  const Key k2 = key_on(cluster, 2);
  cluster.load(k0, "a0");
  cluster.load(k1, "b0");
  cluster.load(k2, "c0");

  Session s = cluster.make_session(0, 0);
  auto tx = s.begin();
  s.write(tx, k0, "a1");
  s.write(tx, k1, "b1");
  s.write(tx, k2, "c1");
  ASSERT_TRUE(s.commit(tx));
  ASSERT_TRUE(cluster.quiesce());

  auto check = s.begin(true);
  EXPECT_EQ(s.read(check, k0), "a1");
  EXPECT_EQ(s.read(check, k1), "b1");
  EXPECT_EQ(s.read(check, k2), "c1");
  s.commit(check);
}

TEST_P(ProtocolTest, UserAbortDiscardsWrites) {
  Cluster cluster(base_config(GetParam()));
  cluster.load(3, "keep");
  Session s = cluster.make_session(0, 0);
  auto tx = s.begin();
  s.write(tx, 3, "discard");
  s.abort(tx);
  EXPECT_EQ(tx.status(), TxStatus::kAborted);
  EXPECT_EQ(tx.abort_reason(), AbortReason::kUserAbort);
  ASSERT_TRUE(cluster.quiesce());

  auto check = s.begin(true);
  EXPECT_EQ(s.read(check, 3), "keep");
  s.commit(check);
}

TEST_P(ProtocolTest, StatsCountCommitsAndReads) {
  Cluster cluster(base_config(GetParam()));
  cluster.load(1, "x");
  Session s = cluster.make_session(0, 0);
  for (int i = 0; i < 5; ++i) {
    auto tx = s.begin();
    ASSERT_TRUE(s.read(tx, 1).has_value());
    s.write(tx, 1, std::string("v") + std::to_string(i));
    ASSERT_TRUE(s.commit(tx));
  }
  for (int i = 0; i < 3; ++i) {
    auto ro = s.begin(true);
    ASSERT_TRUE(s.read(ro, 1).has_value());
    ASSERT_TRUE(s.commit(ro));
  }
  ASSERT_TRUE(cluster.quiesce());
  auto stats = cluster.aggregate_stats();
  EXPECT_EQ(stats.update_commits, 5u);
  EXPECT_EQ(stats.ro_commits, 3u);
  EXPECT_EQ(stats.reads_served, 8u);
}

/// Sits in front of one node and hands it every commit Decide `hold` late,
/// from the network's timer; abort Decides pass at once. A held Decide
/// counts as the node's pending work unless `counted` is false. Declare it
/// before the cluster: the network keeps a pointer to it.
class DecideHolder final : public net::NodeEndpoint {
 public:
  void wrap(Cluster& cluster, NodeId id, std::chrono::nanoseconds hold,
            bool counted = true) {
    network_ = &cluster.network();
    node_ = &cluster.node(id);
    hold_ = hold;
    counted_ = counted;
    network_->register_endpoint(id, this);
  }

  void handle_message(net::Message msg, NodeId from) override {
    const auto* d = std::get_if<net::DecideMessage>(&msg);
    if (d == nullptr || !d->outcome) {
      node_->handle_message(std::move(msg), from);
      return;
    }
    ++held_;
    network_->schedule(hold_, [this, msg = std::move(msg), from]() mutable {
      node_->handle_message(std::move(msg), from);
      --held_;
    });
  }

  std::size_t pending_work() const override {
    return node_->pending_work() + (counted_ ? held_.load() : 0);
  }

 private:
  net::SimNetwork* network_ = nullptr;
  net::NodeEndpoint* node_ = nullptr;
  std::chrono::nanoseconds hold_{0};
  bool counted_ = true;
  std::atomic<std::size_t> held_{0};
};

/// Every node's lock table holds no key.
void expect_no_locks(Cluster& cluster) {
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    EXPECT_EQ(
        dynamic_cast<TwoPhaseNode&>(cluster.node(n)).lock_table().size(), 0u)
        << "node " << n;
  }
}

/// The lock table of node `n`.
const store::LockTable& locks_of(Cluster& cluster, NodeId n) {
  return dynamic_cast<TwoPhaseNode&>(cluster.node(n)).lock_table();
}

/// Waits until `ready` holds, for at most 1 s.
template <class Pred>
bool eventually(Pred ready) {
  for (int i = 0; i < 10000 && !ready(); ++i) {
    std::this_thread::sleep_for(100us);
  }
  return ready();
}

// ---- Where a request's handler runs ----

/// Sits in front of one node and records the thread that runs each
/// ReadRequest and PrepareRequest handler. Declare it before the cluster:
/// the network keeps a pointer to it.
class ThreadRecorder final : public net::NodeEndpoint {
 public:
  void wrap(Cluster& cluster, NodeId id) {
    node_ = &cluster.node(id);
    cluster.network().register_endpoint(id, this);
  }

  void handle_message(net::Message msg, NodeId from) override {
    const net::MessageType t = net::type_of(msg);
    if (t == net::MessageType::kReadRequest ||
        t == net::MessageType::kPrepareRequest) {
      std::lock_guard<std::mutex> lock(mu_);
      threads_[t] = std::this_thread::get_id();
    }
    node_->handle_message(std::move(msg), from);
  }

  std::size_t pending_work() const override { return node_->pending_work(); }

  std::optional<std::thread::id> thread_of(net::MessageType t) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = threads_.find(t);
    if (it == threads_.end()) return std::nullopt;
    return it->second;
  }

 private:
  net::NodeEndpoint* node_ = nullptr;
  mutable std::mutex mu_;
  std::map<net::MessageType, std::thread::id> threads_;
};

/// A session on node 0 reads and writes a key of node 1, so both the read
/// and the prepare are requests to node 1.
void remote_read_modify_write(Cluster& cluster) {
  const Key k = key_on(cluster, 1);
  cluster.load(k, "v0");
  Session s = cluster.make_session(0, 0);
  auto tx = s.begin();
  ASSERT_EQ(s.read(tx, k), "v0");
  s.write(tx, k, "v1");
  ASSERT_TRUE(s.commit(tx));
  ASSERT_TRUE(cluster.quiesce());
}

TEST_P(ProtocolTest, ZeroLatencyRequestRunsOnTheCallersThread) {
  ThreadRecorder node1;
  auto cfg = base_config(GetParam());
  cfg.net.one_way_latency = 0ns;
  Cluster cluster(cfg);
  node1.wrap(cluster, 1);
  remote_read_modify_write(cluster);
  EXPECT_EQ(node1.thread_of(net::MessageType::kReadRequest),
            std::this_thread::get_id());
  EXPECT_EQ(node1.thread_of(net::MessageType::kPrepareRequest),
            std::this_thread::get_id());
}

/// The id of the network's timer thread.
std::thread::id timer_thread(Cluster& cluster) {
  std::promise<std::thread::id> timer;
  cluster.network().schedule(0ns, [&] {
    timer.set_value(std::this_thread::get_id());
  });
  return timer.get_future().get();
}

TEST_P(ProtocolTest, DelayedRequestRunsOnTheTimerWhenItsLocksAreFree) {
  // Off the timer, a request whose locks are all free is handled where it
  // lands: on the timer thread.
  ThreadRecorder node1;
  Cluster cluster(base_config(GetParam()));  // 20 us one way
  node1.wrap(cluster, 1);
  const std::thread::id timer = timer_thread(cluster);
  remote_read_modify_write(cluster);
  for (auto t :
       {net::MessageType::kReadRequest, net::MessageType::kPrepareRequest}) {
    EXPECT_EQ(node1.thread_of(t), timer) << net::type_name(t);
  }
}

TEST_P(ProtocolTest, ParkedPrepareVotesNoAtTheLockTimeout) {
  // A writer on node 0 holds a key of node 1, whose commit Decide reaches
  // node 1 kSlow late. Two more writers of the key prepare meanwhile, one
  // from node 2 at zero delay (on its own thread) and one from node 3 at
  // 20 us (on the timer). Each parks on the key and votes no kLockTimeout
  // after it, long before the Decide lands.
  constexpr auto kSlow = 400ms;
  auto cfg = base_config(GetParam(), 4);
  cfg.net.link_latency.assign(
      4, std::vector<std::chrono::nanoseconds>(4, cfg.net.one_way_latency));
  cfg.net.link_latency[2][1] = 0ns;
  DecideHolder node1;
  Cluster cluster(cfg);
  node1.wrap(cluster, 1, kSlow);
  const Key k = key_on(cluster, 1);
  cluster.load(k, "v0");

  Session first = cluster.make_session(0, 0);
  auto wtx = first.begin();
  first.write(wtx, k, "v1");
  // 2PC-baseline acknowledges its Decide, so its commit returns only once
  // the Decide lands.
  auto committed = std::async(std::launch::async,
                              [&] { return first.commit(wtx); });
  ASSERT_TRUE(eventually([&] {
    return locks_of(cluster, 1).held_exclusive(k, wtx.id());
  }));
  const auto decided_at = std::chrono::steady_clock::now() + kSlow;

  for (NodeId n : {NodeId{2}, NodeId{3}}) {
    Session late = cluster.make_session(n, 1);
    auto tx = late.begin();
    late.write(tx, k, "lost");
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(late.commit(tx)) << "node " << n;
    const auto took = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(tx.abort_reason(), AbortReason::kLockTimeout) << "node " << n;
    EXPECT_GE(took, kLockTimeout) << "node " << n;
    EXPECT_LT(took, kSlow / 4) << "node " << n;
  }
  EXPECT_LT(std::chrono::steady_clock::now(), decided_at)
      << "a prepare waited for the Decide";
  EXPECT_TRUE(committed.get());
  ASSERT_TRUE(cluster.quiesce());
  expect_no_locks(cluster);

  Session check = cluster.make_session(1, 2);
  auto ro = check.begin(true);
  EXPECT_EQ(check.read(ro, k), "v1");
  check.commit(ro);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolTest,
                         ::testing::Values(Protocol::kFwKv, Protocol::kWalter,
                                           Protocol::kTwoPC),
                         protocol_name);

// ---- A read of a key on the session's own node is a direct call ----

class OwnSiteTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(OwnSiteTest, ReadOfAnOwnKeySendsNoMessage) {
  Cluster cluster(base_config(GetParam()));
  const Key own = key_on(cluster, 0);
  const Key remote = key_on(cluster, 1);
  cluster.load(own, "o");
  cluster.load(remote, "r");
  Session s = cluster.make_session(0, 0);
  SentCounter sent(cluster);

  auto tx = s.begin(true);
  EXPECT_EQ(s.read(tx, own), "o");
  EXPECT_EQ(sent[net::MessageType::kReadRequest], 0u);
  EXPECT_EQ(sent[net::MessageType::kReadReturn], 0u);
  EXPECT_EQ(cluster.aggregate_stats().reads_served, 1u)
      << "the direct read must still count as served";

  // A remote read still takes its round trip.
  EXPECT_EQ(s.read(tx, remote), "r");
  EXPECT_EQ(sent[net::MessageType::kReadRequest], 1u);
  EXPECT_EQ(sent[net::MessageType::kReadReturn], 1u);
  EXPECT_EQ(cluster.aggregate_stats().reads_served, 2u);
  EXPECT_TRUE(s.commit(tx));
}

TEST_P(OwnSiteTest, MixedPrepareFoldsBothVotes) {
  // The coordinator's own site and a remote site vote on one transaction
  // whose reads of the own key took the direct path: both yes commits; a no
  // on either side aborts, and the other side's locks are released by the
  // abort Decide.
  Cluster cluster(base_config(GetParam()));
  const Key own = key_on(cluster, 0);
  const Key remote = key_on(cluster, 1);
  cluster.load(own, "o0");
  cluster.load(remote, "r0");
  Session s = cluster.make_session(0, 0);
  Session other = cluster.make_session(2, 0);

  auto overwrite = [&](Key k, const std::string& v) {
    auto tx = other.begin();
    ASSERT_TRUE(other.read(tx, k).has_value());
    other.write(tx, k, v);
    ASSERT_TRUE(other.commit(tx));
    ASSERT_TRUE(cluster.quiesce());
  };
  auto read_both = [&](Transaction& tx) {
    ASSERT_TRUE(s.read(tx, own).has_value());
    ASSERT_TRUE(s.read(tx, remote).has_value());
  };

  auto both_yes = s.begin();
  read_both(both_yes);
  s.write(both_yes, own, "o1");
  s.write(both_yes, remote, "r1");
  ASSERT_TRUE(s.commit(both_yes));
  ASSERT_TRUE(cluster.quiesce());

  // The remote participant votes no: the own site's yes-vote is undone.
  auto remote_no = s.begin();
  read_both(remote_no);
  overwrite(remote, "r2");
  s.write(remote_no, own, "o-lost");
  s.write(remote_no, remote, "r-lost");
  EXPECT_FALSE(s.commit(remote_no));
  EXPECT_EQ(remote_no.abort_reason(), AbortReason::kValidation);
  ASSERT_TRUE(cluster.quiesce());
  overwrite(own, "o3");  // the own key is lockable again

  // The own site votes no: the remote yes-vote is undone.
  auto own_no = s.begin();
  read_both(own_no);
  overwrite(own, "o4");
  s.write(own_no, own, "o-lost");
  s.write(own_no, remote, "r-lost");
  EXPECT_FALSE(s.commit(own_no));
  EXPECT_EQ(own_no.abort_reason(), AbortReason::kValidation);
  ASSERT_TRUE(cluster.quiesce());
  overwrite(remote, "r5");  // the remote key is lockable again

  auto check = s.begin(true);
  EXPECT_EQ(s.read(check, own), "o4");
  EXPECT_EQ(s.read(check, remote), "r5");
  s.commit(check);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, OwnSiteTest,
                         ::testing::Values(Protocol::kFwKv, Protocol::kWalter,
                                           Protocol::kTwoPC),
                         protocol_name);

// ---- PSI-specific machinery ----

class PsiProtocolTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(PsiProtocolTest, ReadOfAKeyLockedPastRpcTimeoutAborts) {
  // A writer on node 0 prepares a key of node 1, whose Decide reaches node
  // 1 kSlow late, far past rpc_timeout. Meanwhile two readers read the key:
  // one from node 2 at zero delay, parked by its own thread inside the
  // send, and one from node 3 at 20 us, parked by the timer. Neither waits
  // for the Decide: each parked read gives up on the lock at rpc_timeout,
  // and its reader aborts with kReadTimeout.
  constexpr auto kSlow = 400ms;
  constexpr auto kRpcTimeout = 80ms;
  auto cfg = base_config(GetParam(), 4);
  cfg.protocol_config.rpc_timeout = kRpcTimeout;
  cfg.net.link_latency.assign(
      4, std::vector<std::chrono::nanoseconds>(4, cfg.net.one_way_latency));
  cfg.net.link_latency[2][1] = 0ns;
  DecideHolder node1;
  Cluster cluster(cfg);
  node1.wrap(cluster, 1, kSlow);
  const Key k = key_on(cluster, 1);
  cluster.load(k, "v0");

  Session writer = cluster.make_session(0, 0);
  auto wtx = writer.begin();
  writer.write(wtx, k, "v1");
  // Node 1 holds the key exclusive until the Decide lands, kSlow from now.
  ASSERT_TRUE(writer.commit(wtx));
  const auto decided_at = std::chrono::steady_clock::now() + kSlow;

  struct Outcome {
    std::optional<Value> value;
    AbortReason reason;
    bool committed;
    std::chrono::nanoseconds took;
  };
  auto read_from = [&](NodeId n) {
    return std::async(std::launch::async, [&, n] {
      Session reader = cluster.make_session(n, 1);
      auto tx = reader.begin(true);
      const auto t0 = std::chrono::steady_clock::now();
      Outcome out;
      out.value = reader.read(tx, k);
      out.took = std::chrono::steady_clock::now() - t0;
      out.reason = tx.abort_reason();
      out.committed = reader.commit(tx);
      return out;
    });
  };
  auto inline_read = read_from(2);
  auto delayed_read = read_from(3);
  for (auto* read : {&inline_read, &delayed_read}) {
    const Outcome out = read->get();
    const char* which = read == &inline_read ? "inline" : "delayed";
    EXPECT_FALSE(out.value.has_value()) << which;
    EXPECT_EQ(out.reason, AbortReason::kReadTimeout) << which;
    EXPECT_FALSE(out.committed) << which;
    EXPECT_GE(out.took, kRpcTimeout) << which;
    EXPECT_LT(out.took, 2 * kRpcTimeout) << which;
  }
  EXPECT_LT(std::chrono::steady_clock::now(), decided_at)
      << "a read waited for the Decide";

  ASSERT_TRUE(cluster.quiesce());
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    EXPECT_EQ(dynamic_cast<MvNodeBase&>(cluster.node(n))
                  .mv_store()
                  .reverse_index_size(),
              0u)
        << "node " << n;
    EXPECT_EQ(
        dynamic_cast<TwoPhaseNode&>(cluster.node(n)).participant_entries(),
        0u)
        << "node " << n;
  }
  expect_no_locks(cluster);
}

TEST_P(PsiProtocolTest, ParkedReadIsAnsweredWhenTheDecideLands) {
  // A writer on node 0 holds a key of node 1 until its Decide lands, kSlow
  // late. Two readers read the key meanwhile: from node 2 at zero delay,
  // parked by the reader's own thread, and from node 3 at 20 us, parked by
  // the timer. Both get the written value once the Decide lands, and the
  // timer keeps running while they wait.
  constexpr auto kSlow = 300ms;
  auto cfg = base_config(GetParam(), 4);
  cfg.net.link_latency.assign(
      4, std::vector<std::chrono::nanoseconds>(4, cfg.net.one_way_latency));
  cfg.net.link_latency[2][1] = 0ns;
  DecideHolder node1;
  Cluster cluster(cfg);
  node1.wrap(cluster, 1, kSlow);
  const Key k = key_on(cluster, 1);
  cluster.load(k, "v0");

  Session writer = cluster.make_session(0, 0);
  auto wtx = writer.begin();
  writer.write(wtx, k, "v1");
  ASSERT_TRUE(writer.commit(wtx));
  const auto decided_at = std::chrono::steady_clock::now() + kSlow;
  // Walter's snapshots must include the write for the reads to return it.
  for (NodeId n : {NodeId{2}, NodeId{3}}) {
    auto& node = dynamic_cast<MvNodeBase&>(cluster.node(n));
    ASSERT_TRUE(eventually([&] { return node.site_vc()[0] == 1; }));
  }

  auto read_from = [&](NodeId n) {
    return std::async(std::launch::async, [&, n] {
      Session reader = cluster.make_session(n, 1);
      auto tx = reader.begin(true);
      auto v = reader.read(tx, k);
      reader.commit(tx);
      return std::make_pair(v, std::chrono::steady_clock::now());
    });
  };
  auto inline_read = read_from(2);
  auto delayed_read = read_from(3);
  ASSERT_TRUE(eventually([&] { return locks_of(cluster, 1).parked() == 2; }));
  std::promise<void> probe;
  cluster.network().schedule(0ns, [&] { probe.set_value(); });
  EXPECT_EQ(probe.get_future().wait_for(kSlow / 3), std::future_status::ready)
      << "the timer waited";
  EXPECT_EQ(inline_read.wait_for(0s), std::future_status::timeout);
  EXPECT_EQ(delayed_read.wait_for(0s), std::future_status::timeout);
  for (auto* read : {&inline_read, &delayed_read}) {
    const char* which = read == &inline_read ? "inline" : "delayed";
    const auto [value, done_at] = read->get();
    EXPECT_EQ(value, "v1") << which;
    EXPECT_GE(done_at, decided_at - kSlow / 3) << which;
  }
  ASSERT_TRUE(cluster.quiesce());
  expect_no_locks(cluster);
}

TEST_P(PsiProtocolTest, QuiesceWaitsForAParkedRead) {
  // A read parks on a key whose commit Decide is held back without counting
  // as pending work. Nothing is in flight and nothing is buffered, so only
  // the parked read keeps the cluster from being quiescent.
  constexpr auto kSlow = 300ms;
  DecideHolder node1;
  Cluster cluster(base_config(GetParam()));
  node1.wrap(cluster, 1, kSlow, /*counted=*/false);
  const Key k = key_on(cluster, 1);
  cluster.load(k, "v0");

  Session writer = cluster.make_session(0, 0);
  auto wtx = writer.begin();
  writer.write(wtx, k, "v1");
  ASSERT_TRUE(writer.commit(wtx));

  auto read = std::async(std::launch::async, [&] {
    Session reader = cluster.make_session(2, 1);
    auto tx = reader.begin(true);
    auto v = reader.read(tx, k);
    reader.commit(tx);
    return v;
  });
  ASSERT_TRUE(eventually([&] { return locks_of(cluster, 1).parked() == 1; }));
  EXPECT_FALSE(cluster.quiesce(kSlow / 3)) << "quiesced with a parked read";
  EXPECT_TRUE(read.get().has_value());
  ASSERT_TRUE(cluster.quiesce());
  expect_no_locks(cluster);
}

TEST_P(PsiProtocolTest, ContendedOwnNodeReadSendsNoMessage) {
  // A session on node 1 reads a key of its own node that a writer holds
  // until its Decide lands, at zero delay. The read parks and its reply
  // reaches the session without a message.
  constexpr auto kSlow = 300ms;
  auto cfg = base_config(GetParam());
  cfg.net.one_way_latency = 0ns;
  DecideHolder node1;
  Cluster cluster(cfg);
  node1.wrap(cluster, 1, kSlow);
  const Key k = key_on(cluster, 1);
  cluster.load(k, "v0");
  Session reader = cluster.make_session(1, 1);
  Session writer = cluster.make_session(0, 0);
  auto wtx = writer.begin();
  writer.write(wtx, k, "v1");
  ASSERT_TRUE(writer.commit(wtx));
  ASSERT_TRUE(locks_of(cluster, 1).held_exclusive(k, wtx.id()));
  SentCounter sent(cluster);

  auto ro = reader.begin(true);
  auto read =
      std::async(std::launch::async, [&] { return reader.read(ro, k); });
  ASSERT_TRUE(eventually([&] { return locks_of(cluster, 1).parked() == 1; }));
  EXPECT_EQ(read.wait_for(0s), std::future_status::timeout);
  // FW-KV's first read returns the installed version. Walter's snapshot
  // was fixed before the commit applied here, so it keeps the old one.
  EXPECT_EQ(read.get(), GetParam() == Protocol::kFwKv ? "v1" : "v0");
  EXPECT_EQ(sent[net::MessageType::kReadRequest], 0u);
  EXPECT_EQ(sent[net::MessageType::kReadReturn], 0u);
  EXPECT_TRUE(reader.commit(ro));
  ASSERT_TRUE(cluster.quiesce());
  expect_no_locks(cluster);
}

TEST_P(PsiProtocolTest, SiteVcAdvancesWithLocalCommits) {
  Cluster cluster(base_config(GetParam()));
  const Key k = key_on(cluster, 0);
  cluster.load(k, "v");
  Session s = cluster.make_session(0, 0);
  for (int i = 0; i < 4; ++i) {
    auto tx = s.begin();
    s.write(tx, k, std::string("v") + std::to_string(i));
    ASSERT_TRUE(s.commit(tx));
  }
  ASSERT_TRUE(cluster.quiesce());
  auto& node0 = dynamic_cast<MvNodeBase&>(cluster.node(0));
  EXPECT_EQ(node0.curr_seq(), 4u);
  EXPECT_EQ(node0.site_vc()[0], 4u);
}

TEST_P(PsiProtocolTest, PropagationCatchesUpRemoteSiteVcs) {
  Cluster cluster(base_config(GetParam()));
  const Key k = key_on(cluster, 0);
  cluster.load(k, "v");
  Session s = cluster.make_session(0, 0);
  for (int i = 0; i < 3; ++i) {
    auto tx = s.begin();
    s.write(tx, k, std::string("w") + std::to_string(i));
    ASSERT_TRUE(s.commit(tx));
  }
  ASSERT_TRUE(cluster.quiesce());
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    auto& node = dynamic_cast<MvNodeBase&>(cluster.node(n));
    EXPECT_EQ(node.site_vc()[0], 3u) << "node " << n << " missed propagation";
  }
}

TEST_P(PsiProtocolTest, DelayedPropagationBuffersInOrderEvents) {
  auto cfg = base_config(GetParam());
  cfg.net.propagate_extra_delay = 100ms;
  Cluster cluster(cfg);
  const Key local = key_on(cluster, 0);
  const Key remote = key_on(cluster, 1);
  cluster.load(local, "l");
  cluster.load(remote, "r");

  Session s = cluster.make_session(0, 0);
  // Commit 1: purely local at node 0 -> node 1 learns via (delayed)
  // propagate. Commit 2: writes node 1's key -> its Decide reaches node 1
  // quickly but must WAIT (buffer) for commit 1's propagate.
  auto t1 = s.begin();
  s.write(t1, local, "l1");
  ASSERT_TRUE(s.commit(t1));
  auto t2 = s.begin();
  s.write(t2, remote, "r1");
  ASSERT_TRUE(s.commit(t2));

  // Wait for the Decide to be buffered, but not as long as the propagate
  // is held (100 ms): before it arrives, node 1 must not have applied
  // seq 2.
  auto& node1 = dynamic_cast<MvNodeBase&>(cluster.node(1));
  const auto deadline = std::chrono::steady_clock::now() + 80ms;
  while (node1.pending_work() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_LT(node1.site_vc()[0], 2u);
  EXPECT_GE(node1.pending_work(), 1u) << "decide was not buffered";

  ASSERT_TRUE(cluster.quiesce(5s));
  EXPECT_EQ(node1.site_vc()[0], 2u);
  EXPECT_EQ(node1.pending_work(), 0u);
  Session s1 = cluster.make_session(1, 2);
  auto ro = s1.begin(true);
  EXPECT_EQ(s1.read(ro, remote), "r1");
  s1.commit(ro);
}

TEST_P(PsiProtocolTest, ReadOnlyTransactionsNeverAbort) {
  Cluster cluster(base_config(GetParam()));
  for (Key k = 0; k < 50; ++k) cluster.load(k, "v");
  std::atomic<bool> stop{false};
  std::atomic<bool> ro_failed{false};
  std::thread writer([&] {
    Session w = cluster.make_session(0, 0);
    int i = 0;
    while (!stop) {
      auto tx = w.begin();
      std::string value = "w";
      value += std::to_string(i);
      w.write(tx, static_cast<Key>(i % 50), value);
      w.commit(tx);
      ++i;
    }
  });
  std::thread reader([&] {
    Session r = cluster.make_session(1, 0);
    int i = 0;
    while (!stop) {
      auto tx = r.begin(true);
      r.read(tx, static_cast<Key>(i % 50));
      r.read(tx, static_cast<Key>((i + 7) % 50));
      if (!r.commit(tx)) ro_failed = true;
      ++i;
    }
  });
  std::this_thread::sleep_for(200ms);
  stop = true;
  writer.join();
  reader.join();
  EXPECT_FALSE(ro_failed.load());
  auto stats = cluster.aggregate_stats();
  EXPECT_GT(stats.ro_commits, 0u);
}

TEST_P(PsiProtocolTest, OwnKeyReadWaitsForAPreparedWriter) {
  // A writer on node 1 has prepared the key at node 0 (holding its lock)
  // and its Decide is held back. A read of the key by a session on node 0
  // runs on the session's thread, sends nothing, and must wait for the
  // Decide instead of reading around the prepared write. (2PC-baseline
  // reads take no lock; its prepare validates them instead.)
  Cluster cluster(base_config(GetParam()));
  const Key k = key_on(cluster, 0);
  cluster.load(k, "old");
  Session reader = cluster.make_session(0, 0);
  Session writer = cluster.make_session(1, 0);
  auto up = writer.begin();
  writer.write(up, k, "new");
  const TxId writer_id = up.id();

  std::atomic<bool> deciding{false};
  std::atomic<bool> decide_sent{false};
  std::atomic<int> reads_sent{0};
  cluster.network().set_send_hook(
      [&](NodeId, NodeId to, const net::Message& m) {
        if (std::holds_alternative<net::ReadRequest>(m)) ++reads_sent;
        const auto* d = std::get_if<net::DecideMessage>(&m);
        if (d == nullptr || to != 0 || d->tx != writer_id) return;
        deciding = true;
        std::this_thread::sleep_for(50ms);  // k stays prepared meanwhile
        decide_sent = true;
      });
  std::thread commit([&] { EXPECT_TRUE(writer.commit(up)); });
  while (!deciding) std::this_thread::yield();

  auto ro = reader.begin(true);
  auto v = reader.read(ro, k);
  EXPECT_TRUE(decide_sent.load()) << "the read did not wait for the Decide";
  EXPECT_EQ(reads_sent.load(), 0);
  // FW-KV's first read returns the installed version. Walter's snapshot
  // was fixed before the commit applied here, so it keeps the old one.
  EXPECT_EQ(v, GetParam() == Protocol::kFwKv ? "new" : "old");
  commit.join();
  EXPECT_TRUE(reader.commit(ro));
}

INSTANTIATE_TEST_SUITE_P(PsiProtocols, PsiProtocolTest,
                         ::testing::Values(Protocol::kFwKv, Protocol::kWalter),
                         [](const auto& info) {
                           return info.param == Protocol::kFwKv ? "FwKv"
                                                                : "Walter";
                         });

// ---- FW-KV specific ----

TEST(FwKvTest, FreshFirstReadAcrossNodes) {
  auto cfg = base_config(Protocol::kFwKv, 4);
  cfg.net.propagate_extra_delay = 1s;  // keep remote siteVCs stale
  Cluster cluster(cfg);
  const Key a = key_on(cluster, 1);
  const Key b = key_on(cluster, 2);
  cluster.load(a, "a0");
  cluster.load(b, "b0");

  Session w1 = cluster.make_session(1, 0);
  auto t1 = w1.begin();
  w1.write(t1, a, "a1");
  ASSERT_TRUE(w1.commit(t1));
  Session w2 = cluster.make_session(2, 0);
  auto t2 = w2.begin();
  w2.write(t2, b, "b1");
  ASSERT_TRUE(w2.commit(t2));
  std::this_thread::sleep_for(20ms);

  // A read-only transaction on node 3 reads both keys, each a first
  // contact with a distinct node: both must be the latest versions even
  // though node 3's siteVC knows nothing about the commits.
  Session r = cluster.make_session(3, 0);
  auto ro = r.begin(true);
  EXPECT_EQ(r.read(ro, a), "a1");
  EXPECT_EQ(r.read(ro, b), "b1");
  EXPECT_TRUE(r.commit(ro));
  EXPECT_EQ(ro.stale_reads(), 0u);
}

TEST(FwKvTest, StaleReadModifyWriteAbortsWithoutPrepareAndWaitsForSiteVc) {
  // Node 0 learns of node 1's commit only through a held-back Propagate,
  // but node 2 learned of it through its Decide, and node 2's next commit
  // installs a version of node 0's key `b` whose clock covers it. An
  // all-local read-modify-write on node 0 then reads `b` stale (Alg. 3
  // line 14 excludes the new version) and can never validate.
  auto cfg = base_config(Protocol::kFwKv);
  cfg.net.propagate_extra_delay = 500ms;
  // The catch-up wait is bounded by gap_request_delay; here it must
  // outlast the held-back Propagate.
  cfg.protocol_config.gap_request_delay = 10s;
  Cluster cluster(cfg);
  const Key a = key_on(cluster, 0);
  const Key b = key_on(cluster, 0, a + 1);
  const Key y = key_on(cluster, 2);
  cluster.load(a, "a0");
  cluster.load(b, "b0");
  cluster.load(y, "y0");
  auto& node0 = dynamic_cast<MvNodeBase&>(cluster.node(0));
  auto& node2 = dynamic_cast<MvNodeBase&>(cluster.node(2));
  auto wait_for = [](auto&& done) {
    for (int i = 0; i < 5000 && !done(); ++i) std::this_thread::sleep_for(1ms);
    return done();
  };

  Session s1 = cluster.make_session(1, 0);
  auto t1 = s1.begin();
  s1.write(t1, y, "y1");
  ASSERT_TRUE(s1.commit(t1));
  ASSERT_TRUE(wait_for([&] { return node2.site_vc()[1] == 1; }));
  Session s2 = cluster.make_session(2, 0);
  auto t2 = s2.begin();
  s2.write(t2, b, "b1");
  ASSERT_TRUE(s2.commit(t2));
  ASSERT_TRUE(wait_for([&] { return node0.site_vc()[2] == 1; }));

  std::atomic<int> prepares{0};
  cluster.network().set_send_hook(
      [&](NodeId, NodeId, const net::Message& m) {
        if (std::holds_alternative<net::PrepareRequest>(m)) ++prepares;
      });
  Session s0 = cluster.make_session(0, 0);
  auto doomed = s0.begin();
  ASSERT_EQ(s0.read(doomed, a), "a0");
  ASSERT_EQ(node0.site_vc()[1], 0u) << "the Propagate was not held back";
  ASSERT_EQ(s0.read(doomed, b), "b0");
  ASSERT_EQ(doomed.stale_reads(), 1u);
  s0.write(doomed, b, "b2");
  EXPECT_FALSE(s0.commit(doomed));
  EXPECT_EQ(doomed.abort_reason(), AbortReason::kValidation);
  EXPECT_EQ(prepares.load(), 0) << "a doomed attempt must not prepare";
  EXPECT_EQ(node0.site_vc()[1], 1u)
      << "commit returned before siteVC covered the missed version";

  int attempts = 0;
  bool committed = false;
  while (!committed && attempts < 3) {
    ++attempts;
    auto tx = s0.begin();
    ASSERT_TRUE(s0.read(tx, a).has_value());
    ASSERT_EQ(s0.read(tx, b), "b1");
    s0.write(tx, b, "b2");
    committed = s0.commit(tx);
  }
  EXPECT_TRUE(committed);
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(prepares.load(), 1);
  cluster.network().set_send_hook(nullptr);
  ASSERT_TRUE(cluster.quiesce(5s));
  const auto stats = cluster.aggregate_stats();
  EXPECT_EQ(stats.doomed_aborts, 1u);
  EXPECT_EQ(stats.catch_up_timeouts, 0u);
}

TEST(FwKvTest, CollectedSetReachesCoordinatorStats) {
  Cluster cluster(base_config(Protocol::kFwKv));
  const Key k = key_on(cluster, 1);
  cluster.load(k, "v");

  // A read-only transaction reads k and stays uncommitted, so its id is in
  // k's access set when the update prepares.
  Session ro_session = cluster.make_session(0, 0);
  auto ro = ro_session.begin(true);
  ASSERT_TRUE(ro_session.read(ro, k).has_value());

  Session up = cluster.make_session(2, 0);
  auto tx = up.begin();
  ASSERT_TRUE(up.read(tx, k).has_value());
  up.write(tx, k, "v2");
  ASSERT_TRUE(up.commit(tx));
  ASSERT_TRUE(cluster.quiesce());

  auto stats = cluster.aggregate_stats();
  EXPECT_EQ(stats.collected_count, 1u);
  EXPECT_GE(stats.collected_sum, 1u) << "anti-dependency was not collected";
  ro_session.commit(ro);
}

TEST(FwKvTest, OwnAndRemoteVotesBothContributeCollectedIds) {
  // Alg. 4 line 19 over a mixed prepare: one open reader sits in the own
  // key's access set, another in the remote key's. The writer's collected
  // set is the union of its direct vote and the remote vote.
  Cluster cluster(base_config(Protocol::kFwKv));
  const Key own = key_on(cluster, 0);
  const Key remote = key_on(cluster, 1);
  cluster.load(own, "o");
  cluster.load(remote, "r");
  Session r1 = cluster.make_session(2, 0);
  Session r2 = cluster.make_session(2, 1);
  auto ro1 = r1.begin(true);
  auto ro2 = r2.begin(true);
  ASSERT_TRUE(r1.read(ro1, own).has_value());
  ASSERT_TRUE(r2.read(ro2, remote).has_value());

  Session up = cluster.make_session(0, 0);
  auto tx = up.begin();
  up.write(tx, own, "o1");
  up.write(tx, remote, "r1");
  ASSERT_TRUE(up.commit(tx));
  ASSERT_TRUE(cluster.quiesce());

  auto stats = cluster.aggregate_stats();
  EXPECT_EQ(stats.collected_count, 1u);
  EXPECT_EQ(stats.collected_sum, 2u) << "a vote's collected ids were lost";
  r1.commit(ro1);
  r2.commit(ro2);
}

TEST(FwKvTest, SecondSessionWithSameLabelKeepsItsAntiDependency) {
  Cluster cluster(base_config(Protocol::kFwKv));
  const Key y = key_on(cluster, 1);
  cluster.load(y, "v");

  // A first session's read-only transaction reads y and finishes: its
  // session's watermark reaches node 1.
  Session first = cluster.make_session(0, 0);
  auto done = first.begin(true);
  ASSERT_TRUE(first.read(done, y).has_value());
  ASSERT_TRUE(first.commit(done));
  ASSERT_TRUE(cluster.quiesce());

  // A second session with the same (node, client) label gets ids of its
  // own. Its read-only transaction reads y and stays open while a writer
  // installs a new version of y.
  Session second = cluster.make_session(0, 0);
  auto ro = second.begin(true);
  EXPECT_NE(ro.id(), done.id()) << "a new session reused a finished tx id";
  ASSERT_TRUE(second.read(ro, y).has_value());

  Session writer = cluster.make_session(2, 0);
  auto tx = writer.begin();
  writer.write(tx, y, "v2");
  ASSERT_TRUE(writer.commit(tx));
  ASSERT_TRUE(cluster.quiesce());

  // Alg. 5 line 19: the writer stamps the open reader onto y's new version.
  bool stamped = false;
  auto& owner = dynamic_cast<MvNodeBase&>(cluster.node(1));
  ASSERT_TRUE(owner.mv_store().with_chain(y, [&](store::VersionChain& chain) {
    stamped = chain.latest().access_set_contains(ro.id());
  }));
  EXPECT_TRUE(stamped) << "the anti-dependency stamp for " << to_string(ro.id())
                       << " was dropped";
  EXPECT_TRUE(second.commit(ro));
}

TEST(ClusterTest, SessionBeyondTxIdFieldIsRefused) {
  // TxId has 16 bits for the session slot. The 65537th session must fail
  // loudly (in release builds too) rather than reuse slot 0's ids.
  Cluster cluster(base_config(Protocol::kFwKv));
  for (std::uint32_t i = 0; i <= 0xffffu; ++i) cluster.make_session(0, 0);
  EXPECT_THROW(cluster.make_session(0, 0), std::length_error);
}

TEST(ClusterTest, DestroyedWhileItsTickRuns) {
  // The cluster's tick re-arms itself from the timer thread it runs on, so
  // a cluster may be destroyed in the middle of a tick. A 10 us tick period
  // keeps the timer thread inside a tick much of the time; each cluster
  // lives a different few microseconds.
  int built = 0;
  for (Protocol p : {Protocol::kFwKv, Protocol::kWalter, Protocol::kTwoPC}) {
    const auto until = std::chrono::steady_clock::now() + 330ms;
    while (std::chrono::steady_clock::now() < until) {
      auto cfg = base_config(p, 4);
      cfg.protocol_config.propagate_flush_interval = 10us;
      Cluster cluster(cfg);
      std::this_thread::sleep_for(std::chrono::microseconds(built % 100));
      ++built;
    }
  }
  EXPECT_GE(built, 3);
}

static_assert(!std::is_copy_constructible_v<Session> &&
                  !std::is_copy_assignable_v<Session>,
              "two copies of a session would issue the same tx ids");
static_assert(std::is_nothrow_move_constructible_v<Session>);

TEST(SessionTest, DestroyedWithOpenTransactionHoldsNothingBack) {
  Cluster cluster(base_config(Protocol::kFwKv));
  const Key y = key_on(cluster, 1);
  cluster.load(y, "v");
  const auto& site = dynamic_cast<MvNodeBase&>(cluster.node(1)).mv_store();

  // Another session's reader stays open throughout.
  Session other = cluster.make_session(2, 0);
  auto open = other.begin(true);
  ASSERT_TRUE(other.read(open, y).has_value());

  auto reader = std::make_unique<Session>(cluster.make_session(0, 0));
  auto ro = reader->begin(true);
  ASSERT_TRUE(reader->read(ro, y).has_value());
  Session kept = std::move(*reader);
  reader.reset();  // the moved-from shell releases nothing
  ASSERT_TRUE(cluster.quiesce());
  EXPECT_EQ(site.access_set_footprint(), 2u);

  { Session gone = std::move(kept); }  // destroyed with `ro` still open
  ASSERT_TRUE(cluster.quiesce());
  EXPECT_EQ(site.access_set_footprint(), 1u)
      << "a destroyed session's open reader still holds its read";
  EXPECT_EQ(site.reverse_index_size(), 1u)
      << "an open reader must hold back only its own session";

  ASSERT_TRUE(other.commit(open));
  ASSERT_TRUE(cluster.quiesce());
  EXPECT_EQ(site.access_set_footprint(), 0u);
  EXPECT_EQ(site.reverse_index_size(), 0u);
}

TEST(WalterTest, SnapshotFixedAtBegin) {
  auto cfg = base_config(Protocol::kWalter, 3);
  cfg.net.propagate_extra_delay = 1s;
  Cluster cluster(cfg);
  const Key k = key_on(cluster, 1);
  cluster.load(k, "v0");

  Session reader = cluster.make_session(0, 0);
  auto ro = reader.begin(true);

  Session writer = cluster.make_session(1, 0);
  auto up = writer.begin();
  writer.write(up, k, "v1");
  ASSERT_TRUE(writer.commit(up));
  std::this_thread::sleep_for(20ms);

  // Walter: the reader's begin-time snapshot cannot include v1.
  EXPECT_EQ(reader.read(ro, k), "v0");
  reader.commit(ro);
}

TEST(TwoPcTest, ReadOnlyValidationAbortsOnConflict) {
  // 2PC-baseline read-only transactions validate their reads; overwriting
  // a read key before commit forces an abort — exactly the cost PSI's
  // abort-free read-only transactions avoid.
  Cluster cluster(base_config(Protocol::kTwoPC));
  cluster.load(1, "v0");
  Session reader = cluster.make_session(0, 0);
  Session writer = cluster.make_session(1, 0);

  auto ro = reader.begin(true);
  ASSERT_TRUE(reader.read(ro, 1).has_value());

  auto up = writer.begin();
  ASSERT_TRUE(writer.read(up, 1).has_value());
  writer.write(up, 1, "v1");
  ASSERT_TRUE(writer.commit(up));
  ASSERT_TRUE(cluster.quiesce());

  EXPECT_FALSE(reader.commit(ro))
      << "2PC read-only commit must fail validation after an overwrite";
  EXPECT_EQ(ro.abort_reason(), AbortReason::kValidation);
}

}  // namespace
}  // namespace fwkv
