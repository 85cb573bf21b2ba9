// DelayQueue, SimNetwork and ReplyBox behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/delay_queue.hpp"
#include "net/network.hpp"

namespace fwkv::net {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

TEST(DelayQueueTest, RunsTask) {
  DelayQueue q;
  std::atomic<bool> ran{false};
  q.run_after(0ms, [&] { ran = true; });
  for (int i = 0; i < 1000 && !ran; ++i) std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(ran);
}

TEST(DelayQueueTest, HonorsDelay) {
  DelayQueue q;
  std::atomic<bool> ran{false};
  const auto t0 = Clock::now();
  std::atomic<std::int64_t> elapsed_ms{0};
  q.run_after(30ms, [&] {
    elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     Clock::now() - t0)
                     .count();
    ran = true;
  });
  for (int i = 0; i < 2000 && !ran; ++i) std::this_thread::sleep_for(1ms);
  ASSERT_TRUE(ran);
  EXPECT_GE(elapsed_ms.load(), 28);
}

TEST(DelayQueueTest, OrdersByDeadlineThenSubmission) {
  DelayQueue q;
  std::mutex mu;
  std::vector<int> order;
  auto push = [&](int v) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(v);
  };
  q.run_after(20ms, [&] { push(3); });
  q.run_after(5ms, [&] { push(1); });
  q.run_after(5ms, [&] { push(2); });  // same deadline: submission order
  std::this_thread::sleep_for(100ms);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(DelayQueueTest, EarlierEntryPushedWhileSleepingRunsFirst) {
  // The dispatcher sleeps until the +50 ms entry; a +1 ms entry pushed
  // meanwhile must wake it.
  DelayQueue q;
  std::mutex mu;
  std::vector<int> order;
  std::atomic<int> ran{0};
  q.run_after(50ms, [&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(2);
    ++ran;
  });
  std::this_thread::sleep_for(5ms);
  const auto t0 = Clock::now();
  std::atomic<std::int64_t> early_after_ms{-1};
  q.run_after(1ms, [&] {
    early_after_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                         Clock::now() - t0)
                         .count();
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(1);
    ++ran;
  });
  for (int i = 0; i < 2000 && ran < 2; ++i) std::this_thread::sleep_for(1ms);
  ASSERT_EQ(ran.load(), 2);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_LT(early_after_ms.load(), 25);
}

TEST(DelayQueueTest, PendingCount) {
  DelayQueue q;
  q.run_after(1h, [] {});
  q.run_after(1h, [] {});
  EXPECT_EQ(q.pending(), 2u);
}

TEST(DelayQueueTest, ShutdownDropsPending) {
  std::atomic<bool> ran{false};
  {
    DelayQueue q;
    q.run_after(1h, [&] { ran = true; });
  }
  EXPECT_FALSE(ran);
}

TEST(DelayQueueTest, SubmitAfterShutdownIsNoop) {
  DelayQueue q;
  q.shutdown();
  q.run_after(0ms, [] { FAIL() << "ran after shutdown"; });
  std::this_thread::sleep_for(10ms);
}

// A minimal endpoint that records what it receives and can echo replies.
class RecordingEndpoint : public NodeEndpoint {
 public:
  explicit RecordingEndpoint(SimNetwork* net, NodeId id)
      : net_(net), id_(id) {}

  void handle_message(Message msg, NodeId from) override {
    if (auto* rr = std::get_if<ReadRequest>(&msg)) {
      ReadReturn ret;
      ret.rpc_id = rr->rpc_id;
      ret.found = true;
      ret.value = "echo-" + std::to_string(rr->key);
      net_->send(id_, rr->reply_to, std::move(ret));
      return;
    }
    received_.fetch_add(1);
    (void)from;
  }
  std::size_t pending_work() const override { return 0; }

  std::atomic<int> received_{0};

 private:
  SimNetwork* net_;
  NodeId id_;
};

NetConfig fast_net() {
  NetConfig cfg;
  cfg.one_way_latency = 0ns;
  return cfg;
}

// Runs `req` from `from` to `to` as a one-request round of session
// `slot`'s reply box. Returns the reply, or nullopt if none came by
// `deadline`.
template <typename Request>
std::optional<Message> call(SimNetwork& net, NodeId from, NodeId to,
                            Request req, Clock::time_point deadline,
                            std::uint32_t slot = 0) {
  ReplyBox& box = net.reply_box(slot);
  req.rpc_id = box.open(1);
  req.reply_to = from;
  net.send(from, to, std::move(req));
  box.wait(deadline);
  return std::move(box.close()[0]);
}

TEST(SimNetworkTest, DeliversOneWayMessages) {
  SimNetwork net(2, fast_net());
  RecordingEndpoint a(&net, 0);
  RecordingEndpoint b(&net, 1);
  net.register_endpoint(0, &a);
  net.register_endpoint(1, &b);

  net.send(0, 1, RemoveMessage{TxId(1, 1, 1), {TxId(5)}});
  ASSERT_TRUE(net.wait_quiescent(1s));
  EXPECT_EQ(b.received_.load(), 1);
  EXPECT_EQ(a.received_.load(), 0);
}

TEST(SimNetworkTest, RpcRoundTrip) {
  SimNetwork net(2, fast_net());
  RecordingEndpoint a(&net, 0);
  RecordingEndpoint b(&net, 1);
  net.register_endpoint(0, &a);
  net.register_endpoint(1, &b);

  ReadRequest req;
  req.tx.id = TxId(0, 0, 1);
  req.key = 42;
  auto reply = call(net, 0, 1, std::move(req), Clock::now() + 1s);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(std::get<ReadReturn>(*reply).value, "echo-42");
}

TEST(SimNetworkTest, RpcTimeoutReturnsNullopt) {
  SimNetwork net(2, fast_net());
  RecordingEndpoint a(&net, 0);
  // Endpoint 1 swallows requests (no reply): wire a recording endpoint but
  // send a Prepare, which it does not answer.
  RecordingEndpoint b(&net, 1);
  net.register_endpoint(0, &a);
  net.register_endpoint(1, &b);

  PrepareRequest req;
  req.tx = TxId(0, 0, 1);
  EXPECT_FALSE(call(net, 0, 1, std::move(req), Clock::now() + 20ms)
                   .has_value());
}

TEST(SimNetworkTest, LatencyIsApplied) {
  NetConfig cfg;
  cfg.one_way_latency = 20ms;
  SimNetwork net(2, cfg);
  RecordingEndpoint a(&net, 0);
  RecordingEndpoint b(&net, 1);
  net.register_endpoint(0, &a);
  net.register_endpoint(1, &b);

  const auto t0 = Clock::now();
  ReadRequest req;
  req.key = 1;
  ASSERT_TRUE(call(net, 0, 1, std::move(req), Clock::now() + 5s).has_value());
  const auto rtt = Clock::now() - t0;
  EXPECT_GE(rtt, 38ms);  // two 20 ms hops, minus timer slack
}

TEST(SimNetworkTest, LoopbackSkipsLatency) {
  NetConfig cfg;
  cfg.one_way_latency = 50ms;
  SimNetwork net(2, cfg);
  RecordingEndpoint a(&net, 0);
  net.register_endpoint(0, &a);

  const auto t0 = Clock::now();
  ReadRequest req;
  req.key = 1;
  ASSERT_TRUE(call(net, 0, 0, std::move(req), Clock::now() + 5s).has_value());
  EXPECT_LT(Clock::now() - t0, 40ms);
}

TEST(SimNetworkTest, PropagateExtraDelay) {
  NetConfig cfg;
  cfg.one_way_latency = 0ns;
  cfg.propagate_extra_delay = 30ms;
  SimNetwork net(2, cfg);
  RecordingEndpoint a(&net, 0);
  RecordingEndpoint b(&net, 1);
  net.register_endpoint(0, &a);
  net.register_endpoint(1, &b);

  net.send(0, 1, PropagateMessage{0, 1, 1});
  std::this_thread::sleep_for(10ms);
  EXPECT_EQ(b.received_.load(), 0) << "propagate arrived before its delay";
  ASSERT_TRUE(net.wait_quiescent(5s));
  EXPECT_EQ(b.received_.load(), 1);
}

TEST(SimNetworkTest, MessageCountersByType) {
  SimNetwork net(2, fast_net());
  RecordingEndpoint a(&net, 0);
  RecordingEndpoint b(&net, 1);
  net.register_endpoint(0, &a);
  net.register_endpoint(1, &b);

  net.send(0, 1, RemoveMessage{TxId(1, 1, 1), {TxId(1)}});
  net.send(0, 1, RemoveMessage{TxId(1, 1, 2), {TxId(2)}});
  net.send(0, 1, PropagateMessage{0, 1, 1});
  ASSERT_TRUE(net.wait_quiescent(1s));
  EXPECT_EQ(net.messages_sent(MessageType::kRemove), 2u);
  EXPECT_EQ(net.messages_sent(MessageType::kPropagate), 1u);
  EXPECT_EQ(net.messages_sent(MessageType::kReadRequest), 0u);
}

TEST(SimNetworkTest, ZeroDelaySendsFromManyThreadsAreAllCounted) {
  SimNetwork net(2, fast_net());
  RecordingEndpoint a(&net, 0);
  RecordingEndpoint b(&net, 1);
  net.register_endpoint(0, &a);
  net.register_endpoint(1, &b);

  // More threads than the network has tallies, so some threads share one.
  constexpr int kThreads = 80;
  constexpr int kSends = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&net] {
      for (int i = 0; i < kSends; ++i) {
        net.send(0, 1, PropagateMessage{0, 1, 1});
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(net.messages_sent(MessageType::kPropagate),
            std::uint64_t{kThreads} * kSends);
  EXPECT_EQ(b.received_.load(), kThreads * kSends);
  EXPECT_TRUE(net.wait_quiescent(1s));
}

// Forwards a Propagate until its hop budget (from_seq) runs out, then
// counts the chain's end. A hop that leaves an odd budget goes back to
// this node (delivered inline on the forwarding thread), one that leaves
// an even budget to the next node (delivered off the timer).
// A chain's last hop is handled slowly: the network is not quiet until
// that handler returns.
class HopEndpoint : public NodeEndpoint {
 public:
  HopEndpoint(SimNetwork* net, NodeId id, std::atomic<int>* ends)
      : net_(net), id_(id), ends_(ends) {}

  void handle_message(Message msg, NodeId /*from*/) override {
    auto& hop = std::get<PropagateMessage>(msg);
    if (hop.from_seq == 0) {
      std::this_thread::sleep_for(1ms);
      ends_->fetch_add(1);
      return;
    }
    --hop.from_seq;
    const NodeId next =
        hop.from_seq % 2 == 1 ? id_ : (id_ + 1) % net_->num_nodes();
    net_->send(id_, next, std::move(hop));
  }
  std::size_t pending_work() const override { return 0; }

 private:
  SimNetwork* net_;
  NodeId id_;
  std::atomic<int>* ends_;
};

TEST(SimNetworkTest, QuiescenceWaitsForEveryChainOfDelayedHops) {
  constexpr std::uint32_t kNodes = 4;
  constexpr int kChainsPerThread = 8;
  constexpr SeqNo kHops = 40;
  NetConfig cfg;
  cfg.one_way_latency = 20us;
  SimNetwork net(kNodes, cfg);
  std::atomic<int> ends{0};
  std::vector<std::unique_ptr<HopEndpoint>> endpoints;
  for (NodeId n = 0; n < kNodes; ++n) {
    endpoints.push_back(std::make_unique<HopEndpoint>(&net, n, &ends));
    net.register_endpoint(n, endpoints.back().get());
  }

  for (int round = 0; round < 10; ++round) {
    ends = 0;
    // Each thread starts its chains with a loopback, so a chain's first
    // hop runs on that thread and its later hops on the timer.
    std::vector<std::thread> starters;
    for (NodeId n = 0; n < kNodes; ++n) {
      starters.emplace_back([&net, n] {
        for (int c = 0; c < kChainsPerThread; ++c) {
          net.send(n, n, PropagateMessage{n, kHops, 0});
        }
      });
    }
    for (auto& t : starters) t.join();
    ASSERT_TRUE(net.wait_quiescent(5s)) << "round " << round;
    ASSERT_EQ(ends.load(), static_cast<int>(kNodes) * kChainsPerThread)
        << "round " << round;
  }
}

TEST(SimNetworkTest, SerializationModeCountsBytes) {
  NetConfig cfg = fast_net();
  cfg.serialize_messages = true;
  SimNetwork net(2, cfg);
  RecordingEndpoint a(&net, 0);
  RecordingEndpoint b(&net, 1);
  net.register_endpoint(0, &a);
  net.register_endpoint(1, &b);

  net.send(0, 1, RemoveMessage{TxId(1, 1, 1), {TxId(1)}});
  ASSERT_TRUE(net.wait_quiescent(1s));
  EXPECT_GT(net.bytes_sent(), 0u);
  EXPECT_EQ(b.received_.load(), 1);
}

TEST(SimNetworkTest, SendHookObservesMessages) {
  SimNetwork net(2, fast_net());
  RecordingEndpoint a(&net, 0);
  RecordingEndpoint b(&net, 1);
  net.register_endpoint(0, &a);
  net.register_endpoint(1, &b);

  std::atomic<int> hooked{0};
  net.set_send_hook([&](NodeId from, NodeId to, const Message& m) {
    EXPECT_EQ(from, 0u);
    EXPECT_EQ(to, 1u);
    EXPECT_EQ(type_of(m), MessageType::kRemove);
    hooked.fetch_add(1);
  });
  net.send(0, 1, RemoveMessage{TxId(1, 1, 1), {TxId(1)}});
  ASSERT_TRUE(net.wait_quiescent(1s));
  EXPECT_EQ(hooked.load(), 1);
}

TEST(SimNetworkTest, QuiescentWhenIdle) {
  SimNetwork net(2, fast_net());
  RecordingEndpoint a(&net, 0);
  net.register_endpoint(0, &a);
  EXPECT_TRUE(net.wait_quiescent(100ms));
}

TEST(SimNetworkTest, ScheduleRunsTask) {
  SimNetwork net(1, fast_net());
  std::atomic<bool> ran{false};
  net.schedule(1ms, [&] { ran = true; });
  for (int i = 0; i < 1000 && !ran; ++i) std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(ran);
}

TEST(SimNetworkTest, LinkLatencyMatrixOverridesPerLink) {
  NetConfig cfg;
  cfg.one_way_latency = 20ms;
  // 3 nodes; only the 0->2 link is slower. -1 entries fall back to
  // one_way_latency.
  cfg.link_latency.assign(3, std::vector<std::chrono::nanoseconds>(3, -1ns));
  cfg.link_latency[0][2] = 40ms;
  SimNetwork net(3, cfg);
  RecordingEndpoint a(&net, 0);
  RecordingEndpoint b(&net, 1);
  RecordingEndpoint c(&net, 2);
  net.register_endpoint(0, &a);
  net.register_endpoint(1, &b);
  net.register_endpoint(2, &c);

  auto rtt_to = [&](NodeId to) {
    const auto t0 = Clock::now();
    ReadRequest req;
    req.key = 7;
    EXPECT_TRUE(call(net, 0, to, std::move(req), Clock::now() + 5s)
                    .has_value());
    return Clock::now() - t0;
  };
  // A delivery is never early, so each round trip takes at least its two
  // links' latencies.
  EXPECT_GE(rtt_to(1), 40ms);  // 20 ms (fallback) out, 20 ms back
  EXPECT_GE(rtt_to(2), 60ms);  // 40 ms out, 20 ms (fallback) back
}

TEST(SimNetworkTest, TwoRegionMatrixValues) {
  const auto m = SimNetwork::two_region_matrix(4, 2, 1ms, 30ms);
  ASSERT_EQ(m.size(), 4u);
  for (std::uint32_t from = 0; from < 4; ++from) {
    ASSERT_EQ(m[from].size(), 4u);
    for (std::uint32_t to = 0; to < 4; ++to) {
      const bool cross = (from < 2) != (to < 2);
      EXPECT_EQ(m[from][to], cross ? 30ms : 1ms)
          << "link " << from << "->" << to;
    }
  }
}

TEST(SimNetworkTest, JitterStaysWithinBounds) {
  NetConfig cfg;
  cfg.one_way_latency = 5ms;
  cfg.jitter = 5ms;
  SimNetwork net(2, cfg);
  RecordingEndpoint a(&net, 0);
  RecordingEndpoint b(&net, 1);
  net.register_endpoint(0, &a);
  net.register_endpoint(1, &b);

  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    ReadRequest req;
    req.key = static_cast<Key>(i);
    ASSERT_TRUE(
        call(net, 0, 1, std::move(req), Clock::now() + 5s).has_value());
    const auto rtt = Clock::now() - t0;
    // Two hops of [5 ms, 10 ms] each; generous upper slack for scheduling,
    // but a unit mistake (jitter in us vs ms, or unbounded draw) would trip.
    EXPECT_GE(rtt, 8ms);
    EXPECT_LT(rtt, 500ms);
  }
}

// ---- reply routing -------------------------------------------------------

TEST(ReplyBoxTest, ReplyToAnEarlierRoundIsDropped) {
  SimNetwork net(2, fast_net());
  RecordingEndpoint a(&net, 0);
  RecordingEndpoint b(&net, 1);
  net.register_endpoint(0, &a);
  net.register_endpoint(1, &b);

  // A Prepare times out and is re-sent under a new round; then the vote to
  // the first send arrives.
  ReplyBox& box = net.reply_box(3);
  const std::uint64_t first = box.open(1);
  EXPECT_FALSE(box.wait(Clock::now()));
  const std::uint64_t second = box.reopen();
  ASSERT_NE(first, second);
  VoteReply late;
  late.rpc_id = first;
  net.send(1, 0, late);
  EXPECT_FALSE(box.wait(Clock::now()))
      << "a reply to the earlier round filled the slot";
  VoteReply vote;
  vote.rpc_id = second;
  vote.ok = true;
  net.send(1, 0, vote);
  ASSERT_TRUE(box.wait(Clock::now()));
  EXPECT_TRUE(std::get<VoteReply>(*box.close()[0]).ok);

  // Neither earlier round's reply fills the next round's slot.
  box.open(1);
  net.send(1, 0, late);
  net.send(1, 0, vote);
  EXPECT_FALSE(box.wait(Clock::now()));
  EXPECT_FALSE(box.close()[0].has_value());
  ASSERT_TRUE(net.wait_quiescent(1s));
  EXPECT_EQ(a.received_.load(), 0);
}

TEST(ReplyBoxTest, ReplyNamingNoOpenSlotIsDropped) {
  SimNetwork net(2, fast_net());
  RecordingEndpoint a(&net, 0);
  RecordingEndpoint b(&net, 1);
  net.register_endpoint(0, &a);
  net.register_endpoint(1, &b);

  ReplyBox& box = net.reply_box(0);
  const std::uint64_t base = box.open(1);
  ReadReturn stray;
  stray.rpc_id = 1ull << 62;  // above the id's 56 bits
  net.send(1, 0, stray);
  stray.rpc_id = ReplyBox::rpc_id(7, 1, 0);  // a session with no box
  net.send(1, 0, stray);
  stray.rpc_id = base + 1;  // past the round's last request
  net.send(1, 0, stray);
  EXPECT_FALSE(box.wait(Clock::now()));
  EXPECT_FALSE(box.close()[0].has_value());
  stray.rpc_id = base;  // the round is closed
  net.send(1, 0, stray);
  ASSERT_TRUE(net.wait_quiescent(1s));
  EXPECT_FALSE(box.close()[0].has_value());
  EXPECT_EQ(a.received_.load(), 0) << "a reply reached the endpoint";
}

TEST(ReplyBoxTest, DuplicatedReplyFillsItsSlotOnce) {
  NetConfig cfg = fast_net();
  cfg.faults.seed = 5;
  cfg.faults.message[static_cast<std::size_t>(MessageType::kReadReturn)]
      .duplicate = 1.0;
  SimNetwork net(3, cfg);
  RecordingEndpoint a(&net, 0);
  RecordingEndpoint b(&net, 1);
  RecordingEndpoint c(&net, 2);
  net.register_endpoint(0, &a);
  net.register_endpoint(1, &b);
  net.register_endpoint(2, &c);

  ReplyBox& box = net.reply_box(0);
  const std::uint64_t base = box.open(2);
  ReadRequest req;
  req.rpc_id = base;
  req.key = 10;
  net.send(0, 1, req);
  ASSERT_TRUE(net.wait_quiescent(1s));  // the copy comes off the timer
  EXPECT_EQ(net.faults_injected(FaultKind::kDuplicate), 1u);
  EXPECT_FALSE(box.wait(Clock::now()))
      << "the duplicate counted as the round's other reply";
  req.rpc_id = base + 1;
  req.key = 11;
  net.send(0, 2, req);
  ASSERT_TRUE(box.wait(Clock::now() + 1s));
  ASSERT_TRUE(net.wait_quiescent(1s));
  auto& slots = box.close();
  EXPECT_EQ(std::get<ReadReturn>(*slots[0]).value, "echo-10");
  EXPECT_EQ(std::get<ReadReturn>(*slots[1]).value, "echo-11");
}

TEST(ReplyBoxTest, ConcurrentSessionsGetOnlyTheirOwnReplies) {
  NetConfig cfg;
  cfg.one_way_latency = 20us;
  SimNetwork net(3, cfg);
  RecordingEndpoint a(&net, 0);
  RecordingEndpoint b(&net, 1);
  RecordingEndpoint c(&net, 2);
  net.register_endpoint(0, &a);
  net.register_endpoint(1, &b);
  net.register_endpoint(2, &c);

  // Two sessions of node 0, each reading one key from nodes 1 and 2 per
  // round; a key names its session, round and request.
  auto run = [&](std::uint32_t slot) {
    ReplyBox& box = net.reply_box(slot);
    for (Key round = 0; round < 200; ++round) {
      const std::uint64_t base = box.open(2);
      for (std::size_t i = 0; i < 2; ++i) {
        ReadRequest req;
        req.rpc_id = base + i;
        req.key = slot * 1000000 + round * 2 + i;
        net.send(0, static_cast<NodeId>(1 + i), std::move(req));
      }
      const bool full = box.wait(Clock::now() + 5s);
      auto& slots = box.close();
      ASSERT_TRUE(full) << "session " << slot << " round " << round;
      for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(std::get<ReadReturn>(*slots[i]).value,
                  std::string("echo-") +
                      std::to_string(slot * 1000000 + round * 2 + i));
      }
    }
  };
  std::thread first(run, 1);
  std::thread second(run, 2);
  first.join();
  second.join();
  ASSERT_TRUE(net.wait_quiescent(1s));
  EXPECT_EQ(a.received_.load(), 0);
}

TEST(ReplyBoxTest, NetworkRefusesMoreNodesThanARoundHolds) {
  // The rpc id gives a round's request index 8 bits, one per node.
  EXPECT_THROW(SimNetwork(ReplyBox::kMaxRequests + 1, fast_net()),
               std::length_error);
}

// ---- deterministic fault injection -------------------------------------

TEST(FaultInjectorTest, SameSeedSameDecisions) {
  FaultPlan plan = FaultPlan::uniform(/*seed=*/77, 0.3, 0.3, 0.3);
  FaultInjector x(plan, 4);
  FaultInjector y(plan, 4);
  for (int i = 0; i < 2000; ++i) {
    const NodeId from = static_cast<NodeId>(i % 4);
    const NodeId to = static_cast<NodeId>((i + 1) % 4);
    const auto type = static_cast<MessageType>(i % kNumMessageTypes);
    const auto dx = x.decide(from, to, type, 0);
    const auto dy = y.decide(from, to, type, 0);
    EXPECT_EQ(dx.drop, dy.drop);
    EXPECT_EQ(dx.duplicate, dy.duplicate);
    EXPECT_EQ(dx.extra_ns, dy.extra_ns);
    EXPECT_EQ(dx.dup_extra_ns, dy.dup_extra_ns);
    EXPECT_EQ(dx.index, dy.index);
  }
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  FaultPlan a = FaultPlan::uniform(1, 0.5);
  FaultPlan b = FaultPlan::uniform(2, 0.5);
  FaultInjector x(a, 2);
  FaultInjector y(b, 2);
  int differing = 0;
  for (int i = 0; i < 500; ++i) {
    if (x.decide(0, 1, MessageType::kDecide, 0).drop !=
        y.decide(0, 1, MessageType::kDecide, 0).drop) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(SimNetworkFaultTest, SameSeedSameFaultSchedule) {
  // Two networks with the same plan, fed the same single-threaded message
  // sequence, must emit identical fault-event streams.
  auto run = [] {
    NetConfig cfg;
    cfg.one_way_latency = 0ns;
    cfg.faults = FaultPlan::uniform(/*seed=*/42, 0.25, 0.25, 0.25);
    SimNetwork net(2, cfg);
    RecordingEndpoint a(&net, 0);
    RecordingEndpoint b(&net, 1);
    net.register_endpoint(0, &a);
    net.register_endpoint(1, &b);
    std::vector<FaultEvent> events;
    std::mutex mu;
    net.set_fault_hook([&](const FaultEvent& ev) {
      std::lock_guard<std::mutex> lock(mu);
      events.push_back(ev);
    });
    for (int i = 0; i < 400; ++i) {
      net.send(0, 1, RemoveMessage{TxId(1, 1, static_cast<std::uint32_t>(i)),
                                   {TxId(static_cast<Key>(i))}});
    }
    EXPECT_TRUE(net.wait_quiescent(5s));
    return events;
  };
  const auto first = run();
  const auto second = run();
  EXPECT_FALSE(first.empty()) << "25% fault rates injected nothing";
  EXPECT_EQ(first, second);
}

TEST(SimNetworkFaultTest, DropProbabilityOneDropsEverything) {
  NetConfig cfg;
  cfg.one_way_latency = 0ns;
  cfg.faults.seed = 9;
  cfg.faults.message[static_cast<std::size_t>(MessageType::kRemove)].drop =
      1.0;
  SimNetwork net(2, cfg);
  RecordingEndpoint a(&net, 0);
  RecordingEndpoint b(&net, 1);
  net.register_endpoint(0, &a);
  net.register_endpoint(1, &b);

  for (int i = 0; i < 50; ++i) {
    net.send(0, 1, RemoveMessage{TxId(1, 1, static_cast<std::uint32_t>(i)),
                                 {TxId(1)}});
  }
  ASSERT_TRUE(net.wait_quiescent(1s));
  EXPECT_EQ(b.received_.load(), 0);
  EXPECT_EQ(net.faults_injected(FaultKind::kDrop), 50u);
  // Untargeted classes are untouched.
  net.send(0, 1, PropagateMessage{0, 1, 1});
  ASSERT_TRUE(net.wait_quiescent(1s));
  EXPECT_EQ(b.received_.load(), 1);
}

TEST(SimNetworkFaultTest, LoopbackIsNeverFaulted) {
  NetConfig cfg;
  cfg.one_way_latency = 0ns;
  cfg.faults = FaultPlan::uniform(/*seed=*/5, /*drop=*/1.0);
  SimNetwork net(2, cfg);
  RecordingEndpoint a(&net, 0);
  net.register_endpoint(0, &a);
  for (int i = 0; i < 20; ++i) {
    net.send(0, 0, RemoveMessage{TxId(1, 1, static_cast<std::uint32_t>(i)),
                                 {TxId(1)}});
  }
  ASSERT_TRUE(net.wait_quiescent(1s));
  EXPECT_EQ(a.received_.load(), 20);
  EXPECT_EQ(net.faults_injected(FaultKind::kDrop), 0u);
}

TEST(SimNetworkFaultTest, DuplicateProbabilityOneDeliversTwice) {
  NetConfig cfg;
  cfg.one_way_latency = 0ns;
  cfg.faults.seed = 11;
  cfg.faults.message[static_cast<std::size_t>(MessageType::kRemove)]
      .duplicate = 1.0;
  SimNetwork net(2, cfg);
  RecordingEndpoint a(&net, 0);
  RecordingEndpoint b(&net, 1);
  net.register_endpoint(0, &a);
  net.register_endpoint(1, &b);

  for (int i = 0; i < 25; ++i) {
    net.send(0, 1, RemoveMessage{TxId(1, 1, static_cast<std::uint32_t>(i)),
                                 {TxId(1)}});
  }
  ASSERT_TRUE(net.wait_quiescent(5s));
  EXPECT_EQ(b.received_.load(), 50);
  EXPECT_EQ(net.faults_injected(FaultKind::kDuplicate), 25u);
}

TEST(SimNetworkFaultTest, PartitionWindowDropsThenHeals) {
  NetConfig cfg;
  cfg.one_way_latency = 0ns;
  cfg.faults.seed = 3;
  cfg.faults.partitions.push_back(
      LinkPartition{/*a=*/0, /*b=*/1, /*start=*/0ms, /*duration=*/150ms,
                    /*bidirectional=*/true});
  SimNetwork net(2, cfg);
  RecordingEndpoint a(&net, 0);
  RecordingEndpoint b(&net, 1);
  net.register_endpoint(0, &a);
  net.register_endpoint(1, &b);

  net.send(0, 1, RemoveMessage{TxId(1, 1, 1), {TxId(1)}});
  net.send(1, 0, RemoveMessage{TxId(1, 1, 2), {TxId(2)}});
  ASSERT_TRUE(net.wait_quiescent(1s));
  EXPECT_EQ(a.received_.load(), 0);
  EXPECT_EQ(b.received_.load(), 0);
  EXPECT_EQ(net.faults_injected(FaultKind::kPartitionDrop), 2u);

  std::this_thread::sleep_for(200ms);  // past the heal time
  net.send(0, 1, RemoveMessage{TxId(1, 1, 3), {TxId(3)}});
  ASSERT_TRUE(net.wait_quiescent(1s));
  EXPECT_EQ(b.received_.load(), 1);
  EXPECT_EQ(net.faults_injected(FaultKind::kPartitionDrop), 2u);
}

TEST(SimNetworkFaultTest, InertPlanInstallsNoInjector) {
  SimNetwork net(2, fast_net());
  EXPECT_FALSE(net.faults_active());
  NetConfig cfg;
  cfg.faults = FaultPlan::uniform(1, 0.01);
  SimNetwork chaotic(2, cfg);
  EXPECT_TRUE(chaotic.faults_active());
}

}  // namespace
}  // namespace fwkv::net
