// In-process simulated cluster network.
//
// Faithful to the paper's system model (§2.1): nodes share no memory (all
// interaction is through Message values), channels are reliable and
// asynchronous, and there is no bound on delivery delay. The simulation
// substitutes CloudLab's 10 Gb/s fabric (~20 us one-way) with a DelayQueue
// that delivers each message after a configurable latency; the delayed-
// Propagate experiments (Figs. 7, 9a) add a per-class extra delay exactly as
// the paper "intentionally delays the asynchronous propagate messages".
//
// A coordinator's synchronous request/reply round (read, prepare, acked
// Decide) waits in its session's ReplyBox. The network routes a reply to
// that box by the rpc id it echoes, by indexing and not through any
// handler, and drops a reply whose round has ended.

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/histogram.hpp"
#include "net/delay_queue.hpp"
#include "net/fault.hpp"
#include "net/message.hpp"

namespace fwkv::net {

struct NetConfig {
  /// One-way delivery latency applied to every message.
  std::chrono::nanoseconds one_way_latency{std::chrono::microseconds(20)};
  /// Additional latency applied to Propagate messages only (Fig. 7/9a knob).
  std::chrono::nanoseconds propagate_extra_delay{0};
  /// Uniform jitter in [0, jitter] added per message (network variance).
  std::chrono::nanoseconds jitter{0};
  /// Optional per-link one-way latency override: entry [from][to]
  /// replaces one_way_latency when non-negative. Lets experiments model
  /// geo-distributed regions (Walter's original deployment target).
  /// Empty = uniform latency.
  std::vector<std::vector<std::chrono::nanoseconds>> link_latency;
  /// Round-trip every message through the binary codec. Costs CPU; on by
  /// default in tests, off in throughput benchmarks.
  bool serialize_messages = false;
  /// Deterministic fault injection (chaos testing). The default plan is
  /// inert, in which case the fault layer is never consulted on the send
  /// path (no-op guarantee for benchmarks and the existing test suite).
  /// Loopback (from == to) traffic is never faulted: a node does not lose
  /// messages to itself.
  FaultPlan faults;
};

/// Implemented by protocol nodes; invoked on the delivering thread (the
/// sender's at zero delay, else the timer's). A handler never waits: a read
/// or prepare whose key is locked parks in its node's LockTable.
class NodeEndpoint {
 public:
  virtual ~NodeEndpoint() = default;
  virtual void handle_message(Message msg, NodeId from) = 0;
  /// Buffered Decides/Propagates awaiting in-order application, and parked
  /// lock requests. Used by quiescence detection.
  virtual std::size_t pending_work() const = 0;
};

/// The reply slots of one coordinating session, which runs one
/// request/reply round at a time on one thread. open() starts a round;
/// request i of the round carries rpc_id base + i, and the reply that
/// echoes it fills slot i. A reply is stored only while its round is open
/// and its slot is empty: a reply to an earlier round, a duplicate, and a
/// reply after close() are dropped.
///
/// rpc_id layout: [session slot:16][round:32][index:8]. Round 0 is never
/// used, so an id is non-zero and unique in its low 56 bits.
class ReplyBox {
 public:
  /// Requests per round: a round sends at most one request to each node.
  static constexpr std::size_t kMaxRequests = 256;

  static constexpr std::uint64_t rpc_id(std::uint32_t slot,
                                        std::uint32_t round,
                                        std::size_t index) {
    return (std::uint64_t{slot} << 40) | (std::uint64_t{round} << 8) | index;
  }
  static constexpr std::uint32_t slot_of(std::uint64_t rpc_id) {
    return (rpc_id >> 40) & 0xffffu;
  }

  explicit ReplyBox(std::uint32_t slot) : slot_(slot) {}

  /// Starts a round of `n` requests, every slot empty. Returns the rpc_id
  /// of request 0.
  std::uint64_t open(std::size_t n);
  /// Starts a new round that keeps the replies already stored, to re-send
  /// the requests whose slots are empty. Returns the new rpc_id of request
  /// 0. Replies to the earlier round are dropped from now on.
  std::uint64_t reopen() {
    std::lock_guard<std::mutex> lock(mu_);
    return next_round_locked();
  }
  /// True if slot i holds a reply.
  bool filled(std::size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_[i].has_value();
  }
  /// Waits until every slot is filled or `deadline` passes. A full round
  /// returns without reading the clock.
  bool wait(std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_until(lock, deadline, [&] { return missing_ == 0; });
  }
  /// Ends the round. Its slots are then the caller's alone until the next
  /// open().
  std::vector<std::optional<Message>>& close() {
    std::lock_guard<std::mutex> lock(mu_);
    base_ = 0;
    return slots_;
  }
  /// Stores reply `m` to request `id` if that slot of the open round is
  /// empty (the network's replies, and a parked own-node read's).
  void store(std::uint64_t id, Message& m);

 private:
  std::uint64_t next_round_locked() {
    if (++round_ == 0) ++round_;
    return base_ = rpc_id(slot_, round_, 0);
  }

  const std::uint32_t slot_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint32_t round_ = 0;  // the last round number used
  std::uint64_t base_ = 0;   // rpc_id of request 0 of the open round, or 0
  std::size_t missing_ = 0;  // empty slots of the open round
  std::vector<std::optional<Message>> slots_;
};

class SimNetwork {
 public:
  SimNetwork(std::uint32_t num_nodes, NetConfig config);
  ~SimNetwork();

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  std::uint32_t num_nodes() const { return num_nodes_; }
  const NetConfig& config() const { return config_; }

  void register_endpoint(NodeId node, NodeEndpoint* endpoint);

  /// The reply box of the session in slot `slot` (TxId::session()),
  /// created on first use. ReadReturn, VoteReply and DecideAck messages
  /// with a non-zero rpc_id go to the box their id names, never to an
  /// endpoint; a request is sent with send() once its rpc_id and reply_to
  /// are set.
  ReplyBox& reply_box(std::uint32_t slot);

  /// Sends `m`; it is delivered after its link's latency.
  void send(NodeId from, NodeId to, Message m);

  /// True when a FaultPlan is in effect, i.e. messages may be lost. Fixed
  /// at construction; protocol nodes derive their retry parameters from it.
  bool faults_active() const { return injector_ != nullptr; }

  /// Total faults injected so far, by kind.
  std::uint64_t faults_injected(FaultKind k) const;

  /// Test hook: observe every injected fault (called inline at send time).
  using FaultHook = std::function<void(const FaultEvent&)>;
  void set_fault_hook(FaultHook hook);

  /// Run `fn` on the timer thread after `delay` (used by the cluster's
  /// clock tick). Dropped silently after shutdown.
  void schedule(std::chrono::nanoseconds delay, std::function<void()> fn);

  /// Test hook: observe every message at send time (called inline).
  using SendHook =
      std::function<void(NodeId from, NodeId to, const Message& m)>;
  void set_send_hook(SendHook hook);

  /// Messages sent per type and serialized bytes (0 unless serializing).
  std::uint64_t messages_sent(MessageType t) const;
  std::uint64_t bytes_sent() const;

  /// True when no message is in flight and no endpoint has pending buffered
  /// work. Spin-waits up to `timeout`; returns false on timeout.
  bool wait_quiescent(std::chrono::nanoseconds timeout);

  /// Build a two-region latency matrix: nodes [0, split) form region A,
  /// the rest region B; intra-region links use `local`, cross-region links
  /// use `wan`.
  static std::vector<std::vector<std::chrono::nanoseconds>>
  two_region_matrix(std::uint32_t num_nodes, std::uint32_t split,
                    std::chrono::nanoseconds local,
                    std::chrono::nanoseconds wan);

 private:
  /// Stores a reply in its reply box, or runs the destination's handler on
  /// this thread.
  void deliver(NodeId from, NodeId to, Message m);
  /// Counts the message in flight and hands it to the timer (or delivers
  /// inline at zero latency).
  void enqueue(NodeId from, NodeId to, Message m,
               std::chrono::nanoseconds latency);
  void note_fault(const FaultEvent& ev);
  /// Nanoseconds since this network was constructed (fault-window clock).
  std::int64_t elapsed_ns() const;
  /// One full quiescence sweep: no message in flight AND no endpoint with
  /// buffered pending work.
  bool quiet_now() const;
  std::chrono::nanoseconds latency_for(const Message& m, NodeId from,
                                       NodeId to);
  /// The reply box of `slot`, or null if that session has run no round.
  ReplyBox* find_box(std::uint32_t slot) const;

  const std::uint32_t num_nodes_;
  NetConfig config_;

  std::vector<NodeEndpoint*> endpoints_;

  DelayQueue timer_;

  // Reply boxes by session slot, [slot >> 8][slot & 0xff]: each chunk and
  // box is made on first use and read without a lock; box_mu_ serialises
  // the making.
  using BoxChunk = std::array<std::atomic<ReplyBox*>, 256>;
  std::array<std::atomic<BoxChunk*>, 256> box_chunks_{};
  std::mutex box_mu_;

  std::atomic<std::int64_t> in_flight_{0};
  std::array<Counter, kNumMessageTypes> sent_by_type_;
  Counter bytes_sent_;
  std::atomic<std::uint64_t> jitter_state_{0x9E3779B97F4A7C15ull};

  // Fault layer. injector_ stays null for an inert plan so the send path
  // pays one branch.
  const std::chrono::steady_clock::time_point epoch_;
  std::unique_ptr<FaultInjector> injector_;
  std::array<Counter, kNumFaultKinds> fault_counts_;

  SendHook send_hook_;
  FaultHook fault_hook_;
  mutable std::mutex hook_mu_;
  // Set with send_hook_, under hook_mu_: without a hook a send takes no lock.
  std::atomic<bool> has_send_hook_{false};
};

}  // namespace fwkv::net
