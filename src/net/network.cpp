#include "net/network.hpp"

#include <cassert>
#include <stdexcept>
#include <thread>

#include "net/codec.hpp"

namespace fwkv::net {
namespace {

// Threads are numbered in the order they first touch any network's tally.
std::size_t thread_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace

std::uint64_t ReplyBox::open(std::size_t n) {
  assert(n <= kMaxRequests);
  std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
  slots_.resize(n);
  missing_ = n;
  return next_round_locked();
}

void ReplyBox::store(std::uint64_t id, Message& m) {
  const std::size_t i = id & 0xff;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (base_ == 0 || (id & ~std::uint64_t{0xff}) != base_ ||
        i >= slots_.size() || slots_[i].has_value()) {
      return;
    }
    slots_[i] = std::move(m);
    if (--missing_ > 0) return;
  }
  cv_.notify_one();
}

SimNetwork::SimNetwork(std::uint32_t num_nodes, NetConfig config)
    : num_nodes_(num_nodes),
      config_(config),
      epoch_(std::chrono::steady_clock::now()) {
  if (num_nodes > ReplyBox::kMaxRequests) {
    throw std::length_error("SimNetwork: a reply round holds 256 nodes");
  }
  endpoints_.resize(num_nodes, nullptr);
  if (config_.faults.active()) {
    injector_ = std::make_unique<FaultInjector>(config_.faults, num_nodes);
  }
}

SimNetwork::~SimNetwork() {
  // Stop the timer first: no delivery may run while the boxes go.
  timer_.shutdown();
  for (auto& chunk : box_chunks_) {
    if (BoxChunk* c = chunk.load(std::memory_order_acquire)) {
      for (auto& box : *c) delete box.load(std::memory_order_acquire);
      delete c;
    }
  }
}

void SimNetwork::register_endpoint(NodeId node, NodeEndpoint* endpoint) {
  assert(node < num_nodes_);
  endpoints_[node] = endpoint;
}

ReplyBox* SimNetwork::find_box(std::uint32_t slot) const {
  const BoxChunk* c = box_chunks_[slot >> 8].load(std::memory_order_acquire);
  return c ? (*c)[slot & 0xff].load(std::memory_order_acquire) : nullptr;
}

ReplyBox& SimNetwork::reply_box(std::uint32_t slot) {
  assert(slot <= 0xffffu);
  if (ReplyBox* box = find_box(slot)) return *box;
  std::lock_guard<std::mutex> lock(box_mu_);
  auto& chunk = box_chunks_[slot >> 8];
  if (chunk.load(std::memory_order_relaxed) == nullptr) {
    chunk.store(new BoxChunk{}, std::memory_order_release);
  }
  auto& entry = (*chunk.load(std::memory_order_relaxed))[slot & 0xff];
  if (entry.load(std::memory_order_relaxed) == nullptr) {
    entry.store(new ReplyBox(slot), std::memory_order_release);
  }
  return *entry.load(std::memory_order_relaxed);
}

void SimNetwork::send(NodeId from, NodeId to, Message m) {
  assert(to < num_nodes_);
  if (has_send_hook_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(hook_mu_);
    if (send_hook_) send_hook_(from, to, m);
  }
  Tally& own = tally();
  own.sent[static_cast<std::size_t>(type_of(m))].add();
  if (config_.serialize_messages) {
    // Round-trip through the codec: realistic marshalling cost and a
    // guarantee the message survives a real wire. The wire buffer is pooled
    // per sending thread so steady-state encoding is allocation-free.
    thread_local std::vector<std::uint8_t> wire_buf;
    encode_message_into(m, wire_buf);
    own.bytes.add(wire_buf.size());
    auto decoded = decode_message(wire_buf);
    assert(decoded.has_value());
    m = std::move(*decoded);
  }
  // Loopback messages (coordinator to itself, e.g. the self-Decide of
  // Alg. 4 line 26) never hit the wire: this is what makes Walter's
  // preferred-site fast local commit fast. They are also never faulted.
  auto latency =
      from == to ? std::chrono::nanoseconds(0) : latency_for(m, from, to);
  if (injector_ && from != to) {
    const MessageType t = type_of(m);
    auto d = injector_->decide(from, to, t, elapsed_ns());
    if (d.drop || d.partition_drop) {
      note_fault({from, to, t, d.index,
                  d.partition_drop ? FaultKind::kPartitionDrop
                                   : FaultKind::kDrop,
                  0});
      return;
    }
    if (d.duplicate) {
      note_fault({from, to, t, d.index, FaultKind::kDuplicate,
                  d.dup_extra_ns});
      Message copy = m;
      enqueue(from, to, std::move(copy),
              latency + std::chrono::nanoseconds(d.dup_extra_ns));
    }
    if (d.extra_ns > 0) {
      note_fault({from, to, t, d.index, FaultKind::kReorder, d.extra_ns});
      latency += std::chrono::nanoseconds(d.extra_ns);
    }
  }
  enqueue(from, to, std::move(m), latency);
}

void SimNetwork::enqueue(NodeId from, NodeId to, Message m,
                         std::chrono::nanoseconds latency) {
  tally().entered.fetch_add(1, std::memory_order_relaxed);
  if (latency.count() == 0) {
    deliver(from, to, std::move(m));
  } else {
    timer_.run_after(latency, [this, from, to, m = std::move(m)]() mutable {
      deliver(from, to, std::move(m));
    });
  }
}

std::int64_t SimNetwork::elapsed_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void SimNetwork::note_fault(const FaultEvent& ev) {
  fault_counts_[static_cast<std::size_t>(ev.kind)].add();
  std::lock_guard<std::mutex> lock(hook_mu_);
  if (fault_hook_) fault_hook_(ev);
}

std::uint64_t SimNetwork::faults_injected(FaultKind k) const {
  return fault_counts_[static_cast<std::size_t>(k)].get();
}

void SimNetwork::set_fault_hook(FaultHook hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  fault_hook_ = std::move(hook);
}

void SimNetwork::deliver(NodeId from, NodeId to, Message m) {
  // A reply (a message with an rpc_id but no reply_to) goes to the reply
  // box its id names, or nowhere.
  const std::uint64_t rpc_id = std::visit(
      [](const auto& r) -> std::uint64_t {
        if constexpr (requires { r.rpc_id; } && !requires { r.reply_to; }) {
          return r.rpc_id;
        }
        return 0;
      },
      m);
  if (rpc_id != 0) {
    if (ReplyBox* box = find_box(ReplyBox::slot_of(rpc_id))) {
      box->store(rpc_id, m);
    }
  } else {
    // Every handler runs on the delivering thread: a zero-delay request on
    // its sender's thread (only coordinators on client threads send
    // requests, and they block on the reply anyway), everything else on
    // the timer.
    assert(endpoints_[to] != nullptr);
    endpoints_[to]->handle_message(std::move(m), from);
  }
  // Release: whoever reads this count also sees the message's `entered`.
  tally().finished.fetch_add(1, std::memory_order_release);
}

std::chrono::nanoseconds SimNetwork::latency_for(const Message& m,
                                                 NodeId from, NodeId to) {
  auto latency = config_.one_way_latency;
  if (!config_.link_latency.empty() &&
      config_.link_latency[from][to].count() >= 0) {
    latency = config_.link_latency[from][to];
  }
  if (std::holds_alternative<PropagateMessage>(m)) {
    latency += config_.propagate_extra_delay;
  }
  if (config_.jitter.count() > 0) {
    // SplitMix64 step: cheap, lock-free uniform jitter.
    std::uint64_t x =
        jitter_state_.fetch_add(0x9E3779B97F4A7C15ull,
                                std::memory_order_relaxed);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    x ^= x >> 31;
    latency += std::chrono::nanoseconds(
        static_cast<std::int64_t>(x % static_cast<std::uint64_t>(
                                          config_.jitter.count() + 1)));
  }
  return latency;
}

std::vector<std::vector<std::chrono::nanoseconds>>
SimNetwork::two_region_matrix(std::uint32_t num_nodes, std::uint32_t split,
                              std::chrono::nanoseconds local,
                              std::chrono::nanoseconds wan) {
  std::vector<std::vector<std::chrono::nanoseconds>> matrix(
      num_nodes, std::vector<std::chrono::nanoseconds>(num_nodes, local));
  for (std::uint32_t a = 0; a < num_nodes; ++a) {
    for (std::uint32_t b = 0; b < num_nodes; ++b) {
      const bool a_west = a < split;
      const bool b_west = b < split;
      if (a_west != b_west) matrix[a][b] = wan;
    }
  }
  return matrix;
}

void SimNetwork::schedule(std::chrono::nanoseconds delay,
                          std::function<void()> fn) {
  timer_.run_after(delay, std::move(fn));
}

void SimNetwork::set_send_hook(SendHook hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  send_hook_ = std::move(hook);
  has_send_hook_.store(static_cast<bool>(send_hook_),
                       std::memory_order_release);
}

SimNetwork::Tally& SimNetwork::tally() {
  return tallies_[thread_index() % kTallies];
}

std::uint64_t SimNetwork::messages_sent(MessageType t) const {
  std::uint64_t n = 0;
  for (const Tally& tally : tallies_) {
    n += tally.sent[static_cast<std::size_t>(t)].get();
  }
  return n;
}

std::uint64_t SimNetwork::bytes_sent() const {
  std::uint64_t n = 0;
  for (const Tally& tally : tallies_) n += tally.bytes.get();
  return n;
}

SimNetwork::Collect SimNetwork::collect() const {
  Collect c;
  for (const Tally& tally : tallies_) {
    c.finished += tally.finished.load(std::memory_order_acquire);
  }
  for (const Tally& tally : tallies_) {
    c.entered += tally.entered.load(std::memory_order_acquire);
  }
  return c;
}

// Quiescence by double collect. Each message adds 1 to `entered` on the
// tally of the thread that sends it, and later 1 to `finished` on the
// tally of the thread that delivers it, after its handler has returned.
// The reasoning below takes the counter operations in the order they take
// effect.
//
// One collect C proves an instant with nothing in flight: if C's entered
// sum equals its finished sum, no message was in flight at the instant T
// between C's two passes. Say m entered at e < T and finished at f > T.
// Every entered read follows T, so C counts m's entry; every finished
// read precedes T, so C misses m's finish. A message that C counts
// finished did so before its finished read, after its entry (the release
// in deliver carries that entry to C's acquire load), so C counts its
// entry too. So C's entered sum exceeds its finished sum by at least m.
// Reading each tally's pair in turn instead is not enough: it can count
// the finish of a message that entered on a tally already read, and that
// surplus can cancel a message still in flight elsewhere.
//
// Two such collects C1, C2 with the same entered sum prove a window:
// every entered count only grows, so no message entered between C1's read
// of its tally and C2's read of it. One that entered after T1 but before
// C1's read would count in C1's entered sum and not in its finished sum.
// So no message entered from T1 to T2, and with nothing in flight at T1,
// nothing was in flight and no handler ran from T1 to T2. The endpoints'
// pending work is read in that window, so no delivery moves it meanwhile.
bool SimNetwork::quiet_now() const {
  const Collect first = collect();
  if (first.entered != first.finished) return false;
  for (const NodeEndpoint* endpoint : endpoints_) {
    if (endpoint != nullptr && endpoint->pending_work() > 0) return false;
  }
  const Collect second = collect();
  return second.entered == first.entered &&
         second.finished == second.entered;
}

bool SimNetwork::wait_quiescent(std::chrono::nanoseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (quiet_now()) {
      // Double-check after a short pause: a handler might be about to send,
      // or the cluster's tick (a flush, a parked request's timeout) may
      // run during the pause and surface as pending work. The recheck
      // repeats the full sweep, not just the in-flight counter.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      if (quiet_now()) return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

}  // namespace fwkv::net
