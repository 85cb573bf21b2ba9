// Tracing of a running cluster from outside, through public functions only:
// a SimNetwork send hook stamps every message, a forwarding NodeEndpoint per
// node stamps every handler, and a periodic SimNetwork::schedule probe
// measures how late the DelayQueue timer fires. Stamps are buffered in
// memory and joined once the episode's cluster has quiesced (trace_math.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/cluster.hpp"
#include "net/codec.hpp"
#include "net/network.hpp"
#include "trace_math.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

constexpr int kTagShift = 56;
constexpr std::uint64_t kLowBits = (std::uint64_t{1} << kTagShift) - 1;

inline fwkv::net::MessageType tag_of(std::uint64_t key) {
  return static_cast<fwkv::net::MessageType>(key >> kTagShift);
}

/// The same key with another message type's tag: a request's key with the
/// reply tag is the key of its reply (both carry the request's rpc_id).
inline std::uint64_t retag(std::uint64_t key, fwkv::net::MessageType t) {
  return (key & kLowBits) |
         (static_cast<std::uint64_t>(t) << kTagShift);
}

inline std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ull ^ (b + 0x632be59bd9b4e019ull) ^
                    (c * 0xbf58476d1ce4e5b9ull);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Identifies a message at its send and at its handler: the type in the top
/// byte over the rpc_id for request/reply messages, or over a hash of the
/// fields that make a one-way message unique on its destination.
inline std::uint64_t message_key(const fwkv::net::Message& m,
                                 fwkv::NodeId to) {
  namespace net = fwkv::net;
  const std::uint64_t low = std::visit(
      [to](const auto& msg) -> std::uint64_t {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, net::ReadRequest> ||
                      std::is_same_v<T, net::ReadReturn> ||
                      std::is_same_v<T, net::PrepareRequest> ||
                      std::is_same_v<T, net::VoteReply> ||
                      std::is_same_v<T, net::DecideAck>) {
          return msg.rpc_id;
        } else if constexpr (std::is_same_v<T, net::DecideMessage>) {
          return msg.rpc_id != 0 ? msg.rpc_id : mix(msg.tx.raw, to, 0);
        } else if constexpr (std::is_same_v<T, net::RemoveMessage>) {
          return mix(msg.tx.raw, to, 1);
        } else if constexpr (std::is_same_v<T, net::PropagateMessage>) {
          return mix(msg.origin, to, msg.from_seq);
        } else {
          return mix(msg.requester, to, msg.from_seq);
        }
      },
      m);
  return retag(low, net::type_of(m));
}

/// One handler execution: the message key, when the handler started, and
/// how long it ran.
struct HandlerRec {
  std::uint64_t key = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

/// A send made on a client thread, during a Session call.
struct ClientSend {
  std::uint64_t key = 0;
  std::int64_t t_ns = 0;
};

class Tracer {
 public:
  /// Installs a forwarding endpoint in front of every node and starts the
  /// timer probe. Call right after constructing the cluster and before
  /// load. The Tracer must outlive the cluster: the network keeps pointers
  /// to the forwarders and the probe.
  Tracer(fwkv::Cluster& cluster, std::chrono::nanoseconds one_way_latency);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Turns recording on or off; call while the cluster is alive. Handler
  /// records are complete once the cluster has quiesced after the last
  /// call with false.
  void set_recording(bool on);
  bool on() const { return on_.load(std::memory_order_relaxed); }

  /// Sends made on the calling thread while recording go to `log` (the
  /// hook runs on the sending thread; client threads set this once).
  static void set_thread_log(std::vector<ClientSend>* log) { tl_log_ = log; }

  // Results; read after recording is off and the cluster has quiesced.
  const std::vector<Stamp>& sends() const { return sends_; }
  /// Encoded bytes sent while recording, estimated from a sample.
  std::uint64_t bytes() const { return bytes_; }
  std::vector<HandlerRec> handled() const;
  std::vector<double> timer_lateness_us() const;

 private:
  class Forwarder;
  static constexpr std::chrono::milliseconds kProbePeriod{1};
  // Encoding runs under SimNetwork's global hook mutex, and a Vote on
  // ycsb_hot is tens of KB, so one message in kByteSampling is encoded
  // (chosen by key) and counted kByteSampling times.
  static constexpr std::uint64_t kByteSampling = 16;

  std::vector<HandlerRec>& thread_buffer();
  /// Schedules the next probe; each one records how late it ran and
  /// re-arms until the network shuts down.
  void arm_probe();

  // The network, not the cluster: the probe runs on the network's timer
  // thread, which may still fire while ~Cluster is resetting its pointer.
  fwkv::net::SimNetwork& net_;
  const std::int64_t latency_ns_;
  std::vector<std::unique_ptr<Forwarder>> forwarders_;
  std::atomic<bool> on_{false};

  // Written only inside the send hook, which SimNetwork serialises under
  // its hook mutex; read after the hook is removed under that same mutex.
  std::vector<Stamp> sends_;
  std::vector<std::uint8_t> wire_;
  std::uint64_t bytes_ = 0;

  mutable std::mutex buffers_mu_;
  std::vector<std::unique_ptr<std::vector<HandlerRec>>> buffers_;

  mutable std::mutex probe_mu_;
  std::vector<double> lateness_us_;  // guarded by probe_mu_

  static inline thread_local std::vector<ClientSend>* tl_log_ = nullptr;
};

class Tracer::Forwarder final : public fwkv::net::NodeEndpoint {
 public:
  Forwarder(fwkv::net::NodeEndpoint& node, fwkv::NodeId id, Tracer& tracer)
      : node_(node), id_(id), tracer_(tracer) {}

  void handle_message(fwkv::net::Message msg, fwkv::NodeId from) override {
    if (!tracer_.on()) {
      node_.handle_message(std::move(msg), from);
      return;
    }
    const std::uint64_t key = message_key(msg, id_);
    const std::int64_t start = now_ns();
    node_.handle_message(std::move(msg), from);
    const std::int64_t end = now_ns();
    tracer_.thread_buffer().push_back({key, start, end - start});
  }

  std::size_t pending_work() const override { return node_.pending_work(); }

 private:
  fwkv::net::NodeEndpoint& node_;
  const fwkv::NodeId id_;
  Tracer& tracer_;
};

inline Tracer::Tracer(fwkv::Cluster& cluster,
                      std::chrono::nanoseconds one_way_latency)
    : net_(cluster.network()), latency_ns_(one_way_latency.count()) {
  for (fwkv::NodeId n = 0; n < cluster.num_nodes(); ++n) {
    forwarders_.push_back(
        std::make_unique<Forwarder>(cluster.node(n), n, *this));
    net_.register_endpoint(n, forwarders_.back().get());
  }
  arm_probe();
}

inline void Tracer::set_recording(bool on) {
  if (on_.exchange(on, std::memory_order_relaxed) == on) return;
  if (!on) {
    net_.set_send_hook(nullptr);
    return;
  }
  net_.set_send_hook(
      [this](fwkv::NodeId from, fwkv::NodeId to,
             const fwkv::net::Message& m) {
        const std::int64_t t = now_ns();
        const std::uint64_t key = message_key(m, to);
        if (mix(key, 0, 0) % kByteSampling == 0) {
          fwkv::net::encode_message_into(m, wire_);
          bytes_ += wire_.size() * kByteSampling;
        }
        sends_.push_back({key, t, from == to ? 0 : latency_ns_});
        if (tl_log_ != nullptr) tl_log_->push_back({key, t});
      });
}

inline void Tracer::arm_probe() {
  const auto due = Clock::now() + kProbePeriod;
  net_.schedule(kProbePeriod, [this, due] {
    const auto late = Clock::now() - due;
    if (on()) {
      std::lock_guard<std::mutex> lock(probe_mu_);
      lateness_us_.push_back(
          std::chrono::duration<double, std::micro>(late).count());
    }
    arm_probe();
  });
}

inline std::vector<HandlerRec>& Tracer::thread_buffer() {
  thread_local std::vector<HandlerRec>* buf = nullptr;
  thread_local const Tracer* owner = nullptr;
  if (owner != this) {
    std::lock_guard<std::mutex> lock(buffers_mu_);
    buffers_.push_back(std::make_unique<std::vector<HandlerRec>>());
    buf = buffers_.back().get();
    owner = this;
  }
  return *buf;
}

inline std::vector<HandlerRec> Tracer::handled() const {
  std::lock_guard<std::mutex> lock(buffers_mu_);
  std::vector<HandlerRec> all;
  for (const auto& b : buffers_) all.insert(all.end(), b->begin(), b->end());
  return all;
}

inline std::vector<double> Tracer::timer_lateness_us() const {
  std::lock_guard<std::mutex> lock(probe_mu_);
  return lateness_us_;
}

}  // namespace perfbench
