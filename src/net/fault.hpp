// Deterministic fault injection for the simulated network.
//
// The paper's system model (§2.1) assumes reliable asynchronous channels;
// a production deployment gets message loss, duplication, reordering and
// partitions. A FaultPlan describes those adversities and
// the FaultInjector applies them inside SimNetwork's send path so that the
// protocols can be exercised — and their PSI guarantees checked — under
// adverse delivery schedules, reproducibly.
//
// Determinism: every drop/duplicate/reorder decision is a pure function of
// (plan seed, from, to, message class, per-link-per-class message index).
// Thread interleaving changes *which* message gets which index only if the
// application itself is nondeterministic; for a fixed per-link message
// sequence the fault schedule is identical across runs, which is what the
// chaos tests print ("reproduce with seed N") and what the determinism test
// in net_test.cpp pins.
//
// Partitions are wall-clock windows relative to the network's construction:
// inside a partition window the link drops everything. A stalled node is
// not part of the plan: a slow link (NetConfig::link_latency) holds back
// the deliveries to it instead.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/message.hpp"

namespace fwkv::net {

/// Fault probabilities for one message class. All in [0, 1].
struct ClassFaults {
  double drop = 0.0;       // message vanishes
  double duplicate = 0.0;  // a second copy is delivered (independent delay)
  double reorder = 0.0;    // extra delay in (0, reorder_max_extra] is added
};

/// A link outage: messages sent on (a -> b) — and (b -> a) when
/// bidirectional — during [start, start + duration) are dropped.
/// duration <= 0 means the partition never heals.
struct LinkPartition {
  NodeId a = 0;
  NodeId b = 0;
  std::chrono::nanoseconds start{0};
  std::chrono::nanoseconds duration{0};
  bool bidirectional = true;
};

struct FaultPlan {
  /// Master seed; the entire drop/dup/reorder schedule derives from it.
  std::uint64_t seed = 1;
  /// Per-message-class fault probabilities (indexed by MessageType).
  std::array<ClassFaults, kNumMessageTypes> message{};
  /// Upper bound on the extra delay a reordered (or duplicated) message
  /// receives. Bounded so that "eventually delivered" stays bounded.
  std::chrono::nanoseconds reorder_max_extra{std::chrono::microseconds(500)};
  std::vector<LinkPartition> partitions;

  /// True when any knob can actually perturb a delivery. When false the
  /// whole fault layer is compiled out of the send path (no-op guarantee).
  bool active() const;

  void set_all(const ClassFaults& f) { message.fill(f); }

  /// Uniform plan: the same drop/dup/reorder probabilities for every class.
  static FaultPlan uniform(std::uint64_t seed, double drop,
                           double duplicate = 0.0, double reorder = 0.0);
};

enum class FaultKind : std::uint8_t {
  kDrop = 0,
  kDuplicate = 1,
  kReorder = 2,
  kPartitionDrop = 3,
};
inline constexpr std::size_t kNumFaultKinds = 4;

const char* fault_kind_name(FaultKind k);

/// One injected fault, as observed by SimNetwork::set_fault_hook. The
/// determinism test records these and asserts two same-seed runs produce
/// identical sequences.
struct FaultEvent {
  NodeId from = 0;
  NodeId to = 0;
  MessageType type = MessageType::kReadRequest;
  /// Per-(from, to, class) message index the decision was drawn for.
  std::uint64_t index = 0;
  FaultKind kind = FaultKind::kDrop;
  /// Extra delay in ns (reorder / duplicate-copy delay).
  std::int64_t extra_ns = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint32_t num_nodes);

  /// What happens to one message. Drawn deterministically from the seed and
  /// the per-link message index; `now_ns` (elapsed since network epoch) only
  /// feeds the time-window checks, never the RNG.
  struct Decision {
    bool drop = false;            // random drop (counts as kDrop)
    bool partition_drop = false;  // dropped by an active partition window
    bool duplicate = false;
    std::int64_t extra_ns = 0;      // reorder delay for the original
    std::int64_t dup_extra_ns = 0;  // delay of the duplicate copy
    std::uint64_t index = 0;
  };
  Decision decide(NodeId from, NodeId to, MessageType t, std::int64_t now_ns);

  const FaultPlan& plan() const { return plan_; }

 private:
  bool partitioned(NodeId from, NodeId to, std::int64_t now_ns) const;

  FaultPlan plan_;
  std::uint32_t num_nodes_;
  /// Per-(from * num_nodes + to) * kNumMessageTypes message counters.
  std::unique_ptr<std::atomic<std::uint64_t>[]> counters_;
};

}  // namespace fwkv::net
