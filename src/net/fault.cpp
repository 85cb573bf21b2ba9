#include "net/fault.hpp"

namespace fwkv::net {
namespace {

// SplitMix64 finalizer: a high-quality 64 -> 64 bit mix. Each fault draw
// hashes (seed, link, class, index) through it, so the schedule is a pure
// function of the plan — no shared RNG stream that thread timing could skew.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double unit_double(std::uint64_t x) {
  // 53 high bits -> [0, 1).
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

bool in_window(std::int64_t t, std::chrono::nanoseconds start,
               std::chrono::nanoseconds duration) {
  if (t < start.count()) return false;
  if (duration.count() <= 0) return true;  // never heals
  return t < (start + duration).count();
}

}  // namespace

bool FaultPlan::active() const {
  for (const auto& f : message) {
    if (f.drop > 0.0 || f.duplicate > 0.0 || f.reorder > 0.0) return true;
  }
  return !partitions.empty();
}

FaultPlan FaultPlan::uniform(std::uint64_t seed, double drop, double duplicate,
                             double reorder) {
  FaultPlan plan;
  plan.seed = seed;
  plan.set_all(ClassFaults{drop, duplicate, reorder});
  return plan;
}

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kReorder:
      return "reorder";
    case FaultKind::kPartitionDrop:
      return "partition-drop";
  }
  return "?";
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint32_t num_nodes)
    : plan_(std::move(plan)),
      num_nodes_(num_nodes),
      counters_(new std::atomic<std::uint64_t>[static_cast<std::size_t>(
          num_nodes) * num_nodes * kNumMessageTypes]) {
  const std::size_t n =
      static_cast<std::size_t>(num_nodes) * num_nodes * kNumMessageTypes;
  for (std::size_t i = 0; i < n; ++i) {
    counters_[i].store(0, std::memory_order_relaxed);
  }
}

bool FaultInjector::partitioned(NodeId from, NodeId to,
                                std::int64_t now_ns) const {
  for (const auto& p : plan_.partitions) {
    const bool hit = (p.a == from && p.b == to) ||
                     (p.bidirectional && p.a == to && p.b == from);
    if (hit && in_window(now_ns, p.start, p.duration)) return true;
  }
  return false;
}

FaultInjector::Decision FaultInjector::decide(NodeId from, NodeId to,
                                              MessageType t,
                                              std::int64_t now_ns) {
  Decision d;
  const std::size_t type_idx = static_cast<std::size_t>(t);
  const std::size_t slot =
      (static_cast<std::size_t>(from) * num_nodes_ + to) * kNumMessageTypes +
      type_idx;
  d.index = counters_[slot].fetch_add(1, std::memory_order_relaxed);

  if (partitioned(from, to, now_ns)) {
    d.partition_drop = true;
    return d;
  }

  const ClassFaults& f = plan_.message[type_idx];
  if (f.drop <= 0.0 && f.duplicate <= 0.0 && f.reorder <= 0.0) return d;

  // Independent draws per fault dimension, all derived from the same
  // (seed, link, class, index) key with distinct stream tags.
  const std::uint64_t key =
      mix64(plan_.seed) ^ mix64((static_cast<std::uint64_t>(from) << 40) ^
                                (static_cast<std::uint64_t>(to) << 16) ^
                                type_idx) ^
      mix64(d.index * 0xA24BAED4963EE407ull);
  const std::uint64_t max_extra = static_cast<std::uint64_t>(
      plan_.reorder_max_extra.count() > 0 ? plan_.reorder_max_extra.count()
                                          : 1);
  if (f.drop > 0.0 && unit_double(mix64(key ^ 0x1111)) < f.drop) {
    d.drop = true;
    return d;  // a dropped message is neither duplicated nor reordered
  }
  if (f.duplicate > 0.0 && unit_double(mix64(key ^ 0x2222)) < f.duplicate) {
    d.duplicate = true;
    d.dup_extra_ns =
        static_cast<std::int64_t>(1 + mix64(key ^ 0x3333) % max_extra);
  }
  if (f.reorder > 0.0 && unit_double(mix64(key ^ 0x4444)) < f.reorder) {
    d.extra_ns =
        static_cast<std::int64_t>(1 + mix64(key ^ 0x5555) % max_extra);
  }
  return d;
}

}  // namespace fwkv::net
