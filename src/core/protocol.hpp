// Protocol-level configuration shared by the three evaluated systems.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "common/consistent_hash.hpp"
#include "common/ids.hpp"

namespace fwkv::net {
class SimNetwork;
}

namespace fwkv {

/// The three concurrency controls of the evaluation study (§5).
enum class Protocol : std::uint8_t {
  kFwKv = 0,    // this paper's contribution (PSI, fresh reads)
  kWalter = 1,  // PSI baseline, snapshot fixed at begin
  kTwoPC = 2,   // serializable OCC baseline, read-only txs also run 2PC
};

inline const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kFwKv:
      return "FW-KV";
    case Protocol::kWalter:
      return "Walter";
    case Protocol::kTwoPC:
      return "2PC";
  }
  return "?";
}

/// Why a transaction aborted. Read-only transactions abort in the PSI
/// systems only when a read gets no answer; in 2PC-baseline they can fail
/// validation like any other.
enum class AbortReason : std::uint8_t {
  kNone = 0,
  kLockTimeout,   // prepare could not lock the write-set in time
  kValidation,    // a written (or, for 2PC, read) key was overwritten
  kVoteTimeout,   // a participant's vote did not arrive in time
  kUserAbort,     // client called abort()
  kReadTimeout,   // a read's reply did not arrive in time
};

inline const char* abort_reason_name(AbortReason r) {
  switch (r) {
    case AbortReason::kNone:
      return "none";
    case AbortReason::kLockTimeout:
      return "lock-timeout";
    case AbortReason::kValidation:
      return "validation";
    case AbortReason::kVoteTimeout:
      return "vote-timeout";
    case AbortReason::kUserAbort:
      return "user";
    case AbortReason::kReadTimeout:
      return "read-timeout";
  }
  return "?";
}

/// Per-key lock acquisition timeout: the paper's 1 ms on its ~20 us network
/// (NetConfig's default one-way latency).
inline constexpr std::chrono::nanoseconds kLockTimeout{
    std::chrono::milliseconds(1)};

struct ProtocolConfig {
  /// Period of the background propagation flush (Walter propagates
  /// periodically, outside the transaction critical path), in whole ticks
  /// of tick_period(), at least one. The commit path additionally flushes
  /// to its 2PC participants immediately so Decide application never
  /// stalls on a pending batch.
  std::chrono::nanoseconds propagate_flush_interval{
      std::chrono::milliseconds(1)};
  /// Safety bound on waiting for votes / read returns, and on a read
  /// handler's wait for its key's lock. Orders of magnitude above any
  /// healthy round trip; a missed vote aborts with kVoteTimeout, a missed
  /// read with kReadTimeout.
  std::chrono::nanoseconds rpc_timeout{std::chrono::seconds(5)};

  // Fault-tolerance knobs, used only when the network injects faults. On a
  // reliable network every retry loop makes one attempt bounded by
  // rpc_timeout (see RetryPolicy in core/two_phase.hpp).
  /// Per-attempt wait for a participant's vote. Attempt k waits
  /// prepare_timeout * 2^k; after prepare_attempts the coordinator
  /// timeout-aborts (kVoteTimeout) and Decides abort so participant locks
  /// are released.
  std::chrono::nanoseconds prepare_timeout{std::chrono::seconds(1)};
  std::uint32_t prepare_attempts = 3;
  /// Per-attempt wait for a DecideAck (2PC always acknowledges Decides; PSI
  /// protocols only under an active FaultPlan). Backoff doubles per attempt;
  /// the tail must outlive any partition heal time.
  std::chrono::nanoseconds decide_ack_timeout{std::chrono::milliseconds(15)};
  std::uint32_t decide_attempts = 6;
  /// How long a buffered out-of-order commit event may wait before the
  /// receiver asks the origin to replay the missing seq range.
  std::chrono::nanoseconds gap_request_delay{std::chrono::milliseconds(5)};
};

/// The period of the cluster's clock tick (KvNode::tick): the lock
/// timeout, or the propagation flush interval if that is shorter.
inline std::chrono::nanoseconds tick_period(const ProtocolConfig& cfg) {
  return std::min(cfg.propagate_flush_interval, kLockTimeout);
}

/// Everything a protocol node needs to know about the world around it.
/// Owned by the Cluster; nodes hold a reference.
struct ClusterContext {
  net::SimNetwork* network = nullptr;
  const KeyMapper* mapper = nullptr;
  ProtocolConfig config;
  std::uint32_t num_nodes = 0;
};

}  // namespace fwkv
