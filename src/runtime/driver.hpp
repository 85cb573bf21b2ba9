// Closed-loop workload driver (§5: "five application threads (i.e. clients)
// per node injecting transactions in a closed-loop").
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/session.hpp"
#include "runtime/metrics.hpp"

namespace fwkv::runtime {

/// A benchmark workload: loads the data set and executes logical
/// transactions. One Workload instance serves all client threads, so
/// execute_one must be thread-safe w.r.t. its own state (the provided
/// Session/Rng/ClientStats are per-thread).
class Workload {
 public:
  virtual ~Workload() = default;

  virtual void load(Cluster& cluster) = 0;

  /// Run one logical transaction to completion: generate its parameters,
  /// execute, and retry the same logical transaction on abort until it
  /// commits (or the retry cap is hit). Every attempt's outcome must be
  /// recorded in `stats`.
  virtual void execute_one(Session& session, Rng& rng, ClientStats& stats) = 0;
};

struct DriverConfig {
  std::uint32_t clients_per_node = 5;
  std::chrono::milliseconds warmup{150};
  std::chrono::milliseconds measure{1000};
  std::uint64_t base_seed = 0xC0FFEE;
  /// Give up retrying a logical transaction after this many aborts
  /// (prevents livelock under pathological contention; attempts are still
  /// counted so the abort rate is unaffected).
  std::uint32_t max_retries = 1000;
};

/// Helper for Workload implementations: the standard retry loop. Returns
/// true if the transaction finally committed.
template <typename Body>
bool run_with_retries(Session& session, ClientStats& stats, bool read_only,
                      std::uint32_t max_retries, Body&& body) {
  for (std::uint32_t attempt = 0; attempt <= max_retries; ++attempt) {
    const auto start = std::chrono::steady_clock::now();
    Transaction tx = session.begin(read_only);
    if (!body(session, tx) && tx.status() == TxStatus::kActive) {
      // Workload decided to abandon (e.g. a read of a missing key).
      session.abort(tx);
      return false;
    }
    // False at once if a read timed out: that aborted tx, and the attempt
    // is counted and retried like any other abort.
    const bool ok = session.commit(tx);
    stats.reads += tx.reads_issued();
    stats.stale_reads += tx.stale_reads();
    stats.freshness_gap_sum += tx.freshness_gap_sum();
    if (ok) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      stats.latency_ns_sum += static_cast<std::uint64_t>(ns);
      ++stats.latency_samples;
      if (read_only) {
        ++stats.ro_commits;
      } else {
        ++stats.update_commits;
      }
      return true;
    }
    switch (tx.abort_reason()) {
      case AbortReason::kLockTimeout:
        ++stats.aborts_lock;
        break;
      case AbortReason::kValidation:
        ++stats.aborts_validation;
        break;
      default:  // a vote or a read reply did not arrive in time
        ++stats.aborts_vote_timeout;
        break;
    }
  }
  return false;
}

/// Run `workload` against `cluster` with closed-loop clients and return the
/// measured-window metrics. The cluster must already be loaded.
RunResult run_driver(Cluster& cluster, Workload& workload,
                     const DriverConfig& config);

}  // namespace fwkv::runtime
