// Long-fork / freshness probe (Ext. B): instruments the exact scenario of
// the paper's Fig. 1. Two updaters each increment one counter key whose
// preferred nodes differ; read-only transactions on other nodes read both
// counters. We measure:
//
//   * committed-before-start misses — a read-only transaction's *first*
//     contact with a node returns a version older than the newest version
//     whose commit completed before the transaction began. FW-KV
//     guarantees zero such misses (§2.4); Walter produces them whenever
//     Propagate lags.
//   * long-fork pairs — pairs of read-only snapshots that observe the two
//     updaters in opposite orders (the Fig. 1 anomaly). For updates that
//     committed before both readers began, FW-KV eliminates these (§3.3).
#pragma once

#include <chrono>
#include <cstdint>

#include "core/protocol.hpp"

namespace fwkv::runtime {

struct LongForkResult {
  std::uint64_t snapshots = 0;
  std::uint64_t reads = 0;
  /// First-contact reads that missed a committed-before-start version.
  std::uint64_t stale_first_reads = 0;
  /// Snapshot pairs observing the two update streams in opposite orders.
  std::uint64_t long_fork_pairs = 0;
  /// Same, restricted to snapshots that missed a committed-before-start
  /// update on one stream while observing the other — the participants of
  /// the client-visible Fig. 1 anomaly (§3.3). Zero for FW-KV because its
  /// first-contact reads are never stale.
  std::uint64_t stale_long_fork_pairs = 0;
  std::uint64_t updates_committed = 0;

  double stale_first_read_rate() const {
    return reads == 0 ? 0.0
                      : static_cast<double>(stale_first_reads) /
                            static_cast<double>(reads);
  }
};

struct LongForkProbeConfig {
  Protocol protocol = Protocol::kFwKv;
  std::uint32_t num_nodes = 4;
  /// The probe runs until the readers have taken this many snapshots, so
  /// a loaded host gives a slower run, not less data. It throws
  /// std::runtime_error if they have not after 60 s.
  std::uint64_t min_snapshots = 3000;
  std::chrono::nanoseconds one_way_latency{std::chrono::microseconds(20)};
  std::chrono::nanoseconds propagate_extra_delay{std::chrono::milliseconds(1)};
  std::uint32_t readers = 4;
  /// Pause of each updater after a commit (0: back to back). Back-to-back
  /// commits are microseconds apart, far closer than the propagation lag,
  /// so nearly every first-contact Walter read is stale at any delay.
  std::chrono::nanoseconds update_interval{0};
};

LongForkResult run_long_fork_probe(const LongForkProbeConfig& config);

}  // namespace fwkv::runtime
