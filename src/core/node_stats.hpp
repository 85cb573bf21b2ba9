// Per-node protocol statistics. Client-visible run metrics (throughput,
// latency, abort rate) are aggregated by the runtime driver; these counters
// capture node-internal behaviour the paper plots (Fig. 6 anti-dependency
// sizes) or discusses (message handling, pending queues).
#pragma once

#include "common/histogram.hpp"

namespace fwkv {

struct NodeStats {
  // Commit outcomes recorded at the coordinator.
  Counter ro_commits;
  Counter update_commits;
  Counter aborts_lock;
  Counter aborts_validation;
  Counter aborts_vote_timeout;  // a vote or a read reply never came
  // Update transactions aborted before prepare because they write a key
  // they read stale (counted in aborts_validation too), and how many of
  // the siteVC catch-up waits after them ran into their bound.
  Counter doomed_aborts;
  Counter catch_up_timeouts;

  // Fig. 6: size of T.collectedSet after merging participant votes, per
  // update transaction that passed prepare.
  Accumulator collected_set_size;

  // Server-side activity.
  Counter reads_served;
  Counter versions_installed;
  Counter propagates_applied;
  Counter removes_processed;
  Counter decides_applied;

  // In-order application buffering (how often Decide/Propagate had to wait
  // for a predecessor — grows when propagation is delayed).
  Counter events_buffered;

  // Fault recovery (all zero on a reliable network).
  Counter prepare_retries;   // Prepare re-sent after a per-attempt timeout
  Counter read_retries;      // ReadRequest re-sent after a per-attempt timeout
  Counter decide_retries;    // acked Decide re-sent after a missing ack
  Counter dup_drops;         // redelivered messages discarded by dedup
  Counter gap_requests;      // ResendRequests sent for missing seq ranges
  Counter gap_resends;       // commit events replayed for a ResendRequest
  Counter resend_misses;     // requested seqs already pruned from the log

  // Contended acquisitions of the node-wide locks (fwkv::Mutex): how often
  // a handler found one busy and had to spin or park, per lock family.
  Counter site_lock_waits;         // siteVC, pending events, commit log
  Counter watermark_lock_waits;    // the outgoing watermark table
  Counter participant_lock_waits;  // the ParticipantTable
  Counter lock_table_waits;        // the LockTable shards

  std::uint64_t total_commits() const {
    return ro_commits.get() + update_commits.get();
  }

  struct Snapshot;
  Snapshot snapshot() const;

  void reset() {
    ro_commits.reset();
    update_commits.reset();
    aborts_lock.reset();
    aborts_validation.reset();
    aborts_vote_timeout.reset();
    doomed_aborts.reset();
    catch_up_timeouts.reset();
    collected_set_size.reset();
    reads_served.reset();
    versions_installed.reset();
    propagates_applied.reset();
    removes_processed.reset();
    decides_applied.reset();
    events_buffered.reset();
    prepare_retries.reset();
    read_retries.reset();
    decide_retries.reset();
    dup_drops.reset();
    gap_requests.reset();
    gap_resends.reset();
    resend_misses.reset();
    site_lock_waits.reset();
    watermark_lock_waits.reset();
    participant_lock_waits.reset();
    lock_table_waits.reset();
  }
};

/// Plain-value copy of NodeStats, mergeable across nodes.
struct NodeStats::Snapshot {
  std::uint64_t ro_commits = 0;
  std::uint64_t update_commits = 0;
  std::uint64_t aborts_lock = 0;
  std::uint64_t aborts_validation = 0;
  std::uint64_t aborts_vote_timeout = 0;
  std::uint64_t doomed_aborts = 0;
  std::uint64_t catch_up_timeouts = 0;
  std::uint64_t collected_count = 0;
  std::uint64_t collected_sum = 0;
  std::uint64_t reads_served = 0;
  std::uint64_t versions_installed = 0;
  std::uint64_t propagates_applied = 0;
  std::uint64_t removes_processed = 0;
  std::uint64_t decides_applied = 0;
  std::uint64_t events_buffered = 0;
  std::uint64_t prepare_retries = 0;
  std::uint64_t read_retries = 0;
  std::uint64_t decide_retries = 0;
  std::uint64_t dup_drops = 0;
  std::uint64_t gap_requests = 0;
  std::uint64_t gap_resends = 0;
  std::uint64_t resend_misses = 0;
  std::uint64_t site_lock_waits = 0;
  std::uint64_t watermark_lock_waits = 0;
  std::uint64_t participant_lock_waits = 0;
  std::uint64_t lock_table_waits = 0;

  std::uint64_t total_commits() const { return ro_commits + update_commits; }
  double mean_collected_set() const {
    return collected_count == 0 ? 0.0
                                : static_cast<double>(collected_sum) /
                                      static_cast<double>(collected_count);
  }

  void merge(const Snapshot& o) {
    ro_commits += o.ro_commits;
    update_commits += o.update_commits;
    aborts_lock += o.aborts_lock;
    aborts_validation += o.aborts_validation;
    aborts_vote_timeout += o.aborts_vote_timeout;
    doomed_aborts += o.doomed_aborts;
    catch_up_timeouts += o.catch_up_timeouts;
    collected_count += o.collected_count;
    collected_sum += o.collected_sum;
    reads_served += o.reads_served;
    versions_installed += o.versions_installed;
    propagates_applied += o.propagates_applied;
    removes_processed += o.removes_processed;
    decides_applied += o.decides_applied;
    events_buffered += o.events_buffered;
    prepare_retries += o.prepare_retries;
    read_retries += o.read_retries;
    decide_retries += o.decide_retries;
    dup_drops += o.dup_drops;
    gap_requests += o.gap_requests;
    gap_resends += o.gap_resends;
    resend_misses += o.resend_misses;
    site_lock_waits += o.site_lock_waits;
    watermark_lock_waits += o.watermark_lock_waits;
    participant_lock_waits += o.participant_lock_waits;
    lock_table_waits += o.lock_table_waits;
  }
};

inline NodeStats::Snapshot NodeStats::snapshot() const {
  Snapshot s;
  s.ro_commits = ro_commits.get();
  s.update_commits = update_commits.get();
  s.aborts_lock = aborts_lock.get();
  s.aborts_validation = aborts_validation.get();
  s.aborts_vote_timeout = aborts_vote_timeout.get();
  s.doomed_aborts = doomed_aborts.get();
  s.catch_up_timeouts = catch_up_timeouts.get();
  s.collected_count = collected_set_size.count();
  s.collected_sum = collected_set_size.sum();
  s.reads_served = reads_served.get();
  s.versions_installed = versions_installed.get();
  s.propagates_applied = propagates_applied.get();
  s.removes_processed = removes_processed.get();
  s.decides_applied = decides_applied.get();
  s.events_buffered = events_buffered.get();
  s.prepare_retries = prepare_retries.get();
  s.read_retries = read_retries.get();
  s.decide_retries = decide_retries.get();
  s.dup_drops = dup_drops.get();
  s.gap_requests = gap_requests.get();
  s.gap_resends = gap_resends.get();
  s.resend_misses = resend_misses.get();
  s.site_lock_waits = site_lock_waits.get();
  s.watermark_lock_waits = watermark_lock_waits.get();
  s.participant_lock_waits = participant_lock_waits.get();
  s.lock_table_waits = lock_table_waits.get();
  return s;
}

}  // namespace fwkv
