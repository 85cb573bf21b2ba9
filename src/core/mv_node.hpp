// Shared implementation of the two PSI systems. FW-KV and Walter differ in
// exactly two behavioural dimensions (§3.2, §4):
//
//   fresh_reads()    - FW-KV advances T.VC / freezes per-site snapshots on
//                      read (Alg. 2 lines 8-9) and selects versions with
//                      Alg. 3; Walter fixes the whole snapshot at begin and
//                      selects with the per-origin scalar rule.
//   track_antideps() - FW-KV maintains version-access-sets, collects them
//                      during prepare, stamps them at decide, and reclaims
//                      them by session watermark (Remove); Walter does none
//                      of that.
//
// Everything else — preferred sites, per-node sequence numbers, in-order
// Decide/Propagate application (Alg. 5 line 16 / Alg. 6 line 2) — is common
// and lives here; the 2PC rounds themselves live in TwoPhaseNode. The
// periodic work (the propagation flush and, on a lossy network, gap
// repair) runs in tick(), which the Cluster calls; no node arms a timer.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/mutex.hpp"
#include "core/two_phase.hpp"
#include "store/mv_store.hpp"

namespace fwkv {

class MvNodeBase : public TwoPhaseNode {
 public:
  MvNodeBase(NodeId id, ClusterContext& ctx);

  // ---- client-side API ----
  void begin(Transaction& tx) override;
  std::optional<Value> read(Transaction& tx, Key key) override;
  bool commit(Transaction& tx) override;
  void load(Key key, Value value) override;
  void publish_watermark(TxId low) override;

  // ---- NodeEndpoint ----
  std::size_t pending_work() const override;

  // ---- introspection (tests, examples, experiments) ----
  VectorClock site_vc() const;
  SeqNo curr_seq() const;
  store::MVStore& mv_store() { return store_; }
  const store::MVStore& mv_store() const { return store_; }

  /// Immediately flush all pending propagation and stale watermark tables
  /// (used by Cluster::quiesce so tests observe a settled cluster): every
  /// watermark that covers a read-only transaction reaches every node.
  void quiesce_flush() override { flush(/*all_tables=*/true); }

  /// Lock timeouts, then the propagation flush every flush_every_ ticks,
  /// then, on a lossy network, gap repair.
  void tick(Clock::time_point now) override;

 protected:
  /// FW-KV: true. Walter: false.
  virtual bool fresh_reads() const = 0;
  /// FW-KV: true. Walter: false.
  virtual bool track_antideps() const = 0;

  // TwoPhaseNode hooks. They run on the delivering thread: a read or
  // prepare sent at zero delay on the sending client's thread, one that
  // comes off the timer on the timer, one that parked where its lock was
  // released. A read from a session on this node is a direct call.
  net::ReadReturn serve_read(const net::ReadRequest& req) override;
  void on_decide(net::DecideMessage&& m) override;
  void on_other(net::Message&& msg) override;
  bool validate(const net::PrepareRequest& req, const HeldLocks& held) override;
  void fill_yes_vote(const HeldLocks& held, net::VoteReply& vote) override;

 private:
  void on_propagate(net::PropagateMessage&& m);
  void on_remove(net::RemoveMessage&& m);
  void on_resend_request(const net::ResendRequest& m);

  // In-order application machinery. All require site_mu_ held.
  void apply_decide_locked(net::DecideMessage& m);
  /// Applies the buffered events of `origin` that have become in order,
  /// then wakes the catch-up waiters. Every siteVC advance ends here.
  void drain_pending_locked(NodeId origin);

  /// Blocks the calling client until siteVC covers `target`, or for at most
  /// gap_request_delay. Used after a doomed attempt (see commit), so that
  /// the retry's snapshot includes the version the attempt could not see.
  void catch_up(const VectorClock& target);

  store::MVStore store_;

  // siteVC / CurrSeqNo (§4.1) and the per-origin pending event buffers that
  // realize the "wait until siteVC[j] = seqNo - 1" conditions without
  // blocking handler threads. Every begin, read served, Decide, Propagate
  // and commit takes site_mu_, so it spins before it parks (fwkv::Mutex).
  mutable Mutex site_mu_{&stats_.site_lock_waits};
  VectorClock site_vc_;
  SeqNo curr_seq_ = 0;
  /// Clients in catch_up(); the appliers notify site_cv_ only if nonzero.
  std::condition_variable_any site_cv_;
  std::uint32_t catch_up_waiters_ = 0;

  struct PendingEvent {
    bool is_decide = false;
    net::DecideMessage decide;
    net::PropagateMessage propagate;
  };
  /// Per-origin pending events keyed by the seq they start at (a Decide's
  /// seq_no or a Propagate range's from_seq).
  std::vector<std::map<SeqNo, PendingEvent>> pending_;
  std::atomic<std::size_t> pending_count_{0};
  /// Buffers an out-of-order event at `at` (not inserted if one is already
  /// buffered there).
  std::pair<std::map<SeqNo, PendingEvent>::iterator, bool> buffer_locked(
      NodeId origin, SeqNo at, PendingEvent ev);

  // ---- gap repair (lossy networks only; guarded by site_mu_) ----
  //
  // An event buffered out of order may wait behind a lost one. Once the
  // ticks have seen a seq gap before an origin's buffered events for
  // gap_request_delay, the node asks the origin to replay the missing
  // range, and asks again every gap_request_delay while the gap persists
  // (the ResendRequest or its replay can be lost too).
  /// Per origin, when a tick first saw the current gap (or last asked to
  /// fill it); the epoch if no tick has seen one.
  std::vector<Clock::time_point> gap_since_;
  void repair_gaps(Clock::time_point now);

  // ---- outgoing propagation batching (guarded by site_mu_) ----
  //
  // Every local commit seq is delivered to every other node exactly once:
  // as a Decide to the 2PC participants (and to ourselves), and inside a
  // contiguous Propagate range to everyone else. commit_log_ records which
  // destinations received Decides for each seq; next_unsent_[d] is the
  // first seq not yet covered for destination d.
  struct CommitRecord {
    std::vector<NodeId> decide_dests;
    /// Retained only on a lossy network: the Decide payload per remote
    /// participant, so a lost Decide can be replayed for a ResendRequest.
    Outbox decide_payloads;
  };
  std::deque<CommitRecord> commit_log_;
  SeqNo commit_log_base_ = 1;  // seq of commit_log_.front()
  std::vector<SeqNo> next_unsent_;

  /// Appends what `dest` is owed for seqs [from, to]: Propagate ranges
  /// for the seqs that carried no Decide to it and, if `replay`, the
  /// retained Decide payloads of those that did.
  void owed_locked(NodeId dest, SeqNo from, SeqNo to, bool replay,
                   Outbox& out);
  /// Append Propagate ranges for `dest` covering (next_unsent_[dest] ..
  /// curr_seq_] to `out`; advances next_unsent_[dest].
  void collect_ranges_locked(NodeId dest, Outbox& out);
  void prune_commit_log_locked();
  /// Sends every node its pending Propagate ranges. A stale watermark
  /// table that no Propagate took goes out on its own once it has waited
  /// kRemoveMaxTicks flushes, or at once if `all_tables`.
  void flush(bool all_tables);
  /// Ticks per periodic flush: propagate_flush_interval / tick_period(),
  /// at least 1.
  const std::uint32_t flush_every_;
  std::uint32_t ticks_ = 0;  // ticks so far; only the tick touches it

  // ---- outgoing watermark table (FW-KV; guarded by watermark_mu_) ----
  //
  // A finished read-only transaction's id can sit in access sets on any
  // node: where it read, and wherever a writer stamped it (Alg. 5 line 19).
  // So every node gets this node's table of session watermarks, each move
  // of which covers a read-only transaction. A move applies to this node's
  // own store at once. The whole table rides on the next Propagate to a
  // node it changed for since its last send there, so reaching every node
  // costs no message while this node commits updates; the periodic flush
  // sends it alone after kRemoveMaxTicks flushes without one. Since every
  // send carries every session's watermark, a lost one is repaired by the
  // next send after any session moves.
  static constexpr std::uint32_t kRemoveMaxTicks = 10;
  struct TableSent {
    std::uint64_t changes = 0;  // changes_ at the last send
    std::uint32_t ticks = 0;    // periodic flushes waited since
  };
  Mutex watermark_mu_{&stats_.watermark_lock_waits};
  /// The published watermark of each session of this node, by slot.
  std::unordered_map<std::uint32_t, TxId> watermarks_;
  std::uint64_t changes_ = 0;    // watermark moves published so far
  TxId newest_;                  // the last watermark published
  std::vector<TableSent> sent_;  // per destination

  /// The table as sent, and marks it sent to `dest`.
  std::vector<TxId> take_table_locked(NodeId dest);
  /// Puts the table on the first Propagate in `out` to each node it is
  /// stale at. Called without site_mu_: the two locks are never nested.
  void attach_watermarks(Outbox& out);
  /// Alg. 6 lines 5-10 for watermarks published here or received.
  void apply_watermarks(std::span<const TxId> watermarks);
};

/// The paper's contribution: fresh first-reads per site, visible reads with
/// version-access-sets, SCORe-style safe snapshots for update transactions.
class FwKvNode final : public MvNodeBase {
 public:
  using MvNodeBase::MvNodeBase;

 protected:
  bool fresh_reads() const override { return true; }
  bool track_antideps() const override { return true; }
};

/// The Walter baseline: begin-time snapshot, no anti-dependency metadata.
class WalterNode final : public MvNodeBase {
 public:
  using MvNodeBase::MvNodeBase;

 protected:
  bool fresh_reads() const override { return false; }
  bool track_antideps() const override { return false; }
};

}  // namespace fwkv
