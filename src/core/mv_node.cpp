#include "core/mv_node.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "net/network.hpp"

namespace fwkv {

using net::DecideMessage;
using net::Message;
using net::PrepareRequest;
using net::PropagateMessage;
using net::ReadRequest;
using net::ReadReturn;
using net::RemoveMessage;
using net::VoteReply;
using net::WriteEntry;

MvNodeBase::MvNodeBase(NodeId id, ClusterContext& ctx)
    : TwoPhaseNode(id, ctx),
      site_vc_(ctx.num_nodes),
      pending_(ctx.num_nodes),
      gap_since_(ctx.num_nodes),
      next_unsent_(ctx.num_nodes, 1),
      flush_every_(static_cast<std::uint32_t>(
          std::max<std::int64_t>(1, ctx.config.propagate_flush_interval /
                                        tick_period(ctx.config)))),
      sent_(ctx.num_nodes) {}

// ---------------------------------------------------------------------------
// Client-side operations (run on the client's thread, co-located with us).
// ---------------------------------------------------------------------------

void MvNodeBase::begin(Transaction& tx) {
  // Alg. 1: T.VC <- siteVC_i; hasRead[*] <- false.
  std::lock_guard<Mutex> lock(site_mu_);
  tx.vc() = site_vc_;
  tx.has_read().reset();
}

std::optional<Value> MvNodeBase::read(Transaction& tx, Key key) {
  // Alg. 2 lines 2-4: read-your-writes from the private write buffer.
  if (auto written = tx.written_value(key)) return written;
  // Client-side repeatable-read cache: a re-read must return the value this
  // transaction already observed (and must not re-enter the version-access
  // -set logic with its own id already present).
  if (auto cached = tx.cached_read(key)) return cached;

  const NodeId target = ctx_.mapper->node_for(key);  // Alg. 2 line 5
  ReadRequest req;
  req.tx = net::TxDescriptor{tx.id(), tx.read_only(), tx.vc(), tx.has_read()};
  req.key = key;
  auto rr = fetch(tx, target, std::move(req));
  if (!rr.has_value() || !rr->found) return std::nullopt;

  if (fresh_reads()) {
    // Alg. 2 lines 8-9: freeze this site's snapshot and merge the version's
    // commit clock into the reading snapshot; the entry for the contacted
    // site advances to the site's current sequence (Fig. 2: "T1 also
    // updates T1.VC[2] to the latest timestamp of N2"). Walter's snapshot
    // is fixed at begin and never advances (§3.2).
    tx.has_read().set(target);
    tx.vc().merge(rr->version_vc);
    if (rr->server_seq > tx.vc()[target]) tx.vc()[target] = rr->server_seq;
  }
  if (!tx.read_only()) {
    // Remember the version observed so that, if this key is later written,
    // prepare can certify it "has not been overwritten meanwhile" (§4.4)
    // by version identity. The origin-entry clock comparison alone (Alg. 5
    // line 29) is defeated when a later read merges an unrelated commit's
    // clock into T.VC (Alg. 2 line 9) that covers the conflicting writer's
    // entry — a read-modify-write could then overwrite a version it never
    // saw. The id check closes that hole; blind writes still use the
    // clock rule.
    tx.record_validation(key, rr->version_id);
    if (rr->version_id != rr->latest_id) {
      tx.record_missed_latest(key, std::move(rr->latest_vc));
    }
  }
  tx.record_read_freshness(rr->version_id, rr->latest_id);
  tx.cache_read(key, rr->value);
  return rr->value;
}

bool MvNodeBase::commit(Transaction& tx) {
  // Alg. 4 lines 2-8: read-only commit is a local decision. The async
  // cleanup of its visible-read traces follows from its session's
  // watermark (see publish_watermark), not from a Remove per read site.
  if (tx.write_set().empty()) return finish(tx, Votes{});

  // A read-modify-write whose read missed the newest version of its key
  // can never pass version-identity validation. Abort it without a
  // Prepare, and hold the client until this node's siteVC covers that
  // version's commit: the retry's snapshot (Alg. 1) then includes it, and
  // Alg. 3 line 14 no longer excludes it. The wait only delays the client
  // and changes no protocol rule; without it the retries spin until the
  // lagging Propagate arrives.
  VectorClock missed;
  for (const auto& [key, latest_vc] : tx.missed_latest()) {
    if (tx.write_set().count(key) == 0) continue;
    if (missed.empty()) {
      missed = latest_vc;
    } else {
      missed.merge(latest_vc);
    }
  }
  if (!missed.empty()) {
    stats_.doomed_aborts.add();
    catch_up(missed);
    return finish(tx, Votes{false, AbortReason::kValidation, {}});
  }

  // Alg. 4 lines 9-21: 2PC over the preferred sites of the write-set.
  std::map<NodeId, std::vector<WriteEntry>> by_site;
  for (const auto& [key, value] : tx.write_set()) {
    by_site[ctx_.mapper->node_for(key)].push_back(WriteEntry{key, value});
  }
  Outbox preps;
  preps.reserve(by_site.size());
  for (const auto& [site, writes] : by_site) {
    PrepareRequest prep;
    prep.tx = tx.id();
    prep.tx_vc = tx.vc();
    prep.writes = writes;
    // Attach the observed version of every written key this transaction
    // also read (read-modify-write); the participant validates identity.
    for (const auto& w : writes) {
      auto it = tx.validation_set().find(w.key);
      if (it != tx.validation_set().end()) {
        prep.reads.push_back(net::ReadValidationEntry{w.key, it->second});
      }
    }
    preps.emplace_back(site, std::move(prep));
  }
  Votes votes = prepare(tx.id(), preps);

  SeqNo seq = 0;
  VectorClock commit_vc;
  Outbox flushes;
  if (votes.commit) {
    if (track_antideps()) {
      stats_.collected_set_size.record(votes.collected.size());  // Fig. 6
    }
    // Alg. 4 lines 22-25: take the next local sequence number, finalize the
    // commit vector clock, and record who receives this seq as a Decide.
    std::lock_guard<Mutex> lock(site_mu_);
    seq = ++curr_seq_;
    commit_vc = site_vc_;
    commit_vc[id_] = seq;
    CommitRecord rec;
    for (const auto& [site, writes] : by_site) rec.decide_dests.push_back(site);
    if (by_site.count(id_) == 0) rec.decide_dests.push_back(id_);
    commit_log_.push_back(std::move(rec));
    // Flush pending Propagate ranges to the participants right now: their
    // Decide application (Alg. 5 line 16) must not stall on a batch that
    // is still waiting for the periodic flush.
    for (const auto& [site, writes] : by_site) {
      if (site != id_) collect_ranges_locked(site, flushes);
    }
  }
  attach_watermarks(flushes);
  for (auto& [dest, msg] : flushes) {
    ctx_.network->send(id_, dest, std::move(msg));
  }

  // Alg. 4 line 26: Decide to the participants plus ourselves (the
  // coordinator must advance its own siteVC entry in seq order too; an
  // aborted transaction took no seq, so only participants hear of it).
  DecideMessage bare;
  bare.tx = tx.id();
  bare.outcome = votes.commit;
  bare.origin = id_;
  bare.seq_no = seq;
  bare.commit_vc = std::move(commit_vc);
  std::optional<DecideMessage> own;
  if (votes.commit) own = bare;
  Outbox decides;
  for (auto& [site, writes] : by_site) {
    DecideMessage d = bare;
    d.writes = std::move(writes);
    d.collected_set = votes.collected;
    if (site == id_) {
      own = std::move(d);
    } else {
      decides.emplace_back(site, std::move(d));
    }
  }
  if (retry_.lossy && votes.commit) {
    // Retain the remote Decide payloads on the commit record so a lost
    // Decide can be replayed when the participant gap-requests it.
    std::lock_guard<Mutex> lock(site_mu_);
    if (seq >= commit_log_base_) {
      commit_log_[seq - commit_log_base_].decide_payloads = decides;
    }
  }
  // The own Decide is a loopback, which is never lost, so it is never
  // acknowledged; remote PSI Decides are acknowledged only when messages
  // may be lost.
  if (own.has_value()) ctx_.network->send(id_, id_, std::move(*own));
  decide(tx.id(), decides, retry_.lossy);

  // Alg. 4 line 27: the asynchronous Propagate to all other nodes is
  // batched; the periodic flush (tick) carries it.
  return finish(tx, votes);
}

void MvNodeBase::load(Key key, Value value) {
  store_.load(key, std::move(value), ctx_.num_nodes);
}

// ---------------------------------------------------------------------------
// Server-side message handlers.
// ---------------------------------------------------------------------------

void MvNodeBase::on_other(Message&& msg) {
  if (auto* prop = std::get_if<PropagateMessage>(&msg)) {
    on_propagate(std::move(*prop));
  } else if (auto* rem = std::get_if<RemoveMessage>(&msg)) {
    on_remove(std::move(*rem));
  } else if (auto* resend = std::get_if<net::ResendRequest>(&msg)) {
    on_resend_request(*resend);
  } else {
    TwoPhaseNode::on_other(std::move(msg));
  }
}

std::size_t MvNodeBase::pending_work() const {
  return pending_count_.load(std::memory_order_acquire) +
         TwoPhaseNode::pending_work();
}

ReadReturn MvNodeBase::serve_read(const ReadRequest& req) {
  // Alg. 3 lines 3/12: read handlers share the key's lock with each other
  // and exclude update commit handlers: a read of a key a prepare holds
  // parked until the Decide released it (TwoPhaseNode::park_read).
  stats_.reads_served.add();
  store::ReadResult r;
  if (!fresh_reads()) {
    // Walter: no read/update distinction and no access-set maintenance.
    // The shared lock still matters: a participant holds its write locks
    // from prepare until the decide applies, so a reader whose snapshot
    // already covers that commit waits for the installation instead of
    // being served a torn (pre-commit) version of the key.
    r = store_.read_walter(req.key, req.tx.vc);
  } else if (req.tx.read_only) {
    // Alg. 3 lines 2-10.
    r = store_.read_read_only(req.key, req.tx.vc, req.tx.has_read.bits(),
                              req.tx.id);
  } else {
    // Alg. 3 lines 11-18; the conservative exclusion applies only once the
    // snapshot is partially fixed (first reads return the latest version).
    r = store_.read_update(req.key, req.tx.vc, req.tx.has_read.bits(),
                           req.tx.has_read.any());
  }
  locks_.unlock(req.key, req.tx.id, store::LockTable::Mode::kShared);

  ReadReturn ret;
  ret.rpc_id = req.rpc_id;
  ret.found = r.found;
  ret.value = std::move(r.value);
  ret.version_vc = std::move(r.vc);
  ret.version_id = r.id;
  ret.latest_id = r.latest_id;
  ret.latest_vc = std::move(r.latest_vc);
  if (fresh_reads()) {
    // Under site_mu_ on purpose. A Decide being applied holds it, so the
    // read waits for that Decide and reports the post-Decide seq: the
    // reader's snapshot of this site (Alg. 2 line 9) is as fresh as it
    // can be. On a 4-vCPU host, reading the seq from an atomic instead
    // gained 13% tx/s on ycsb_inline, but FW-KV's doomed aborts at 20
    // nodes and 0 us rose from 133-135 to 490-565 a run. Do not remove
    // the lock; it spins before it parks, which keeps the wait cheap.
    std::lock_guard<Mutex> lock(site_mu_);
    ret.server_seq = site_vc_[id_];
  }
  return ret;
}

bool MvNodeBase::validate(const PrepareRequest& req, const HeldLocks& held) {
  for (Key k : held.exclusive) {
    // Read-modify-write keys validate by version identity; blind writes
    // fall back to the clock rule of Alg. 5 lines 27-34.
    const net::ReadValidationEntry* observed = nullptr;
    for (const auto& r : req.reads) {
      if (r.key == k) {
        observed = &r;
        break;
      }
    }
    const bool ok = observed != nullptr
                        ? store_.validate_key_version(k, observed->version)
                        : store_.validate_key(k, req.tx_vc);
    if (!ok) return false;
  }
  return true;
}

void MvNodeBase::fill_yes_vote(const HeldLocks& held, VoteReply& vote) {
  // Alg. 5 lines 8-10: gather the read-only transactions that have an
  // anti-dependency with this writer.
  if (track_antideps()) {
    store_.collect_access_sets(held.exclusive, vote.collected_set);
  }
}

void MvNodeBase::on_decide(DecideMessage&& m) {
  // Acknowledge receipt when the coordinator asked for it (lossy
  // networks): application may still be buffered behind a seq gap, but gap
  // repair guarantees it eventually happens, so "received" is enough for
  // the coordinator to stop retrying.
  if (m.rpc_id != 0) {
    ctx_.network->send(id_, m.reply_to, net::DecideAck{m.rpc_id});
  }
  // Alg. 5 lines 14-26.
  if (!m.outcome) {
    release_prepared(m.tx);
    return;
  }
  std::lock_guard<Mutex> lock(site_mu_);
  if (site_vc_[m.origin] + 1 == m.seq_no) {
    apply_decide_locked(m);
    drain_pending_locked(m.origin);
  } else if (site_vc_[m.origin] >= m.seq_no) {
    stats_.dup_drops.add();  // redelivery; already applied
  } else {
    // "wait until siteVC_i[j] = T.seqNo - 1" — buffered, not blocked.
    const NodeId origin = m.origin;
    const SeqNo seq = m.seq_no;
    PendingEvent ev;
    ev.is_decide = true;
    ev.decide = std::move(m);
    if (!buffer_locked(origin, seq, std::move(ev)).second) {
      stats_.dup_drops.add();  // redelivery of an already-buffered decide
    }
  }
}

void MvNodeBase::apply_decide_locked(DecideMessage& m) {
  for (auto& w : m.writes) {
    store_.install(w.key, std::move(w.value), m.commit_vc, m.origin, m.seq_no,
                   m.collected_set);
  }
  stats_.versions_installed.add(m.writes.size());
  site_vc_[m.origin] = m.seq_no;  // Alg. 5 line 21
  release_prepared(m.tx);         // Alg. 5 line 22
  stats_.decides_applied.add();
}

void MvNodeBase::on_propagate(PropagateMessage&& m) {
  // The watermark table riding on the range applies at once, outside
  // site_mu_, whether or not the range itself can.
  if (!m.watermarks.empty()) {
    apply_watermarks(m.watermarks);
    m.watermarks.clear();
  }
  // Alg. 6 lines 1-4, generalized to ranges: the range is applicable once
  // siteVC has reached from_seq - 1 (no seq in (from_seq, to_seq] carries
  // a Decide for this node, so the whole range applies atomically).
  std::lock_guard<Mutex> lock(site_mu_);
  if (m.to_seq <= site_vc_[m.origin]) {
    stats_.dup_drops.add();  // redelivery; fully covered already
    return;
  }
  if (m.from_seq <= site_vc_[m.origin] + 1) {
    site_vc_[m.origin] = m.to_seq;
    stats_.propagates_applied.add();
    drain_pending_locked(m.origin);
  } else {
    PendingEvent ev;
    ev.propagate = m;
    auto [it, inserted] = buffer_locked(m.origin, m.from_seq, std::move(ev));
    if (inserted) return;
    if (!it->second.is_decide && m.to_seq > it->second.propagate.to_seq) {
      // A replayed range starting at the same seq but reaching further
      // (the flush advanced before the replay): keep the longer range.
      it->second.propagate.to_seq = m.to_seq;
    } else {
      stats_.dup_drops.add();
    }
  }
}

std::pair<std::map<SeqNo, MvNodeBase::PendingEvent>::iterator, bool>
MvNodeBase::buffer_locked(NodeId origin, SeqNo at, PendingEvent ev) {
  auto res = pending_[origin].emplace(at, std::move(ev));
  if (res.second) {
    pending_count_.fetch_add(1, std::memory_order_release);
    stats_.events_buffered.add();
  }
  return res;
}

void MvNodeBase::drain_pending_locked(NodeId origin) {
  auto& queue = pending_[origin];
  for (;;) {
    // Head entries at or below the cursor are stale redeliveries buffered
    // before the seq was covered by another path (gap replay); discard
    // them instead of leaving them to wedge quiescence.
    auto it = queue.begin();
    if (it == queue.end() || it->first > site_vc_[origin] + 1) break;
    const SeqNo at = it->first;
    PendingEvent ev = std::move(it->second);
    queue.erase(it);
    pending_count_.fetch_sub(1, std::memory_order_release);
    if (ev.is_decide) {
      if (at == site_vc_[origin] + 1) {
        apply_decide_locked(ev.decide);
      } else {
        stats_.dup_drops.add();
      }
    } else if (ev.propagate.to_seq > site_vc_[origin]) {
      site_vc_[origin] = ev.propagate.to_seq;
      stats_.propagates_applied.add();
    } else {
      stats_.dup_drops.add();
    }
  }
  if (catch_up_waiters_ > 0) site_cv_.notify_all();
}

void MvNodeBase::catch_up(const VectorClock& target) {
  std::unique_lock<Mutex> lock(site_mu_);
  ++catch_up_waiters_;
  const bool covered =
      site_cv_.wait_for(lock, ctx_.config.gap_request_delay,
                        [&] { return target.leq(site_vc_); });
  --catch_up_waiters_;
  if (!covered) stats_.catch_up_timeouts.add();
}

void MvNodeBase::owed_locked(NodeId dest, SeqNo from, SeqNo to, bool replay,
                             Outbox& out) {
  SeqNo range_start = 0;
  for (SeqNo s = from; s <= to; ++s) {
    const CommitRecord& rec = commit_log_[s - commit_log_base_];
    if (std::find(rec.decide_dests.begin(), rec.decide_dests.end(), dest) ==
        rec.decide_dests.end()) {
      if (range_start == 0) range_start = s;
      continue;
    }
    if (range_start != 0) {
      out.emplace_back(dest, PropagateMessage{id_, range_start, s - 1});
      range_start = 0;
    }
    if (!replay) continue;
    auto it = std::find_if(rec.decide_payloads.begin(),
                           rec.decide_payloads.end(),
                           [&](const auto& p) { return p.first == dest; });
    if (it != rec.decide_payloads.end()) {
      out.push_back(*it);  // unstamped: a replay is not acked
    } else {
      stats_.resend_misses.add();  // no payload retained for this seq
    }
  }
  if (range_start != 0) {
    out.emplace_back(dest, PropagateMessage{id_, range_start, to});
  }
}

void MvNodeBase::collect_ranges_locked(NodeId dest, Outbox& out) {
  owed_locked(dest, next_unsent_[dest], curr_seq_, /*replay=*/false, out);
  next_unsent_[dest] = curr_seq_ + 1;
}

void MvNodeBase::prune_commit_log_locked() {
  SeqNo min_unsent = curr_seq_ + 1;
  for (NodeId d = 0; d < ctx_.num_nodes; ++d) {
    if (d == id_) continue;
    min_unsent = std::min(min_unsent, next_unsent_[d]);
  }
  // A lossy network keeps a trailing horizon of records for ResendRequests.
  const SeqNo floor = curr_seq_ >= retry_.resend_horizon
                          ? curr_seq_ - retry_.resend_horizon + 1
                          : 1;
  min_unsent = std::min(min_unsent, floor);
  while (commit_log_base_ < min_unsent && !commit_log_.empty()) {
    commit_log_.pop_front();
    ++commit_log_base_;
  }
}

void MvNodeBase::tick(Clock::time_point now) {
  TwoPhaseNode::tick(now);
  // Walter propagates periodically, outside the transaction critical path
  // (Alg. 4 line 27).
  if (++ticks_ % flush_every_ == 0) flush(/*all_tables=*/false);
  if (retry_.lossy) repair_gaps(now);
}

void MvNodeBase::flush(bool all_tables) {
  Outbox flushes;
  {
    std::lock_guard<Mutex> lock(site_mu_);
    for (NodeId d = 0; d < ctx_.num_nodes; ++d) {
      if (d == id_) continue;
      collect_ranges_locked(d, flushes);
    }
    prune_commit_log_locked();
  }
  attach_watermarks(flushes);
  {
    // A table no Propagate took goes alone once it has waited a while,
    // named by newest_, which moved since the last send to its node.
    // Walter's table never changes.
    std::lock_guard<Mutex> lock(watermark_mu_);
    for (NodeId d = 0; d < ctx_.num_nodes; ++d) {
      TableSent& sent = sent_[d];
      if (d == id_ || sent.changes == changes_) continue;
      if (all_tables || ++sent.ticks >= kRemoveMaxTicks) {
        flushes.emplace_back(d, RemoveMessage{newest_, take_table_locked(d)});
      }
    }
  }
  for (auto& [dest, msg] : flushes) {
    ctx_.network->send(id_, dest, std::move(msg));
  }
}

void MvNodeBase::attach_watermarks(Outbox& out) {
  std::lock_guard<Mutex> lock(watermark_mu_);
  for (auto& [dest, msg] : out) {
    auto* prop = std::get_if<PropagateMessage>(&msg);
    if (prop == nullptr || sent_[dest].changes == changes_) continue;
    prop->watermarks = take_table_locked(dest);
  }
}

void MvNodeBase::repair_gaps(Clock::time_point now) {
  Outbox requests;
  {
    std::lock_guard<Mutex> lock(site_mu_);
    for (NodeId origin = 0; origin < ctx_.num_nodes; ++origin) {
      const auto& queue = pending_[origin];
      const SeqNo from = site_vc_[origin] + 1;
      if (queue.empty() || queue.begin()->first <= from) {
        gap_since_[origin] = {};  // no gap, or it closed on its own
        continue;
      }
      Clock::time_point& since = gap_since_[origin];
      if (since == Clock::time_point{}) since = now;
      if (now - since < ctx_.config.gap_request_delay) continue;
      since = now;  // ask again later: the request or its replay can be lost
      requests.emplace_back(
          origin, net::ResendRequest{id_, from, queue.begin()->first - 1});
    }
  }
  for (auto& [origin, msg] : requests) {
    stats_.gap_requests.add();
    ctx_.network->send(id_, origin, std::move(msg));
  }
}

void MvNodeBase::on_resend_request(const net::ResendRequest& m) {
  // Replay the requested seq range from the commit log: retained Decide
  // payloads for seqs that were decided to the requester, recomputed
  // Propagate ranges for the rest. Redelivery is safe — application
  // deduplicates by (origin, seq).
  Outbox outs;
  {
    std::lock_guard<Mutex> lock(site_mu_);
    SeqNo from = m.from_seq;
    if (from < commit_log_base_) {
      stats_.resend_misses.add();  // pruned past the resend horizon
      from = commit_log_base_;
    }
    owed_locked(m.requester, from, std::min(m.to_seq, curr_seq_),
                /*replay=*/true, outs);
  }
  stats_.gap_resends.add(outs.size());
  for (auto& [dest, msg] : outs) {
    ctx_.network->send(id_, dest, std::move(msg));
  }
}

void MvNodeBase::publish_watermark(TxId low) {
  if (!track_antideps()) return;
  {
    std::lock_guard<Mutex> lock(watermark_mu_);
    watermarks_[low.session()] = low;
    ++changes_;
    newest_ = low;
  }
  apply_watermarks({&low, 1});
}

std::vector<TxId> MvNodeBase::take_table_locked(NodeId dest) {
  sent_[dest] = TableSent{changes_, 0};
  std::vector<TxId> table;
  table.reserve(watermarks_.size());
  for (const auto& [slot, low] : watermarks_) table.push_back(low);
  return table;
}

void MvNodeBase::apply_watermarks(std::span<const TxId> watermarks) {
  // Alg. 6 lines 5-10 for every finished id of the sender's sessions:
  // drop them from every version-access-set on this node through the
  // reverse index.
  store_.finish_below(watermarks);
  stats_.removes_processed.add();
}

void MvNodeBase::on_remove(RemoveMessage&& m) {
  apply_watermarks(m.watermarks);
}

VectorClock MvNodeBase::site_vc() const {
  std::lock_guard<Mutex> lock(site_mu_);
  return site_vc_;
}

SeqNo MvNodeBase::curr_seq() const {
  std::lock_guard<Mutex> lock(site_mu_);
  return curr_seq_;
}

}  // namespace fwkv
