#include "core/two_phase.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>

#include "net/network.hpp"

namespace fwkv {

using net::PrepareRequest;
using net::VoteFail;
using net::VoteReply;

// ---------------------------------------------------------------------------
// ParticipantTable.
// ---------------------------------------------------------------------------

std::uint32_t& ParticipantTable::mark(TxId tx) {
  const std::uint32_t s = tx.session();
  if (s >= decided_through_.size()) decided_through_.resize(s + 1);
  return decided_through_[s];
}

ParticipantTable::Begin ParticipantTable::begin_prepare(TxId tx,
                                                        HeldLocks& held) {
  std::lock_guard<Mutex> lock(mu_);
  auto it = entries_.find(tx);
  if (it != entries_.end() && it->second.has_value()) {
    held = *it->second;
    return Begin::kRevote;
  }
  // Preparing: a concurrent duplicate is mid-prepare on another handler
  // thread; that handler's vote (or the coordinator's next retry) answers.
  // Decided: a stale retransmission. Locking now would hold the keys
  // forever, and no coordinator is waiting for this vote.
  if (it != entries_.end() || tx.local_seq() <= mark(tx)) return Begin::kDrop;
  entries_.try_emplace(tx);
  return Begin::kFresh;
}

bool ParticipantTable::publish(TxId tx, HeldLocks& held) {
  std::lock_guard<Mutex> lock(mu_);
  if (tx.local_seq() <= mark(tx)) {
    entries_.erase(tx);
    return false;
  }
  entries_[tx] = std::move(held);
  return true;
}

void ParticipantTable::abandon(TxId tx) {
  std::lock_guard<Mutex> lock(mu_);
  auto it = entries_.find(tx);
  if (it != entries_.end() && !it->second.has_value()) entries_.erase(it);
}

std::optional<HeldLocks> ParticipantTable::decide(TxId tx) {
  std::lock_guard<Mutex> lock(mu_);
  // The mark rises even for a Decide that overtakes its Prepare. A Preparing
  // entry stays until its own publish() or abandon() removes it.
  std::uint32_t& m = mark(tx);
  m = std::max(m, tx.local_seq());
  auto it = entries_.find(tx);
  if (it == entries_.end() || !it->second.has_value()) return std::nullopt;
  std::optional<HeldLocks> held = std::move(it->second);
  entries_.erase(it);
  return held;
}

std::size_t ParticipantTable::size() const {
  std::lock_guard<Mutex> lock(mu_);
  return entries_.size();
}

// ---------------------------------------------------------------------------
// RetryPolicy.
// ---------------------------------------------------------------------------

RetryPolicy RetryPolicy::derive(const ProtocolConfig& cfg, bool lossy) {
  RetryPolicy p;
  p.lossy = lossy;
  if (!lossy) {
    // Nothing is ever lost: one attempt, bounded only by the safety
    // timeout (hit only while a participant is stalled).
    p.prepare_wait = cfg.rpc_timeout;
    p.decide_wait = cfg.rpc_timeout;
    return p;
  }
  p.prepare_attempts = cfg.prepare_attempts;
  p.prepare_wait = cfg.prepare_timeout;
  p.decide_attempts = cfg.decide_attempts;
  p.decide_wait = cfg.decide_ack_timeout;
  // "Sent" does not mean "delivered": keep a trailing horizon of commit
  // records so ResendRequests can be served.
  p.resend_horizon = 4096;
  return p;
}

// ---------------------------------------------------------------------------
// TwoPhaseNode: coordinator.
// ---------------------------------------------------------------------------

TwoPhaseNode::TwoPhaseNode(NodeId id, ClusterContext& ctx)
    : KvNode(id, ctx),
      retry_(RetryPolicy::derive(ctx.config, ctx.network->faults_active())) {}

std::optional<net::ReadReturn> TwoPhaseNode::fetch(Transaction& tx,
                                                   NodeId target,
                                                   net::ReadRequest req) {
  std::optional<net::ReadReturn> ret;
  if (target == id_) {
    ret = read_here(tx.id(), std::move(req));
  } else {
    Request one{target, std::move(req)};
    auto& reply = call_all(tx.id(), {&one, 1}, retry_.prepare_attempts,
                           retry_.prepare_wait, stats_.read_retries)[0];
    if (reply.has_value()) ret = std::get<net::ReadReturn>(std::move(*reply));
  }
  if (!ret.has_value()) {
    tx.mark_aborted(AbortReason::kReadTimeout);
    stats_.aborts_vote_timeout.add();
  }
  return ret;
}

std::vector<std::optional<net::Message>>& TwoPhaseNode::call_all(
    TxId tx, std::span<Request> requests, std::uint32_t attempts,
    std::chrono::nanoseconds wait, Counter& retries) {
  net::ReplyBox& box = ctx_.network->reply_box(tx.session());
  // An attempt's time starts before its sends: a request sent at zero delay
  // is handled inside its send, and its wait for a lock counts.
  auto deadline = std::chrono::steady_clock::now() + wait;
  std::uint64_t base = box.open(requests.size());
  for (std::uint32_t attempt = 0;; ++attempt) {
    // A request is kept for re-sends only when a retry can happen.
    const bool last = attempt + 1 >= attempts;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (attempt > 0) {
        if (box.filled(i)) continue;
        retries.add();
      }
      auto& [site, m] = requests[i];
      std::visit(
          [&](auto& r) {
            if constexpr (requires { r.reply_to; }) {
              r.rpc_id = base + i;
              r.reply_to = id_;
            } else {
              assert(false && "call_all sends requests only");
            }
          },
          m);
      ctx_.network->send(id_, site, last ? std::move(m) : net::Message(m));
    }
    if (box.wait(deadline) || last) break;
    deadline = std::chrono::steady_clock::now() + wait * (2u << attempt);
    base = box.reopen();
  }
  return box.close();
}

TwoPhaseNode::Votes TwoPhaseNode::prepare(TxId tx,
                                          std::span<Request> preps) {
  Votes out;
  for (auto& reply : call_all(tx, preps, retry_.prepare_attempts,
                              retry_.prepare_wait, stats_.prepare_retries)) {
    AbortReason why = AbortReason::kVoteTimeout;
    if (reply.has_value()) {
      auto& vote = std::get<VoteReply>(*reply);
      if (vote.ok) {
        out.collected.insert(out.collected.end(), vote.collected_set.begin(),
                             vote.collected_set.end());
        continue;
      }
      why = vote.fail_reason == VoteFail::kLock ? AbortReason::kLockTimeout
                                                : AbortReason::kValidation;
    }
    out.commit = false;
    if (out.reason == AbortReason::kNone) out.reason = why;  // first wins
  }
  if (out.commit) {
    // T.collectedSet is a set.
    std::sort(out.collected.begin(), out.collected.end());
    out.collected.erase(std::unique(out.collected.begin(), out.collected.end()),
                        out.collected.end());
  }
  return out;
}

void TwoPhaseNode::decide(TxId tx, std::span<Request> decides, bool acked) {
  if (acked) {
    call_all(tx, decides, retry_.decide_attempts, retry_.decide_wait,
             stats_.decide_retries);
    return;
  }
  for (auto& [site, d] : decides) ctx_.network->send(id_, site, std::move(d));
}

bool TwoPhaseNode::finish(Transaction& tx, const Votes& votes) {
  if (votes.commit) {
    tx.mark_committed();
    if (tx.write_set().empty()) {
      stats_.ro_commits.add();
    } else {
      stats_.update_commits.add();
    }
    return true;
  }
  tx.mark_aborted(votes.reason);
  switch (votes.reason) {
    case AbortReason::kLockTimeout:
      stats_.aborts_lock.add();
      break;
    case AbortReason::kValidation:
      stats_.aborts_validation.add();
      break;
    default:
      stats_.aborts_vote_timeout.add();
      break;
  }
  return false;
}

// ---------------------------------------------------------------------------
// TwoPhaseNode: participant.
// ---------------------------------------------------------------------------

void TwoPhaseNode::handle_message(net::Message msg, NodeId /*from*/) {
  store::LockTable::Scope scope;
  if (auto* read = std::get_if<net::ReadRequest>(&msg)) {
    if (!lock_read(*read)) return park_read(std::move(*read));
    ctx_.network->send(id_, read->reply_to, serve_read(*read));
  } else if (auto* prep = std::get_if<PrepareRequest>(&msg)) {
    on_prepare(std::move(*prep));
  } else if (auto* dec = std::get_if<net::DecideMessage>(&msg)) {
    on_decide(std::move(*dec));
  } else {
    on_other(std::move(msg));
  }
}

void TwoPhaseNode::park_read(net::ReadRequest&& req) {
  const Key key = req.key;
  const TxId tx = req.tx.id;
  locks_.park(key, tx, store::LockTable::Mode::kShared,
              std::chrono::steady_clock::now() + ctx_.config.rpc_timeout,
              [this, req = std::move(req)](bool granted) {
                if (!granted) return;  // its reader has timed out
                net::Message ret = serve_read(req);
                if (req.reply_to != id_) {
                  return ctx_.network->send(id_, req.reply_to, std::move(ret));
                }
                // A read of this node's own session: no message.
                ctx_.network->reply_box(net::ReplyBox::slot_of(req.rpc_id))
                    .store(req.rpc_id, ret);
              });
}

std::optional<net::ReadReturn> TwoPhaseNode::read_here(TxId tx,
                                                       net::ReadRequest req) {
  const auto deadline =
      std::chrono::steady_clock::now() + ctx_.config.rpc_timeout;
  net::ReplyBox& box = ctx_.network->reply_box(tx.session());
  {
    // What this read's release grants runs before the session goes on.
    store::LockTable::Scope scope;
    if (lock_read(req)) return serve_read(req);
    // The round opens first: the read may be granted on another thread as
    // soon as it parks.
    req.rpc_id = box.open(1);
    req.reply_to = id_;
    park_read(std::move(req));
  }
  box.wait(deadline);
  auto& reply = box.close()[0];
  if (!reply.has_value()) return std::nullopt;
  return std::get<net::ReadReturn>(std::move(*reply));
}

void TwoPhaseNode::on_other(net::Message&& /*msg*/) {
  assert(false && "replies are routed by the network, not here");
}

void TwoPhaseNode::on_prepare(PrepareRequest&& req) {
  HeldLocks held;
  const auto begin = participants_.begin_prepare(req.tx, held);
  if (begin != ParticipantTable::Begin::kFresh) {
    stats_.dup_drops.add();
    if (begin == ParticipantTable::Begin::kDrop) return;
    VoteReply yes{req.rpc_id, true, VoteFail::kNone, {}};  // kRevote
    fill_yes_vote(held, yes);
    return ctx_.network->send(id_, req.reply_to, std::move(yes));
  }

  // Alg. 5 lines 1-13: lock in sorted key order, then validate.
  held.exclusive.reserve(req.writes.size());
  for (const auto& w : req.writes) held.exclusive.push_back(w.key);
  std::sort(held.exclusive.begin(), held.exclusive.end());
  held.exclusive.erase(
      std::unique(held.exclusive.begin(), held.exclusive.end()),
      held.exclusive.end());
  // A validated key that is also written is covered by its exclusive lock.
  for (const auto& r : req.reads) {
    if (!std::binary_search(held.exclusive.begin(), held.exclusive.end(),
                            r.key)) {
      held.shared.push_back(r.key);
    }
  }
  std::sort(held.shared.begin(), held.shared.end());
  held.shared.erase(std::unique(held.shared.begin(), held.shared.end()),
                    held.shared.end());

  if (locks_.lock_all(held, req.tx)) return vote(req, held, true);
  const TxId tx = req.tx;
  locks_.park_all(held, tx, kLockTimeout,
                  [this, req = std::move(req), held](bool locked) mutable {
                    vote(req, held, locked);
                  });
}

void TwoPhaseNode::vote(const PrepareRequest& req, HeldLocks& held,
                        bool locked) {
  VoteReply vote{req.rpc_id, false, VoteFail::kNone, {}};
  if (!locked || !validate(req, held)) {
    if (locked) release(req.tx, held);
    participants_.abandon(req.tx);
    vote.fail_reason = locked ? VoteFail::kValidation : VoteFail::kLock;
  } else {
    fill_yes_vote(held, vote);
    vote.ok = participants_.publish(req.tx, held);
    if (!vote.ok) {
      // A (necessarily abort) Decide raced past while we validated:
      // release now, since nothing will decide this tx again.
      release(req.tx, held);
      vote.fail_reason = VoteFail::kLock;
    }
  }
  ctx_.network->send(id_, req.reply_to, std::move(vote));
}

void TwoPhaseNode::release_prepared(TxId tx) {
  if (auto held = participants_.decide(tx)) locks_.unlock_all(*held, tx);
}

}  // namespace fwkv
