// The two-phase commit core shared by FW-KV, Walter and 2PC-baseline
// (Alg. 4 lines 9-26, Alg. 5 lines 1-22). The systems differ only where the
// paper says they do: whether read-only transactions prepare, and whether
// the Decide is acknowledged. A node supplies how it builds each
// PrepareRequest, how it validates under the locks, and how it installs;
// the reply loop, vote folding, tx-id deduplication and locking live here
// once. The reliable and the fault-injected network run the same code with
// a different RetryPolicy.
//
// A read of a key on the coordinator's own node is served by a plain call on
// the coordinator's thread and sends no message (in the paper a local read
// costs no round). A request sent at zero delay is handled on the
// coordinator's thread too, inside the send, and a delayed one on the
// timer. A read or prepare whose key is locked parks in the LockTable; the
// release that frees the key runs it, after the releasing handler returns,
// or the node's first tick past its deadline times it out.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "core/kv_node.hpp"
#include "store/lock_table.hpp"

namespace fwkv {

/// The locks a participant holds for one prepared transaction: exclusive
/// on written keys, shared (2PC-baseline) on validated keys not written.
using HeldLocks = store::LockTable::Keys;

/// Participant-side record of the transactions this node is preparing or
/// holds prepared. No network: every entry point is a pure state transition
/// under one mutex, so it is unit-tested on its own. Every prepare and
/// Decide takes that mutex; `contended` counts the acquisitions that found
/// it busy.
///
/// Deduplication is unconditional: a Prepare can be redelivered by a
/// coordinator retry, a duplicated delivery, or a stall that lands it next
/// to its own (timeout-abort) Decide. A session prepares seq q + 1 only
/// after deciding q, so the highest seq of each session seen decided marks
/// every Prepare of that session at or below it stale, however late it comes.
class ParticipantTable {
 public:
  explicit ParticipantTable(Counter* contended = nullptr) : mu_(contended) {}

  enum class Begin : std::uint8_t {
    kFresh,   // first Prepare: lock, validate, then publish() or abandon()
    kDrop,    // a duplicate is mid-prepare, or the tx is already decided
    kRevote,  // already voted yes and still holds the locks: vote yes again
  };

  /// Registers a Prepare for `tx`. On kRevote, `held` receives a copy of
  /// the locks the earlier yes-vote holds.
  Begin begin_prepare(TxId tx, HeldLocks& held);

  /// A fresh prepare voted yes while holding `held`. Returns false if the
  /// Decide arrived meanwhile (necessarily an abort): the locks then stay
  /// with the caller to release, since nothing will decide the tx again.
  /// On true the table takes the locks.
  bool publish(TxId tx, HeldLocks& held);

  /// A fresh prepare voted no (it holds nothing).
  void abandon(TxId tx);

  /// Records the decision for `tx` and returns the locks its yes-vote
  /// holds, if any. A duplicate Decide, a Decide for a no-vote, and a
  /// Decide that overtakes its Prepare all return nothing.
  std::optional<HeldLocks> decide(TxId tx);

  /// Open entries: 0 once the cluster has quiesced.
  std::size_t size() const;

 private:
  /// The highest local seq of `tx`'s session seen decided.
  std::uint32_t& mark(TxId tx);

  mutable Mutex mu_;
  /// The locks of each prepared tx; nullopt while it is being prepared.
  std::unordered_map<TxId, std::optional<HeldLocks>> entries_;
  std::vector<std::uint32_t> decided_through_;  // by session slot
};

/// Retry parameters of the core. On a reliable network every round runs a
/// single attempt that waits up to rpc_timeout, and PSI Decides are not
/// acknowledged. When messages may be lost, the ProtocolConfig attempts and
/// backoffs apply, PSI Decides are acknowledged, and the MV nodes repair
/// seq gaps on their tick and retain a resend horizon of their commit log. A
/// remote read is a one-request round with the prepare round's parameters.
struct RetryPolicy {
  bool lossy = false;
  /// Attempt k of a read or prepare (decide) round waits prepare_wait * 2^k.
  std::uint32_t prepare_attempts = 1;
  std::chrono::nanoseconds prepare_wait{0};
  std::uint32_t decide_attempts = 1;
  std::chrono::nanoseconds decide_wait{0};
  /// Trailing commit records kept for ResendRequest replay (0: none).
  SeqNo resend_horizon = 0;

  static RetryPolicy derive(const ProtocolConfig& cfg, bool lossy);
};

class TwoPhaseNode : public KvNode {
 public:
  TwoPhaseNode(NodeId id, ClusterContext& ctx);

  /// Routes ReadRequests, Prepares and Decides; anything else goes to
  /// on_other. What its releases grant runs when it returns.
  void handle_message(net::Message msg, NodeId from) final;

  std::size_t pending_work() const override { return locks_.parked(); }

  /// Times out the parked lock requests whose deadline has passed: a
  /// prepare votes no, a read sends nothing.
  void tick(Clock::time_point now) override { locks_.expire(now); }

  const store::LockTable& lock_table() const { return locks_; }
  std::size_t participant_entries() const { return participants_.size(); }

 protected:
  /// The folded outcome of one prepare round.
  struct Votes {
    bool commit = true;
    AbortReason reason = AbortReason::kNone;
    /// Alg. 4 line 19: the union of the yes-votes' collected sets; sorted
    /// and deduplicated when the transaction commits.
    std::vector<TxId> collected;
  };

  // ---- coordinator ----

  /// Messages to send, each with its destination.
  using Request = std::pair<NodeId, net::Message>;
  using Outbox = std::vector<Request>;

  /// Alg. 2 lines 6-7: a ReadRequest round trip, run by call_all as a
  /// round of one request built on the stack, or a direct serve_read call
  /// when `target` is this node (it sends no message). Reads are
  /// side-effect-free until the reply is processed, so a lost request or
  /// reply is re-sent like a Prepare (counted in read_retries). If no reply
  /// comes, or a parked direct read is not granted within rpc_timeout, `tx`
  /// aborts with kReadTimeout and nullopt is returned.
  std::optional<net::ReadReturn> fetch(Transaction& tx, NodeId target,
                                       net::ReadRequest req);

  /// Alg. 4 lines 12-21: sends the Prepares of `tx` as one round and folds
  /// the votes. A missing vote is re-requested with backoff; participants
  /// deduplicate by tx id, so a retry racing its original is harmless.
  /// After the last attempt the transaction timeout-aborts (kVoteTimeout)
  /// and the caller's abort Decide releases any participant locks.
  Votes prepare(TxId tx, std::span<Request> preps);

  /// Alg. 4 line 26: sends the Decides of `tx`. Acked Decides are a round,
  /// re-sent with backoff until acknowledged: a lost commit Decide would
  /// hold the participant's write locks until gap repair, and a lost abort
  /// Decide would hold them forever (an aborted tx has no seq for gap
  /// repair to find). The ack means "received"; application may still be
  /// buffered.
  void decide(TxId tx, std::span<Request> decides, bool acked);

  /// Marks `tx` committed or aborted and counts the outcome.
  bool finish(Transaction& tx, const Votes& votes);

  // ---- participant ----

  /// Takes `req`'s key shared now if it can (PSI: Alg. 3 lines 3/12; a
  /// 2PC-baseline read locks nothing, its prepare validates it).
  virtual bool lock_read(const net::ReadRequest& req) {
    return locks_.lock(req.key, req.tx.id, store::LockTable::Mode::kShared);
  }
  /// Alg. 3: serves a read of a key this node owns, holding what lock_read
  /// took, and releases it.
  virtual net::ReadReturn serve_read(const net::ReadRequest& req) = 0;
  virtual void on_decide(net::DecideMessage&& m) = 0;
  /// Messages outside the 2PC rounds (PSI: Propagate, Remove, Resend).
  virtual void on_other(net::Message&& msg);

  /// Validation under the prepare locks (§4.4 / 2PC read validation).
  virtual bool validate(const net::PrepareRequest& req,
                        const HeldLocks& held) = 0;
  /// Fills the protocol-specific part of a yes vote (FW-KV: Alg. 5 lines
  /// 8-10's collected set), with the locks in `held` still taken.
  virtual void fill_yes_vote(const HeldLocks& /*held*/,
                             net::VoteReply& /*vote*/) {}

  /// Records the decision for `tx` and releases the locks of its yes-vote.
  void release_prepared(TxId tx);
  void release(TxId tx, const HeldLocks& held) { locks_.unlock_all(held, tx); }

  const RetryPolicy retry_;
  store::LockTable locks_{&stats_.lock_table_waits};
  ParticipantTable participants_{&stats_.participant_lock_waits};

 private:
  /// Parks a read lock_read refused: granted within rpc_timeout, it is
  /// served and answered, else it sends nothing.
  void park_read(net::ReadRequest&& req);
  /// A read of a key on this node: served now, or parked while the session
  /// waits for the reply in its reply box.
  std::optional<net::ReadReturn> read_here(TxId tx, net::ReadRequest req);

  /// Alg. 5 lines 1-13: deduplicates, locks (exclusive on written keys,
  /// shared on validated keys that are not written), validates, and votes.
  /// A prepare whose keys are held parks, up to kLockTimeout per key.
  void on_prepare(net::PrepareRequest&& req);
  /// Validates under `held`'s locks and votes, or votes no (kLock) if the
  /// prepare timed out before it was `locked`.
  void vote(const net::PrepareRequest& req, HeldLocks& held, bool locked);

  /// The coordinator's one reply loop, run in the reply box of `tx`'s
  /// session: request i is stamped with slot i's rpc_id and sent, and the
  /// loop waits until every slot is filled. Attempt k ends wait * 2^k after
  /// its sends began (a request handled inside its send, at zero delay,
  /// uses up that time too); the requests whose slots are still empty are
  /// then re-sent under a new round, which drops late replies to the old
  /// one, and counted in `retries`. Returns the slots, nullopt where every
  /// attempt timed out; they stay valid until the session's next round.
  /// Allocates nothing once the box has held a round this large.
  std::vector<std::optional<net::Message>>& call_all(
      TxId tx, std::span<Request> requests, std::uint32_t attempts,
      std::chrono::nanoseconds wait, Counter& retries);
};

}  // namespace fwkv
