// The complete wire-message vocabulary of the three protocols (FW-KV,
// Walter, 2PC-baseline). Messages are plain data; the SimNetwork moves them
// between nodes and the nodes' handlers interpret them.
//
// Paper mapping:
//   ReadRequest / ReadReturn   - Alg. 2 line 6-7, Alg. 3 line 19
//   PrepareRequest / VoteReply - Alg. 4 line 12/14, Alg. 5 lines 1-13
//   DecideMessage              - Alg. 4 line 26, Alg. 5 lines 14-26
//   PropagateMessage           - Alg. 4 line 27, Alg. 6 lines 1-4 (and
//                                the session watermarks riding on it)
//   RemoveMessage              - Alg. 4 line 4,  Alg. 6 lines 5-10
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "common/ids.hpp"
#include "common/vector_clock.hpp"

namespace fwkv::net {

/// The subset of a transaction's state a remote read handler needs:
/// identity, read-only flag, current T.VC and T.hasRead.
struct TxDescriptor {
  TxId id;
  bool read_only = false;
  VectorClock vc;
  AccessVector has_read;
};

struct WriteEntry {
  Key key;
  Value value;
};

/// 2PC-baseline read validation: the version id observed at read time.
struct ReadValidationEntry {
  Key key;
  VersionId version = 0;
};

struct ReadRequest {
  std::uint64_t rpc_id = 0;
  NodeId reply_to = 0;
  TxDescriptor tx;
  Key key;
};

struct ReadReturn {
  std::uint64_t rpc_id = 0;
  bool found = false;
  Value value;
  /// Commit vector clock of the returned version (empty for 2PC-baseline).
  VectorClock version_vc;
  VersionId version_id = 0;
  /// Freshness instrumentation: id of the newest version present when the
  /// read was served (latest_id - version_id is the staleness gap, §2.4).
  VersionId latest_id = 0;
  /// Commit clock of that newest version, filled only when the read was
  /// stale (version_id != latest_id). A read-modify-write of the key can
  /// then never validate; its coordinator aborts it without a Prepare and
  /// waits until its siteVC covers this clock before the retry begins.
  VectorClock latest_vc;
  /// The serving node's own siteVC entry at read time. Fig. 2: "T1 also
  /// updates T1.VC[2] to the latest timestamp of N2" — the reader's clock
  /// entry for the contacted site advances to the site's current sequence
  /// number, freezing the snapshot at first-contact time.
  SeqNo server_seq = 0;
};

struct PrepareRequest {
  std::uint64_t rpc_id = 0;
  NodeId reply_to = 0;
  TxId tx;
  VectorClock tx_vc;
  /// Writes whose preferred node is the receiver.
  std::vector<WriteEntry> writes;
  /// 2PC-baseline only: reads to validate on the receiver.
  std::vector<ReadValidationEntry> reads;
};

/// Why a participant voted no (for the coordinator's abort statistics).
enum class VoteFail : std::uint8_t { kNone = 0, kLock = 1, kValidation = 2 };

struct VoteReply {
  std::uint64_t rpc_id = 0;
  bool ok = false;
  VoteFail fail_reason = VoteFail::kNone;
  /// FW-KV only: read-only transaction ids found in the version-access-sets
  /// of the written keys (Alg. 5 lines 8-10).
  std::vector<TxId> collected_set;
};

struct DecideMessage {
  /// Non-zero when the coordinator waits for a DecideAck (see there).
  std::uint64_t rpc_id = 0;
  NodeId reply_to = 0;
  TxId tx;
  bool outcome = false;
  /// Coordinator node ("N_j" in Alg. 5 line 14).
  NodeId origin = 0;
  SeqNo seq_no = 0;
  VectorClock commit_vc;
  /// Writes whose preferred node is the receiver (re-sent with the decision
  /// so participants stay stateless between Prepare and Decide).
  std::vector<WriteEntry> writes;
  /// FW-KV: merged anti-dependency set to stamp onto the new versions
  /// (Alg. 5 line 19).
  std::vector<TxId> collected_set;
};

/// Batched commit propagation (Alg. 6 lines 1-4). Walter propagates
/// "periodically"; a message covers the contiguous sequence-number range
/// [from_seq, to_seq] of commits at `origin`, none of which carried a
/// Decide to the receiver (those seqs are covered by their Decides).
///
/// FW-KV also lets the origin's watermark table ride on it when the table
/// changed since its last send to the receiver (see RemoveMessage); it is
/// applied on receipt, independently of the range.
struct PropagateMessage {
  NodeId origin = 0;
  SeqNo from_seq = 0;
  SeqNo to_seq = 0;
  std::vector<TxId> watermarks = {};
};

/// Acknowledges a Decide. The 2PC-baseline always asks for it, to complete
/// a full synchronous two-phase round; the PSI systems, which return after
/// sending Decide (Alg. 4), ask only on a lossy network, to re-send it.
struct DecideAck {
  std::uint64_t rpc_id = 0;
};

/// Read-only cleanup (Alg. 4 line 4), by session watermark. A watermark
/// names a session of the sending node (a TxId's node and session fields)
/// and its lowest open seq: every id of the session below it has finished,
/// wherever writers stamped it (Alg. 5 line 19). The sender's table holds
/// the watermark of each of its sessions and usually rides on a
/// PropagateMessage; this message carries it alone when no Propagate took
/// it for a while (see MvNodeBase). Since every send carries the whole
/// table, the next send after any move repairs a lost one.
struct RemoveMessage {
  /// The sender's newest watermark; it also names the message, per
  /// destination.
  TxId tx;
  std::vector<TxId> watermarks = {};
};

/// Gap repair under lossy delivery (fault-injection hardening; not part of
/// the paper's reliable-channel model). A receiver that has buffered
/// commit events ahead of its in-order cursor for `origin`'s site asks the
/// origin to replay the missing sequence range [from_seq, to_seq]. The
/// origin re-sends Decides (from its retained commit log) or Propagates for
/// those seqs; redelivery is safe because application is deduplicated by
/// (origin, seq).
struct ResendRequest {
  NodeId requester = 0;
  SeqNo from_seq = 0;
  SeqNo to_seq = 0;
};

using Message = std::variant<ReadRequest, ReadReturn, PrepareRequest,
                             VoteReply, DecideMessage, PropagateMessage,
                             RemoveMessage, DecideAck, ResendRequest>;

/// Stable tags for the codec and for per-class delay/statistics.
enum class MessageType : std::uint8_t {
  kReadRequest = 0,
  kReadReturn = 1,
  kPrepareRequest = 2,
  kVoteReply = 3,
  kDecide = 4,
  kPropagate = 5,
  kRemove = 6,
  kDecideAck = 7,
  kResendRequest = 8,
};
inline constexpr std::size_t kNumMessageTypes = 9;

inline MessageType type_of(const Message& m) {
  return static_cast<MessageType>(m.index());
}

inline const char* type_name(MessageType t) {
  switch (t) {
    case MessageType::kReadRequest:
      return "ReadRequest";
    case MessageType::kReadReturn:
      return "ReadReturn";
    case MessageType::kPrepareRequest:
      return "Prepare";
    case MessageType::kVoteReply:
      return "Vote";
    case MessageType::kDecide:
      return "Decide";
    case MessageType::kPropagate:
      return "Propagate";
    case MessageType::kRemove:
      return "Remove";
    case MessageType::kDecideAck:
      return "DecideAck";
    case MessageType::kResendRequest:
      return "ResendRequest";
  }
  return "?";
}

}  // namespace fwkv::net
