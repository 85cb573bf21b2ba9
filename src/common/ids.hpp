// Fundamental identifier and value types shared by every FW-KV module.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace fwkv {

/// Index of a node (site) in the cluster. Nodes are dense [0, num_nodes).
using NodeId = std::uint32_t;

/// Per-node commit sequence number ("CurrSeqNo" in the paper). Entry j of a
/// vector clock holds the seqNo of the last transaction from node j applied.
using SeqNo = std::uint64_t;

/// A shared object identifier. Workloads map their logical keys (YCSB rows,
/// TPC-C composite keys) into this flat 64-bit space.
using Key = std::uint64_t;

/// Object payload. YCSB uses short opaque strings; TPC-C serializes rows.
using Value = std::string;

/// Monotonically increasing per-key version identifier ("v.id" in Alg. 3).
using VersionId = std::uint64_t;

/// Globally unique transaction identifier.
///
/// Layout: [ node:16 | session:16 | local sequence:32 ]. The node that issued
/// the transaction is recoverable, which the Remove handler and the metrics
/// aggregation rely on. The session field is the slot Cluster::make_session
/// hands out, one per session for the cluster's lifetime, so an id is never
/// reused. A session hands out its local sequence numbers in order, so one
/// seq per session speaks for all its ids: participants drop a Prepare at or
/// below the session's highest decided seq, and FW-KV reclaims the read-only
/// ids below its lowest open seq (its watermark).
struct TxId {
  std::uint64_t raw = 0;

  constexpr TxId() = default;
  constexpr explicit TxId(std::uint64_t r) : raw(r) {}
  constexpr TxId(NodeId node, std::uint32_t session, std::uint32_t seq)
      : raw((static_cast<std::uint64_t>(node & 0xffffu) << 48) |
            (static_cast<std::uint64_t>(session & 0xffffu) << 32) | seq) {}

  constexpr NodeId node() const {
    return static_cast<NodeId>((raw >> 48) & 0xffffu);
  }
  constexpr std::uint32_t session() const {
    return static_cast<std::uint32_t>((raw >> 32) & 0xffffu);
  }
  constexpr std::uint32_t local_seq() const {
    return static_cast<std::uint32_t>(raw & 0xffffffffu);
  }

  constexpr bool valid() const { return raw != 0; }
  friend constexpr bool operator==(TxId a, TxId b) { return a.raw == b.raw; }
  friend constexpr bool operator!=(TxId a, TxId b) { return a.raw != b.raw; }
  friend constexpr bool operator<(TxId a, TxId b) { return a.raw < b.raw; }
};

/// A TxId that never identifies a real transaction.
inline constexpr TxId kInvalidTxId{};

std::string to_string(TxId id);

inline std::string to_string(TxId id) {
  return "T(" + std::to_string(id.node()) + "." + std::to_string(id.session()) +
         "." + std::to_string(id.local_seq()) + ")";
}

}  // namespace fwkv

template <>
struct std::hash<fwkv::TxId> {
  std::size_t operator()(fwkv::TxId id) const noexcept {
    // SplitMix64 finalizer: TxId raw values are highly structured, so mix.
    std::uint64_t x = id.raw + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};
