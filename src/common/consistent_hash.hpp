// Key -> preferred-node mapping (§2.2: "FW-KV implements a local look-up
// function using consistent hashing").
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "common/key_mapper.hpp"

namespace fwkv {

/// Virtual nodes per physical node on a ring built with the default.
inline constexpr std::uint32_t kRingVnodes = 128;

/// Consistent-hash ring with virtual nodes. Every node in the cluster builds
/// the same ring locally (same seeds), so site(k) needs no coordination.
///
/// The evaluation configures "keys evenly distributed across nodes" (§5);
/// the default 128 virtual nodes per physical node keeps the imbalance under
/// a few percent, and tests assert that bound.
class ConsistentHashRing final : public KeyMapper {
 public:
  explicit ConsistentHashRing(std::uint32_t num_nodes,
                              std::uint32_t vnodes_per_node = kRingVnodes);

  /// Preferred node for `key` ("site(k)" in Alg. 2).
  NodeId node_for(Key key) const override;

  std::uint32_t num_nodes() const { return num_nodes_; }

  /// Fraction of a large pseudo-random key sample owned by each node;
  /// exposed for balance tests and for the loader's placement stats.
  std::vector<double> sample_ownership(std::size_t samples = 1 << 20) const;

 private:
  struct Point {
    std::uint64_t hash;
    NodeId node;
    friend bool operator<(const Point& a, const Point& b) {
      return a.hash < b.hash;
    }
  };

  std::uint32_t num_nodes_;
  std::vector<Point> ring_;
};

/// Mixes a key before it hits the ring; also reused by the sharded lock
/// tables.
std::uint64_t hash_key(Key key);

}  // namespace fwkv
