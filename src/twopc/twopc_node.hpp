// 2PC-baseline (§5): a serializable distributed key-value store where every
// transaction — including read-only ones — executes optimistically and then
// validates its read-set and installs its write-set through Two-Phase
// Commit. Single-versioned: a read observes the current value, records its
// version, and the version must still be current at prepare time.
//
// This is the comparator whose read-only commit cost PSI systems avoid; the
// paper reports FW-KV/Walter at >3x its throughput.
#pragma once

#include "core/two_phase.hpp"
#include "store/sv_store.hpp"

namespace fwkv {

class TwoPcNode final : public TwoPhaseNode {
 public:
  using TwoPhaseNode::TwoPhaseNode;

  // ---- client-side API ----
  void begin(Transaction& tx) override;
  std::optional<Value> read(Transaction& tx, Key key) override;
  bool commit(Transaction& tx) override;
  void load(Key key, Value value) override;

  store::SVStore& sv_store() { return store_; }

 protected:
  bool lock_read(const net::ReadRequest& /*req*/) override { return true; }
  net::ReadReturn serve_read(const net::ReadRequest& req) override;
  void on_decide(net::DecideMessage&& m) override;
  bool validate(const net::PrepareRequest& req, const HeldLocks& held) override;

 private:
  store::SVStore store_;
};

}  // namespace fwkv
