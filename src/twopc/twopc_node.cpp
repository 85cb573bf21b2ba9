#include "twopc/twopc_node.hpp"

#include <map>

#include "net/network.hpp"

namespace fwkv {

using net::DecideMessage;
using net::PrepareRequest;
using net::ReadRequest;
using net::ReadReturn;
using net::ReadValidationEntry;
using net::WriteEntry;

void TwoPcNode::begin(Transaction& /*tx*/) {
  // Optimistic execution: nothing to snapshot.
}

std::optional<Value> TwoPcNode::read(Transaction& tx, Key key) {
  if (auto written = tx.written_value(key)) return written;
  if (auto cached = tx.cached_read(key)) return cached;

  ReadRequest req;
  req.tx.id = tx.id();
  req.tx.read_only = tx.read_only();
  req.key = key;
  auto rr = fetch(tx, ctx_.mapper->node_for(key), std::move(req));
  if (!rr.has_value() || !rr->found) return std::nullopt;

  // Record the observed version: prepare re-checks it on the owner node.
  tx.record_validation(key, rr->version_id);
  tx.cache_read(key, rr->value);
  return rr->value;
}

bool TwoPcNode::commit(Transaction& tx) {
  // Unlike the PSI systems, read-only transactions go through the full
  // prepare/decide cycle to validate their reads (this is the cost the
  // paper's Fig. 5/8 measure against).
  std::map<NodeId, PrepareRequest> by_site;
  for (const auto& [key, value] : tx.write_set()) {
    by_site[ctx_.mapper->node_for(key)].writes.push_back(WriteEntry{key, value});
  }
  for (const auto& [key, version] : tx.validation_set()) {
    // A key that is also written is validated with the exclusive lock; no
    // separate shared entry needed — the participant handles the overlap.
    by_site[ctx_.mapper->node_for(key)].reads.push_back(
        ReadValidationEntry{key, version});
  }
  if (by_site.empty()) return finish(tx, Votes{});  // touched nothing at all

  Outbox preps;
  for (auto& [site, prep] : by_site) {
    prep.tx = tx.id();
    preps.emplace_back(site, prep);
  }
  const Votes votes = prepare(tx.id(), preps);

  // Full synchronous second phase: the transaction completes only after
  // every participant applied the decision and acknowledged. This is the
  // read-only commit cost PSI avoids (§5: read-only transactions "undergo
  // an expensive commit phase using the 2PC protocol").
  Outbox decides;
  for (auto& [site, prep] : by_site) {
    DecideMessage d;
    d.tx = tx.id();
    d.outcome = votes.commit;
    d.origin = id_;
    d.writes = std::move(prep.writes);
    decides.emplace_back(site, std::move(d));
  }
  decide(tx.id(), decides, /*acked=*/true);
  return finish(tx, votes);
}

void TwoPcNode::load(Key key, Value value) {
  store_.load(key, std::move(value));
}

ReadReturn TwoPcNode::serve_read(const ReadRequest& req) {
  // Locks nothing: the read is validated at prepare, under the lock.
  stats_.reads_served.add();
  ReadReturn ret;
  ret.rpc_id = req.rpc_id;
  if (auto item = store_.read(req.key)) {
    ret.found = true;
    ret.value = std::move(item->value);
    ret.version_id = item->version;
    ret.latest_id = item->version;
  }
  return ret;
}

bool TwoPcNode::validate(const PrepareRequest& req, const HeldLocks& /*held*/) {
  // All locks held: every read must still see the version it observed.
  for (const auto& r : req.reads) {
    if (!store_.validate(r.key, r.version)) return false;
  }
  return true;
}

void TwoPcNode::on_decide(DecideMessage&& m) {
  // Install under the yes-vote's locks, then release them. A duplicate
  // Decide, or one for a no-vote, holds nothing and installs nothing.
  if (auto held = participants_.decide(m.tx)) {
    if (m.outcome) {
      for (const auto& w : m.writes) {
        store_.install(w.key, w.value);
        stats_.versions_installed.add();
      }
    }
    release(m.tx, *held);
  }
  if (m.outcome) stats_.decides_applied.add();
  if (m.rpc_id != 0) {
    ctx_.network->send(id_, m.reply_to, net::DecideAck{m.rpc_id});
  }
}

}  // namespace fwkv
