// The paper's motivating scenario (§1, §3.3): a social network where users
// increasingly expect to see each other's posts in a sensible order.
//
// Alice posts on her home node; she then tells Bob (out of band), and Bob
// replies on *his* home node. Readers on other nodes run read-only
// transactions over both timelines. Under Walter, a reader whose node has
// not received the asynchronous propagation yet can see Bob's reply but
// miss Alice's original post — the client-visible long-fork of Fig. 1.
// Under FW-KV the first access to each node returns the latest committed
// version, so a reply can never be observed without its cause.
//
//   $ ./build/examples/social_network
#include <iostream>
#include <thread>
#include <vector>

#include "core/cluster.hpp"
#include "core/session.hpp"

namespace {

using namespace fwkv;

struct Observation {
  std::string alice;
  std::string bob;
};

Observation run_scenario(Protocol protocol) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.protocol = protocol;
  config.net.one_way_latency = std::chrono::microseconds(100);
  // The link from Alice's node (0) to the follower's node (3) is congested
  // (20 ms); every other link is not (-1: one_way_latency). So Bob's
  // propagation overtakes hers on its way to node 3 — "receiving propagate
  // from different nodes in different orders is a likely scenario in an
  // asynchronous distributed system" (§3.3).
  using std::chrono::nanoseconds;
  config.net.link_latency.assign(
      4, std::vector<nanoseconds>(4, nanoseconds(-1)));
  config.net.link_latency[0][3] = std::chrono::milliseconds(20);
  Cluster cluster(config);

  // Pick one timeline key homed on node 0 and one homed on node 1.
  Key alice_wall = 0;
  while (cluster.node_for_key(alice_wall) != 0) ++alice_wall;
  Key bob_wall = alice_wall + 1;
  while (cluster.node_for_key(bob_wall) != 1) ++bob_wall;
  cluster.load(alice_wall, "(no post yet)");
  cluster.load(bob_wall, "(no post yet)");

  // Alice posts from her home node; the commit is local and fast.
  Session alice = cluster.make_session(0, 0);
  Transaction post = alice.begin();
  alice.write(post, alice_wall, "Alice: we're engaged!");
  alice.commit(post);

  // Wait until Alice's propagation batch has been handed to the network.
  std::this_thread::sleep_for(std::chrono::milliseconds(3));

  // Alice texts Bob; Bob reads her post *on her node* and replies on his.
  // Bob's commit propagates quickly and overtakes Alice's still-delayed
  // propagation.
  Session bob = cluster.make_session(1, 0);
  Transaction reply = bob.begin();
  bob.read(reply, alice_wall);
  bob.write(reply, bob_wall, "Bob: congratulations you two!");
  bob.commit(reply);

  // Give Bob's (fast) propagation time to arrive everywhere while Alice's
  // is still in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // A follower on node 3 now refreshes the combined timeline.
  Session carol = cluster.make_session(3, 0);
  Transaction timeline = carol.begin(/*read_only=*/true);
  Observation seen;
  seen.bob = carol.read(timeline, bob_wall).value();
  seen.alice = carol.read(timeline, alice_wall).value();
  carol.commit(timeline);
  cluster.quiesce();
  return seen;
}

}  // namespace

int main() {
  for (Protocol p : {Protocol::kWalter, Protocol::kFwKv}) {
    auto seen = run_scenario(p);
    std::cout << protocol_name(p) << " timeline on a remote node:\n"
              << "  bob's wall  : " << seen.bob << "\n"
              << "  alice's wall: " << seen.alice << "\n";
    const bool anomaly = seen.bob.find("congratulations") != std::string::npos &&
                         seen.alice.find("engaged") == std::string::npos;
    std::cout << (anomaly
                      ? "  -> ANOMALY: the reply is visible but the original "
                        "post is not (stale first read)\n\n"
                      : "  -> consistent: fresh first reads show the post "
                        "before (or with) the reply\n\n");
  }
  return 0;
}
