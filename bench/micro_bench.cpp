// Micro-benchmarks (google-benchmark) for the building blocks and the
// design-choice ablations called out in DESIGN.md §5:
//   * vector-clock operations (the per-read/commit metadata cost)
//   * version selection: FW-KV read-only vs update rule vs Walter rule
//     (the cost of freshness)
//   * access-set maintenance and Remove (the VAS ablation)
//   * lock table, participant table, codec, the SimNetwork send path,
//     consistent hashing, workload generators
#include <benchmark/benchmark.h>

#include <memory>
#include <span>

#include "common/consistent_hash.hpp"
#include "common/rng.hpp"
#include "common/vector_clock.hpp"
#include "core/two_phase.hpp"
#include "net/codec.hpp"
#include "net/network.hpp"
#include "store/lock_table.hpp"
#include "store/mv_store.hpp"
#include "store/version_chain.hpp"

namespace fwkv {
namespace {

void BM_VectorClockMerge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  VectorClock a(n);
  VectorClock b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = i * 3 + 1;
  for (auto _ : state) {
    a.merge(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_VectorClockMerge)->Arg(5)->Arg(20)->Arg(64);

void BM_VectorClockLeqMasked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  VectorClock a(n);
  VectorClock b(n);
  std::vector<bool> mask(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = i;
    b[i] = i + 1;
    mask[i] = (i % 2) == 0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.leq_masked(b, mask));
  }
}
BENCHMARK(BM_VectorClockLeqMasked)->Arg(5)->Arg(20)->Arg(64);

store::VersionChain make_chain(std::size_t versions, std::size_t nodes) {
  store::VersionChain chain;
  Rng rng(7);
  for (std::size_t v = 0; v < versions; ++v) {
    VectorClock vc(nodes);
    const auto origin = static_cast<NodeId>(v % nodes);
    vc[origin] = v + 1;
    chain.install("value-" + std::to_string(v), std::move(vc), origin, v + 1);
  }
  return chain;
}

void BM_SelectReadOnly(benchmark::State& state) {
  const auto versions = static_cast<std::size_t>(state.range(0));
  auto chain = make_chain(versions, 20);
  VectorClock tvc(20);
  for (std::size_t i = 0; i < 20; ++i) tvc[i] = versions;
  std::vector<bool> mask(20, true);
  std::uint32_t seq = 0;
  for (auto _ : state) {
    auto r = chain.select_read_only(tvc, mask, TxId(0, 0, ++seq));
    benchmark::DoNotOptimize(r);
  }
  // Selection inserts reader ids; report the resulting VAS burden.
  state.counters["vas_size"] = static_cast<double>(
      chain.latest().access_set().size());
}
BENCHMARK(BM_SelectReadOnly)->Arg(2)->Arg(16)->Arg(64);

void BM_CollectAccessSets(benchmark::State& state) {
  // Alg. 5 lines 8-10 on one written key in ycsb_hot's shape: a long chain
  // kept by the retention window, one read-only id on the newest version.
  const auto versions = static_cast<std::size_t>(state.range(0));
  auto chain = make_chain(versions, 20);
  chain.select_read_only(VectorClock(20), std::vector<bool>(20, false),
                         TxId(1, 1, 1));
  std::vector<TxId> out;
  for (auto _ : state) {
    out.clear();
    chain.collect_access_sets(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["collected"] = static_cast<double>(out.size());
}
BENCHMARK(BM_CollectAccessSets)->Arg(64)->Arg(1024)->Arg(4096);

void BM_SelectUpdate(benchmark::State& state) {
  const auto versions = static_cast<std::size_t>(state.range(0));
  auto chain = make_chain(versions, 20);
  VectorClock tvc(20);
  for (std::size_t i = 0; i < 20; ++i) tvc[i] = versions / 2;
  std::vector<bool> mask(20, false);
  mask[3] = true;
  for (auto _ : state) {
    auto r = chain.select_update(tvc, mask, true);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SelectUpdate)->Arg(2)->Arg(16)->Arg(64);

void BM_SelectWalter(benchmark::State& state) {
  const auto versions = static_cast<std::size_t>(state.range(0));
  auto chain = make_chain(versions, 20);
  VectorClock tvc(20);
  for (std::size_t i = 0; i < 20; ++i) tvc[i] = versions / 2;
  for (auto _ : state) {
    auto r = chain.select_walter(tvc);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SelectWalter)->Arg(2)->Arg(16)->Arg(64);

void BM_MVStoreReadOnlyWithRemove(benchmark::State& state) {
  store::MVStore store;
  store.load(1, "v", 20);
  VectorClock tvc(20);
  std::vector<bool> mask(20, false);
  std::uint32_t seq = 0;
  for (auto _ : state) {
    TxId reader(1, 1, ++seq);
    auto r = store.read_read_only(1, tvc, mask, reader);
    benchmark::DoNotOptimize(r);
    const TxId watermark(1, 1, seq + 1);
    store.finish_below(std::span<const TxId>(&watermark, 1));
  }
}
BENCHMARK(BM_MVStoreReadOnlyWithRemove);

void BM_LockTableExclusive(benchmark::State& state) {
  store::LockTable locks;
  const TxId owner(1, 2, 3);
  for (auto _ : state) {
    locks.lock(42, owner, store::LockTable::Mode::kExclusive);
    locks.unlock(42, owner, store::LockTable::Mode::kExclusive);
  }
}
BENCHMARK(BM_LockTableExclusive);

void BM_LockTableSharedContention(benchmark::State& state) {
  static store::LockTable locks;
  const TxId owner(1, static_cast<std::uint32_t>(state.thread_index()), 1);
  for (auto _ : state) {
    locks.lock(7, owner, store::LockTable::Mode::kShared);
    locks.unlock(7, owner, store::LockTable::Mode::kShared);
  }
}
BENCHMARK(BM_LockTableSharedContention)->Threads(1)->Threads(4);

void BM_ParticipantTablePrepareDecide(benchmark::State& state) {
  // A participant's pass through its table for one fresh transaction:
  // begin_prepare, publish (a yes vote holding one key), decide. Each
  // thread drives 4 sessions of its own round robin, as 4 clients would;
  // the table is shared, as a node's is.
  static std::unique_ptr<ParticipantTable> table;
  if (state.thread_index() == 0) table = std::make_unique<ParticipantTable>();
  const std::uint32_t first_session = 4 * state.thread_index();
  std::uint32_t n = 0;
  for (auto _ : state) {
    const TxId tx(1, first_session + n % 4, n / 4 + 1);
    ++n;
    HeldLocks held;
    benchmark::DoNotOptimize(table->begin_prepare(tx, held));
    held.exclusive.push_back(tx.raw);
    table->publish(tx, held);
    benchmark::DoNotOptimize(table->decide(tx));
  }
  if (state.thread_index() == 0) table.reset();
}
BENCHMARK(BM_ParticipantTablePrepareDecide)->Threads(1)->Threads(4);

void BM_CodecRoundTripRead(benchmark::State& state) {
  net::ReadRequest req;
  req.rpc_id = 77;
  req.reply_to = 3;
  req.tx.id = TxId(1, 2, 3);
  req.tx.read_only = true;
  req.tx.vc = VectorClock(20);
  req.tx.has_read = AccessVector(20);
  req.key = 0xdeadbeef;
  net::Message m = req;
  for (auto _ : state) {
    auto bytes = net::encode_message(m);
    auto decoded = net::decode_message(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_CodecRoundTripRead);

void BM_CodecRoundTripDecide(benchmark::State& state) {
  net::DecideMessage d;
  d.tx = TxId(1, 2, 3);
  d.outcome = true;
  d.origin = 4;
  d.seq_no = 99;
  d.commit_vc = VectorClock(20);
  for (int i = 0; i < 10; ++i) {
    d.writes.push_back({static_cast<Key>(i), "twelve-bytes"});
    d.collected_set.push_back(TxId(2, 3, static_cast<std::uint32_t>(i)));
  }
  net::Message m = d;
  for (auto _ : state) {
    auto bytes = net::encode_message(m);
    auto decoded = net::decode_message(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_CodecRoundTripDecide);

void BM_SendZeroDelay(benchmark::State& state) {
  // SimNetwork's per-message work at 0 us, without a handler's: count the
  // send, deliver inline to an endpoint that does nothing, count it
  // finished. The threads share one network, as a node's clients do.
  struct NoOpEndpoint : net::NodeEndpoint {
    void handle_message(net::Message, NodeId) override {}
    std::size_t pending_work() const override { return 0; }
  };
  static std::unique_ptr<net::SimNetwork> network;
  static NoOpEndpoint endpoint;
  if (state.thread_index() == 0) {
    net::NetConfig config;
    config.one_way_latency = std::chrono::nanoseconds(0);
    network = std::make_unique<net::SimNetwork>(2, config);
    network->register_endpoint(1, &endpoint);
  }
  for (auto _ : state) {
    network->send(0, 1, net::PropagateMessage{0, 1, 1});
  }
  if (state.thread_index() == 0) network.reset();
}
BENCHMARK(BM_SendZeroDelay)->Threads(1)->Threads(4);

void BM_ConsistentHash(benchmark::State& state) {
  ConsistentHashRing ring(20);
  Key k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.node_for(++k));
  }
}
BENCHMARK(BM_ConsistentHash);

void BM_Zipfian(benchmark::State& state) {
  ZipfianGenerator zipf(1'000'000, 0.99);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.next(rng));
  }
}
BENCHMARK(BM_Zipfian);

void BM_RngAString(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_astring(12, 12));
  }
}
BENCHMARK(BM_RngAString);

}  // namespace
}  // namespace fwkv
