// Multi-threaded read-path contention benchmark (machine-readable output).
//
// Exercises the MVStore hot paths directly — no simulated network — so the
// numbers isolate store-level synchronization cost: version selection,
// reader (de)registration, validate, and install. Four mixes:
//
//   ro_hot      - read-only transactions over a small hot key set (worst
//                 case for per-entry and index-shard contention);
//   ro_uniform  - read-only transactions over a wide key space (shard-map
//                 lookup cost dominates);
//   read_mostly - YCSB-B-shaped: 95% update-transaction reads, 5% installs
//                 with collected-set stamping plus a validate per install;
//   validate    - pure prepare-path validation over the hot keys (shared
//                 entry latch).
//
// Output is JSON ({"bench":"readpath","runs":[...]}): one run object per
// (mix, threads) point with ops/sec. --append merges into an existing file
// written by this tool so baseline and current numbers live side by side
// (see BENCH_readpath.json).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "store/mv_store.hpp"

namespace {

using namespace fwkv;
using store::MVStore;

constexpr std::size_t kNodes = 4;
constexpr Key kHotKeys = 64;
constexpr Key kWideKeys = 8192;

// xorshift64* — cheap per-thread deterministic stream.
struct BenchRng {
  std::uint64_t s;
  explicit BenchRng(std::uint64_t seed) : s(seed * 2654435761u + 1) {}
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1Dull;
  }
};

// Deregistration moved from remove_tx(tx, read_keys) (an id list plus the
// keys read) to finish_below(watermarks) (the session's watermark passes the
// id). Detect which one this tree provides so the same bench source
// measures both sides.
template <typename Store>
void deregister(Store& s, TxId tx, const std::vector<Key>& keys) {
  if constexpr (requires { s.finish_below(std::span<const TxId>()); }) {
    (void)keys;
    const TxId watermark(tx.node(), tx.session(), tx.local_seq() + 1);
    s.finish_below(std::span<const TxId>(&watermark, 1));
  } else {
    s.remove_tx(tx, std::span<const Key>(keys));
  }
}

struct RunResult {
  std::string mix;
  unsigned threads = 0;
  double ops_per_sec = 0;
  std::uint64_t total_ops = 0;
  double duration_ms = 0;
};

template <typename WorkerFn>
RunResult run_mix(const char* mix, unsigned threads, int ms, WorkerFn&& fn) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> ts;
  ts.reserve(threads);
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] { total.fetch_add(fn(t, stop)); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  stop.store(true);
  for (auto& th : ts) th.join();
  const auto t1 = std::chrono::steady_clock::now();
  RunResult r;
  r.mix = mix;
  r.threads = threads;
  r.total_ops = total.load();
  r.duration_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.ops_per_sec = r.total_ops / (r.duration_ms / 1000.0);
  return r;
}

RunResult bench_read_only(unsigned threads, int ms, Key key_space,
                          const char* mix) {
  MVStore store;
  for (Key k = 0; k < key_space; ++k) store.load(k, "v", kNodes);
  return run_mix(mix, threads, ms, [&](unsigned t, std::atomic<bool>& stop) {
    BenchRng rng(t + 1);
    VectorClock tvc(kNodes);
    std::vector<bool> mask(kNodes, false);
    std::vector<Key> keys(8);
    std::uint64_t ops = 0;
    std::uint32_t seq = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      TxId me(1, t, ++seq);
      for (auto& k : keys) {
        k = static_cast<Key>(rng.next() % key_space);
        auto r = store.read_read_only(k, tvc, mask, me);
        ops += r.found;
      }
      deregister(store, me, keys);
    }
    return ops;
  });
}

RunResult bench_read_mostly(unsigned threads, int ms) {
  MVStore store;
  constexpr Key kKeys = 512;
  for (Key k = 0; k < kKeys; ++k) store.load(k, "v", kNodes);
  return run_mix("read_mostly", threads, ms,
                 [&](unsigned t, std::atomic<bool>& stop) {
    BenchRng rng(t + 101);
    VectorClock tvc(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) tvc[i] = 1u << 20;
    std::vector<bool> mask(kNodes, true);
    std::uint64_t ops = 0;
    SeqNo seq = 0;
    const NodeId origin = t % kNodes;
    std::vector<TxId> collected{TxId(2, t, 7)};
    while (!stop.load(std::memory_order_relaxed)) {
      const Key k = static_cast<Key>(rng.next() % kKeys);
      if (rng.next() % 100 < 95) {
        auto r = store.read_update(k, tvc, mask, true);
        ops += r.found;
      } else {
        // Prepare-path validate, then install with a stamped collected set.
        ops += store.validate_key(k, tvc);
        VectorClock commit_vc(kNodes);
        commit_vc[origin] = ++seq;
        store.install(k, "v2", commit_vc, origin, seq, collected);
        ++ops;
      }
    }
    return ops;
  });
}

RunResult bench_validate(unsigned threads, int ms) {
  MVStore store;
  for (Key k = 0; k < kHotKeys; ++k) store.load(k, "v", kNodes);
  return run_mix("validate", threads, ms,
                 [&](unsigned t, std::atomic<bool>& stop) {
    BenchRng rng(t + 201);
    VectorClock tvc(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) tvc[i] = 1;
    std::uint64_t ops = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const Key k = static_cast<Key>(rng.next() % kHotKeys);
      ops += store.validate_key(k, tvc);
      ops += store.validate_key_version(k, 1);
    }
    return ops;
  });
}

void append_json(std::string& out, const RunResult& r,
                 const std::string& label, bool first) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s    {\"label\": \"%s\", \"mix\": \"%s\", \"threads\": %u, "
                "\"ops_per_sec\": %.0f, \"total_ops\": %llu, "
                "\"duration_ms\": %.1f}",
                first ? "" : ",\n", label.c_str(), r.mix.c_str(), r.threads,
                r.ops_per_sec,
                static_cast<unsigned long long>(r.total_ops), r.duration_ms);
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string label = "current";
  std::string append_file;
  int ms = 500;
  std::vector<unsigned> threads = {1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--label" && i + 1 < argc) {
      label = argv[++i];
    } else if (a == "--append" && i + 1 < argc) {
      append_file = argv[++i];
    } else if (a == "--ms" && i + 1 < argc) {
      ms = std::atoi(argv[++i]);
    } else if (a == "--threads" && i + 1 < argc) {
      threads.clear();
      std::stringstream ss(argv[++i]);
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        char* end = nullptr;
        const unsigned long n = std::strtoul(tok.c_str(), &end, 10);
        if (end == tok.c_str() || *end != '\0' || n == 0 || n > 1024) {
          std::fprintf(stderr, "--threads: bad count '%s'\n", tok.c_str());
          return 2;
        }
        threads.push_back(static_cast<unsigned>(n));
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--label L] [--append FILE] [--ms N] "
                   "[--threads 1,2,4,8]\n",
                   argv[0]);
      return 2;
    }
  }

  std::string body;
  bool first = true;
  for (unsigned t : threads) {
    RunResult rs[] = {
        bench_read_only(t, ms, kHotKeys, "ro_hot"),
        bench_read_only(t, ms, kWideKeys, "ro_uniform"),
        bench_read_mostly(t, ms),
        bench_validate(t, ms),
    };
    for (const auto& r : rs) {
      std::fprintf(stderr, "%-12s threads=%u  %12.0f ops/s\n", r.mix.c_str(),
                   r.threads, r.ops_per_sec);
      append_json(body, r, label, first);
      first = false;
    }
  }

  // Self-owned file format: {"bench": "readpath", "runs": [...]} with the
  // exact closing suffix below, so appending a later run is a suffix swap.
  const std::string kSuffix = "\n  ]\n}\n";
  std::string content;
  if (!append_file.empty()) {
    std::ifstream in(append_file);
    if (in) {
      std::stringstream ss;
      ss << in.rdbuf();
      content = ss.str();
    }
  }
  if (content.size() > kSuffix.size() &&
      content.compare(content.size() - kSuffix.size(), kSuffix.size(),
                      kSuffix) == 0) {
    content.resize(content.size() - kSuffix.size());
    content += ",\n" + body + kSuffix;
  } else {
    content = "{\n  \"bench\": \"readpath\",\n  \"runs\": [\n" + body + kSuffix;
  }
  if (append_file.empty()) {
    std::fputs(content.c_str(), stdout);
  } else {
    std::ofstream out(append_file, std::ios::trunc);
    out << content;
    out.flush();
    if (!out) {
      std::fprintf(stderr, "--append: cannot write %s\n", append_file.c_str());
      return 1;
    }
  }
  return 0;
}
