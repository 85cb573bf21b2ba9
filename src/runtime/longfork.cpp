#include "runtime/longfork.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.hpp"
#include "core/session.hpp"

namespace fwkv::runtime {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxUpdates = 1 << 20;

/// Bound on one probe's run: far above what min_snapshots needs even on a
/// loaded host, so reaching it means the readers are stuck.
constexpr std::chrono::seconds kMaxProbeTime{60};

/// Commit log of one updater: commit_time[v] is when the commit of value v
/// returned to the client (so "committed before T starts" is well defined
/// at the client level, as in the §3.3 social-network story).
struct CommitLog {
  std::vector<std::atomic<std::int64_t>> times;
  std::atomic<std::uint64_t> last{0};

  CommitLog() : times(kMaxUpdates) {}

  void record(std::uint64_t value, std::int64_t t_ns) {
    if (value < kMaxUpdates) {
      times[value].store(t_ns, std::memory_order_release);
      last.store(value, std::memory_order_release);
    }
  }

  /// Largest value whose commit completed at or before `t_ns`.
  std::uint64_t settled_at(std::int64_t t_ns) const {
    std::uint64_t v = last.load(std::memory_order_acquire);
    while (v > 0 && times[v].load(std::memory_order_acquire) > t_ns) --v;
    return v;
  }
};

struct Snapshot {
  std::uint64_t x;
  std::uint64_t y;
  bool stale;  // missed a committed-before-start version on some stream
};

/// Count pairs (i, j) with x_i < x_j and y_i > y_j — opposite-order
/// observations — via merge-sort inversion counting in O(n log n).
std::uint64_t count_opposite_pairs(std::vector<Snapshot> snaps) {
  std::sort(snaps.begin(), snaps.end(), [](const Snapshot& a,
                                           const Snapshot& b) {
    return a.x != b.x ? a.x < b.x : a.y < b.y;
  });
  // After sorting by (x asc, y asc), pairs with equal x contribute no
  // strict inversion (their y is ascending), so counting strict y
  // inversions counts exactly the opposite-order pairs.
  std::vector<std::uint64_t> ys(snaps.size());
  for (std::size_t i = 0; i < snaps.size(); ++i) ys[i] = snaps[i].y;

  std::uint64_t inversions = 0;
  std::vector<std::uint64_t> tmp(ys.size());
  // Bottom-up merge sort counting strict inversions.
  for (std::size_t width = 1; width < ys.size(); width *= 2) {
    for (std::size_t lo = 0; lo + width < ys.size(); lo += 2 * width) {
      const std::size_t mid = lo + width;
      const std::size_t hi = std::min(lo + 2 * width, ys.size());
      std::size_t i = lo;
      std::size_t j = mid;
      std::size_t k = lo;
      while (i < mid && j < hi) {
        if (ys[i] <= ys[j]) {
          tmp[k++] = ys[i++];
        } else {
          inversions += mid - i;  // ys[i..mid) all strictly greater
          tmp[k++] = ys[j++];
        }
      }
      while (i < mid) tmp[k++] = ys[i++];
      while (j < hi) tmp[k++] = ys[j++];
      std::copy(tmp.begin() + static_cast<std::ptrdiff_t>(lo),
                tmp.begin() + static_cast<std::ptrdiff_t>(hi),
                ys.begin() + static_cast<std::ptrdiff_t>(lo));
    }
  }
  return inversions;
}

std::uint64_t parse_counter(const Value& v) {
  return v.empty() ? 0 : std::strtoull(v.c_str(), nullptr, 10);
}

}  // namespace

LongForkResult run_long_fork_probe(const LongForkProbeConfig& config) {
  assert(config.num_nodes >= 4);
  ClusterConfig cfg;
  cfg.num_nodes = config.num_nodes;
  cfg.protocol = config.protocol;
  cfg.net.one_way_latency = config.one_way_latency;
  cfg.net.propagate_extra_delay = config.propagate_extra_delay;
  Cluster cluster(cfg);

  // Pick two counter keys with distinct preferred nodes.
  Key key_x = 0;
  while (true) {
    ++key_x;
    if (cluster.node_for_key(key_x) != 0) continue;
    break;
  }
  Key key_y = key_x;
  while (true) {
    ++key_y;
    if (cluster.node_for_key(key_y) != 1) continue;
    break;
  }
  cluster.load(key_x, "0");
  cluster.load(key_y, "0");

  CommitLog log_x;
  CommitLog log_y;
  const auto epoch = Clock::now();
  auto now_ns = [&]() -> std::int64_t {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch)
        .count();
  };

  std::atomic<bool> stop{false};
  LongForkResult result;

  // Updaters live on their key's preferred node: their commits are local
  // (fast path), and only the asynchronous Propagate carries them to the
  // readers' nodes — the exact Fig. 1 regime.
  auto updater = [&](Key key, CommitLog& log, NodeId node) {
    Session session = cluster.make_session(node, /*client=*/50);
    std::uint64_t value = 1;
    while (!stop.load(std::memory_order_acquire)) {
      Transaction tx = session.begin(false);
      session.write(tx, key, std::to_string(value));
      if (session.commit(tx)) {
        log.record(value, now_ns());
        ++value;
      }
      if (config.update_interval.count() > 0) {
        std::this_thread::sleep_for(config.update_interval);
      }
    }
  };

  std::vector<Snapshot> all_snapshots;
  std::mutex snapshots_mu;
  std::atomic<std::uint64_t> taken{0};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> stale_first{0};

  auto reader = [&](NodeId node, std::uint32_t client, bool x_first) {
    Session session = cluster.make_session(node, client);
    std::vector<Snapshot> local;
    while (!stop.load(std::memory_order_acquire)) {
      const std::int64_t t0 = now_ns();
      const std::uint64_t settled_x = log_x.settled_at(t0);
      const std::uint64_t settled_y = log_y.settled_at(t0);
      Transaction tx = session.begin(true);
      Key first = x_first ? key_x : key_y;
      Key second = x_first ? key_y : key_x;
      auto v1 = session.read(tx, first);
      auto v2 = session.read(tx, second);
      session.commit(tx);
      if (!v1 || !v2) continue;
      const std::uint64_t vx = parse_counter(x_first ? *v1 : *v2);
      const std::uint64_t vy = parse_counter(x_first ? *v2 : *v1);
      reads.fetch_add(2, std::memory_order_relaxed);
      // Both reads are first contacts with their nodes (the reader's node
      // differs from both preferred nodes), so §2.4 promises the latest
      // committed-before-start version from each.
      if (vx < settled_x) stale_first.fetch_add(1, std::memory_order_relaxed);
      if (vy < settled_y) stale_first.fetch_add(1, std::memory_order_relaxed);
      local.push_back(Snapshot{vx, vy, vx < settled_x || vy < settled_y});
      taken.fetch_add(1, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lock(snapshots_mu);
    all_snapshots.insert(all_snapshots.end(), local.begin(), local.end());
  };

  std::vector<std::thread> threads;
  threads.emplace_back(updater, key_x, std::ref(log_x), NodeId{0});
  threads.emplace_back(updater, key_y, std::ref(log_y), NodeId{1});
  for (std::uint32_t r = 0; r < config.readers; ++r) {
    const NodeId node = 2 + (r % (config.num_nodes - 2));
    threads.emplace_back(reader, node, 100 + r, r % 2 == 0);
  }

  const auto deadline = Clock::now() + kMaxProbeTime;
  while (taken.load(std::memory_order_relaxed) < config.min_snapshots &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  if (all_snapshots.size() < config.min_snapshots) {
    throw std::runtime_error(
        "long-fork probe: " + std::to_string(all_snapshots.size()) + " of " +
        std::to_string(config.min_snapshots) + " snapshots in " +
        std::to_string(kMaxProbeTime.count()) + " s");
  }

  result.snapshots = all_snapshots.size();
  result.reads = reads.load();
  result.stale_first_reads = stale_first.load();
  result.updates_committed = log_x.last.load() + log_y.last.load();
  result.long_fork_pairs = count_opposite_pairs(all_snapshots);
  std::vector<Snapshot> stale;
  for (const auto& s : all_snapshots) {
    if (s.stale) stale.push_back(s);
  }
  result.stale_long_fork_pairs = count_opposite_pairs(std::move(stale));
  return result;
}

}  // namespace fwkv::runtime
