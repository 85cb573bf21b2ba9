// One run of the FW-KV benchmark: a 4-node cluster driven by 4 closed-loop
// YCSB clients, one per node, through the public Cluster/Session API. It
// checks the run's outputs, prints every metric by name with its unit and
// sample count, and ends with one JSON line. Workloads, metrics and how to
// read a traced run: README.md.
//
//   fwkv_bench --workload ycsb_inline --seed 1 --seconds 10 --trace 0

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/session.hpp"
#include "trace_math.hpp"
#include "tracer.hpp"

namespace {

namespace net = fwkv::net;
using perfbench::Clock;
using perfbench::now_ns;
using perfbench::percentile;
using perfbench::ratio;

// The YCSB setting of the paper's §5, shared by every workload.
constexpr std::uint32_t kNodes = 4;  // one closed-loop client per node
constexpr std::uint64_t kKeys = 50'000;
constexpr std::size_t kKeyDigits = 5;  // a value starts with its key
constexpr std::size_t kValueSize = 12;
constexpr double kReadOnlyRatio = 0.5;
constexpr std::uint32_t kMaxRetries = 1000;

// Each measured second follows this much warm-up on its fresh cluster.
constexpr std::int64_t kWarmupNs = 500'000'000;
constexpr std::int64_t kWindowNs = 1'000'000'000;
// Each episode builds and loads its cluster this many times; the last one
// runs. setup_s is the fastest of all of a run's set-ups (README.md).
constexpr int kSetupReps = 3;
// The share of the traced mean transaction latency the Session call spans
// must account for.
constexpr double kMinSpanCoverage = 0.9;
// Commits counted by a node but returned to the client on the other side of
// a window edge: at most one per client per edge.
constexpr std::uint64_t kCommitSlack = 2 * kNodes;

struct WorkloadSpec {
  const char* name;
  fwkv::Protocol protocol;
  int one_way_latency_us;
  double zipf_theta;  // 0 = uniform keys
};

// Why each workload exists: README.md.
constexpr WorkloadSpec kWorkloads[] = {
    {"ycsb_inline", fwkv::Protocol::kFwKv, 0, 0.0},
    {"ycsb_lan", fwkv::Protocol::kFwKv, 20, 0.0},
    {"ycsb_hot", fwkv::Protocol::kFwKv, 0, 0.99},
    {"ycsb_2pc", fwkv::Protocol::kTwoPC, 0, 0.0},
};

// ---------------------------------------------------------------------------
// Values: a 5-digit key followed by random characters, so every read can be
// checked against the key it asked for.
// ---------------------------------------------------------------------------

fwkv::Value make_value(fwkv::Key key, fwkv::Rng& rng) {
  char digits[kKeyDigits + 1];
  std::snprintf(digits, sizeof digits, "%05llu",
                static_cast<unsigned long long>(key));
  return digits + rng.next_astring(kValueSize - kKeyDigits,
                                   kValueSize - kKeyDigits);
}

bool value_matches(const fwkv::Value& v, fwkv::Key key) {
  if (v.size() != kValueSize) return false;
  fwkv::Key got = 0;
  for (std::size_t i = 0; i < kKeyDigits; ++i) {
    if (v[i] < '0' || v[i] > '9') return false;
    got = got * 10 + static_cast<fwkv::Key>(v[i] - '0');
  }
  return got == key;
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// ---------------------------------------------------------------------------
// Counters sampled by the main thread at the edges of every window.
// ---------------------------------------------------------------------------

std::int64_t cpu_ns(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return (static_cast<std::int64_t>(ru.ru_utime.tv_sec) + ru.ru_stime.tv_sec) *
             1'000'000'000 +
         (static_cast<std::int64_t>(ru.ru_utime.tv_usec) + ru.ru_stime.tv_usec) *
             1'000;
}

/// Machine-wide CPU time from /proc/stat, in ns (zeros if unreadable).
struct HostCpu {
  std::int64_t total = 0;
  std::int64_t idle = 0;
  std::int64_t iowait = 0;
  std::int64_t steal = 0;
};

HostCpu read_host_cpu() {
  std::ifstream f("/proc/stat");
  std::string label;
  std::array<std::int64_t, 8> v{};  // user nice system idle iowait irq softirq steal
  if (!(f >> label) || label != "cpu") return {};
  for (auto& x : v) f >> x;
  const std::int64_t ns_per_tick = 1'000'000'000 / sysconf(_SC_CLK_TCK);
  HostCpu h;
  for (auto x : v) h.total += x * ns_per_tick;
  h.idle = v[3] * ns_per_tick;
  h.iowait = v[4] * ns_per_tick;
  h.steal = v[7] * ns_per_tick;
  return h;
}

/// Current resident set size of this process, from /proc/self/statm.
std::int64_t rss_bytes() {
  std::ifstream f("/proc/self/statm");
  std::int64_t size = 0, resident = 0;
  f >> size >> resident;
  return resident * sysconf(_SC_PAGESIZE);
}

/// Peak resident set size of this program, from VmHWM in /proc/self/status.
/// (getrusage's ru_maxrss also counts the parent's memory at fork when it
/// was larger, e.g. that of the Python launcher.)
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string label;
  double kb = 0.0;
  while (f >> label) {
    if (label == "VmHWM:") {
      f >> kb;
      break;
    }
    f.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return kb / 1024.0;
}

std::string read_loadavg() {
  std::ifstream f("/proc/loadavg");
  double a = 0, b = 0, c = 0;
  f >> a >> b >> c;
  std::ostringstream os;
  os << '[' << a << ", " << b << ", " << c << ']';
  return os.str();
}

/// Process and machine counters at one window edge. The difference of two
/// samples covers the window between them; differences of windows add.
struct Counters {
  std::int64_t cpu_ns = 0;
  std::int64_t rss_bytes = 0;
  HostCpu host;
  std::array<std::uint64_t, net::kNumMessageTypes> msgs{};
  std::uint64_t commits = 0;
  std::uint64_t events_buffered = 0;
  std::uint64_t collected_sum = 0;
  std::uint64_t collected_count = 0;
  std::uint64_t removes = 0;
  std::uint64_t prepare_retries = 0;
  std::uint64_t decide_retries = 0;

  std::uint64_t all_msgs() const {
    std::uint64_t s = 0;
    for (auto m : msgs) s += m;
    return s;
  }
  /// Share of the machine's CPU time stolen by the hypervisor.
  double steal_frac() const {
    return host.total == 0 ? 0.0
                           : static_cast<double>(host.steal) /
                                 static_cast<double>(host.total);
  }
  /// Share of the machine's CPU time busy outside this process.
  double foreign_frac() const {
    if (host.total == 0) return 0.0;
    const std::int64_t busy =
        host.total - host.idle - host.iowait - host.steal;
    return static_cast<double>(std::max<std::int64_t>(0, busy - cpu_ns)) /
           static_cast<double>(host.total);
  }

  template <typename Op>
  Counters zip(const Counters& o, Op op) const {
    Counters r;
    r.cpu_ns = op(cpu_ns, o.cpu_ns);
    r.rss_bytes = op(rss_bytes, o.rss_bytes);
    r.host.total = op(host.total, o.host.total);
    r.host.idle = op(host.idle, o.host.idle);
    r.host.iowait = op(host.iowait, o.host.iowait);
    r.host.steal = op(host.steal, o.host.steal);
    for (std::size_t i = 0; i < msgs.size(); ++i) r.msgs[i] = op(msgs[i], o.msgs[i]);
    r.commits = op(commits, o.commits);
    r.events_buffered = op(events_buffered, o.events_buffered);
    r.collected_sum = op(collected_sum, o.collected_sum);
    r.collected_count = op(collected_count, o.collected_count);
    r.removes = op(removes, o.removes);
    r.prepare_retries = op(prepare_retries, o.prepare_retries);
    r.decide_retries = op(decide_retries, o.decide_retries);
    return r;
  }
  Counters operator-(const Counters& o) const {
    return zip(o, [](auto a, auto b) { return a - b; });
  }
  Counters operator+(const Counters& o) const {
    return zip(o, [](auto a, auto b) { return a + b; });
  }
};

Counters take_sample(fwkv::Cluster& cluster) {
  Counters c;
  c.cpu_ns = cpu_ns(RUSAGE_SELF);
  c.rss_bytes = rss_bytes();
  c.host = read_host_cpu();
  for (std::size_t t = 0; t < net::kNumMessageTypes; ++t) {
    c.msgs[t] = cluster.network().messages_sent(static_cast<net::MessageType>(t));
  }
  const fwkv::NodeStats::Snapshot n = cluster.aggregate_stats();
  c.commits = n.total_commits();
  c.events_buffered = n.events_buffered;
  c.collected_sum = n.collected_sum;
  c.collected_count = n.collected_count;
  c.removes = n.removes_processed;
  c.prepare_retries = n.prepare_retries;
  c.decide_retries = n.decide_retries;
  return c;
}

// ---------------------------------------------------------------------------
// Clients.
// ---------------------------------------------------------------------------

/// The measured second of one episode. The main thread opens and closes it
/// right after sampling the counters, so that a commit counted by a node but
/// not by a client (or the reverse) is one in flight at an edge. A logical
/// transaction belongs to the window when its last call returned inside it.
struct Window {
  static constexpr std::int64_t kNever =
      std::numeric_limits<std::int64_t>::max();
  std::atomic<std::int64_t> start_ns{kNever};
  std::atomic<std::int64_t> end_ns{kNever};

  bool contains(std::int64_t t) const {
    return t >= start_ns.load(std::memory_order_acquire) &&
           t < end_ns.load(std::memory_order_acquire);
  }
};

/// Logical transactions of one or more windows.
struct Tally {
  std::vector<double> ro_lat_us, upd_lat_us;
  std::uint64_t commits = 0;
  std::uint64_t failed = 0;
  std::uint64_t attempts = 0;
  std::uint64_t aborts = 0;
  std::uint64_t reads = 0;
  std::uint64_t stale_reads = 0;

  void merge(const Tally& o) {
    append(ro_lat_us, o.ro_lat_us);
    append(upd_lat_us, o.upd_lat_us);
    commits += o.commits;
    failed += o.failed;
    attempts += o.attempts;
    aborts += o.aborts;
    reads += o.reads;
    stale_reads += o.stale_reads;
  }

  std::vector<double> lat_us() const {
    std::vector<double> all = ro_lat_us;
    all.insert(all.end(), upd_lat_us.begin(), upd_lat_us.end());
    return all;
  }
};

enum SpanKind : std::uint8_t {
  kBegin,
  kReadLocal,
  kReadRemote,
  kWrite,
  kCommitRo,
  kCommitUpd,
  kAbort,
  kNumSpanKinds
};

/// One traced Session call and the range of the client's sends it made.
struct CallRec {
  SpanKind kind;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t first_send;
  std::uint32_t end_send;
};

struct Client {
  Tally tally;
  std::uint64_t bad_reads = 0;
  // RUSAGE_THREAD CPU at the window's start and end, taken at the first
  // transaction the client starts after each.
  std::array<std::int64_t, 2> cpu_at{};
  // Sends this thread made while recording, and the Session calls of its
  // traced transactions that committed inside the window.
  std::vector<perfbench::ClientSend> sends;
  std::vector<CallRec> calls;
  std::uint64_t traced_txs = 0;
  double traced_latency_us = 0.0;
};

void run_client(fwkv::Cluster& cluster, const WorkloadSpec& spec,
                const Window& window, fwkv::NodeId node, std::uint64_t seed,
                const std::atomic<bool>& stop,
                const perfbench::Tracer* tracer, Client& me) {
  fwkv::Session session = cluster.make_session(node, 0);
  fwkv::Rng rng(seed);
  std::optional<fwkv::ZipfianGenerator> zipf;
  if (spec.zipf_theta > 0.0) zipf.emplace(kKeys, spec.zipf_theta);
  perfbench::Tracer::set_thread_log(&me.sends);

  const std::array<const std::atomic<std::int64_t>*, 2> marks = {
      &window.start_ns, &window.end_ns};
  std::size_t next_mark = 0;
  auto take_marks = [&](std::int64_t t) {
    while (next_mark < marks.size() &&
           t >= marks[next_mark]->load(std::memory_order_acquire)) {
      me.cpu_at[next_mark++] = cpu_ns(RUSAGE_THREAD);
    }
  };

  std::array<fwkv::Key, 2> keys{};
  std::array<fwkv::Value, 2> values;
  while (!stop.load(std::memory_order_acquire)) {
    take_marks(now_ns());
    // Draw the logical transaction before its clock starts; retries
    // re-execute the same transaction.
    for (std::size_t i = 0; i < keys.size(); ++i) {
      do {
        keys[i] = zipf ? zipf->next(rng) : rng.next_below(kKeys);
      } while (i == 1 && keys[1] == keys[0]);
    }
    const bool ro = rng.next_bool(kReadOnlyRatio);
    if (!ro) {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        values[i] = make_value(keys[i], rng);
      }
    }

    const bool traced = tracer != nullptr && tracer->on();
    const std::size_t calls_mark = me.calls.size();
    auto timed = [&](SpanKind kind, auto&& fn) {
      if (!traced) return fn();
      const std::int64_t start = now_ns();
      const auto first = static_cast<std::uint32_t>(me.sends.size());
      auto result = fn();
      me.calls.push_back({kind, start, now_ns(), first,
                          static_cast<std::uint32_t>(me.sends.size())});
      return result;
    };

    const std::int64_t t_start = now_ns();
    std::uint64_t attempts = 0, aborts = 0, reads = 0, stale = 0;
    bool committed = false;
    bool bad_read = false;
    for (std::uint32_t a = 0; a <= kMaxRetries && !committed && !bad_read;
         ++a) {
      ++attempts;
      fwkv::Transaction tx = timed(kBegin, [&] { return session.begin(ro); });
      for (std::size_t i = 0; i < keys.size() && !bad_read; ++i) {
        const SpanKind kind =
            cluster.node_for_key(keys[i]) == node ? kReadLocal : kReadRemote;
        auto v = timed(kind, [&] { return session.read(tx, keys[i]); });
        if (!v.has_value() || !value_matches(*v, keys[i])) {
          bad_read = true;
        } else if (!ro) {
          timed(kWrite, [&] {
            session.write(tx, keys[i], values[i]);
            return true;
          });
        }
      }
      if (bad_read) {
        timed(kAbort, [&] {
          session.abort(tx);
          return true;
        });
        break;
      }
      committed = timed(ro ? kCommitRo : kCommitUpd,
                        [&] { return session.commit(tx); });
      reads += tx.reads_issued();
      stale += tx.stale_reads();
      if (!committed) ++aborts;
    }
    const std::int64_t t_end = now_ns();

    const bool counted = window.contains(t_end);
    if (!counted || !traced || !committed) me.calls.resize(calls_mark);
    if (!counted) continue;
    Tally& s = me.tally;
    s.attempts += attempts;
    s.aborts += aborts;
    s.reads += reads;
    s.stale_reads += stale;
    if (bad_read) ++me.bad_reads;
    if (!committed) {
      ++s.failed;
      continue;
    }
    ++s.commits;
    const double lat_us = static_cast<double>(t_end - t_start) / 1e3;
    (ro ? s.ro_lat_us : s.upd_lat_us).push_back(lat_us);
    if (traced) {
      ++me.traced_txs;
      me.traced_latency_us += lat_us;
    }
  }
  take_marks(now_ns());
  perfbench::Tracer::set_thread_log(nullptr);
}

// ---------------------------------------------------------------------------
// Trace samples, joined per episode (message keys repeat across clusters).
// ---------------------------------------------------------------------------

constexpr std::array<net::MessageType, 5> kHandledTypes = {
    net::MessageType::kReadRequest, net::MessageType::kPrepareRequest,
    net::MessageType::kDecide, net::MessageType::kPropagate,
    net::MessageType::kRemove};

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

struct TraceSamples {
  std::array<std::vector<double>, kNumSpanKinds> span_us;
  std::uint64_t txs = 0;
  double latency_us = 0.0;
  std::array<std::vector<double>, kHandledTypes.size()> dispatch_us;
  std::array<std::vector<double>, kHandledTypes.size()> handler_us;
  std::vector<double> wake_us;
  std::vector<double> lateness_us;
  std::uint64_t bytes = 0;

  /// Adds one episode's samples.
  void collect(const perfbench::Tracer& tracer,
               const std::vector<Client>& clients);
  /// trace.span_coverage of the samples so far.
  double span_coverage() const;
};

double TraceSamples::span_coverage() const {
  std::vector<perfbench::CallMean> means;
  for (const auto& v : span_us) {
    double sum = 0.0;
    for (double x : v) sum += x;
    means.push_back({v.size(), ratio(sum, static_cast<double>(v.size()))});
  }
  return perfbench::span_coverage(means, txs,
                                  ratio(latency_us, static_cast<double>(txs)));
}

void TraceSamples::collect(const perfbench::Tracer& tracer,
                           const std::vector<Client>& clients) {
  using net::MessageType;
  // core.session: spans of the traced, committed transactions.
  for (const Client& c : clients) {
    for (const CallRec& call : c.calls) {
      span_us[call.kind].push_back(us(call.end_ns - call.start_ns));
    }
    txs += c.traced_txs;
    latency_us += c.traced_latency_us;
  }

  // net.dispatch and core.handler, joined on message keys.
  std::vector<perfbench::Stamp> sends = tracer.sends();
  perfbench::sort_by_key(sends);
  const std::vector<perfbench::HandlerRec> handled = tracer.handled();
  for (std::size_t i = 0; i < kHandledTypes.size(); ++i) {
    std::vector<perfbench::Stamp> starts;
    for (const auto& h : handled) {
      if (perfbench::tag_of(h.key) != kHandledTypes[i]) continue;
      starts.push_back({h.key, h.start_ns, 0});
      handler_us[i].push_back(us(h.dur_ns));
    }
    append(dispatch_us[i], perfbench::dispatch_delays_us(sends, starts));
  }

  // net.reply_wake: per blocking round of a traced call (the ReadRequest of
  // a read, the Prepares of a commit), from the moment the last reply could
  // be handed over to the client's next send or the call's return.
  std::vector<std::int64_t> client_times;
  for (const Client& c : clients) {
    for (const CallRec& call : c.calls) {
      client_times.clear();
      for (std::uint32_t i = call.first_send; i < call.end_send; ++i) {
        client_times.push_back(c.sends[i].t_ns);
      }
      for (auto [req, rep] : {std::pair{MessageType::kReadRequest,
                                        MessageType::kReadReturn},
                              std::pair{MessageType::kPrepareRequest,
                                        MessageType::kVoteReply}}) {
        std::int64_t ready = 0;
        bool round = false, complete = true;
        for (std::uint32_t i = call.first_send; i < call.end_send; ++i) {
          const perfbench::ClientSend& snd = c.sends[i];
          if (perfbench::tag_of(snd.key) != req) continue;
          round = true;
          const perfbench::Stamp* reply =
              perfbench::find_send(sends, perfbench::retag(snd.key, rep));
          if (reply == nullptr) {
            complete = false;
            break;
          }
          ready = std::max({ready, snd.t_ns, reply->t_ns + reply->lat_ns});
        }
        if (round && complete) {
          wake_us.push_back(
              us(perfbench::wake_ns(client_times, ready, call.end_ns)));
        }
      }
    }
  }

  append(lateness_us, tracer.timer_lateness_us());
  bytes += tracer.bytes();
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t samples;
};

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics,
                         bool with_samples) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
       << num(m.value) << ", \"unit\": \"" << m.unit << '"';
    if (with_samples) os << ", \"samples\": " << m.samples;
    os << '}';
  }
  os << '}';
  return os.str();
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

/// One episode's window: its transactions and counter deltas.
struct EpisodeResult {
  Tally tally;
  Counters counters;
  std::int64_t client_cpu_ns = 0;
  double seconds = 0.0;
};

struct Run {
  std::vector<double> setup_s;  // every set-up of the run
  double setup_rss_mb = 0.0;    // peak RSS after the first set-up
  std::vector<EpisodeResult> untraced;
  std::vector<EpisodeResult> traced;
  TraceSamples trace;

  static EpisodeResult sum(const std::vector<EpisodeResult>& eps) {
    EpisodeResult s;
    for (const auto& e : eps) {
      s.tally.merge(e.tally);
      s.counters = s.counters + e.counters;
      s.client_cpu_ns += e.client_cpu_ns;
      s.seconds += e.seconds;
    }
    return s;
  }
};

/// End-to-end metrics of the untraced episodes: the median over episodes
/// of each one's value, and the fastest set-up.
std::vector<Metric> end_to_end_metrics(const Run& r) {
  std::vector<double> tps, p50, p99, ro50, upd50, cpu, msgs;
  for (const EpisodeResult& e : r.untraced) {
    const Tally& s = e.tally;
    const std::vector<double> lat = s.lat_us();
    tps.push_back(ratio(static_cast<double>(s.commits), e.seconds));
    p50.push_back(percentile(lat, 0.50));
    p99.push_back(percentile(lat, 0.99));
    ro50.push_back(percentile(s.ro_lat_us, 0.50));
    upd50.push_back(percentile(s.upd_lat_us, 0.50));
    cpu.push_back(perfbench::per_commit(us(e.counters.cpu_ns), s.commits));
    msgs.push_back(perfbench::per_commit(
        static_cast<double>(e.counters.all_msgs()), s.commits));
  }
  const Tally all = Run::sum(r.untraced).tally;
  using perfbench::median;
  return {
      {"commit_tps", median(tps), "1/s", all.commits},
      {"lat_p50_us", median(p50), "us", all.commits},
      {"lat_p99_us", median(p99), "us", all.commits},
      {"ro_lat_p50_us", median(ro50), "us", all.ro_lat_us.size()},
      {"upd_lat_p50_us", median(upd50), "us", all.upd_lat_us.size()},
      {"cpu_us_per_commit", median(cpu), "us", all.commits},
      {"msgs_per_commit", median(msgs), "msg", all.commits},
      {"peak_rss_mb", r.setup_rss_mb, "MB", 1},
      {"setup_s", *std::min_element(r.setup_s.begin(), r.setup_s.end()), "s",
       r.setup_s.size()},
  };
}

void add_dist(std::vector<Metric>& out, const std::string& name,
              const std::vector<double>& v, bool p99) {
  out.push_back({name + ".p50", percentile(v, 0.50), "us", v.size()});
  if (p99) out.push_back({name + ".p99", percentile(v, 0.99), "us", v.size()});
}

/// Per-layer metrics of a traced run. Counters come from the untraced
/// episodes, spans from the traced ones (README.md).
std::vector<Metric> per_layer_metrics(const Run& r) {
  const EpisodeResult ue = Run::sum(r.untraced);
  const Tally& u = ue.tally;
  const Counters& uc = ue.counters;
  const Tally t = Run::sum(r.traced).tally;
  const TraceSamples& ts = r.trace;
  std::vector<Metric> out;

  add_dist(out, "session.begin_us", ts.span_us[kBegin], false);
  add_dist(out, "session.read_local_us", ts.span_us[kReadLocal], true);
  add_dist(out, "session.read_remote_us", ts.span_us[kReadRemote], true);
  add_dist(out, "session.commit_ro_us", ts.span_us[kCommitRo], false);
  add_dist(out, "session.commit_upd_us", ts.span_us[kCommitUpd], true);
  out.push_back({"session.attempts_per_commit",
                 perfbench::per_commit(static_cast<double>(u.attempts),
                                       u.commits),
                 "count", u.commits});

  // net.network: message counts of the untraced episodes, bytes of the
  // traced ones (encoded inside the send hook).
  for (std::size_t i = 0; i < net::kNumMessageTypes; ++i) {
    const auto type = static_cast<net::MessageType>(i);
    out.push_back({std::string("net.msgs_per_commit.") + net::type_name(type),
                   perfbench::per_commit(static_cast<double>(uc.msgs[i]),
                                         u.commits),
                   "msg", u.commits});
  }
  out.push_back({"net.bytes_per_commit",
                 perfbench::per_commit(static_cast<double>(ts.bytes),
                                       t.commits),
                 "B", t.commits});

  for (std::size_t i = 0; i < kHandledTypes.size(); ++i) {
    const std::string name = net::type_name(kHandledTypes[i]);
    add_dist(out, "net.dispatch_us." + name, ts.dispatch_us[i], true);
    add_dist(out, "handler." + name + "_us", ts.handler_us[i], true);
  }
  add_dist(out, "net.reply_wake_us", ts.wake_us, true);
  // net.delay_queue: lateness of a 1 ms periodic timer probe.
  add_dist(out, "timer.lateness_us", ts.lateness_us, true);

  // core.node: aggregate_stats() deltas over the untraced windows.
  out.push_back({"node.events_buffered_per_commit",
                 perfbench::per_commit(static_cast<double>(uc.events_buffered),
                                       u.commits),
                 "count", u.commits});
  out.push_back({"node.collected_set_mean",
                 ratio(static_cast<double>(uc.collected_sum),
                       static_cast<double>(uc.collected_count)),
                 "count", uc.collected_count});
  out.push_back({"node.removes_per_commit",
                 perfbench::per_commit(static_cast<double>(uc.removes),
                                       u.commits),
                 "count", u.commits});
  out.push_back({"node.prepare_retries",
                 static_cast<double>(uc.prepare_retries), "count", 1});
  out.push_back({"node.decide_retries",
                 static_cast<double>(uc.decide_retries), "count", 1});

  // mem: resident memory a window adds per commit (MV versions and logs,
  // plus 8 B of the benchmark's own latency samples).
  out.push_back({"mem.rss_growth_b_per_commit",
                 perfbench::per_commit(static_cast<double>(uc.rss_bytes),
                                       u.commits),
                 "B", u.commits});

  // cpu: client threads by RUSAGE_THREAD, the rest of the process is the
  // server side (nodes, executors, timer).
  const double client_us = us(ue.client_cpu_ns);
  const double process_us = us(uc.cpu_ns);
  out.push_back({"cpu.client_us_per_commit",
                 perfbench::per_commit(client_us, u.commits), "us", u.commits});
  out.push_back({"cpu.server_us_per_commit",
                 perfbench::per_commit(process_us - client_us, u.commits), "us",
                 u.commits});

  // trace: overhead and coverage.
  const double u_tps = ratio(static_cast<double>(u.commits), ue.seconds);
  const double t_tps =
      ratio(static_cast<double>(t.commits), Run::sum(r.traced).seconds);
  out.push_back({"trace.tps_ratio", ratio(t_tps, u_tps), "ratio", t.commits});
  out.push_back(
      {"trace.span_coverage", ts.span_coverage(), "ratio", ts.txs});

  // Client-visible rates of the untraced episodes; too close to zero on the
  // uniform workloads to carry a regression bound.
  out.push_back({"abort_rate",
                 ratio(static_cast<double>(u.aborts),
                       static_cast<double>(u.attempts)),
                 "ratio", u.attempts});
  out.push_back({"stale_read_frac",
                 ratio(static_cast<double>(u.stale_reads),
                       static_cast<double>(u.reads)),
                 "ratio", u.reads});
  out.push_back({"failed_frac",
                 ratio(static_cast<double>(u.failed),
                       static_cast<double>(u.commits + u.failed)),
                 "ratio", u.commits + u.failed});
  return out;
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

struct Options {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const auto& w : kWorkloads) {
        if (val == w.name) o.spec = &w;
      }
    } else if (flag == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      const long s = std::strtol(val.c_str(), &end, 10);
      if (end != val.c_str() && *end == '\0' && s >= 1 && s <= 120) {
        o.seconds = static_cast<int>(s);
      }
    } else if (flag == "--trace" && (val == "0" || val == "1")) {
      o.trace = val == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || o.spec == nullptr || !have_seed || o.seconds == 0) {
    return std::nullopt;
  }
  return o;
}

/// Checks of one episode's outputs; failures are appended to `failures`.
struct Checks {
  bool quiesced = true;
  std::uint64_t bad_reads = 0;
  std::uint64_t client_commits = 0;
  std::uint64_t node_commits = 0;
  std::uint64_t retries = 0;
  std::vector<std::string> failures;
};

/// Builds and loads a fresh cluster (kSetupReps times, timing each), runs
/// the clients for the warm-up and one measured second, checks the outputs
/// and adds the episode to `r`. The first set-up's peak memory goes to `r`.
/// Returns the share of the machine's CPU that others took from set-up to
/// the end of the window (steal plus busy time outside this process).
double run_episode(const Options& opt, int episode, bool traced, Run& r,
                   Checks& checks) {
  const WorkloadSpec& spec = *opt.spec;
  fwkv::ClusterConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.protocol = spec.protocol;
  cfg.net.one_way_latency = std::chrono::microseconds(spec.one_way_latency_us);

  // Declared before the cluster so that it outlives it: the network keeps
  // pointers to the tracer's forwarding endpoints.
  std::unique_ptr<perfbench::Tracer> tracer;
  std::unique_ptr<fwkv::Cluster> cluster;
  Counters episode_start;
  episode_start.cpu_ns = cpu_ns(RUSAGE_SELF);
  episode_start.host = read_host_cpu();
  const std::uint64_t eseed = opt.seed * 0x9e3779b97f4a7c15ull + episode;
  fwkv::Rng load_rng(eseed ^ 0x10ad5eedull);
  std::vector<fwkv::Value> initial(kKeys);
  for (fwkv::Key k = 0; k < kKeys; ++k) initial[k] = make_value(k, load_rng);

  for (int rep = 0; rep < kSetupReps; ++rep) {
    cluster.reset();
    tracer.reset();
    // The inputs are made before the set-up clock starts.
    std::vector<fwkv::Value> values = initial;
    const std::int64_t t0 = now_ns();
    cluster = std::make_unique<fwkv::Cluster>(cfg);
    if (traced) {
      tracer = std::make_unique<perfbench::Tracer>(*cluster,
                                                   cfg.net.one_way_latency);
    }
    for (fwkv::Key k = 0; k < kKeys; ++k) {
      cluster->load(k, std::move(values[k]));
    }
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (episode == 0 && rep == 0) r.setup_rss_mb = peak_rss_mb();
  }

  Window window;
  std::atomic<bool> stop{false};
  std::vector<Client> clients(kNodes);
  std::vector<std::thread> threads;
  for (fwkv::NodeId n = 0; n < kNodes; ++n) {
    const std::uint64_t seed = eseed * 7919 + n + 1;
    threads.emplace_back([&, n, seed] {
      run_client(*cluster, spec, window, n, seed, stop, tracer.get(),
                 clients[n]);
    });
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(kWarmupNs));
  if (tracer) tracer->set_recording(true);
  const Counters before = take_sample(*cluster);
  const std::int64_t start = now_ns();
  window.start_ns.store(start, std::memory_order_release);
  std::this_thread::sleep_until(
      Clock::time_point(std::chrono::nanoseconds(start + kWindowNs)));
  const Counters after = take_sample(*cluster);
  const std::int64_t end = now_ns();
  window.end_ns.store(end, std::memory_order_release);
  if (tracer) tracer->set_recording(false);
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const bool quiesced = cluster->quiesce();

  EpisodeResult e;
  e.counters = after - before;
  e.seconds = static_cast<double>(end - start) / 1e9;
  std::uint64_t bad_reads = 0;
  for (const Client& c : clients) {
    e.tally.merge(c.tally);
    e.client_cpu_ns += c.cpu_at[1] - c.cpu_at[0];
    bad_reads += c.bad_reads;
  }
  if (tracer) r.trace.collect(*tracer, clients);

  const std::string where = "episode " + std::to_string(episode) + ": ";
  checks.quiesced = checks.quiesced && quiesced;
  if (!quiesced) checks.failures.push_back(where + "the cluster did not quiesce");
  checks.bad_reads += bad_reads;
  if (bad_reads != 0) {
    checks.failures.push_back(where + std::to_string(bad_reads) +
                              " reads of pre-loaded keys returned no value "
                              "or another key's value");
  }
  const std::uint64_t client_commits = e.tally.commits;
  const std::uint64_t node_commits = e.counters.commits;
  checks.client_commits += client_commits;
  checks.node_commits += node_commits;
  const std::uint64_t diff = node_commits > client_commits
                                 ? node_commits - client_commits
                                 : client_commits - node_commits;
  if (diff > kCommitSlack) {
    checks.failures.push_back(where + "clients counted " +
                              std::to_string(client_commits) +
                              " commits, the nodes " +
                              std::to_string(node_commits));
  }
  const std::uint64_t retries =
      e.counters.prepare_retries + e.counters.decide_retries;
  checks.retries += retries;
  if (retries != 0) {
    checks.failures.push_back(where + std::to_string(retries) +
                              " prepare/decide retries on a fault-free "
                              "network");
  }
  if (client_commits == 0) checks.failures.push_back(where + "nothing committed");
  (traced ? r.traced : r.untraced).push_back(std::move(e));
  const Counters whole = after - episode_start;
  return whole.steal_frac() + whole.foreign_frac();
}

int run(const Options& opt) {
  const WorkloadSpec& spec = *opt.spec;
  // Every measured second runs on a freshly built and loaded cluster (see
  // README.md: state that grows with every commit makes later seconds of
  // one long run measure a different system). A traced run alternates
  // untraced and traced episodes, half each.
  const std::size_t n_traced = opt.trace ? std::max(1, opt.seconds / 2) : 0;
  const std::size_t n_untraced =
      std::max<std::size_t>(1, opt.seconds - n_traced);
  Run r;
  Checks checks;
  const HostCpu host0 = read_host_cpu();
  std::ostringstream per_s, noise;
  for (std::size_t a = 0; a < n_traced + n_untraced; ++a) {
    const bool traced = r.traced.size() < n_traced &&
                        (r.untraced.size() >= n_untraced ||
                         r.traced.size() < r.untraced.size());
    const double episode_noise =
        run_episode(opt, static_cast<int>(a), traced, r, checks);
    const EpisodeResult& e = traced ? r.traced.back() : r.untraced.back();
    per_s << (a ? ", " : "") << e.tally.commits;
    noise << (a ? ", " : "") << num(episode_noise);
  }
  const HostCpu host1 = read_host_cpu();
  if (opt.trace && r.trace.span_coverage() < kMinSpanCoverage) {
    checks.failures.push_back(
        "trace.span_coverage is " + num(r.trace.span_coverage()) +
        ": the Session call spans miss more than 10% of the mean "
        "transaction latency");
  }

  const std::vector<Metric> metrics =
      opt.trace ? per_layer_metrics(r) : end_to_end_metrics(r);
  EpisodeResult all = Run::sum(r.untraced);
  all.tally.merge(Run::sum(r.traced).tally);

  std::ostringstream report;
  report << "{\"report\": {\"workload\": \"" << spec.name
         << "\", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
         << ", \"metrics\": " << metrics_json(metrics, true)
         << ", \"host\": {\"loadavg\": " << read_loadavg()
         << ", \"steal_frac\": "
         << num(ratio(static_cast<double>(host1.steal - host0.steal),
                      static_cast<double>(host1.total - host0.total)))
         << ", \"iowait_frac\": "
         << num(ratio(static_cast<double>(host1.iowait - host0.iowait),
                      static_cast<double>(host1.total - host0.total)))
         << ", \"commits_per_s\": [" << per_s.str() << "]"
         << ", \"noise_per_s\": [" << noise.str() << "]}"
         << ", \"checks\": {\"quiesced\": "
         << (checks.quiesced ? "true" : "false")
         << ", \"bad_reads\": " << checks.bad_reads
         << ", \"client_commits\": " << checks.client_commits
         << ", \"node_commits\": " << checks.node_commits
         << ", \"retries\": " << checks.retries << "}}}";

  if (!checks.failures.empty()) {
    std::cerr << report.str() << '\n';
    for (const auto& f : checks.failures) {
      std::cerr << "CHECK FAILED: " << f << '\n';
    }
    return 1;
  }
  for (const Metric& m : metrics) {
    std::printf("%-40s %16.4f %-6s (n=%llu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::cout << report.str() << '\n'
            << "{\"correct\": true, \"attempted\": "
            << all.tally.commits + all.tally.failed
            << ", \"failed\": " << all.tally.failed
            << ", \"metrics\": " << metrics_json(metrics, false) << "}"
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = parse(argc, argv);
  if (!opt) {
    std::cerr << "usage: fwkv_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\nworkloads:";
    for (const auto& w : kWorkloads) std::cerr << ' ' << w.name;
    std::cerr << '\n';
    return 2;
  }
  return run(*opt);
}
