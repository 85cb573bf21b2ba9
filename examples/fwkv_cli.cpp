// Command-line experiment driver: run any protocol/workload combination
// without writing code. For example (each command is one shell line):
//
//   $ ./build/examples/fwkv_cli --protocol fwkv --workload ycsb
//         --nodes 10 --keys 50000 --ro 0.2 --ms 1000 --delay-us 1000
//   $ ./build/examples/fwkv_cli --protocol walter --workload tpcc
//         --nodes 5 --warehouses 8 --ro 0.5
#include <cstring>
#include <iostream>
#include <string>

#include "runtime/driver.hpp"
#include "runtime/report.hpp"
#include "workload/tpcc.hpp"
#include "workload/ycsb.hpp"

namespace {

using namespace fwkv;

struct CliOptions {
  Protocol protocol = Protocol::kFwKv;
  std::string workload = "ycsb";
  std::uint32_t nodes = 5;
  std::uint64_t keys = 50'000;
  std::uint32_t warehouses = 8;
  double read_only = 0.2;
  double zipf = 0.0;
  std::uint32_t clients = 5;
  long measure_ms = 1000;
  long latency_us = 200;
  long propagate_delay_us = 0;
  bool verbose_stats = false;
};

void usage() {
  std::cout <<
      "fwkv_cli — run an FW-KV / Walter / 2PC experiment\n"
      "  --protocol fwkv|walter|2pc   concurrency control (default fwkv)\n"
      "  --workload ycsb|tpcc         benchmark (default ycsb)\n"
      "  --nodes N                    cluster size (default 5)\n"
      "  --keys N                     YCSB key count (default 50000)\n"
      "  --zipf THETA                 YCSB skew, 0 = uniform\n"
      "  --warehouses N               TPC-C warehouses per node (default 8)\n"
      "  --ro FRACTION                read-only share (default 0.2)\n"
      "  --clients N                  closed-loop clients per node\n"
      "  --ms N                       measurement window (default 1000)\n"
      "  --latency-us N               one-way network latency (default 200)\n"
      "  --delay-us N                 extra Propagate delay (default 0)\n"
      "  --stats                      print node-side counters too\n";
}

bool parse(int argc, char** argv, CliOptions& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") return false;
    if (arg == "--stats") {
      opts.verbose_stats = true;
      continue;
    }
    const char* value = next();
    if (value == nullptr) {
      std::cerr << "missing value for " << arg << "\n";
      return false;
    }
    if (arg == "--protocol") {
      if (std::strcmp(value, "fwkv") == 0) {
        opts.protocol = Protocol::kFwKv;
      } else if (std::strcmp(value, "walter") == 0) {
        opts.protocol = Protocol::kWalter;
      } else if (std::strcmp(value, "2pc") == 0) {
        opts.protocol = Protocol::kTwoPC;
      } else {
        std::cerr << "unknown protocol " << value << "\n";
        return false;
      }
    } else if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--nodes") {
      opts.nodes = static_cast<std::uint32_t>(std::atoi(value));
    } else if (arg == "--keys") {
      opts.keys = static_cast<std::uint64_t>(std::atoll(value));
    } else if (arg == "--zipf") {
      opts.zipf = std::atof(value);
    } else if (arg == "--warehouses") {
      opts.warehouses = static_cast<std::uint32_t>(std::atoi(value));
    } else if (arg == "--ro") {
      opts.read_only = std::atof(value);
    } else if (arg == "--clients") {
      opts.clients = static_cast<std::uint32_t>(std::atoi(value));
    } else if (arg == "--ms") {
      opts.measure_ms = std::atol(value);
    } else if (arg == "--latency-us") {
      opts.latency_us = std::atol(value);
    } else if (arg == "--delay-us") {
      opts.propagate_delay_us = std::atol(value);
    } else {
      std::cerr << "unknown option " << arg << "\n";
      return false;
    }
  }
  return opts.nodes > 0 && opts.measure_ms > 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (!parse(argc, argv, opts)) {
    usage();
    return 1;
  }

  ClusterConfig cfg;
  cfg.num_nodes = opts.nodes;
  cfg.protocol = opts.protocol;
  cfg.net.one_way_latency = std::chrono::microseconds(opts.latency_us);
  cfg.net.propagate_extra_delay =
      std::chrono::microseconds(opts.propagate_delay_us);

  std::unique_ptr<runtime::Workload> workload;
  if (opts.workload == "tpcc") {
    cfg.mapper = tpcc::TpccWorkload::make_mapper(opts.nodes);
    tpcc::TpccConfig tcfg;
    tcfg.warehouses_per_node = opts.warehouses;
    tcfg.read_only_ratio = opts.read_only;
    tcfg.customers_per_district = 40;
    tcfg.items = 500;
    workload = std::make_unique<tpcc::TpccWorkload>(tcfg, opts.nodes);
  } else if (opts.workload == "ycsb") {
    ycsb::YcsbConfig ycfg;
    ycfg.total_keys = opts.keys;
    ycfg.read_only_ratio = opts.read_only;
    ycfg.zipf_theta = opts.zipf;
    workload = std::make_unique<ycsb::YcsbWorkload>(ycfg);
  } else {
    std::cerr << "unknown workload " << opts.workload << "\n";
    return 1;
  }

  Cluster cluster(cfg);
  std::cout << "loading " << opts.workload << " ...\n";
  workload->load(cluster);

  runtime::DriverConfig dcfg;
  dcfg.clients_per_node = opts.clients;
  dcfg.measure = std::chrono::milliseconds(opts.measure_ms);
  std::cout << "running " << protocol_name(opts.protocol) << " on "
            << opts.nodes << " nodes, " << opts.clients
            << " clients/node, " << opts.measure_ms << " ms ...\n";
  auto result = runtime::run_driver(cluster, *workload, dcfg);
  std::cout << result.summary() << "\n";
  std::cout << "stale reads: "
            << runtime::Table::fmt_pct(result.stale_read_fraction(), 2)
            << ", mean freshness gap: "
            << runtime::Table::fmt(result.mean_freshness_gap(), 3)
            << " versions\n";
  if (opts.verbose_stats) {
    const auto& n = result.nodes;
    std::cout << "node counters: reads=" << n.reads_served
              << " installs=" << n.versions_installed
              << " propagates=" << n.propagates_applied
              << " removes=" << n.removes_processed
              << " buffered=" << n.events_buffered
              << " aborts(lock/val/vote)=" << n.aborts_lock << "/"
              << n.aborts_validation << "/" << n.aborts_vote_timeout
              << " doomed=" << n.doomed_aborts
              << " catch-up-timeouts=" << n.catch_up_timeouts
              << " collect-scan="
              << runtime::Table::fmt(n.collect_scan_per_key(), 2) << "\n";
    std::cout << "contended acquisitions: "
              << "lock-waits(site/watermark/participants/lock-table)="
              << n.site_lock_waits << "/" << n.watermark_lock_waits << "/"
              << n.participant_lock_waits << "/" << n.lock_table_waits
              << "\n";
    for (int t = 0; t < static_cast<int>(net::kNumMessageTypes); ++t) {
      const auto mt = static_cast<net::MessageType>(t);
      std::cout << "  " << net::type_name(mt) << ": "
                << cluster.network().messages_sent(mt) << "\n";
    }
  }
  return 0;
}
