// Extension B: the Fig. 1 long-fork scenario at scale. Two local updaters,
// read-only transactions on other nodes reading both streams. Counts
// first-contact reads that miss committed-before-start updates and
// opposite-order snapshot pairs.
#include <iostream>

#include "runtime/longfork.hpp"
#include "runtime/report.hpp"

int main() {
  using namespace fwkv;
  using runtime::Table;

  std::cout
      << "########################################################\n"
      << "# Extension B: long-fork probe (Fig. 1 scenario)\n"
      << "# Paper expectation: FW-KV first-contact reads never miss a\n"
      << "# committed-before-start update, so the client-visible long\n"
      << "# fork of Fig. 1 disappears; Walter exhibits it freely when\n"
      << "# Propagate lags.\n"
      << "########################################################\n\n";

  Table table("Long-fork probe (4 nodes, 1 ms propagate delay)",
              {"protocol", "snapshots", "updates", "stale first reads",
               "long-fork pairs", "stale long-fork pairs"});
  for (Protocol p : {Protocol::kFwKv, Protocol::kWalter}) {
    runtime::LongForkProbeConfig cfg;
    cfg.protocol = p;
    auto result = runtime::run_long_fork_probe(cfg);
    table.add_row({protocol_name(p), std::to_string(result.snapshots),
                   std::to_string(result.updates_committed),
                   std::to_string(result.stale_first_reads) + " (" +
                       Table::fmt_pct(result.stale_first_read_rate(), 2) + ")",
                   std::to_string(result.long_fork_pairs),
                   std::to_string(result.stale_long_fork_pairs)});
  }
  table.print(std::cout);
  return 0;
}
