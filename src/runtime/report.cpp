#include "runtime/report.hpp"

#include <algorithm>

#include "net/network.hpp"
#include <iomanip>
#include <ostream>
#include <sstream>

namespace fwkv::runtime {

Table::Table(std::string title, std::vector<std::string> headers)
    : title_(std::move(title)), headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    widths[i] = headers_[i].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }

  os << "== " << title_ << " ==\n";
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      os << std::left << std::setw(static_cast<int>(widths[i]) + 2)
         << cells[i];
    }
    os << '\n';
  };
  print_row(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
  os << '\n';
}

std::string Table::fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::fmt_pct(double fraction, int precision) {
  return fmt(fraction * 100.0, precision) + "%";
}

Table fault_recovery_table(const NodeStats::Snapshot& merged,
                           const net::SimNetwork& network) {
  Table t("fault recovery", {"counter", "count"});
  auto row = [&](const char* name, std::uint64_t v) {
    t.add_row({name, std::to_string(v)});
  };
  row("net.drops", network.faults_injected(net::FaultKind::kDrop));
  row("net.partition_drops",
      network.faults_injected(net::FaultKind::kPartitionDrop));
  row("net.duplicates", network.faults_injected(net::FaultKind::kDuplicate));
  row("net.reorders", network.faults_injected(net::FaultKind::kReorder));
  row("node.prepare_retries", merged.prepare_retries);
  row("node.decide_retries", merged.decide_retries);
  row("node.dup_drops", merged.dup_drops);
  row("node.gap_requests", merged.gap_requests);
  row("node.gap_resends", merged.gap_resends);
  row("node.resend_misses", merged.resend_misses);
  row("node.timeout_aborts", merged.aborts_vote_timeout);
  return t;
}

}  // namespace fwkv::runtime
