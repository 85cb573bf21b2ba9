// Arithmetic of the benchmark, kept free of cluster types so that
// trace_math_test.cpp can check it on synthetic inputs: exact percentile
// selection, per-commit ratios, the median over episodes, the join of send
// stamps to handler stamps, reply wake-up, and span coverage.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of exact samples: the smallest sample with at
/// least q of all samples at or below it. 0 for no samples.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// num / den, or 0 when den is 0 (an empty window).
inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// `amount` per committed transaction; 0 when nothing committed.
inline double per_commit(double amount, std::uint64_t commits) {
  return ratio(amount, static_cast<double>(commits));
}

/// A point in time attached to a message (send) or to a handler start.
/// `key` identifies the message on both sides; `lat_ns` is the configured
/// one-way latency of the message's link (sends only).
struct Stamp {
  std::uint64_t key = 0;
  std::int64_t t_ns = 0;
  std::int64_t lat_ns = 0;
};

inline void sort_by_key(std::vector<Stamp>& v) {
  std::sort(v.begin(), v.end(), [](const Stamp& a, const Stamp& b) {
    return a.key != b.key ? a.key < b.key : a.t_ns < b.t_ns;
  });
}

/// The earliest send with `key` in `sends`, which must be sorted by key.
inline const Stamp* find_send(const std::vector<Stamp>& sends,
                              std::uint64_t key) {
  auto it = std::lower_bound(
      sends.begin(), sends.end(), key,
      [](const Stamp& s, std::uint64_t k) { return s.key < k; });
  return it != sends.end() && it->key == key ? &*it : nullptr;
}

/// Dispatch delay of every handler start that has a matching send, in us:
/// start - send - configured latency. `sends` must be sorted by key.
/// Starts without a send are skipped.
inline std::vector<double> dispatch_delays_us(const std::vector<Stamp>& sends,
                                              const std::vector<Stamp>& starts) {
  std::vector<double> out;
  out.reserve(starts.size());
  for (const Stamp& s : starts) {
    if (const Stamp* snd = find_send(sends, s.key)) {
      out.push_back(static_cast<double>(s.t_ns - snd->t_ns - snd->lat_ns) /
                    1e3);
    }
  }
  return out;
}

/// Reply wake-up of one blocking round, in ns. `ready_ns` is when the last
/// reply the caller waited for could first be handed over (its send time
/// plus configured latency, or the caller's own last request send if that
/// is later). The caller is awake again at its next send after `ready_ns`,
/// taken from `client_sends_ns` (ascending), or at `call_end_ns`.
inline std::int64_t wake_ns(const std::vector<std::int64_t>& client_sends_ns,
                            std::int64_t ready_ns, std::int64_t call_end_ns) {
  auto it = std::upper_bound(client_sends_ns.begin(), client_sends_ns.end(),
                             ready_ns);
  const std::int64_t awake =
      it != client_sends_ns.end() && *it < call_end_ns ? *it : call_end_ns;
  return awake - ready_ns;
}

/// Mean and count of one kind of session call over the traced transactions.
struct CallMean {
  std::uint64_t count = 0;
  double mean_us = 0.0;
};

/// The share of the mean transaction latency that the session calls account
/// for: sum over call kinds of mean * calls per transaction, divided by the
/// mean latency of the same transactions.
inline double span_coverage(const std::vector<CallMean>& calls,
                            std::uint64_t transactions, double mean_latency_us) {
  if (transactions == 0 || mean_latency_us <= 0.0) return 0.0;
  double per_tx_us = 0.0;
  for (const CallMean& c : calls) {
    per_tx_us += c.mean_us * static_cast<double>(c.count) /
                 static_cast<double>(transactions);
  }
  return per_tx_us / mean_latency_us;
}

}  // namespace perfbench
