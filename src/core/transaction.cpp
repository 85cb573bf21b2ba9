#include "core/transaction.hpp"

#include <utility>

namespace fwkv {

Transaction::Transaction(TxId id, bool read_only, std::size_t cluster_size)
    : id_(id),
      read_only_(read_only),
      vc_(cluster_size),
      has_read_(cluster_size) {}

void Transaction::buffer_write(Key key, Value value) {
  write_set_[key] = std::move(value);
}

std::optional<Value> Transaction::written_value(Key key) const {
  auto it = write_set_.find(key);
  if (it == write_set_.end()) return std::nullopt;
  return it->second;
}

std::optional<Value> Transaction::cached_read(Key key) const {
  auto it = read_cache_.find(key);
  if (it == read_cache_.end()) return std::nullopt;
  return it->second;
}

void Transaction::cache_read(Key key, Value value) {
  read_cache_.emplace(key, std::move(value));
}

void Transaction::record_validation(Key key, VersionId version) {
  validation_set_.emplace(key, version);
}

void Transaction::record_missed_latest(Key key, VectorClock latest_vc) {
  missed_latest_.emplace_back(key, std::move(latest_vc));
}

void Transaction::record_read_freshness(VersionId returned, VersionId latest) {
  ++reads_issued_;
  if (latest > returned) {
    ++stale_reads_;
    freshness_gap_sum_ += latest - returned;
  }
}

}  // namespace fwkv
