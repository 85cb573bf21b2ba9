// Transaction handle + TxId unit tests.
#include <gtest/gtest.h>

#include <unordered_set>

#include "core/transaction.hpp"

namespace fwkv {
namespace {

TEST(TxIdTest, FieldPackingRoundTrips) {
  TxId id(17, 3, 12345);
  EXPECT_EQ(id.node(), 17u);
  EXPECT_EQ(id.session(), 3u);
  EXPECT_EQ(id.local_seq(), 12345u);
  EXPECT_TRUE(id.valid());
}

TEST(TxIdTest, InvalidIsDistinct) {
  EXPECT_FALSE(kInvalidTxId.valid());
  EXPECT_NE(TxId(0, 0, 1), kInvalidTxId);
  EXPECT_TRUE(TxId(0, 0, 1).valid());
}

TEST(TxIdTest, DistinctTuplesDistinctIds) {
  std::unordered_set<TxId> seen;
  for (NodeId n = 0; n < 4; ++n) {
    for (std::uint32_t c = 0; c < 4; ++c) {
      for (std::uint32_t s = 1; s <= 16; ++s) {
        EXPECT_TRUE(seen.insert(TxId(n, c, s)).second);
      }
    }
  }
  EXPECT_EQ(seen.size(), 4u * 4 * 16);
}

TEST(TxIdTest, HashSpreadsStructuredIds) {
  // TxIds differ only in low bits; the hash must not collide trivially.
  std::unordered_set<std::size_t> hashes;
  std::hash<TxId> h;
  for (std::uint32_t s = 1; s <= 1000; ++s) {
    hashes.insert(h(TxId(1, 1, s)));
  }
  EXPECT_GT(hashes.size(), 990u);
}

TEST(TxIdTest, ToString) {
  EXPECT_EQ(to_string(TxId(1, 2, 3)), "T(1.2.3)");
}

TEST(TransactionTest, InitialState) {
  Transaction tx(TxId(0, 0, 1), /*read_only=*/false, /*cluster_size=*/4);
  EXPECT_EQ(tx.status(), TxStatus::kActive);
  EXPECT_EQ(tx.abort_reason(), AbortReason::kNone);
  EXPECT_FALSE(tx.read_only());
  EXPECT_EQ(tx.vc().size(), 4u);
  EXPECT_EQ(tx.has_read().size(), 4u);
  EXPECT_FALSE(tx.has_read().any());
  EXPECT_TRUE(tx.write_set().empty());
  EXPECT_EQ(tx.reads_issued(), 0u);
}

TEST(TransactionTest, WriteBufferLastWriteWins) {
  Transaction tx(TxId(0, 0, 1), false, 2);
  tx.buffer_write(7, "first");
  tx.buffer_write(7, "second");
  EXPECT_EQ(tx.write_set().size(), 1u);
  EXPECT_EQ(tx.written_value(7), "second");
  EXPECT_FALSE(tx.written_value(8).has_value());
}

TEST(TransactionTest, ReadCache) {
  Transaction tx(TxId(0, 0, 1), true, 2);
  EXPECT_FALSE(tx.cached_read(1).has_value());
  tx.cache_read(1, "v");
  EXPECT_EQ(tx.cached_read(1), "v");
  // First-cached value sticks (snapshot semantics).
  tx.cache_read(1, "other");
  EXPECT_EQ(tx.cached_read(1), "v");
}

TEST(TransactionTest, ValidationSetKeepsFirstObservation) {
  Transaction tx(TxId(0, 0, 1), false, 2);
  tx.record_validation(5, 10);
  tx.record_validation(5, 11);  // re-read: first observation wins
  EXPECT_EQ(tx.validation_set().at(5), 10u);
}

TEST(TransactionTest, FreshnessAccounting) {
  Transaction tx(TxId(0, 0, 1), true, 2);
  tx.record_read_freshness(/*returned=*/5, /*latest=*/5);
  tx.record_read_freshness(/*returned=*/3, /*latest=*/7);
  EXPECT_EQ(tx.reads_issued(), 2u);
  EXPECT_EQ(tx.stale_reads(), 1u);
  EXPECT_EQ(tx.freshness_gap_sum(), 4u);
}

TEST(TransactionTest, StatusTransitions) {
  Transaction tx(TxId(0, 0, 1), false, 2);
  tx.mark_aborted(AbortReason::kLockTimeout);
  EXPECT_EQ(tx.status(), TxStatus::kAborted);
  EXPECT_EQ(tx.abort_reason(), AbortReason::kLockTimeout);

  Transaction tx2(TxId(0, 0, 2), false, 2);
  tx2.mark_committed();
  EXPECT_EQ(tx2.status(), TxStatus::kCommitted);
}

TEST(EnumNamesTest, AllCovered) {
  EXPECT_STREQ(protocol_name(Protocol::kFwKv), "FW-KV");
  EXPECT_STREQ(protocol_name(Protocol::kWalter), "Walter");
  EXPECT_STREQ(protocol_name(Protocol::kTwoPC), "2PC");
  EXPECT_STREQ(abort_reason_name(AbortReason::kNone), "none");
  EXPECT_STREQ(abort_reason_name(AbortReason::kLockTimeout), "lock-timeout");
  EXPECT_STREQ(abort_reason_name(AbortReason::kValidation), "validation");
  EXPECT_STREQ(abort_reason_name(AbortReason::kVoteTimeout), "vote-timeout");
  EXPECT_STREQ(abort_reason_name(AbortReason::kUserAbort), "user");
}

}  // namespace
}  // namespace fwkv
