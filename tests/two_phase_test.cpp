// Unit tests for the participant side of the 2PC core (ParticipantTable)
// and its retry parameters, with no network: each test drives the table's
// state transitions directly in the order a redelivery or race produces
// them. fault_recovery_test covers the same paths end to end.
#include <gtest/gtest.h>

#include "core/two_phase.hpp"

namespace fwkv {
namespace {

using Begin = ParticipantTable::Begin;

const TxId kTx(1, 2, 3);

HeldLocks locks(std::vector<Key> exclusive, std::vector<Key> shared = {}) {
  return HeldLocks{std::move(exclusive), std::move(shared)};
}

TEST(ParticipantTableTest, DuplicatePrepareRevotesWithoutRelocking) {
  ParticipantTable table;
  HeldLocks held;
  ASSERT_EQ(table.begin_prepare(kTx, held), Begin::kFresh);
  held = locks({4, 7}, {9});
  ASSERT_TRUE(table.publish(kTx, held));

  // The redelivered Prepare re-votes and sees the locks the first one took;
  // the table keeps them (the caller locks nothing).
  HeldLocks copy;
  EXPECT_EQ(table.begin_prepare(kTx, copy), Begin::kRevote);
  EXPECT_EQ(copy.exclusive, (std::vector<Key>{4, 7}));
  EXPECT_EQ(copy.shared, (std::vector<Key>{9}));

  // The locks are released exactly once, by the Decide.
  auto released = table.decide(kTx);
  ASSERT_TRUE(released.has_value());
  EXPECT_EQ(released->exclusive, (std::vector<Key>{4, 7}));
  EXPECT_EQ(released->shared, (std::vector<Key>{9}));
}

TEST(ParticipantTableTest, ConcurrentDuplicatePrepareIsDropped) {
  ParticipantTable table;
  HeldLocks held;
  ASSERT_EQ(table.begin_prepare(kTx, held), Begin::kFresh);
  EXPECT_EQ(table.begin_prepare(kTx, held), Begin::kDrop);
}

TEST(ParticipantTableTest, PrepareAfterItsDecideIsDropped) {
  ParticipantTable table;
  HeldLocks held;
  ASSERT_EQ(table.begin_prepare(kTx, held), Begin::kFresh);
  held = locks({1});
  ASSERT_TRUE(table.publish(kTx, held));
  ASSERT_TRUE(table.decide(kTx).has_value());
  EXPECT_EQ(table.begin_prepare(kTx, held), Begin::kDrop);

  // Also when the Decide overtook the Prepare altogether.
  const TxId other(1, 2, 4);
  EXPECT_FALSE(table.decide(other).has_value());
  EXPECT_EQ(table.begin_prepare(other, held), Begin::kDrop);
}

TEST(ParticipantTableTest, DecideDuringPrepareLeavesLocksToTheCaller) {
  ParticipantTable table;
  HeldLocks held;
  ASSERT_EQ(table.begin_prepare(kTx, held), Begin::kFresh);
  // The (abort) Decide arrives while the prepare is locking: nothing is
  // held in the table yet.
  EXPECT_FALSE(table.decide(kTx).has_value());

  // "Decided meanwhile": publishing fails and the prepare's locks stay with
  // the caller, which releases them.
  held = locks({5, 6});
  EXPECT_FALSE(table.publish(kTx, held));
  EXPECT_EQ(held.exclusive, (std::vector<Key>{5, 6}));
  EXPECT_EQ(table.begin_prepare(kTx, held), Begin::kDrop);
}

TEST(ParticipantTableTest, DuplicateDecideIsANoop) {
  ParticipantTable table;
  HeldLocks held;
  ASSERT_EQ(table.begin_prepare(kTx, held), Begin::kFresh);
  held = locks({2});
  ASSERT_TRUE(table.publish(kTx, held));
  ASSERT_TRUE(table.decide(kTx).has_value());
  EXPECT_FALSE(table.decide(kTx).has_value());
  EXPECT_EQ(table.begin_prepare(kTx, held), Begin::kDrop);
}

TEST(ParticipantTableTest, NoVoteForgetsThePrepareButNotADecide) {
  ParticipantTable table;
  HeldLocks held;
  ASSERT_EQ(table.begin_prepare(kTx, held), Begin::kFresh);
  table.abandon(kTx);
  // A no-vote holds nothing; a retried Prepare runs afresh.
  EXPECT_EQ(table.begin_prepare(kTx, held), Begin::kFresh);

  // A Decide that arrived during the failed prepare is remembered.
  EXPECT_FALSE(table.decide(kTx).has_value());
  table.abandon(kTx);
  EXPECT_EQ(table.begin_prepare(kTx, held), Begin::kDrop);
}

TEST(ParticipantTableTest, DecidedIdIsNeverForgotten) {
  // More decisions of one session than any id horizon would remember: the
  // session's mark still covers its first id.
  ParticipantTable table;
  const std::uint32_t n = (1u << 16) + 1;
  for (std::uint32_t seq = 1; seq <= n; ++seq) table.decide(TxId(0, 0, seq));

  HeldLocks held;
  for (std::uint32_t seq : {1u, 2u, n / 2, n}) {
    EXPECT_EQ(table.begin_prepare(TxId(0, 0, seq), held), Begin::kDrop)
        << "seq " << seq;
  }
  EXPECT_EQ(table.size(), 0u) << "a decided id left an entry behind";
}

TEST(ParticipantTableTest, PrepareReorderedAheadOfTheEarlierDecideRunsFresh) {
  ParticipantTable table;
  const TxId q(1, 2, 3);
  const TxId next(1, 2, 4);
  HeldLocks held;
  ASSERT_EQ(table.begin_prepare(q, held), Begin::kFresh);
  held = locks({1});
  ASSERT_TRUE(table.publish(q, held));

  // The session's next Prepare overtakes the Decide of q: it is above the
  // mark, so it runs.
  HeldLocks next_held;
  ASSERT_EQ(table.begin_prepare(next, next_held), Begin::kFresh);
  next_held = locks({2});
  ASSERT_TRUE(table.publish(next, next_held));
  EXPECT_EQ(table.size(), 2u);

  // The later Decide lands first; q still holds its locks until its own.
  ASSERT_TRUE(table.decide(next).has_value());
  HeldLocks copy;
  EXPECT_EQ(table.begin_prepare(q, copy), Begin::kRevote);
  auto released = table.decide(q);
  ASSERT_TRUE(released.has_value());
  EXPECT_EQ(released->exclusive, (std::vector<Key>{1}));

  // A retransmitted Prepare of either is stale now.
  EXPECT_EQ(table.begin_prepare(q, held), Begin::kDrop);
  EXPECT_EQ(table.begin_prepare(next, held), Begin::kDrop);
  EXPECT_EQ(table.size(), 0u);
}

TEST(ParticipantTableTest, SessionsDoNotShareAMark) {
  ParticipantTable table;
  // Session 5 of node 1 decides far ahead; session 6 of the same node and
  // session 5's neighbours keep their own marks.
  EXPECT_FALSE(table.decide(TxId(1, 5, 100)).has_value());
  HeldLocks held;
  EXPECT_EQ(table.begin_prepare(TxId(1, 5, 100), held), Begin::kDrop);
  EXPECT_EQ(table.begin_prepare(TxId(1, 5, 7), held), Begin::kDrop);
  EXPECT_EQ(table.begin_prepare(TxId(1, 6, 7), held), Begin::kFresh);
  EXPECT_EQ(table.begin_prepare(TxId(1, 4, 1), held), Begin::kFresh);
  EXPECT_EQ(table.begin_prepare(TxId(1, 5, 101), held), Begin::kFresh);
}

TEST(ParticipantTableTest, DecideRaisesTheMarkWhileAPrepareIsOpen) {
  // The Decide of a later seq lands while an earlier Prepare of the session
  // is still locking: the session has decided that one without this vote,
  // so publishing fails and the locks stay with the caller.
  ParticipantTable table;
  const TxId q(1, 2, 3);
  HeldLocks held;
  ASSERT_EQ(table.begin_prepare(q, held), Begin::kFresh);
  EXPECT_FALSE(table.decide(TxId(1, 2, 4)).has_value());
  EXPECT_EQ(table.size(), 1u) << "a Preparing entry left before its publish";
  held = locks({8});
  EXPECT_FALSE(table.publish(q, held));
  EXPECT_EQ(held.exclusive, (std::vector<Key>{8}));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.begin_prepare(q, held), Begin::kDrop);
}

TEST(RetryPolicyTest, ReliableNetworkMakesOneAttemptAndAcksNothing) {
  ProtocolConfig cfg;
  const RetryPolicy p = RetryPolicy::derive(cfg, /*lossy=*/false);
  EXPECT_FALSE(p.lossy);
  EXPECT_EQ(p.prepare_attempts, 1u);
  EXPECT_EQ(p.decide_attempts, 1u);
  EXPECT_EQ(p.prepare_wait, cfg.rpc_timeout);
  EXPECT_EQ(p.decide_wait, cfg.rpc_timeout);
  EXPECT_EQ(p.resend_horizon, 0u);
}

TEST(RetryPolicyTest, LossyNetworkUsesTheConfiguredBackoff) {
  ProtocolConfig cfg;
  cfg.prepare_attempts = 4;
  cfg.decide_attempts = 5;
  const RetryPolicy p = RetryPolicy::derive(cfg, /*lossy=*/true);
  EXPECT_TRUE(p.lossy);
  EXPECT_EQ(p.prepare_attempts, 4u);
  EXPECT_EQ(p.prepare_wait, cfg.prepare_timeout);
  EXPECT_EQ(p.decide_attempts, 5u);
  EXPECT_EQ(p.decide_wait, cfg.decide_ack_timeout);
  EXPECT_GT(p.resend_horizon, 0u);
}

}  // namespace
}  // namespace fwkv
