// Tests of the benchmark's own arithmetic on synthetic inputs.
#include <gtest/gtest.h>

#include <vector>

#include "trace_math.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

namespace net = fwkv::net;

TEST(Percentile, NearestRankOnExactSamples) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(percentile(v, 0.50), 50);
  EXPECT_EQ(percentile(v, 0.99), 99);
  EXPECT_EQ(percentile(v, 1.00), 100);
  EXPECT_EQ(percentile(v, 0.00), 1);
  EXPECT_EQ(percentile({7.5}, 0.99), 7.5);
  EXPECT_EQ(percentile({}, 0.5), 0);
}

TEST(Percentile, ShowsATenPercentMove) {
  std::vector<double> base, slower;
  for (int i = 1; i <= 1000; ++i) {
    base.push_back(100.0 + i);
    slower.push_back((100.0 + i) * 1.1);
  }
  EXPECT_DOUBLE_EQ(percentile(slower, 0.5) / percentile(base, 0.5), 1.1);
  EXPECT_DOUBLE_EQ(percentile(slower, 0.99) / percentile(base, 0.99), 1.1);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(PerCommit, RatioAndEmptyWindow) {
  EXPECT_DOUBLE_EQ(per_commit(825, 100), 8.25);
  EXPECT_EQ(per_commit(10, 0), 0);
}

TEST(Dispatch, JoinsHandlerStartsToSendsByKey) {
  std::vector<Stamp> sends = {
      {5, 1'000, 0}, {9, 2'000, 20'000}, {5, 4'000, 0}, {7, 3'000, 0}};
  sort_by_key(sends);
  const std::vector<Stamp> starts = {
      {5, 3'500, 0},    // earliest send with key 5: 2.5 us
      {9, 25'000, 0},   // 23 us after send, 20 us of it configured latency
      {11, 9'000, 0}};  // never sent: skipped
  const auto d = dispatch_delays_us(sends, starts);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d[0], 2.5);
  EXPECT_DOUBLE_EQ(d[1], 3.0);
}

TEST(MessageKey, RequestAndReplyMatchByRpcId) {
  net::ReadRequest rr;
  rr.rpc_id = 42;
  net::ReadReturn ret;
  ret.rpc_id = 42;
  const std::uint64_t req_key = message_key(rr, 1);
  EXPECT_EQ(tag_of(req_key), net::MessageType::kReadRequest);
  EXPECT_EQ(retag(req_key, net::MessageType::kReadReturn), message_key(ret, 0));

  net::PrepareRequest prep;
  prep.rpc_id = 43;
  net::VoteReply vote;
  vote.rpc_id = 43;
  EXPECT_EQ(retag(message_key(prep, 2), net::MessageType::kVoteReply),
            message_key(vote, 3));
  EXPECT_NE(message_key(rr, 1), message_key(prep, 1));
}

TEST(MessageKey, OneWayMessagesAreKeyedPerDestination) {
  net::DecideMessage d;
  d.tx = fwkv::TxId(1, 0, 77);
  EXPECT_EQ(message_key(d, 2), message_key(d, 2));
  EXPECT_NE(message_key(d, 2), message_key(d, 3));
  net::RemoveMessage rm;
  rm.tx = d.tx;
  EXPECT_NE(message_key(rm, 2), message_key(d, 2));
  net::PropagateMessage p{1, 5, 9};
  net::PropagateMessage q{1, 10, 12};
  EXPECT_NE(message_key(p, 0), message_key(q, 0));
}

TEST(ReplyWake, NextClientSendOrCallEnd) {
  const std::vector<std::int64_t> client = {100, 200, 900};
  EXPECT_EQ(wake_ns(client, 500, 2'000), 400);   // next send at 900
  EXPECT_EQ(wake_ns(client, 950, 2'000), 1'050);  // no later send: call end
  EXPECT_EQ(wake_ns(client, 200, 850), 650);      // send after the call ends
}

TEST(SpanCoverage, SyntheticTrace) {
  // 10 transactions of 100 us: begin 1 us, two reads of 40 us, commit 15 us.
  const std::vector<CallMean> calls = {{10, 1.0}, {20, 40.0}, {10, 15.0}};
  EXPECT_DOUBLE_EQ(span_coverage(calls, 10, 100.0), 0.96);
  // Half the reads missing from the trace: coverage drops below 0.9.
  const std::vector<CallMean> gaps = {{10, 1.0}, {10, 40.0}, {10, 15.0}};
  EXPECT_LT(span_coverage(gaps, 10, 100.0), 0.9);
  EXPECT_EQ(span_coverage(calls, 0, 100.0), 0);
}

}  // namespace
}  // namespace perfbench
