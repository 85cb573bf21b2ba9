// Wire-codec tests: exact round-trips for every message type plus
// malformed-input rejection. The SimNetwork round-trips every message
// through this codec when serialize_messages is on (the default in these
// tests' clusters), so codec bugs would corrupt protocol state silently —
// hence the exhaustive field checks here.
#include <gtest/gtest.h>

#include <random>

#include "net/codec.hpp"

namespace fwkv::net {
namespace {

VectorClock vc(std::initializer_list<SeqNo> init) { return VectorClock(init); }

TEST(EncoderTest, PrimitivesRoundTrip) {
  Encoder e;
  e.put_u8(0xAB);
  e.put_u32(0xDEADBEEF);
  e.put_u64(0x0123456789ABCDEFull);
  e.put_bool(true);
  e.put_string("hello");
  auto bytes = e.take();
  Decoder d(bytes);
  EXPECT_EQ(d.get_u8(), 0xAB);
  EXPECT_EQ(d.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(d.get_bool());
  EXPECT_EQ(d.get_string(), "hello");
  EXPECT_TRUE(d.ok());
  EXPECT_TRUE(d.exhausted());
}

TEST(DecoderTest, UnderrunMarksFailed) {
  std::vector<std::uint8_t> two{1, 2};
  Decoder d(two);
  EXPECT_EQ(d.get_u64(), 0u);
  EXPECT_FALSE(d.ok());
}

TEST(DecoderTest, FailureIsSticky) {
  std::vector<std::uint8_t> bytes{1};
  Decoder d(bytes);
  d.get_u32();  // fails
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.get_u8(), 0u);  // still failed even though a byte exists
}

TEST(DecoderTest, StringLengthBeyondBufferFails) {
  Encoder e;
  e.put_u32(100);  // claims 100 bytes follow
  auto bytes = e.take();
  Decoder d(bytes);
  EXPECT_EQ(d.get_string(), "");
  EXPECT_FALSE(d.ok());
}

TEST(CodecTest, ReadRequestRoundTrip) {
  ReadRequest m;
  m.rpc_id = 42;
  m.reply_to = 3;
  m.tx.id = TxId(1, 2, 3);
  m.tx.read_only = true;
  m.tx.vc = vc({2, 7, 6, 13});
  m.tx.has_read = AccessVector(4);
  m.tx.has_read.set(1);
  m.key = 0xFEEDFACE;

  auto decoded = decode_message(encode_message(m));
  ASSERT_TRUE(decoded.has_value());
  const auto& r = std::get<ReadRequest>(*decoded);
  EXPECT_EQ(r.rpc_id, 42u);
  EXPECT_EQ(r.reply_to, 3u);
  EXPECT_EQ(r.tx.id, m.tx.id);
  EXPECT_TRUE(r.tx.read_only);
  EXPECT_EQ(r.tx.vc, m.tx.vc);
  EXPECT_TRUE(r.tx.has_read.get(1));
  EXPECT_FALSE(r.tx.has_read.get(0));
  EXPECT_EQ(r.key, 0xFEEDFACEu);
}

TEST(CodecTest, ReadReturnRoundTrip) {
  ReadReturn m;
  m.rpc_id = 7;
  m.found = true;
  m.value = std::string("binary\0data", 11);
  m.version_vc = vc({1, 2});
  m.version_id = 99;
  m.latest_id = 101;
  m.latest_vc = vc({1, 5});  // a stale read carries the newest version's clock

  auto decoded = decode_message(encode_message(m));
  ASSERT_TRUE(decoded.has_value());
  const auto& r = std::get<ReadReturn>(*decoded);
  EXPECT_EQ(r.value.size(), 11u);
  EXPECT_EQ(r.value, m.value);
  EXPECT_EQ(r.version_id, 99u);
  EXPECT_EQ(r.latest_id, 101u);
  EXPECT_EQ(r.latest_vc, m.latest_vc);
}

TEST(CodecTest, PrepareRoundTrip) {
  PrepareRequest m;
  m.rpc_id = 5;
  m.reply_to = 2;
  m.tx = TxId(3, 4, 5);
  m.tx_vc = vc({5, 5, 5});
  m.writes = {{10, "a"}, {20, "bb"}};
  m.reads = {{10, 7}, {30, 0}};

  auto decoded = decode_message(encode_message(m));
  ASSERT_TRUE(decoded.has_value());
  const auto& r = std::get<PrepareRequest>(*decoded);
  ASSERT_EQ(r.writes.size(), 2u);
  EXPECT_EQ(r.writes[1].key, 20u);
  EXPECT_EQ(r.writes[1].value, "bb");
  ASSERT_EQ(r.reads.size(), 2u);
  EXPECT_EQ(r.reads[0].version, 7u);
}

TEST(CodecTest, VoteRoundTrip) {
  VoteReply m;
  m.rpc_id = 9;
  m.ok = false;
  m.fail_reason = VoteFail::kValidation;
  m.collected_set = {TxId(1, 1, 1), TxId(2, 2, 2)};

  auto decoded = decode_message(encode_message(m));
  ASSERT_TRUE(decoded.has_value());
  const auto& r = std::get<VoteReply>(*decoded);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fail_reason, VoteFail::kValidation);
  ASSERT_EQ(r.collected_set.size(), 2u);
  EXPECT_EQ(r.collected_set[1], TxId(2, 2, 2));
}

TEST(CodecTest, DecideRoundTrip) {
  DecideMessage m;
  m.rpc_id = 77;
  m.reply_to = 4;
  m.tx = TxId(1, 2, 3);
  m.outcome = true;
  m.origin = 6;
  m.seq_no = 1234;
  m.commit_vc = vc({1, 2, 3, 4, 5, 6, 7});
  m.writes = {{1, "x"}};
  m.collected_set = {TxId(9, 9, 9)};

  auto decoded = decode_message(encode_message(m));
  ASSERT_TRUE(decoded.has_value());
  const auto& r = std::get<DecideMessage>(*decoded);
  EXPECT_EQ(r.rpc_id, 77u);
  EXPECT_TRUE(r.outcome);
  EXPECT_EQ(r.seq_no, 1234u);
  EXPECT_EQ(r.commit_vc, m.commit_vc);
  ASSERT_EQ(r.collected_set.size(), 1u);
}

TEST(CodecTest, PropagateRoundTrip) {
  PropagateMessage m;
  m.origin = 4;
  m.from_seq = 100;
  m.to_seq = 120;
  auto decoded = decode_message(encode_message(m));
  ASSERT_TRUE(decoded.has_value());
  const auto& r = std::get<PropagateMessage>(*decoded);
  EXPECT_EQ(r.origin, 4u);
  EXPECT_EQ(r.from_seq, 100u);
  EXPECT_EQ(r.to_seq, 120u);
}

TEST(CodecTest, PropagateRoundTripWithRemovedIds) {
  // The removed ids ride as session watermarks.
  PropagateMessage m{4, 100, 120};
  m.watermarks = {TxId(1, 2, 3), TxId(4, 5, 6)};
  auto decoded = decode_message(encode_message(m));
  ASSERT_TRUE(decoded.has_value());
  const auto& r = std::get<PropagateMessage>(*decoded);
  EXPECT_EQ(r.to_seq, 120u);
  EXPECT_EQ(r.watermarks, m.watermarks);
}

TEST(CodecTest, RemoveRoundTrip) {
  RemoveMessage m{TxId(7, 8, 9), {TxId(7, 8, 9), TxId(7, 3, 1)}};
  auto decoded = decode_message(encode_message(m));
  ASSERT_TRUE(decoded.has_value());
  const auto& r = std::get<RemoveMessage>(*decoded);
  EXPECT_EQ(r.tx, TxId(7, 8, 9));
  EXPECT_EQ(r.watermarks, (std::vector<TxId>{TxId(7, 8, 9), TxId(7, 3, 1)}));
}

TEST(CodecTest, RemoveRoundTripEmptyWatermarkList) {
  RemoveMessage m{TxId(1, 2, 3), {}};
  auto decoded = decode_message(encode_message(m));
  ASSERT_TRUE(decoded.has_value());
  const auto& r = std::get<RemoveMessage>(*decoded);
  EXPECT_EQ(r.tx, TxId(1, 2, 3));
  EXPECT_TRUE(r.watermarks.empty());
}

TEST(CodecTest, RemoveRoundTripBatchOfIds) {
  // A batch of session watermarks, extreme field values included.
  RemoveMessage m;
  m.tx = TxId(7, 8, 9);
  m.watermarks = {TxId(1, 2, 3), TxId(0xffff, 0xffff, 0xffffffffu),
                  TxId(4, 5, 6), TxId(7, 8, 9)};
  auto decoded = decode_message(encode_message(m));
  ASSERT_TRUE(decoded.has_value());
  const auto& r = std::get<RemoveMessage>(*decoded);
  EXPECT_EQ(r.tx, TxId(7, 8, 9));
  EXPECT_EQ(r.watermarks, m.watermarks);
}

TEST(CodecTest, EncodeIntoReusesBuffer) {
  RemoveMessage m{TxId(7, 8, 9), {TxId(1, 2, 3), TxId(4, 5, 6)}};
  std::vector<std::uint8_t> buf;
  encode_message_into(m, buf);
  const auto once = buf;
  EXPECT_EQ(once, encode_message(m));
  // Re-encoding into the warmed buffer must not accumulate bytes.
  encode_message_into(m, buf);
  EXPECT_EQ(buf, once);
}

TEST(CodecTest, DecideAckRoundTrip) {
  DecideAck m{31337};
  auto decoded = decode_message(encode_message(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<DecideAck>(*decoded).rpc_id, 31337u);
}

TEST(CodecTest, ResendRequestRoundTrip) {
  ResendRequest m;
  m.requester = 5;
  m.from_seq = 1000;
  m.to_seq = 1024;
  auto decoded = decode_message(encode_message(m));
  ASSERT_TRUE(decoded.has_value());
  const auto& r = std::get<ResendRequest>(*decoded);
  EXPECT_EQ(r.requester, 5u);
  EXPECT_EQ(r.from_seq, 1000u);
  EXPECT_EQ(r.to_seq, 1024u);
}

TEST(CodecTest, EmptyInputRejected) {
  EXPECT_FALSE(decode_message({}).has_value());
}

TEST(CodecTest, UnknownTagRejected) {
  std::vector<std::uint8_t> bytes{200, 0, 0, 0};
  EXPECT_FALSE(decode_message(bytes).has_value());
}

TEST(CodecTest, TrailingGarbageRejected) {
  auto bytes = encode_message(Message{DecideAck{1}});
  bytes.push_back(0xFF);
  EXPECT_FALSE(decode_message(bytes).has_value());
}

TEST(CodecTest, TruncationAlwaysRejected) {
  PrepareRequest m;
  m.tx = TxId(1, 1, 1);
  m.tx_vc = vc({1, 2, 3});
  m.writes = {{5, "value"}};
  auto bytes = encode_message(m);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> truncated(bytes.begin(),
                                        bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(decode_message(truncated).has_value())
        << "truncation at " << cut << " was accepted";
  }
}

TEST(CodecTest, RandomBytesNeverCrash) {
  std::mt19937_64 rng(99);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> bytes(rng() % 64);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    (void)decode_message(bytes);  // must not crash or hang
  }
}

// Fuzz round-trip: randomized ReadRequests survive the codec bit-exact.
class CodecFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(CodecFuzzTest, RandomReadRequestsRoundTrip) {
  std::mt19937_64 rng(GetParam() * 31 + 7);
  for (int iter = 0; iter < 200; ++iter) {
    ReadRequest m;
    m.rpc_id = rng();
    m.reply_to = static_cast<NodeId>(rng() % 64);
    m.tx.id = TxId{rng()};
    m.tx.read_only = rng() % 2 == 0;
    const std::size_t n = rng() % 24;
    m.tx.vc = VectorClock(n);
    m.tx.has_read = AccessVector(n);
    for (std::size_t i = 0; i < n; ++i) {
      m.tx.vc[i] = rng() % 1000;
      if (rng() % 2) m.tx.has_read.set(i);
    }
    m.key = rng();

    auto decoded = decode_message(encode_message(m));
    ASSERT_TRUE(decoded.has_value());
    const auto& r = std::get<ReadRequest>(*decoded);
    EXPECT_EQ(r.rpc_id, m.rpc_id);
    EXPECT_EQ(r.tx.id, m.tx.id);
    EXPECT_EQ(r.tx.vc, m.tx.vc);
    EXPECT_EQ(r.tx.has_read.bits(), m.tx.has_read.bits());
    EXPECT_EQ(r.key, m.key);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzTest, ::testing::Range(0, 4));

// ---- whole-variant fuzz ------------------------------------------------
// A random instance of every Message alternative must survive
// encode -> decode -> encode byte-exact (a fixed point implies decode lost
// nothing, given the per-field tests above pin the field mapping).

VectorClock random_vc(std::mt19937_64& rng) {
  VectorClock v(rng() % 16);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng() % 10'000;
  return v;
}

std::string random_value(std::mt19937_64& rng) {
  std::string s(rng() % 20, '\0');
  for (auto& c : s) c = static_cast<char>(rng());
  return s;
}

std::vector<WriteEntry> random_writes(std::mt19937_64& rng) {
  std::vector<WriteEntry> w(rng() % 6);
  for (auto& e : w) {
    e.key = rng();
    e.value = random_value(rng);
  }
  return w;
}

Message random_message(MessageType t, std::mt19937_64& rng) {
  switch (t) {
    case MessageType::kReadRequest: {
      ReadRequest m;
      m.rpc_id = rng();
      m.reply_to = static_cast<NodeId>(rng() % 64);
      m.tx.id = TxId{rng()};
      m.tx.read_only = rng() % 2 == 0;
      m.tx.vc = random_vc(rng);
      m.tx.has_read = AccessVector(m.tx.vc.size());
      for (std::size_t i = 0; i < m.tx.vc.size(); ++i) {
        if (rng() % 2) m.tx.has_read.set(i);
      }
      m.key = rng();
      return m;
    }
    case MessageType::kReadReturn: {
      ReadReturn m;
      m.rpc_id = rng();
      m.found = rng() % 2 == 0;
      m.value = random_value(rng);
      m.version_vc = random_vc(rng);
      m.version_id = rng();
      m.latest_id = rng();
      if (rng() % 2 == 0) m.latest_vc = random_vc(rng);
      m.server_seq = rng() % 100'000;
      return m;
    }
    case MessageType::kPrepareRequest: {
      PrepareRequest m;
      m.rpc_id = rng();
      m.reply_to = static_cast<NodeId>(rng() % 64);
      m.tx = TxId{rng()};
      m.tx_vc = random_vc(rng);
      m.writes = random_writes(rng);
      m.reads.resize(rng() % 5);
      for (auto& r : m.reads) {
        r.key = rng();
        r.version = rng();
      }
      return m;
    }
    case MessageType::kVoteReply: {
      VoteReply m;
      m.rpc_id = rng();
      m.ok = rng() % 2 == 0;
      m.fail_reason = static_cast<VoteFail>(rng() % 3);
      m.collected_set.resize(rng() % 5);
      for (auto& tx : m.collected_set) tx = TxId{rng()};
      return m;
    }
    case MessageType::kDecide: {
      DecideMessage m;
      m.rpc_id = rng();
      m.reply_to = static_cast<NodeId>(rng() % 64);
      m.tx = TxId{rng()};
      m.outcome = rng() % 2 == 0;
      m.origin = static_cast<NodeId>(rng() % 64);
      m.seq_no = rng() % 100'000;
      m.commit_vc = random_vc(rng);
      m.writes = random_writes(rng);
      m.collected_set.resize(rng() % 4);
      for (auto& tx : m.collected_set) tx = TxId{rng()};
      return m;
    }
    case MessageType::kPropagate: {
      PropagateMessage m{static_cast<NodeId>(rng() % 64), rng() % 100'000,
                         rng() % 100'000};
      m.watermarks.resize(rng() % 4);
      for (auto& w : m.watermarks) w = TxId{rng()};
      return m;
    }
    case MessageType::kRemove: {
      RemoveMessage m;
      m.tx = TxId{rng()};
      m.watermarks.resize(rng() % 6);
      for (auto& w : m.watermarks) w = TxId{rng()};
      return m;
    }
    case MessageType::kDecideAck:
      return DecideAck{rng()};
    case MessageType::kResendRequest:
      return ResendRequest{static_cast<NodeId>(rng() % 64), rng() % 100'000,
                           rng() % 100'000};
  }
  return DecideAck{0};
}

TEST_P(CodecFuzzTest, EveryVariantRoundTripsByteExact) {
  std::mt19937_64 rng(GetParam() * 131 + 17);
  for (std::size_t t = 0; t < kNumMessageTypes; ++t) {
    for (int iter = 0; iter < 100; ++iter) {
      const auto type = static_cast<MessageType>(t);
      const Message m = random_message(type, rng);
      ASSERT_EQ(type_of(m), type);
      const auto bytes = encode_message(m);
      auto decoded = decode_message(bytes);
      ASSERT_TRUE(decoded.has_value())
          << "variant " << type_name(type) << " iter " << iter;
      EXPECT_EQ(type_of(*decoded), type);
      EXPECT_EQ(encode_message(*decoded), bytes)
          << "variant " << type_name(type) << " iter " << iter;
    }
  }
}

}  // namespace
}  // namespace fwkv::net
