#include "net/codec.hpp"

namespace fwkv::net {

void Encoder::put_u8(std::uint8_t v) { buf_.push_back(v); }

void Encoder::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Encoder::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Encoder::put_string(const std::string& s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Encoder::put_vc(const VectorClock& vc) {
  put_u32(static_cast<std::uint32_t>(vc.size()));
  for (std::size_t i = 0; i < vc.size(); ++i) put_u64(vc[i]);
}

void Encoder::put_access_vector(const AccessVector& av) {
  put_u32(static_cast<std::uint32_t>(av.size()));
  for (std::size_t i = 0; i < av.size(); ++i) put_bool(av.get(i));
}

bool Decoder::need(std::size_t n) {
  if (!ok_ || buf_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t Decoder::get_u8() {
  if (!need(1)) return 0;
  return buf_[pos_++];
}

std::uint32_t Decoder::get_u32() {
  if (!need(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t Decoder::get_u64() {
  if (!need(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
  return v;
}

std::string Decoder::get_string() {
  const std::uint32_t len = get_u32();
  if (!need(len)) return {};
  std::string s(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return s;
}

VectorClock Decoder::get_vc() {
  const std::uint32_t n = get_u32();
  if (!ok_ || n > (1u << 20)) {  // sanity bound: clusters are small
    ok_ = false;
    return {};
  }
  VectorClock vc(n);
  for (std::uint32_t i = 0; i < n; ++i) vc[i] = get_u64();
  return vc;
}

AccessVector Decoder::get_access_vector() {
  const std::uint32_t n = get_u32();
  if (!ok_ || n > (1u << 20)) {
    ok_ = false;
    return {};
  }
  AccessVector av(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (get_bool()) av.set(i);
  }
  return av;
}

namespace {

void encode_tx_descriptor(Encoder& e, const TxDescriptor& tx) {
  e.put_u64(tx.id.raw);
  e.put_bool(tx.read_only);
  e.put_vc(tx.vc);
  e.put_access_vector(tx.has_read);
}

TxDescriptor decode_tx_descriptor(Decoder& d) {
  TxDescriptor tx;
  tx.id = TxId{d.get_u64()};
  tx.read_only = d.get_bool();
  tx.vc = d.get_vc();
  tx.has_read = d.get_access_vector();
  return tx;
}

void encode_writes(Encoder& e, const std::vector<WriteEntry>& writes) {
  e.put_u32(static_cast<std::uint32_t>(writes.size()));
  for (const auto& w : writes) {
    e.put_u64(w.key);
    e.put_string(w.value);
  }
}

std::vector<WriteEntry> decode_writes(Decoder& d) {
  const std::uint32_t n = d.get_u32();
  std::vector<WriteEntry> writes;
  if (!d.ok() || n > (1u << 24)) return writes;
  writes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    WriteEntry w;
    w.key = d.get_u64();
    w.value = d.get_string();
    writes.push_back(std::move(w));
  }
  return writes;
}

void encode_txids(Encoder& e, const std::vector<TxId>& ids) {
  e.put_u32(static_cast<std::uint32_t>(ids.size()));
  for (TxId id : ids) e.put_u64(id.raw);
}

std::vector<TxId> decode_txids(Decoder& d) {
  const std::uint32_t n = d.get_u32();
  std::vector<TxId> ids;
  if (!d.ok() || n > (1u << 24)) return ids;
  ids.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) ids.push_back(TxId{d.get_u64()});
  return ids;
}

struct EncodeVisitor {
  Encoder& e;

  void operator()(const ReadRequest& m) const {
    e.put_u64(m.rpc_id);
    e.put_u32(m.reply_to);
    encode_tx_descriptor(e, m.tx);
    e.put_u64(m.key);
  }
  void operator()(const ReadReturn& m) const {
    e.put_u64(m.rpc_id);
    e.put_bool(m.found);
    e.put_string(m.value);
    e.put_vc(m.version_vc);
    e.put_u64(m.version_id);
    e.put_u64(m.latest_id);
    e.put_vc(m.latest_vc);
    e.put_u64(m.server_seq);
  }
  void operator()(const PrepareRequest& m) const {
    e.put_u64(m.rpc_id);
    e.put_u32(m.reply_to);
    e.put_u64(m.tx.raw);
    e.put_vc(m.tx_vc);
    encode_writes(e, m.writes);
    e.put_u32(static_cast<std::uint32_t>(m.reads.size()));
    for (const auto& r : m.reads) {
      e.put_u64(r.key);
      e.put_u64(r.version);
    }
  }
  void operator()(const VoteReply& m) const {
    e.put_u64(m.rpc_id);
    e.put_bool(m.ok);
    e.put_u8(static_cast<std::uint8_t>(m.fail_reason));
    encode_txids(e, m.collected_set);
  }
  void operator()(const DecideMessage& m) const {
    e.put_u64(m.rpc_id);
    e.put_u32(m.reply_to);
    e.put_u64(m.tx.raw);
    e.put_bool(m.outcome);
    e.put_u32(m.origin);
    e.put_u64(m.seq_no);
    e.put_vc(m.commit_vc);
    encode_writes(e, m.writes);
    encode_txids(e, m.collected_set);
  }
  void operator()(const PropagateMessage& m) const {
    e.put_u32(m.origin);
    e.put_u64(m.from_seq);
    e.put_u64(m.to_seq);
    encode_txids(e, m.watermarks);
  }
  void operator()(const RemoveMessage& m) const {
    e.put_u64(m.tx.raw);
    encode_txids(e, m.watermarks);
  }
  void operator()(const DecideAck& m) const { e.put_u64(m.rpc_id); }
  void operator()(const ResendRequest& m) const {
    e.put_u32(m.requester);
    e.put_u64(m.from_seq);
    e.put_u64(m.to_seq);
  }
};

}  // namespace

std::vector<std::uint8_t> encode_message(const Message& m) {
  Encoder e;
  e.put_u8(static_cast<std::uint8_t>(type_of(m)));
  std::visit(EncodeVisitor{e}, m);
  return e.take();
}

void encode_message_into(const Message& m, std::vector<std::uint8_t>& out) {
  Encoder e(std::move(out));
  e.put_u8(static_cast<std::uint8_t>(type_of(m)));
  std::visit(EncodeVisitor{e}, m);
  out = e.take();
}

std::optional<Message> decode_message(const std::vector<std::uint8_t>& bytes) {
  Decoder d(bytes);
  const auto tag = d.get_u8();
  if (!d.ok() || tag >= kNumMessageTypes) return std::nullopt;
  Message out;
  switch (static_cast<MessageType>(tag)) {
    case MessageType::kReadRequest: {
      ReadRequest m;
      m.rpc_id = d.get_u64();
      m.reply_to = d.get_u32();
      m.tx = decode_tx_descriptor(d);
      m.key = d.get_u64();
      out = std::move(m);
      break;
    }
    case MessageType::kReadReturn: {
      ReadReturn m;
      m.rpc_id = d.get_u64();
      m.found = d.get_bool();
      m.value = d.get_string();
      m.version_vc = d.get_vc();
      m.version_id = d.get_u64();
      m.latest_id = d.get_u64();
      m.latest_vc = d.get_vc();
      m.server_seq = d.get_u64();
      out = std::move(m);
      break;
    }
    case MessageType::kPrepareRequest: {
      PrepareRequest m;
      m.rpc_id = d.get_u64();
      m.reply_to = d.get_u32();
      m.tx = TxId{d.get_u64()};
      m.tx_vc = d.get_vc();
      m.writes = decode_writes(d);
      const std::uint32_t nr = d.get_u32();
      if (d.ok() && nr <= (1u << 24)) {
        m.reads.reserve(nr);
        for (std::uint32_t i = 0; i < nr; ++i) {
          ReadValidationEntry r;
          r.key = d.get_u64();
          r.version = d.get_u64();
          m.reads.push_back(r);
        }
      }
      out = std::move(m);
      break;
    }
    case MessageType::kVoteReply: {
      VoteReply m;
      m.rpc_id = d.get_u64();
      m.ok = d.get_bool();
      m.fail_reason = static_cast<VoteFail>(d.get_u8());
      m.collected_set = decode_txids(d);
      out = std::move(m);
      break;
    }
    case MessageType::kDecide: {
      DecideMessage m;
      m.rpc_id = d.get_u64();
      m.reply_to = d.get_u32();
      m.tx = TxId{d.get_u64()};
      m.outcome = d.get_bool();
      m.origin = d.get_u32();
      m.seq_no = d.get_u64();
      m.commit_vc = d.get_vc();
      m.writes = decode_writes(d);
      m.collected_set = decode_txids(d);
      out = std::move(m);
      break;
    }
    case MessageType::kPropagate: {
      PropagateMessage m;
      m.origin = d.get_u32();
      m.from_seq = d.get_u64();
      m.to_seq = d.get_u64();
      m.watermarks = decode_txids(d);
      out = std::move(m);
      break;
    }
    case MessageType::kRemove: {
      RemoveMessage m;
      m.tx = TxId{d.get_u64()};
      m.watermarks = decode_txids(d);
      out = std::move(m);
      break;
    }
    case MessageType::kDecideAck: {
      DecideAck m;
      m.rpc_id = d.get_u64();
      out = m;
      break;
    }
    case MessageType::kResendRequest: {
      ResendRequest m;
      m.requester = d.get_u32();
      m.from_seq = d.get_u64();
      m.to_seq = d.get_u64();
      out = m;
      break;
    }
  }
  if (!d.ok() || !d.exhausted()) return std::nullopt;
  return out;
}

}  // namespace fwkv::net
