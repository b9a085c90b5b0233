#include "net/wire.hpp"

#include <memory>
#include <utility>

#include "fs/followers_message.hpp"
#include "net/codec.hpp"
#include "net/group_frame.hpp"
#include "runtime/heartbeat.hpp"
#include "smr/client_messages.hpp"
#include "suspect/delta_update_message.hpp"
#include "suspect/update_message.hpp"
#include "xpaxos/messages.hpp"

namespace qsel::net {

namespace {

void encode_heartbeat(const runtime::HeartbeatMessage& msg, Encoder& enc) {
  enc.process_id(msg.origin);
  enc.u64(msg.seq);
  enc.signature(msg.sig);
}

void encode_update(const suspect::UpdateMessage& msg, Encoder& enc) {
  enc.process_id(msg.origin);
  enc.u64_vector(msg.row);
  enc.signature(msg.sig);
}

void encode_followers(const fs::FollowersMessage& msg, Encoder& enc) {
  enc.process_id(msg.leader);
  enc.process_set(msg.followers, msg.width);
  enc.u64(msg.epoch);
  std::vector<std::uint64_t> edges;
  edges.reserve(msg.line_edges.size());
  for (const auto& [u, v] : msg.line_edges)
    edges.push_back((static_cast<std::uint64_t>(u) << 32) | v);
  enc.u64_vector(edges);
  enc.signature(msg.sig);
}

void encode_delta(const suspect::DeltaUpdateMessage& msg, Encoder& enc) {
  enc.process_id(msg.origin);
  enc.u64(msg.version);
  enc.u32(static_cast<std::uint32_t>(msg.cells.size()));
  for (const suspect::DeltaCell& c : msg.cells) {
    enc.u32(c.col);
    enc.u64(c.stamp);
  }
  enc.signature(msg.sig);
}

void encode_row_digest(const suspect::RowDigestMessage& msg, Encoder& enc) {
  enc.u32(static_cast<std::uint32_t>(msg.entries.size()));
  for (const suspect::RowDigestEntry& e : msg.entries) {
    enc.u32(e.row);
    for (const std::uint8_t b : e.digest) enc.u8(b);
  }
}

void encode_client_request(const smr::ClientRequest& msg, Encoder& enc) {
  enc.u32(msg.client);
  enc.u64(msg.client_seq);
  enc.bytes(msg.op);
  enc.signature(msg.sig);
}

void encode_reply(const smr::ReplyMessage& msg, Encoder& enc) {
  enc.u64(msg.view);
  enc.u32(msg.client);
  enc.u64(msg.client_seq);
  enc.str(msg.result);
  enc.process_id(msg.replica);
  enc.signature(msg.sig);
}

void encode_prepare_fields(const xpaxos::PrepareMessage& msg, Encoder& enc) {
  enc.u64(msg.view);
  enc.u64(msg.slot);
  enc.u32(static_cast<std::uint32_t>(msg.requests.size()));
  for (const xpaxos::BatchEntry& e : msg.requests) {
    enc.u32(e.client);
    enc.u64(e.client_seq);
    enc.bytes(e.op);
  }
  enc.signature(msg.sig);
}

void encode_commit(const xpaxos::CommitMessage& msg, Encoder& enc) {
  encode_prepare_fields(msg.prepare, enc);
  enc.process_id(msg.sender);
  enc.signature(msg.sig);
}

void encode_viewchange(const xpaxos::ViewChangeMessage& msg, Encoder& enc) {
  enc.u64(msg.new_view);
  enc.process_id(msg.sender);
  msg.stable.encode(enc);
  enc.u32(static_cast<std::uint32_t>(msg.prepared.size()));
  for (const xpaxos::PrepareMessage& p : msg.prepared)
    encode_prepare_fields(p, enc);
  enc.signature(msg.sig);
}

void encode_newview(const xpaxos::NewViewMessage& msg, Encoder& enc) {
  enc.u64(msg.view);
  enc.process_id(msg.leader);
  msg.stable.encode(enc);
  enc.u32(static_cast<std::uint32_t>(msg.reproposals.size()));
  for (const xpaxos::PrepareMessage& p : msg.reproposals)
    encode_prepare_fields(p, enc);
  enc.signature(msg.sig);
}

void encode_checkpoint(const xpaxos::CheckpointMessage& msg, Encoder& enc) {
  enc.u64(msg.slot);
  enc.digest(msg.digest);
  enc.process_id(msg.sender);
  enc.signature(msg.sig);
}

void encode_state_request(const xpaxos::StateRequestMessage& msg,
                          Encoder& enc) {
  enc.u64(msg.slot);
  enc.process_id(msg.sender);
  enc.signature(msg.sig);
}

void encode_state(const xpaxos::StateMessage& msg, Encoder& enc) {
  msg.stable.encode(enc);
  enc.bytes(msg.snapshot);
}

void encode_group_frame(const GroupFrame& msg, Encoder& enc) {
  enc.u32(msg.group);
  enc.bytes(msg.inner);
}

sim::PayloadPtr decode_heartbeat(Decoder& dec, ProcessId n) {
  auto msg = std::make_shared<runtime::HeartbeatMessage>();
  msg->origin = dec.process_id();
  msg->seq = dec.u64();
  msg->sig = dec.signature();
  if (!dec.done() || msg->origin >= n) return nullptr;
  return msg;
}

sim::PayloadPtr decode_update(Decoder& dec, ProcessId n) {
  auto msg = std::make_shared<suspect::UpdateMessage>();
  msg->origin = dec.process_id();
  msg->row = dec.u64_vector();
  msg->sig = dec.signature();
  // The decode-time n is an address-space bound, not the replica count:
  // the shard mux decodes with members+clients so client-originated
  // messages pass the origin check, which makes it an over-estimate of
  // the suspicion-matrix width. Bound the row here; the consumer's
  // UpdateMessage::verify enforces the exact width against its group n.
  if (!dec.done() || msg->origin >= n || msg->row.empty() ||
      msg->row.size() > n)
    return nullptr;
  return msg;
}

sim::PayloadPtr decode_followers(Decoder& dec, ProcessId n) {
  auto msg = std::make_shared<fs::FollowersMessage>();
  msg->leader = dec.process_id();
  msg->width = n;
  msg->followers = dec.process_set(n);
  msg->epoch = dec.u64();
  const std::vector<std::uint64_t> edges = dec.u64_vector();
  msg->sig = dec.signature();
  if (!dec.done() || msg->leader >= n) return nullptr;
  // A line subgraph on n nodes has at most n-1 edges; anything bigger is
  // garbage regardless of signature.
  if (edges.size() >= n) return nullptr;
  for (const std::uint64_t packed : edges) {
    const auto u = static_cast<ProcessId>(packed >> 32);
    const auto v = static_cast<ProcessId>(packed & 0xffffffffULL);
    if (u >= n || v >= n) return nullptr;
    msg->line_edges.emplace_back(u, v);
  }
  return msg;
}

sim::PayloadPtr decode_delta(Decoder& dec, ProcessId n) {
  auto msg = std::make_shared<suspect::DeltaUpdateMessage>();
  msg->origin = dec.process_id();
  msg->version = dec.u64();
  const std::uint32_t count = dec.u32();
  // A delta carries at most one cell per column; nonempty by contract
  // (an empty delta is never sent, so on the wire it is garbage).
  if (!dec.ok() || count == 0 || count > n) return nullptr;
  msg->cells.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    suspect::DeltaCell c;
    c.col = dec.process_id();
    c.stamp = dec.u64();
    if (!dec.ok() || c.col >= n || c.stamp == 0) return nullptr;
    if (i > 0 && c.col <= msg->cells.back().col) return nullptr;
    msg->cells.push_back(c);
  }
  msg->sig = dec.signature();
  if (!dec.done() || msg->origin >= n) return nullptr;
  return msg;
}

sim::PayloadPtr decode_row_digest(Decoder& dec, ProcessId n) {
  auto msg = std::make_shared<suspect::RowDigestMessage>();
  const std::uint32_t count = dec.u32();
  if (!dec.ok() || count > n) return nullptr;  // one digest per row max
  msg->entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    suspect::RowDigestEntry e;
    e.row = dec.process_id();
    for (std::uint8_t& b : e.digest) b = dec.u8();
    if (!dec.ok() || e.row >= n) return nullptr;
    if (i > 0 && e.row <= msg->entries.back().row) return nullptr;
    msg->entries.push_back(e);
  }
  if (!dec.done()) return nullptr;
  return msg;
}

sim::PayloadPtr decode_client_request(Decoder& dec, ProcessId n) {
  auto msg = std::make_shared<smr::ClientRequest>();
  msg->client = dec.u32();
  msg->client_seq = dec.u64();
  msg->op = dec.bytes();
  msg->sig = dec.signature();
  if (!dec.done() || msg->client >= n) return nullptr;
  return msg;
}

sim::PayloadPtr decode_reply(Decoder& dec, ProcessId n) {
  auto msg = std::make_shared<smr::ReplyMessage>();
  msg->view = dec.u64();
  msg->client = dec.u32();
  msg->client_seq = dec.u64();
  msg->result = dec.str();
  msg->replica = dec.process_id();
  msg->sig = dec.signature();
  if (!dec.done() || msg->client >= n || msg->replica >= n) return nullptr;
  return msg;
}

bool decode_prepare_fields(Decoder& dec, ProcessId n,
                           xpaxos::PrepareMessage& out) {
  out.view = dec.u64();
  out.slot = dec.u64();
  const std::uint32_t count = dec.u32();
  // A PREPARE carries 1..kMaxBatch requests; an empty batch or an absurd
  // count is garbage regardless of signature, rejected before any
  // allocation is amplified.
  if (!dec.ok() || count == 0 || count > xpaxos::PrepareMessage::kMaxBatch)
    return false;
  out.requests.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    xpaxos::BatchEntry e;
    e.client = dec.u32();
    e.client_seq = dec.u64();
    e.op = dec.bytes();
    // client == 0 doubles as the no-op marker, so only the upper bound is
    // checked.
    if (!dec.ok() || e.client >= n) return false;
    out.requests.push_back(std::move(e));
  }
  out.sig = dec.signature();
  // Slot 0 is never proposed.
  return dec.ok() && out.slot != 0;
}

sim::PayloadPtr decode_prepare(Decoder& dec, ProcessId n) {
  auto msg = std::make_shared<xpaxos::PrepareMessage>();
  if (!decode_prepare_fields(dec, n, *msg) || !dec.done()) return nullptr;
  return msg;
}

sim::PayloadPtr decode_commit(Decoder& dec, ProcessId n) {
  auto msg = std::make_shared<xpaxos::CommitMessage>();
  if (!decode_prepare_fields(dec, n, msg->prepare)) return nullptr;
  msg->sender = dec.process_id();
  msg->sig = dec.signature();
  if (!dec.done() || msg->sender >= n) return nullptr;
  return msg;
}

/// Shared shape of VIEWCHANGE and NEWVIEW: header ids, a prepare list, a
/// signature. No up-front length cap: each entry consumes at least 60
/// bytes, so a lying count just runs the decoder off the buffer (and the
/// list is built without reserve, so no allocation is amplified either).
bool decode_prepare_list(Decoder& dec, ProcessId n,
                         std::vector<xpaxos::PrepareMessage>& out) {
  const std::uint32_t count = dec.u32();
  if (!dec.ok()) return false;
  for (std::uint32_t i = 0; i < count; ++i) {
    xpaxos::PrepareMessage p;
    if (!decode_prepare_fields(dec, n, p)) return false;
    out.push_back(std::move(p));
  }
  return true;
}

/// A checkpoint certificate: slot, then (unless genesis) the digest and
/// one signature per signer, at most n of them.
bool decode_certificate(Decoder& dec, ProcessId n,
                        xpaxos::CheckpointCertificate& out) {
  out.slot = dec.u64();
  if (!dec.ok()) return false;
  if (out.slot == 0) return true;
  out.digest = dec.digest();
  const std::uint32_t count = dec.u32();
  if (!dec.ok() || count == 0 || count > n) return false;
  out.proofs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    out.proofs.push_back(dec.signature());
    if (!dec.ok() || out.proofs.back().signer >= n) return false;
  }
  return true;
}

sim::PayloadPtr decode_viewchange(Decoder& dec, ProcessId n) {
  auto msg = std::make_shared<xpaxos::ViewChangeMessage>();
  msg->new_view = dec.u64();
  msg->sender = dec.process_id();
  if (!dec.ok() || msg->sender >= n) return nullptr;
  if (!decode_certificate(dec, n, msg->stable)) return nullptr;
  if (!decode_prepare_list(dec, n, msg->prepared)) return nullptr;
  msg->sig = dec.signature();
  if (!dec.done()) return nullptr;
  return msg;
}

sim::PayloadPtr decode_newview(Decoder& dec, ProcessId n) {
  auto msg = std::make_shared<xpaxos::NewViewMessage>();
  msg->view = dec.u64();
  msg->leader = dec.process_id();
  if (!dec.ok() || msg->leader >= n) return nullptr;
  if (!decode_certificate(dec, n, msg->stable)) return nullptr;
  if (!decode_prepare_list(dec, n, msg->reproposals)) return nullptr;
  msg->sig = dec.signature();
  if (!dec.done()) return nullptr;
  return msg;
}

sim::PayloadPtr decode_checkpoint(Decoder& dec, ProcessId n) {
  auto msg = std::make_shared<xpaxos::CheckpointMessage>();
  msg->slot = dec.u64();
  msg->digest = dec.digest();
  msg->sender = dec.process_id();
  msg->sig = dec.signature();
  if (!dec.done() || msg->sender >= n || msg->slot == 0) return nullptr;
  return msg;
}

sim::PayloadPtr decode_state_request(Decoder& dec, ProcessId n) {
  auto msg = std::make_shared<xpaxos::StateRequestMessage>();
  msg->slot = dec.u64();
  msg->sender = dec.process_id();
  msg->sig = dec.signature();
  if (!dec.done() || msg->sender >= n) return nullptr;
  return msg;
}

sim::PayloadPtr decode_state(Decoder& dec, ProcessId n) {
  auto msg = std::make_shared<xpaxos::StateMessage>();
  if (!decode_certificate(dec, n, msg->stable)) return nullptr;
  msg->snapshot = dec.bytes();
  // Genesis needs no transfer, so a STATE always carries a checkpoint.
  if (!dec.done() || msg->stable.slot == 0) return nullptr;
  return msg;
}

sim::PayloadPtr decode_group_frame(Decoder& dec) {
  auto msg = std::make_shared<GroupFrame>();
  msg->group = dec.u32();
  msg->inner = dec.bytes();
  // The inner body must at least carry a wire tag; its real validation
  // happens when the shard mux decodes it with the group-local n.
  if (!dec.done() || msg->inner.empty()) return nullptr;
  return msg;
}

}  // namespace

std::optional<std::vector<std::uint8_t>> encode_message(
    const sim::Payload& message) {
  Encoder enc;
  if (const auto* hb =
          dynamic_cast<const runtime::HeartbeatMessage*>(&message)) {
    enc.u8(static_cast<std::uint8_t>(WireType::kHeartbeat));
    encode_heartbeat(*hb, enc);
  } else if (const auto* update =
                 dynamic_cast<const suspect::UpdateMessage*>(&message)) {
    enc.u8(static_cast<std::uint8_t>(WireType::kUpdate));
    encode_update(*update, enc);
  } else if (const auto* followers =
                 dynamic_cast<const fs::FollowersMessage*>(&message)) {
    enc.u8(static_cast<std::uint8_t>(WireType::kFollowers));
    encode_followers(*followers, enc);
  } else if (const auto* delta =
                 dynamic_cast<const suspect::DeltaUpdateMessage*>(&message)) {
    enc.u8(static_cast<std::uint8_t>(WireType::kDeltaUpdate));
    encode_delta(*delta, enc);
  } else if (const auto* digests =
                 dynamic_cast<const suspect::RowDigestMessage*>(&message)) {
    enc.u8(static_cast<std::uint8_t>(WireType::kRowDigest));
    encode_row_digest(*digests, enc);
  } else if (const auto* request =
                 dynamic_cast<const smr::ClientRequest*>(&message)) {
    enc.u8(static_cast<std::uint8_t>(WireType::kClientRequest));
    encode_client_request(*request, enc);
  } else if (const auto* reply =
                 dynamic_cast<const smr::ReplyMessage*>(&message)) {
    enc.u8(static_cast<std::uint8_t>(WireType::kReply));
    encode_reply(*reply, enc);
  } else if (const auto* prepare =
                 dynamic_cast<const xpaxos::PrepareMessage*>(&message)) {
    enc.u8(static_cast<std::uint8_t>(WireType::kPrepare));
    encode_prepare_fields(*prepare, enc);
  } else if (const auto* commit =
                 dynamic_cast<const xpaxos::CommitMessage*>(&message)) {
    enc.u8(static_cast<std::uint8_t>(WireType::kCommit));
    encode_commit(*commit, enc);
  } else if (const auto* viewchange =
                 dynamic_cast<const xpaxos::ViewChangeMessage*>(&message)) {
    enc.u8(static_cast<std::uint8_t>(WireType::kViewChange));
    encode_viewchange(*viewchange, enc);
  } else if (const auto* newview =
                 dynamic_cast<const xpaxos::NewViewMessage*>(&message)) {
    enc.u8(static_cast<std::uint8_t>(WireType::kNewView));
    encode_newview(*newview, enc);
  } else if (const auto* checkpoint =
                 dynamic_cast<const xpaxos::CheckpointMessage*>(&message)) {
    enc.u8(static_cast<std::uint8_t>(WireType::kCheckpoint));
    encode_checkpoint(*checkpoint, enc);
  } else if (const auto* state_request =
                 dynamic_cast<const xpaxos::StateRequestMessage*>(&message)) {
    enc.u8(static_cast<std::uint8_t>(WireType::kStateRequest));
    encode_state_request(*state_request, enc);
  } else if (const auto* state =
                 dynamic_cast<const xpaxos::StateMessage*>(&message)) {
    enc.u8(static_cast<std::uint8_t>(WireType::kState));
    encode_state(*state, enc);
  } else if (const auto* frame = dynamic_cast<const GroupFrame*>(&message)) {
    enc.u8(static_cast<std::uint8_t>(WireType::kGroupFrame));
    encode_group_frame(*frame, enc);
  } else {
    return std::nullopt;
  }
  return std::move(enc).take();
}

sim::PayloadPtr decode_message(std::span<const std::uint8_t> body,
                               ProcessId n) {
  Decoder dec(body);
  const std::uint8_t tag = dec.u8();
  if (!dec.ok()) return nullptr;
  switch (static_cast<WireType>(tag)) {
    case WireType::kHeartbeat:
      return decode_heartbeat(dec, n);
    case WireType::kUpdate:
      return decode_update(dec, n);
    case WireType::kFollowers:
      return decode_followers(dec, n);
    case WireType::kDeltaUpdate:
      return decode_delta(dec, n);
    case WireType::kRowDigest:
      return decode_row_digest(dec, n);
    case WireType::kClientRequest:
      return decode_client_request(dec, n);
    case WireType::kReply:
      return decode_reply(dec, n);
    case WireType::kPrepare:
      return decode_prepare(dec, n);
    case WireType::kCommit:
      return decode_commit(dec, n);
    case WireType::kViewChange:
      return decode_viewchange(dec, n);
    case WireType::kNewView:
      return decode_newview(dec, n);
    case WireType::kGroupFrame:
      return decode_group_frame(dec);
    case WireType::kCheckpoint:
      return decode_checkpoint(dec, n);
    case WireType::kStateRequest:
      return decode_state_request(dec, n);
    case WireType::kState:
      return decode_state(dec, n);
  }
  return nullptr;
}

}  // namespace qsel::net
