// Wire-format round-trip and robustness tests: every message type the
// composed stack puts on TCP must decode back to an authenticating object,
// and every malformed body — Byzantine or corrupted — must come back as
// nullptr, never a crash or a wrong message (the transport then closes the
// connection, see tcp_transport.hpp).
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/signer.hpp"
#include "fs/followers_message.hpp"
#include "graph/simple_graph.hpp"
#include "net/codec.hpp"
#include "runtime/heartbeat.hpp"
#include "suspect/delta_update_message.hpp"
#include "suspect/update_message.hpp"
#include "xpaxos/messages.hpp"

namespace qsel::net {
namespace {

constexpr ProcessId kN = 5;

crypto::KeyRegistry test_keys() { return crypto::KeyRegistry(kN, 7); }

/// The checkpoint-path messages, every one naming process 4 (so each is
/// out of range once n = 4): CHECKPOINT, STATE-REQUEST, STATE, and a
/// VIEWCHANGE and NEWVIEW that carry a certificate.
std::vector<sim::PayloadPtr> checkpoint_messages(
    const crypto::KeyRegistry& keys) {
  const crypto::Signer replica4(keys, 4);
  crypto::Digest digest;
  digest.bytes.fill(0x5c);
  xpaxos::CheckpointCertificate cert{128, digest, {}};
  for (ProcessId id = 1; id < kN; ++id)
    cert.proofs.push_back(
        crypto::Signer(keys, id)
            .sign(xpaxos::CheckpointMessage::signed_bytes(128, digest, id)));
  auto state = std::make_shared<xpaxos::StateMessage>();
  state->stable = cert;
  state->snapshot = {1, 2, 3, 4, 5};
  const auto prepare = xpaxos::PrepareMessage::make_batch(
      replica4, 4, 129, {xpaxos::BatchEntry{kN - 1, 7, {0xaa}}});
  return {xpaxos::CheckpointMessage::make(replica4, 128, digest),
          xpaxos::StateRequestMessage::make(replica4, 128),
          state,
          xpaxos::ViewChangeMessage::make(replica4, 4, cert, {prepare}),
          xpaxos::NewViewMessage::make(replica4, 4, cert, {prepare})};
}

TEST(WireTest, HeartbeatRoundTripAuthenticates) {
  const auto keys = test_keys();
  const crypto::Signer signer(keys, 2);
  const auto message = runtime::HeartbeatMessage::make(signer, 41);

  const auto body = encode_message(*message);
  ASSERT_TRUE(body.has_value());
  const sim::PayloadPtr decoded = decode_message(*body, kN);
  ASSERT_NE(decoded, nullptr);

  const auto* heartbeat =
      dynamic_cast<const runtime::HeartbeatMessage*>(decoded.get());
  ASSERT_NE(heartbeat, nullptr);
  EXPECT_EQ(heartbeat->origin, 2u);
  EXPECT_EQ(heartbeat->seq, 41u);
  const crypto::Signer verifier(keys, 0);
  EXPECT_TRUE(heartbeat->verify(verifier, kN));
}

TEST(WireTest, UpdateRoundTripAuthenticates) {
  const auto keys = test_keys();
  const crypto::Signer signer(keys, 3);
  const auto message =
      suspect::UpdateMessage::make(signer, std::vector<Epoch>{0, 2, 0, 1, 5});

  const auto body = encode_message(*message);
  ASSERT_TRUE(body.has_value());
  const sim::PayloadPtr decoded = decode_message(*body, kN);
  ASSERT_NE(decoded, nullptr);

  const auto* update =
      dynamic_cast<const suspect::UpdateMessage*>(decoded.get());
  ASSERT_NE(update, nullptr);
  EXPECT_EQ(update->origin, 3u);
  EXPECT_EQ(update->row, (std::vector<Epoch>{0, 2, 0, 1, 5}));
  const crypto::Signer verifier(keys, 1);
  EXPECT_TRUE(update->verify(verifier, kN));
}

TEST(WireTest, FollowersRoundTripAuthenticates) {
  const auto keys = test_keys();
  const crypto::Signer leader(keys, 0);
  graph::SimpleGraph line(kN);
  line.add_edge(1, 2);
  line.add_edge(2, 3);
  const auto message =
      fs::FollowersMessage::make(leader, ProcessSet{1, 2, 3}, line, 4);

  const auto body = encode_message(*message);
  ASSERT_TRUE(body.has_value());
  const sim::PayloadPtr decoded = decode_message(*body, kN);
  ASSERT_NE(decoded, nullptr);

  const auto* followers =
      dynamic_cast<const fs::FollowersMessage*>(decoded.get());
  ASSERT_NE(followers, nullptr);
  EXPECT_EQ(followers->leader, 0u);
  EXPECT_EQ(followers->followers, (ProcessSet{1, 2, 3}));
  EXPECT_EQ(followers->epoch, 4u);
  EXPECT_EQ(followers->line_edges, message->line_edges);
  const crypto::Signer verifier(keys, 4);
  EXPECT_TRUE(followers->verify(verifier, kN));
}

TEST(WireTest, SimulatorOnlyPayloadHasNoWireForm) {
  struct TestPayload final : sim::Payload {
    std::string_view type_tag() const override { return "test.payload"; }
    std::size_t wire_size() const override { return 0; }
  };
  EXPECT_EQ(encode_message(TestPayload{}), std::nullopt);
}

TEST(WireTest, EmptyBodyRejected) {
  EXPECT_EQ(decode_message({}, kN), nullptr);
}

TEST(WireTest, UnknownTagRejected) {
  Encoder enc;
  enc.u8(0);  // the transport-level HELLO tag is not a message tag
  enc.u32(1);
  EXPECT_EQ(decode_message(enc.view(), kN), nullptr);
  Encoder enc2;
  enc2.u8(200);
  EXPECT_EQ(decode_message(enc2.view(), kN), nullptr);
}

TEST(WireTest, EveryTruncationRejected) {
  const auto keys = test_keys();
  const crypto::Signer signer(keys, 1);
  const auto heartbeat = runtime::HeartbeatMessage::make(signer, 9);
  const auto update =
      suspect::UpdateMessage::make(signer, std::vector<Epoch>(kN, 1));
  graph::SimpleGraph line(kN);
  line.add_edge(0, 2);
  const auto followers =
      fs::FollowersMessage::make(signer, ProcessSet{0, 2, 3}, line, 1);

  std::vector<sim::PayloadPtr> messages = checkpoint_messages(keys);
  messages.insert(messages.begin(), {heartbeat, update, followers});
  for (const sim::PayloadPtr& message : messages) {
    const auto body = encode_message(*message);
    ASSERT_TRUE(body.has_value());
    // Sanity: the untruncated body round-trips to the same bytes.
    const sim::PayloadPtr decoded = decode_message(*body, kN);
    ASSERT_NE(decoded, nullptr) << message->type_tag();
    EXPECT_EQ(encode_message(*decoded), body) << message->type_tag();
    for (std::size_t len = 0; len < body->size(); ++len)
      EXPECT_EQ(decode_message(std::span(*body).first(len), kN), nullptr)
          << message->type_tag() << " truncated to " << len << " bytes";
  }
}

TEST(WireTest, TrailingGarbageRejected) {
  const auto keys = test_keys();
  const crypto::Signer signer(keys, 1);
  std::vector<sim::PayloadPtr> messages = checkpoint_messages(keys);
  messages.insert(messages.begin(), runtime::HeartbeatMessage::make(signer, 9));
  for (const sim::PayloadPtr& message : messages) {
    auto body = encode_message(*message);
    ASSERT_TRUE(body.has_value());
    body->push_back(0x00);
    EXPECT_EQ(decode_message(*body, kN), nullptr) << message->type_tag();
  }
}

TEST(WireTest, GarbageBytesRejected) {
  // Deterministic pseudo-garbage across a range of lengths; decode must
  // return nullptr or a structurally valid message, never crash.
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (std::size_t len = 1; len <= 128; ++len) {
    std::vector<std::uint8_t> body(len);
    for (auto& byte : body) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      byte = static_cast<std::uint8_t>(state >> 56);
    }
    body[0] = static_cast<std::uint8_t>(1 + len % 3);  // plausible tag
    EXPECT_EQ(decode_message(body, kN), nullptr) << "length " << len;
  }
}

TEST(WireTest, OutOfRangeOriginRejected) {
  const auto keys = test_keys();
  const crypto::Signer signer(keys, 4);
  std::vector<sim::PayloadPtr> messages = checkpoint_messages(keys);
  messages.insert(messages.begin(), runtime::HeartbeatMessage::make(signer, 1));
  for (const sim::PayloadPtr& message : messages) {
    const auto body = encode_message(*message);
    ASSERT_TRUE(body.has_value());
    // Valid for n = 5, process 4 out of range once the system is smaller.
    EXPECT_NE(decode_message(*body, kN), nullptr) << message->type_tag();
    EXPECT_EQ(decode_message(*body, 4), nullptr) << message->type_tag();
  }
}

TEST(WireTest, WrongRowWidthRejected) {
  const auto keys = test_keys();
  const crypto::Signer signer(keys, 0);
  const crypto::Signature sig =
      signer.sign(std::vector<std::uint8_t>{1, 2, 3});
  // Width n+1 > n = 5: framing error. Narrower rows pass framing —
  // the decode-time n is only an address-space bound (the shard mux
  // decodes with members+clients, wider than the suspicion matrix) —
  // and UpdateMessage::verify enforces the exact group width instead.
  Encoder wide;
  wide.u8(static_cast<std::uint8_t>(WireType::kUpdate));
  wide.process_id(0);
  wide.u64_vector(std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6});
  wide.signature(sig);
  EXPECT_EQ(decode_message(wide.view(), kN), nullptr);

  Encoder empty;
  empty.u8(static_cast<std::uint8_t>(WireType::kUpdate));
  empty.process_id(0);
  empty.u64_vector({});
  empty.signature(sig);
  EXPECT_EQ(decode_message(empty.view(), kN), nullptr);

  Encoder narrow;
  narrow.u8(static_cast<std::uint8_t>(WireType::kUpdate));
  narrow.process_id(0);
  narrow.u64_vector(std::vector<std::uint64_t>{1, 2, 3});
  narrow.signature(sig);
  const auto decoded = decode_message(narrow.view(), kN);
  ASSERT_NE(decoded, nullptr);
  const auto* update =
      dynamic_cast<const suspect::UpdateMessage*>(decoded.get());
  ASSERT_NE(update, nullptr);
  EXPECT_FALSE(update->verify(crypto::Signer(keys, 1), kN));
}

TEST(WireTest, OversizedEdgeListRejected) {
  const auto keys = test_keys();
  const crypto::Signer signer(keys, 0);
  const crypto::Signature sig =
      signer.sign(std::vector<std::uint8_t>{4, 5, 6});
  Encoder enc;
  enc.u8(static_cast<std::uint8_t>(WireType::kFollowers));
  enc.process_id(0);
  enc.process_set(ProcessSet{1, 2}, kN);
  enc.u64(1);
  // A line subgraph on n nodes has < n edges; claim n of them.
  std::vector<std::uint64_t> edges;
  for (std::uint64_t i = 0; i < kN; ++i) edges.push_back(i << 32 | (i + 1));
  enc.u64_vector(edges);
  enc.signature(sig);
  EXPECT_EQ(decode_message(enc.view(), kN), nullptr);
}

TEST(WireTest, EdgeEndpointOutOfRangeRejected) {
  const auto keys = test_keys();
  const crypto::Signer signer(keys, 0);
  const crypto::Signature sig =
      signer.sign(std::vector<std::uint8_t>{7, 8, 9});
  Encoder enc;
  enc.u8(static_cast<std::uint8_t>(WireType::kFollowers));
  enc.process_id(0);
  enc.process_set(ProcessSet{1, 2}, kN);
  enc.u64(1);
  // u = 7 >= n = 5.
  enc.u64_vector(std::vector<std::uint64_t>{(std::uint64_t{7} << 32) | 1});
  enc.signature(sig);
  EXPECT_EQ(decode_message(enc.view(), kN), nullptr);
}

TEST(WireTest, DeltaUpdateRoundTripAuthenticates) {
  const auto keys = test_keys();
  const crypto::Signer signer(keys, 1);
  const auto message = suspect::DeltaUpdateMessage::make(
      signer, /*version=*/7,
      {suspect::DeltaCell{0, 3}, suspect::DeltaCell{2, 5},
       suspect::DeltaCell{4, 3}});

  const auto body = encode_message(*message);
  ASSERT_TRUE(body.has_value());
  const sim::PayloadPtr decoded = decode_message(*body, kN);
  ASSERT_NE(decoded, nullptr);

  const auto* delta =
      dynamic_cast<const suspect::DeltaUpdateMessage*>(decoded.get());
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->origin, 1u);
  EXPECT_EQ(delta->version, 7u);
  EXPECT_EQ(delta->cells, message->cells);
  const crypto::Signer verifier(keys, 0);
  EXPECT_TRUE(delta->verify(verifier, kN));
  // Truncations of the valid body never decode.
  for (std::size_t len = 0; len < body->size(); ++len)
    EXPECT_EQ(decode_message(std::span(*body).first(len), kN), nullptr);
}

TEST(WireTest, RowDigestRoundTrips) {
  suspect::RowDigestMessage message;
  message.entries.push_back(
      {0, suspect::row_digest(std::vector<Epoch>{0, 1, 0, 0, 2})});
  message.entries.push_back(
      {3, suspect::row_digest(std::vector<Epoch>{4, 0, 0, 0, 0})});

  const auto body = encode_message(message);
  ASSERT_TRUE(body.has_value());
  const sim::PayloadPtr decoded = decode_message(*body, kN);
  ASSERT_NE(decoded, nullptr);

  const auto* digest =
      dynamic_cast<const suspect::RowDigestMessage*>(decoded.get());
  ASSERT_NE(digest, nullptr);
  EXPECT_EQ(digest->entries, message.entries);
  EXPECT_TRUE(digest->well_formed(kN));
  for (std::size_t len = 0; len < body->size(); ++len)
    EXPECT_EQ(decode_message(std::span(*body).first(len), kN), nullptr);
}

TEST(WireTest, MalformedDeltaRejected) {
  const auto keys = test_keys();
  const crypto::Signer signer(keys, 1);
  const auto valid = suspect::DeltaUpdateMessage::make(
      signer, 1, {suspect::DeltaCell{0, 2}, suspect::DeltaCell{3, 2}});
  const auto body = encode_message(*valid);
  ASSERT_TRUE(body.has_value());

  // Empty cell list (count = 0).
  {
    auto bad = *body;
    bad[1 + 4 + 8] = 0;  // tag, origin, version, then the count byte (LE)
    EXPECT_EQ(decode_message(bad, kN), nullptr);
  }
  // Column out of range.
  {
    auto bad = *body;
    bad[1 + 4 + 8 + 4] = kN;  // first cell's column
    EXPECT_EQ(decode_message(bad, kN), nullptr);
  }
  // Columns not strictly increasing (swap cell columns 0 <-> 3).
  {
    auto bad = *body;
    bad[1 + 4 + 8 + 4] = 3;
    bad[1 + 4 + 8 + 4 + 12] = 0;
    EXPECT_EQ(decode_message(bad, kN), nullptr);
  }
  // Zero stamp.
  {
    auto bad = *body;
    for (std::size_t i = 0; i < 8; ++i) bad[1 + 4 + 8 + 4 + 4 + i] = 0;
    EXPECT_EQ(decode_message(bad, kN), nullptr);
  }
}

TEST(WireTest, MalformedRowDigestRejected) {
  suspect::RowDigestMessage message;
  message.entries.push_back({1, suspect::RowDigest{}});
  message.entries.push_back({2, suspect::RowDigest{}});
  const auto body = encode_message(message);
  ASSERT_TRUE(body.has_value());

  // Rows not strictly increasing.
  {
    auto bad = *body;
    bad[1 + 4] = 2;           // first entry row
    bad[1 + 4 + 20] = 1;      // second entry row
    EXPECT_EQ(decode_message(bad, kN), nullptr);
  }
  // Row out of range.
  {
    auto bad = *body;
    bad[1 + 4 + 20] = kN;
    EXPECT_EQ(decode_message(bad, kN), nullptr);
  }
  // Trailing garbage.
  {
    auto bad = *body;
    bad.push_back(0xAB);
    EXPECT_EQ(decode_message(bad, kN), nullptr);
  }
}

TEST(WireTest, TamperedDeltaFailsAuthentication) {
  const auto keys = test_keys();
  const crypto::Signer signer(keys, 2);
  const auto message = suspect::DeltaUpdateMessage::make(
      signer, 3, {suspect::DeltaCell{1, 4}});
  const auto body = encode_message(*message);
  ASSERT_TRUE(body.has_value());
  auto bad = *body;
  bad[1 + 4 + 8 + 4 + 4] ^= 0x01;  // flip a stamp bit
  const auto decoded = decode_message(bad, kN);
  if (decoded != nullptr) {
    const auto* delta =
        dynamic_cast<const suspect::DeltaUpdateMessage*>(decoded.get());
    ASSERT_NE(delta, nullptr);
    const crypto::Signer verifier(keys, 0);
    EXPECT_FALSE(delta->verify(verifier, kN))
        << "a flipped stamp must not re-authenticate";
  }
}

TEST(WireTest, BatchedPrepareRoundTripAuthenticates) {
  const auto keys = test_keys();
  const crypto::Signer leader(keys, 0);
  std::vector<xpaxos::BatchEntry> entries;
  entries.push_back({1, 7, {0xaa, 0xbb}});
  entries.push_back({2, 3, {0xcc}});
  const auto message = std::make_shared<xpaxos::PrepareMessage>(
      xpaxos::PrepareMessage::make_batch(leader, 1, 9, entries));

  const auto body = encode_message(*message);
  ASSERT_TRUE(body.has_value());
  const sim::PayloadPtr decoded = decode_message(*body, kN);
  ASSERT_NE(decoded, nullptr);
  const auto* prepare =
      dynamic_cast<const xpaxos::PrepareMessage*>(decoded.get());
  ASSERT_NE(prepare, nullptr);
  ASSERT_EQ(prepare->requests.size(), 2u);
  EXPECT_EQ(prepare->requests, message->requests);
  const crypto::Signer verifier(keys, 1);
  EXPECT_TRUE(prepare->verify(verifier, kN, 0));
}

TEST(WireTest, PrepareBatchCountOutOfRangeRejectedAtDecode) {
  // A PREPARE carries 1..kMaxBatch entries; an empty batch and an
  // oversized batch must both die at decode, signature never consulted.
  const auto keys = test_keys();
  const crypto::Signer leader(keys, 0);
  const std::vector<std::uint8_t> junk{0x00};
  const auto craft = [&](std::uint32_t count) {
    Encoder enc;
    enc.u8(static_cast<std::uint8_t>(WireType::kPrepare));
    enc.u64(1);  // view
    enc.u64(9);  // slot
    enc.u32(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      enc.u32(1);                                  // client
      enc.u64(i + 1);                              // client_seq
      enc.bytes(std::vector<std::uint8_t>{0x42});  // op
    }
    enc.signature(leader.sign(junk));
    return std::move(enc).take();
  };

  EXPECT_EQ(decode_message(craft(0), kN), nullptr) << "empty batch";
  const auto over =
      static_cast<std::uint32_t>(xpaxos::PrepareMessage::kMaxBatch + 1);
  EXPECT_EQ(decode_message(craft(over), kN), nullptr) << "oversized batch";
  // The same body with an in-range count decodes (proving the crafted
  // layout is right and only the count bound rejected the others).
  EXPECT_NE(decode_message(craft(1), kN), nullptr);
  EXPECT_NE(decode_message(
                craft(static_cast<std::uint32_t>(
                    xpaxos::PrepareMessage::kMaxBatch)),
                kN),
            nullptr);
}

}  // namespace
}  // namespace qsel::net
