// Wire format — canonical byte encoding of whole protocol messages.
//
// The simulator passes payloads as shared immutable objects; TCP passes
// bytes. This module is the bridge: every payload type that the composed
// Quorum/Follower Selection stack sends gets one wire encoding,
//
//     frame body := u8 wire-type tag || canonical field encoding,
//
// built on the same net::Encoder/Decoder the signatures already bind, so
// a message's signed bytes are recomputable from its decoded form and
// authentication survives the trip. decode_message() never throws on
// malformed input — a Byzantine or corrupted stream must surface as a
// nullptr (the transport drops the frame and closes the connection), not
// a crash. The frame itself (length prefix, HELLO handshake) is the
// transport's concern: see tcp_transport.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "sim/payload.hpp"

namespace qsel::net {

/// Frame body tags. Values are part of the wire protocol; append only.
enum class WireType : std::uint8_t {
  kHeartbeat = 1,      // runtime::HeartbeatMessage
  kUpdate = 2,         // suspect::UpdateMessage
  kFollowers = 3,      // fs::FollowersMessage
  kDeltaUpdate = 4,    // suspect::DeltaUpdateMessage
  kRowDigest = 5,      // suspect::RowDigestMessage
  kClientRequest = 6,  // smr::ClientRequest
  kReply = 7,          // smr::ReplyMessage
  kPrepare = 8,        // xpaxos::PrepareMessage
  kCommit = 9,         // xpaxos::CommitMessage
  kViewChange = 10,    // xpaxos::ViewChangeMessage
  kNewView = 11,       // xpaxos::NewViewMessage
  kGroupFrame = 12,    // net::GroupFrame (opaque inner frame body)
  kCheckpoint = 13,    // xpaxos::CheckpointMessage
  kStateRequest = 14,  // xpaxos::StateRequestMessage
  kState = 15,         // xpaxos::StateMessage
};

/// Encodes `message` as a frame body. Returns nullopt for payload types
/// that have no wire representation (simulator-only test payloads).
std::optional<std::vector<std::uint8_t>> encode_message(
    const sim::Payload& message);

/// Decodes a frame body; `n` bounds process ids (row widths etc. are
/// checked against it). Returns nullptr on any malformed input: unknown
/// tag, truncated fields, trailing garbage, out-of-range ids or absurd
/// vector lengths. Signature VALIDITY is not checked here — that stays
/// with the receiving process, which knows the key registry.
sim::PayloadPtr decode_message(std::span<const std::uint8_t> body,
                               ProcessId n);

}  // namespace qsel::net
