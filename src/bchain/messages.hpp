// BChain-style baseline messages.
//
// BChain [7] runs the active quorum as a *chain*: the head orders a
// request and forwards it down the chain; the tail answers with an ACK
// that travels back up; every chain node executes on ACK. This costs
// ~2(q-1) messages per request — the dramatic message reduction the paper
// credits BChain with — but its reconfiguration simply *replaces* a
// suspected node with a spare that is assumed correct, the weakness
// Quorum Selection addresses.
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "crypto/signer.hpp"
#include "net/codec.hpp"
#include "sim/payload.hpp"
#include "smr/client_messages.hpp"

namespace qsel::bchain {

struct ChainMessage final : sim::Payload {
  std::uint64_t config_epoch = 1;
  SeqNum slot = 0;
  std::uint32_t client = 0;
  std::uint64_t client_seq = 0;
  std::vector<std::uint8_t> op;
  crypto::Signature sig;  // by the chain head

  std::string_view type_tag() const override { return "bchain.chain"; }
  std::size_t wire_size() const override { return 32 + op.size() + 36; }

  std::vector<std::uint8_t> signed_bytes() const;
  static std::shared_ptr<const ChainMessage> make(
      const crypto::Signer& head, std::uint64_t config_epoch, SeqNum slot,
      const smr::ClientRequest& request);
  bool verify(const crypto::Signer& verifier, ProcessId n,
              ProcessId expected_head) const;
};

struct AckMessage final : sim::Payload {
  std::uint64_t config_epoch = 1;
  SeqNum slot = 0;
  ProcessId sender = kNoProcess;
  crypto::Signature sig;

  std::string_view type_tag() const override { return "bchain.ack"; }
  std::size_t wire_size() const override { return 20 + 36; }

  std::vector<std::uint8_t> signed_bytes() const;
  static std::shared_ptr<const AckMessage> make(const crypto::Signer& sender,
                                                std::uint64_t config_epoch,
                                                SeqNum slot);
  bool verify(const crypto::Signer& verifier, ProcessId n) const;
};

/// Deterministic replacement: everyone who accepts this message moves
/// `failed` out of the chain and promotes the first spare.
struct ReconfigMessage final : sim::Payload {
  std::uint64_t new_epoch = 0;
  ProcessId failed = kNoProcess;
  ProcessId sender = kNoProcess;
  crypto::Signature sig;

  std::string_view type_tag() const override { return "bchain.reconfig"; }
  std::size_t wire_size() const override { return 20 + 36; }

  std::vector<std::uint8_t> signed_bytes() const;
  static std::shared_ptr<const ReconfigMessage> make(
      const crypto::Signer& sender, std::uint64_t new_epoch,
      ProcessId failed);
  bool verify(const crypto::Signer& verifier, ProcessId n) const;
};

/// The member `step` places from `self` along `chain` (head first: +1 is
/// the successor, -1 the predecessor); kNoProcess past either end or when
/// `self` is not on the chain.
ProcessId chain_neighbour(const std::vector<ProcessId>& chain, ProcessId self,
                          int step);

}  // namespace qsel::bchain
