// Client-facing messages shared by all replicated-state-machine protocols
// in this repository (XPaxos, the PBFT baseline, the BChain baseline).
//
// Clients occupy network ids >= n (outside Pi); requests and replies are
// signed so Byzantine replicas cannot forge either.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "crypto/signer.hpp"
#include "sim/payload.hpp"

namespace qsel::smr {

/// Replies a replica keeps per client: the results of the client's
/// kReplyWindow highest executed seqs. A seq at or below (highest -
/// kReplyWindow) is never executed again, which is exact while every seq
/// a client has sent is less than kReplyWindow above its oldest unsettled
/// one; RequestEngine holds later ones back. A constant, not a knob
/// (DESIGN.md §16).
inline constexpr std::uint64_t kReplyWindow = 256;

struct ClientRequest final : sim::Payload {
  std::uint32_t client = 0;  // the client's network id
  std::uint64_t client_seq = 0;
  std::vector<std::uint8_t> op;
  crypto::Signature sig;

  std::string_view type_tag() const override { return "smr.request"; }
  std::size_t wire_size() const override { return 12 + op.size() + 36; }

  std::vector<std::uint8_t> signed_bytes() const;
  static std::shared_ptr<const ClientRequest> make(const crypto::Signer& client,
                                                   std::uint64_t client_seq,
                                                   std::vector<std::uint8_t> op);
  bool verify(const crypto::Signer& verifier) const;
};

struct ReplyMessage final : sim::Payload {
  ViewId view = 0;
  std::uint32_t client = 0;
  std::uint64_t client_seq = 0;
  std::string result;
  ProcessId replica = kNoProcess;
  crypto::Signature sig;

  std::string_view type_tag() const override { return "smr.reply"; }
  std::size_t wire_size() const override { return 28 + result.size() + 36; }

  std::vector<std::uint8_t> signed_bytes() const;
  static std::shared_ptr<const ReplyMessage> make(const crypto::Signer& replica,
                                                  ViewId view,
                                                  std::uint32_t client,
                                                  std::uint64_t client_seq,
                                                  std::string result);
  bool verify(const crypto::Signer& verifier, ProcessId n) const;
};

/// One executed request in a replica's log, for cross-replica consistency
/// checks (runtime::SmrCluster::histories_consistent).
struct ExecutedEntry {
  SeqNum slot;
  std::uint32_t client;
  std::uint64_t client_seq;
  crypto::Digest op_digest;

  bool operator==(const ExecutedEntry&) const = default;
};

}  // namespace qsel::smr
