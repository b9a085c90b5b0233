// XPaxos protocol messages (Section V).
//
// Normal case (Fig. 2): the leader PREPAREs a client request to the active
// quorum; every quorum member COMMITs to every other member; a request
// executes once COMMITs from the whole quorum are in. Per the paper's
// failure-detection integration, a COMMIT embeds the leader's full PREPARE
// (footnote 1), so a receiver can (a) act on a COMMIT that overtook its
// PREPARE (Fig. 3) and (b) detect leader equivocation or malformed
// commits as provable commission failures.
//
// Checkpoints (DESIGN.md §16): every K slots each active replica signs a
// CHECKPOINT over the digest of its snapshot; n - f matching ones form a
// CheckpointCertificate, which VIEWCHANGE, NEWVIEW and STATE carry in
// place of the log below it.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/process_set.hpp"
#include "common/types.hpp"
#include "crypto/signer.hpp"
#include "net/codec.hpp"
#include "sim/payload.hpp"
#include "smr/client_messages.hpp"

namespace qsel::xpaxos {

using ClientRequest = smr::ClientRequest;
using ReplyMessage = smr::ReplyMessage;

/// One client request inside a PREPARE batch. A no-op filler (view-change
/// gap) is the single entry {client = 0, client_seq = slot, op = {}}.
struct BatchEntry {
  std::uint32_t client = 0;
  std::uint64_t client_seq = 0;
  std::vector<std::uint8_t> op;

  bool operator==(const BatchEntry&) const = default;
};

/// The leader-signed proposal binding (view, slot) to a *batch* of client
/// requests — one consensus instance amortized over up to kMaxBatch
/// operations. Used both as a standalone payload and embedded inside
/// CommitMessage. A PREPARE always carries at least one entry; an empty
/// batch is malformed on the wire.
struct PrepareMessage final : sim::Payload {
  /// Wire-format ceiling on entries per PREPARE; a decoded count outside
  /// [1, kMaxBatch] is rejected before any allocation is amplified.
  static constexpr std::size_t kMaxBatch = 256;

  ViewId view = 0;
  SeqNum slot = 0;
  std::vector<BatchEntry> requests;
  crypto::Signature sig;  // by the leader of `view`

  std::string_view type_tag() const override { return "xpaxos.prepare"; }
  std::size_t wire_size() const override;

  std::vector<std::uint8_t> signed_bytes() const;
  static PrepareMessage make(const crypto::Signer& leader, ViewId view,
                             SeqNum slot, const ClientRequest& request);
  static PrepareMessage make_batch(const crypto::Signer& leader, ViewId view,
                                   SeqNum slot,
                                   std::vector<BatchEntry> requests);

  /// Valid iff signed by `expected_leader` over the contents, with a
  /// well-formed batch (1..kMaxBatch entries).
  bool verify(const crypto::Signer& verifier, ProcessId n,
              ProcessId expected_leader) const;

  /// Same proposal identity (everything except the signature bits).
  bool same_proposal(const PrepareMessage& other) const;

  /// True when the batch carries (client, client_seq).
  bool contains(std::uint32_t client, std::uint64_t client_seq) const;
};

struct CommitMessage final : sim::Payload {
  PrepareMessage prepare;  // the embedded leader PREPARE (footnote 1)
  ProcessId sender = kNoProcess;
  crypto::Signature sig;  // by `sender` over (prepare bytes, sender)

  std::string_view type_tag() const override { return "xpaxos.commit"; }
  std::size_t wire_size() const override { return prepare.wire_size() + 40; }

  std::vector<std::uint8_t> signed_bytes() const;
  static std::shared_ptr<const CommitMessage> make(
      const crypto::Signer& sender, const PrepareMessage& prepare);

  /// Verifies the *sender's* signature only; the embedded PREPARE is
  /// validated separately so its failure can be attributed (DETECTED).
  bool verify_sender(const crypto::Signer& verifier, ProcessId n) const;
};

/// A replica's signed claim that its snapshot after executing `slot`
/// hashes to `digest`.
struct CheckpointMessage final : sim::Payload {
  SeqNum slot = 0;
  crypto::Digest digest{};
  ProcessId sender = kNoProcess;
  crypto::Signature sig;  // by `sender`

  std::string_view type_tag() const override { return "xpaxos.checkpoint"; }
  std::size_t wire_size() const override { return 8 + 32 + 4 + 36; }

  /// The bytes a CHECKPOINT(slot, digest) by `sender` signs; a
  /// certificate's proofs are verified against them.
  static std::vector<std::uint8_t> signed_bytes(SeqNum slot,
                                                const crypto::Digest& digest,
                                                ProcessId sender);
  static std::shared_ptr<const CheckpointMessage> make(
      const crypto::Signer& sender, SeqNum slot, const crypto::Digest& digest);
  bool verify(const crypto::Signer& verifier, ProcessId n) const;
};

/// A stable checkpoint: CHECKPOINT signatures over (slot, digest) from
/// n - f distinct replicas. Slot 0 with no proofs is the genesis
/// certificate (nothing executed, nothing to prove).
struct CheckpointCertificate {
  SeqNum slot = 0;
  crypto::Digest digest{};
  std::vector<crypto::Signature> proofs;  // one per signer

  /// 0 for genesis, which proves nothing: a view change before the first
  /// checkpoint keeps the simulated size, and so the trace digests, of a
  /// certificate-free one.
  std::size_t wire_size() const {
    return slot == 0 ? 0 : 8 + 32 + 4 + 36 * proofs.size();
  }
  /// Canonical encoding, bound by the signatures of the messages that
  /// carry it and written as is on the wire (net/wire.cpp).
  void encode(net::Encoder& enc) const;
  /// Genesis with no proofs, or at least n - f valid proofs by distinct
  /// replicas; a signer counted twice invalidates the certificate.
  bool verify(const crypto::Signer& verifier, ProcessId n, int f) const;
};

/// Sent when moving to `new_view`; carries the sender's highest stable
/// certificate plus the prepares above it, so the new leader can preserve
/// ordered-but-unexecuted requests without the log below the checkpoint.
struct ViewChangeMessage final : sim::Payload {
  ViewId new_view = 0;
  ProcessId sender = kNoProcess;
  CheckpointCertificate stable;
  std::vector<PrepareMessage> prepared;  // leader-signed, above `stable`
  crypto::Signature sig;

  std::string_view type_tag() const override { return "xpaxos.viewchange"; }
  std::size_t wire_size() const override;

  std::vector<std::uint8_t> signed_bytes() const;
  static std::shared_ptr<const ViewChangeMessage> make(
      const crypto::Signer& sender, ViewId new_view,
      CheckpointCertificate stable, std::vector<PrepareMessage> prepared);
  bool verify(const crypto::Signer& verifier, ProcessId n) const;
};

/// The new leader's view installation: the highest certificate of the
/// VIEWCHANGE set, and re-proposals (signed by the new leader) of every
/// slot above it that it learned from that set.
struct NewViewMessage final : sim::Payload {
  ViewId view = 0;
  ProcessId leader = kNoProcess;
  CheckpointCertificate stable;
  std::vector<PrepareMessage> reproposals;  // signed by `leader`, in `view`
  crypto::Signature sig;

  std::string_view type_tag() const override { return "xpaxos.newview"; }
  std::size_t wire_size() const override;

  std::vector<std::uint8_t> signed_bytes() const;
  static std::shared_ptr<const NewViewMessage> make(
      const crypto::Signer& leader, ViewId view, CheckpointCertificate stable,
      std::vector<PrepareMessage> reproposals);
  bool verify(const crypto::Signer& verifier, ProcessId n) const;
};

/// A replica behind a stable certificate asks for the snapshot of a
/// checkpoint at `slot` or later.
struct StateRequestMessage final : sim::Payload {
  SeqNum slot = 0;
  ProcessId sender = kNoProcess;
  crypto::Signature sig;  // by `sender`

  std::string_view type_tag() const override { return "xpaxos.state_request"; }
  std::size_t wire_size() const override { return 8 + 4 + 36; }

  std::vector<std::uint8_t> signed_bytes() const;
  static std::shared_ptr<const StateRequestMessage> make(
      const crypto::Signer& sender, SeqNum slot);
  bool verify(const crypto::Signer& verifier, ProcessId n) const;
};

/// A stable checkpoint's snapshot with its certificate. Self-certifying,
/// so unsigned: it is installed only if the certificate verifies and the
/// snapshot hashes to the certified digest.
struct StateMessage final : sim::Payload {
  CheckpointCertificate stable;
  std::vector<std::uint8_t> snapshot;

  std::string_view type_tag() const override { return "xpaxos.state"; }
  std::size_t wire_size() const override {
    return stable.wire_size() + 4 + snapshot.size();
  }
};

}  // namespace qsel::xpaxos
