#include "xpaxos/messages.hpp"

#include "common/assert.hpp"

namespace qsel::xpaxos {
namespace {

void encode_prepare_body(net::Encoder& enc, const PrepareMessage& p) {
  enc.str("xpaxos.prepare");
  enc.u64(p.view);
  enc.u64(p.slot);
  enc.u32(static_cast<std::uint32_t>(p.requests.size()));
  for (const BatchEntry& e : p.requests) {
    enc.u32(e.client);
    enc.u64(e.client_seq);
    enc.bytes(e.op);
  }
}

}  // namespace

std::size_t PrepareMessage::wire_size() const {
  std::size_t size = 20 + 36;  // view, slot, count, signature
  for (const BatchEntry& e : requests) size += 16 + e.op.size();
  return size;
}

std::vector<std::uint8_t> PrepareMessage::signed_bytes() const {
  net::Encoder enc;
  encode_prepare_body(enc, *this);
  return std::move(enc).take();
}

PrepareMessage PrepareMessage::make(const crypto::Signer& leader, ViewId view,
                                    SeqNum slot,
                                    const ClientRequest& request) {
  return make_batch(leader, view, slot,
                    {BatchEntry{request.client, request.client_seq,
                                request.op}});
}

PrepareMessage PrepareMessage::make_batch(const crypto::Signer& leader,
                                          ViewId view, SeqNum slot,
                                          std::vector<BatchEntry> requests) {
  QSEL_REQUIRE(!requests.empty() && requests.size() <= kMaxBatch);
  PrepareMessage p;
  p.view = view;
  p.slot = slot;
  p.requests = std::move(requests);
  p.sig = leader.sign(p.signed_bytes());
  return p;
}

bool PrepareMessage::verify(const crypto::Signer& verifier, ProcessId n,
                            ProcessId expected_leader) const {
  if (sig.signer != expected_leader || expected_leader >= n) return false;
  if (requests.empty() || requests.size() > kMaxBatch) return false;
  return verifier.verify(signed_bytes(), sig);
}

bool PrepareMessage::same_proposal(const PrepareMessage& other) const {
  return view == other.view && slot == other.slot &&
         requests == other.requests;
}

bool PrepareMessage::contains(std::uint32_t client,
                              std::uint64_t client_seq) const {
  for (const BatchEntry& e : requests)
    if (e.client == client && e.client_seq == client_seq) return true;
  return false;
}

std::vector<std::uint8_t> CommitMessage::signed_bytes() const {
  net::Encoder enc;
  enc.str("xpaxos.commit");
  encode_prepare_body(enc, prepare);
  enc.signature(prepare.sig);
  enc.process_id(sender);
  return std::move(enc).take();
}

std::shared_ptr<const CommitMessage> CommitMessage::make(
    const crypto::Signer& sender, const PrepareMessage& prepare) {
  auto msg = std::make_shared<CommitMessage>();
  msg->prepare = prepare;
  msg->sender = sender.self();
  msg->sig = sender.sign(msg->signed_bytes());
  return msg;
}

bool CommitMessage::verify_sender(const crypto::Signer& verifier,
                                  ProcessId n) const {
  if (sender >= n || sig.signer != sender) return false;
  return verifier.verify(signed_bytes(), sig);
}

std::vector<std::uint8_t> CheckpointMessage::signed_bytes(
    SeqNum slot, const crypto::Digest& digest, ProcessId sender) {
  net::Encoder enc;
  enc.str("xpaxos.checkpoint");
  enc.u64(slot);
  enc.digest(digest);
  enc.process_id(sender);
  return std::move(enc).take();
}

std::shared_ptr<const CheckpointMessage> CheckpointMessage::make(
    const crypto::Signer& sender, SeqNum slot, const crypto::Digest& digest) {
  auto msg = std::make_shared<CheckpointMessage>();
  msg->slot = slot;
  msg->digest = digest;
  msg->sender = sender.self();
  msg->sig = sender.sign(signed_bytes(slot, digest, msg->sender));
  return msg;
}

bool CheckpointMessage::verify(const crypto::Signer& verifier,
                               ProcessId n) const {
  if (sender >= n || sig.signer != sender || slot == 0) return false;
  return verifier.verify(signed_bytes(slot, digest, sender), sig);
}

void CheckpointCertificate::encode(net::Encoder& enc) const {
  enc.u64(slot);
  if (slot == 0) return;
  enc.digest(digest);
  enc.u32(static_cast<std::uint32_t>(proofs.size()));
  for (const crypto::Signature& proof : proofs) enc.signature(proof);
}

bool CheckpointCertificate::verify(const crypto::Signer& verifier, ProcessId n,
                                   int f) const {
  if (slot == 0) return proofs.empty();
  if (proofs.size() < static_cast<std::size_t>(n) - static_cast<std::size_t>(f))
    return false;
  ProcessSet signers;
  for (const crypto::Signature& proof : proofs) {
    if (proof.signer >= n || signers.contains(proof.signer)) return false;
    signers.insert(proof.signer);
    if (!verifier.verify(
            CheckpointMessage::signed_bytes(slot, digest, proof.signer), proof))
      return false;
  }
  return true;
}

std::size_t ViewChangeMessage::wire_size() const {
  std::size_t size = 16 + 36 + stable.wire_size();
  for (const auto& p : prepared) size += p.wire_size();
  return size;
}

std::vector<std::uint8_t> ViewChangeMessage::signed_bytes() const {
  net::Encoder enc;
  enc.str("xpaxos.viewchange");
  enc.u64(new_view);
  enc.process_id(sender);
  stable.encode(enc);
  enc.u64(prepared.size());
  for (const auto& p : prepared) {
    encode_prepare_body(enc, p);
    enc.signature(p.sig);
  }
  return std::move(enc).take();
}

std::shared_ptr<const ViewChangeMessage> ViewChangeMessage::make(
    const crypto::Signer& sender, ViewId new_view,
    CheckpointCertificate stable, std::vector<PrepareMessage> prepared) {
  auto msg = std::make_shared<ViewChangeMessage>();
  msg->new_view = new_view;
  msg->sender = sender.self();
  msg->stable = std::move(stable);
  msg->prepared = std::move(prepared);
  msg->sig = sender.sign(msg->signed_bytes());
  return msg;
}

bool ViewChangeMessage::verify(const crypto::Signer& verifier,
                               ProcessId n) const {
  if (sender >= n || sig.signer != sender) return false;
  return verifier.verify(signed_bytes(), sig);
}

std::size_t NewViewMessage::wire_size() const {
  std::size_t size = 16 + 36 + stable.wire_size();
  for (const auto& p : reproposals) size += p.wire_size();
  return size;
}

std::vector<std::uint8_t> NewViewMessage::signed_bytes() const {
  net::Encoder enc;
  enc.str("xpaxos.newview");
  enc.u64(view);
  enc.process_id(leader);
  stable.encode(enc);
  enc.u64(reproposals.size());
  for (const auto& p : reproposals) {
    encode_prepare_body(enc, p);
    enc.signature(p.sig);
  }
  return std::move(enc).take();
}

std::shared_ptr<const NewViewMessage> NewViewMessage::make(
    const crypto::Signer& leader, ViewId view, CheckpointCertificate stable,
    std::vector<PrepareMessage> reproposals) {
  auto msg = std::make_shared<NewViewMessage>();
  msg->view = view;
  msg->leader = leader.self();
  msg->stable = std::move(stable);
  msg->reproposals = std::move(reproposals);
  msg->sig = leader.sign(msg->signed_bytes());
  return msg;
}

bool NewViewMessage::verify(const crypto::Signer& verifier,
                            ProcessId n) const {
  if (leader >= n || sig.signer != leader) return false;
  return verifier.verify(signed_bytes(), sig);
}

std::vector<std::uint8_t> StateRequestMessage::signed_bytes() const {
  net::Encoder enc;
  enc.str("xpaxos.state_request");
  enc.u64(slot);
  enc.process_id(sender);
  return std::move(enc).take();
}

std::shared_ptr<const StateRequestMessage> StateRequestMessage::make(
    const crypto::Signer& sender, SeqNum slot) {
  auto msg = std::make_shared<StateRequestMessage>();
  msg->slot = slot;
  msg->sender = sender.self();
  msg->sig = sender.sign(msg->signed_bytes());
  return msg;
}

bool StateRequestMessage::verify(const crypto::Signer& verifier,
                                 ProcessId n) const {
  if (sender >= n || sig.signer != sender) return false;
  return verifier.verify(signed_bytes(), sig);
}

}  // namespace qsel::xpaxos
