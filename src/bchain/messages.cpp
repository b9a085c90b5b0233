#include "bchain/messages.hpp"

#include <algorithm>

namespace qsel::bchain {

ProcessId chain_neighbour(const std::vector<ProcessId>& chain, ProcessId self,
                          int step) {
  const auto it = std::find(chain.begin(), chain.end(), self);
  if (it == chain.end()) return kNoProcess;
  const auto pos = (it - chain.begin()) + step;
  if (pos < 0 || pos >= static_cast<std::ptrdiff_t>(chain.size()))
    return kNoProcess;
  return chain[static_cast<std::size_t>(pos)];
}

std::vector<std::uint8_t> ChainMessage::signed_bytes() const {
  net::Encoder enc;
  enc.str("bchain.chain");
  enc.u64(config_epoch);
  enc.u64(slot);
  enc.u32(client);
  enc.u64(client_seq);
  enc.bytes(op);
  return std::move(enc).take();
}

std::shared_ptr<const ChainMessage> ChainMessage::make(
    const crypto::Signer& head, std::uint64_t config_epoch, SeqNum slot,
    const smr::ClientRequest& request) {
  auto msg = std::make_shared<ChainMessage>();
  msg->config_epoch = config_epoch;
  msg->slot = slot;
  msg->client = request.client;
  msg->client_seq = request.client_seq;
  msg->op = request.op;
  msg->sig = head.sign(msg->signed_bytes());
  return msg;
}

bool ChainMessage::verify(const crypto::Signer& verifier, ProcessId n,
                          ProcessId expected_head) const {
  if (expected_head >= n || sig.signer != expected_head) return false;
  return verifier.verify(signed_bytes(), sig);
}

std::vector<std::uint8_t> AckMessage::signed_bytes() const {
  net::Encoder enc;
  enc.str("bchain.ack");
  enc.u64(config_epoch);
  enc.u64(slot);
  enc.process_id(sender);
  return std::move(enc).take();
}

std::shared_ptr<const AckMessage> AckMessage::make(
    const crypto::Signer& sender, std::uint64_t config_epoch, SeqNum slot) {
  auto msg = std::make_shared<AckMessage>();
  msg->config_epoch = config_epoch;
  msg->slot = slot;
  msg->sender = sender.self();
  msg->sig = sender.sign(msg->signed_bytes());
  return msg;
}

bool AckMessage::verify(const crypto::Signer& verifier, ProcessId n) const {
  if (sender >= n || sig.signer != sender) return false;
  return verifier.verify(signed_bytes(), sig);
}

std::vector<std::uint8_t> ReconfigMessage::signed_bytes() const {
  net::Encoder enc;
  enc.str("bchain.reconfig");
  enc.u64(new_epoch);
  enc.process_id(failed);
  enc.process_id(sender);
  return std::move(enc).take();
}

std::shared_ptr<const ReconfigMessage> ReconfigMessage::make(
    const crypto::Signer& sender, std::uint64_t new_epoch, ProcessId failed) {
  auto msg = std::make_shared<ReconfigMessage>();
  msg->new_epoch = new_epoch;
  msg->failed = failed;
  msg->sender = sender.self();
  msg->sig = sender.sign(msg->signed_bytes());
  return msg;
}

bool ReconfigMessage::verify(const crypto::Signer& verifier,
                             ProcessId n) const {
  if (sender >= n || sig.signer != sender) return false;
  return verifier.verify(signed_bytes(), sig);
}

}  // namespace qsel::bchain
