#include "runtime/heartbeat.hpp"

#include "net/codec.hpp"

namespace qsel::runtime {

std::vector<std::uint8_t> HeartbeatMessage::signed_bytes() const {
  net::Encoder enc;
  enc.str("app.heartbeat");
  enc.process_id(origin);
  enc.u64(seq);
  return std::move(enc).take();
}

std::shared_ptr<const HeartbeatMessage> HeartbeatMessage::make(
    const crypto::Signer& signer, std::uint64_t seq) {
  auto msg = std::make_shared<HeartbeatMessage>();
  msg->origin = signer.self();
  msg->seq = seq;
  msg->sig = signer.sign(msg->signed_bytes());
  return msg;
}

bool HeartbeatMessage::verify(const crypto::Signer& verifier,
                              ProcessId n) const {
  if (origin >= n || sig.signer != origin) return false;
  return verifier.verify(signed_bytes(), sig);
}

void expect_heartbeat(fd::FailureDetector& fd, ProcessId peer) {
  if (fd.suspected().contains(peer)) return;
  fd.expect(peer,
            [](ProcessId, const sim::PayloadPtr& m) {
              return dynamic_cast<const HeartbeatMessage*>(m.get()) != nullptr;
            },
            "heartbeat");
}

}  // namespace qsel::runtime
