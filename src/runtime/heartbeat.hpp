// Heartbeat application messages.
//
// Section II assumes "every process is expected to send infinitely many
// messages ... systems that use heartbeats to detect crash failures". The
// heartbeat application is the minimal application driving the failure
// detector in the standalone Quorum/Follower Selection experiments: each
// tick a process broadcasts a signed heartbeat and expects its peers'
// heartbeats, so omission and timing failures on individual links surface
// as suspicions.
#pragma once

#include <memory>

#include "common/types.hpp"
#include "crypto/signer.hpp"
#include "fd/failure_detector.hpp"
#include "sim/payload.hpp"

namespace qsel::runtime {

struct HeartbeatMessage final : sim::Payload {
  ProcessId origin = kNoProcess;
  std::uint64_t seq = 0;
  crypto::Signature sig;

  std::string_view type_tag() const override { return "app.heartbeat"; }
  std::size_t wire_size() const override { return 4 + 8 + 36; }

  std::vector<std::uint8_t> signed_bytes() const;
  static std::shared_ptr<const HeartbeatMessage> make(
      const crypto::Signer& signer, std::uint64_t seq);
  bool verify(const crypto::Signer& verifier, ProcessId n) const;
};

/// Expects a heartbeat from `peer`, unless a suspicion against it is
/// live: that suspicion only clears when a heartbeat arrives, which
/// re-arms expectations on the next tick, so piling up more adds nothing.
void expect_heartbeat(fd::FailureDetector& fd, ProcessId peer);

}  // namespace qsel::runtime
