// One XPaxos replica of n = 4 with no peers attached, fed messages by
// hand. Id 4 is the client. It records what the replica sends and counts
// the signature checks each delivery costs with crypto::hash_counters.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "crypto/sha256.hpp"
#include "runtime/sim_transport.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "xpaxos/replica.hpp"

namespace qsel::xpaxos {

class LoneReplica {
 public:
  static constexpr ProcessId kClient = 4;

  explicit LoneReplica(ProcessId id, const ReplicaConfig& config = {})
      : transport_(network_, id), replica_(transport_, keys_, config) {
    network_.set_send_hook([this, id](ProcessId from, ProcessId to,
                                      const sim::PayloadPtr& m, SimTime) {
      if (from == id) sent_.emplace_back(to, m);
    });
  }
  LoneReplica(const LoneReplica&) = delete;
  LoneReplica& operator=(const LoneReplica&) = delete;

  Replica& replica() { return replica_; }
  sim::Simulator& sim() { return sim_; }
  crypto::Signer signer(ProcessId id) const { return {keys_, id}; }
  /// The client's signed request `seq`.
  std::shared_ptr<const smr::ClientRequest> request(std::uint64_t seq) const {
    return smr::ClientRequest::make(signer(kClient), seq,
                                    {static_cast<std::uint8_t>(seq), 1, 2});
  }

  /// Delivers `message` and returns the signature checks it ran: HMACs
  /// computed less those that signed what the replica sent meanwhile. A
  /// relayed request carries its client's signature, not a new one, and a
  /// broadcast signs one payload for every peer.
  std::uint64_t checks_for(ProcessId from, const sim::PayloadPtr& message) {
    sent_.clear();
    const std::uint64_t before = crypto::hash_counters.hmacs;
    replica_.on_message(from, message);
    std::set<const sim::Payload*> signed_here;
    for (const auto& [to, m] : sent_)
      if (dynamic_cast<const smr::ClientRequest*>(m.get()) == nullptr)
        signed_here.insert(m.get());
    return crypto::hash_counters.hmacs - before - signed_here.size();
  }
  /// What the last checks_for() delivery made the replica send.
  const std::vector<std::pair<ProcessId, sim::PayloadPtr>>& sent() const {
    return sent_;
  }

 private:
  sim::Simulator sim_;
  sim::Network network_{sim_, 5, sim::NetworkConfig{}, /*seed=*/1};
  crypto::KeyRegistry keys_{5, /*seed=*/1};
  runtime::SimTransport transport_;
  Replica replica_;
  std::vector<std::pair<ProcessId, sim::PayloadPtr>> sent_;
};

}  // namespace qsel::xpaxos
