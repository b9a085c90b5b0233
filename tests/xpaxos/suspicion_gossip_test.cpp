// XPaxos replicas gossip suspicions as full-row UPDATEs. DELTA-UPDATE and
// ROW-DIGEST belong to the heartbeat nodes' delta encoding, and a replica
// drops them: a peer's digest must not make it send repairs. A heartbeat
// node is the control, where the same digest draws a repair.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>

#include "runtime/node_process.hpp"
#include "runtime/sim_transport.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "suspect/delta_update_message.hpp"
#include "suspect/update_message.hpp"
#include "xpaxos/replica.hpp"

namespace qsel::xpaxos {
namespace {

class SuspicionGossipTest : public ::testing::Test {
 protected:
  SuspicionGossipTest() {
    peer_.set_handler(
        [this](ProcessId, const sim::PayloadPtr&) { ++peer_received_; });
  }

  /// p1 relays a row signed by p2 (p2 suspects p3) to p0, then tells p0
  /// it holds no rows at all. Returns how many messages p0 sends p1 in
  /// answer to that digest.
  std::size_t answers_to_empty_digest() {
    const crypto::Signer p2(keys_, 2);
    peer_.send(0, suspect::UpdateMessage::make(p2, {0, 0, 0, 1}));
    sim_.run_until(sim_.now() + 10'000'000);
    peer_received_ = 0;
    peer_.send(0, std::make_shared<suspect::RowDigestMessage>());
    sim_.run_until(sim_.now() + 10'000'000);
    return peer_received_;
  }

  sim::Simulator sim_;
  sim::Network network_{sim_, 4, sim::NetworkConfig{}, /*seed=*/1};
  crypto::KeyRegistry keys_{4, /*seed=*/1};
  runtime::SimTransport transport_{network_, 0};
  runtime::SimTransport peer_{network_, 1};
  std::size_t peer_received_ = 0;
};

TEST_F(SuspicionGossipTest, ReplicaIgnoresRowDigest) {
  Replica replica(transport_, keys_, ReplicaConfig{});
  EXPECT_EQ(answers_to_empty_digest(), 0u);
  ASSERT_NE(replica.selector(), nullptr);
  const suspect::SuspicionCore& core = replica.selector()->core();
  EXPECT_EQ(core.matrix().get(2, 3), 1u);  // it holds a row to offer
  EXPECT_EQ(core.repairs_sent(), 0u);
}

TEST_F(SuspicionGossipTest, HeartbeatNodeRepairsRowDigest) {
  runtime::NodeProcessConfig config;
  config.heartbeat_period = 0;  // no heartbeats: only the digest's answer
  runtime::NodeProcess node(transport_, keys_, config);
  EXPECT_GE(answers_to_empty_digest(), 1u);
  const suspect::SuspicionCore& core = node.selector().core();
  EXPECT_EQ(core.matrix().get(2, 3), 1u);
  EXPECT_GE(core.repairs_sent(), 1u);
}

}  // namespace
}  // namespace qsel::xpaxos
