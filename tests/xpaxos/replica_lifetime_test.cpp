// A replica may be destroyed while its transport's timer queue keeps
// running: shard::GroupHost::remove_replica retires one group of a live
// node. The failure detector delivers SUSPECTED as its own zero-delay
// event, which cannot be cancelled, so the selection plane's liveness
// guard is all that keeps that delivery off the dead replica. Without it
// this test is a heap-use-after-free under -DQSEL_SANITIZE=ON.
#include <gtest/gtest.h>

#include <memory>

#include "runtime/sim_transport.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "xpaxos/replica.hpp"

namespace qsel::xpaxos {
namespace {

class ReplicaLifetimeTest : public ::testing::TestWithParam<QuorumPolicy> {
 protected:
  sim::Simulator sim_;
  sim::Network network_{sim_, 4, sim::NetworkConfig{}, /*seed=*/1};
  crypto::KeyRegistry keys_{4, /*seed=*/1};
  runtime::SimTransport transport_{network_, 0};

  std::unique_ptr<Replica> make_replica() {
    ReplicaConfig config;
    config.policy = GetParam();
    return std::make_unique<Replica>(transport_, keys_, config);
  }
};

TEST_P(ReplicaLifetimeTest, QueuedSuspicionReachesLiveReplica) {
  // Control: the same sequence on a live replica delivers SUSPECTED {1},
  // and p1 sits in the initial quorum, so a view change starts.
  const auto replica = make_replica();
  replica->failure_detector().detected(1);
  EXPECT_EQ(replica->view_changes(), 0u);  // not delivered synchronously
  sim_.run_until(1'000'000);
  EXPECT_GE(replica->view_changes(), 1u);
}

TEST_P(ReplicaLifetimeTest, QueuedSuspicionSkipsDestroyedReplica) {
  auto replica = make_replica();
  replica->failure_detector().detected(1);  // queues SUSPECTED {1}
  replica.reset();
  sim_.run();  // the queued delivery must find nobody to call
  EXPECT_TRUE(sim_.idle());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ReplicaLifetimeTest,
    ::testing::Values(QuorumPolicy::kQuorumSelection,
                      QuorumPolicy::kEnumeration),
    [](const ::testing::TestParamInfo<QuorumPolicy>& param) {
      return param.param == QuorumPolicy::kQuorumSelection ? "QuorumSelection"
                                                           : "Enumeration";
    });

}  // namespace
}  // namespace qsel::xpaxos
