// Follower Selection over real TCP: four FollowerProcesses, each on its own
// TcpTransport of one LoopbackMesh. The leader p0 crashes; every survivor
// must settle on the (leader, quorum) that the simulated FollowerCluster
// reaches on the same schedule — the transport parity contract of
// net/transport.hpp for Algorithm 2. FOLLOWERS needs FIFO links (Section
// VIII), which each TCP connection provides; heartbeats, UPDATE,
// DELTA-UPDATE, ROW-DIGEST and FOLLOWERS all have wire encodings already.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/loopback_mesh.hpp"
#include "runtime/follower_cluster.hpp"

namespace qsel::net {
namespace {

constexpr std::uint64_t kMs = 1'000'000;
constexpr ProcessId kN = 4;
constexpr std::uint64_t kSeed = 3;

TEST(FollowerLoopbackTest, LeaderCrashMatchesSimulator) {
  // Substrate 1: virtual time.
  runtime::FollowerClusterConfig sim_config;
  sim_config.n = kN;
  sim_config.f = 1;
  sim_config.seed = kSeed;
  runtime::FollowerCluster sim_cluster(sim_config);
  sim_cluster.start();
  sim_cluster.simulator().run_until(200 * kMs);
  sim_cluster.network().crash(0);
  sim_cluster.simulator().run_until(5'000 * kMs);
  const auto expected = sim_cluster.agreed_leader_quorum();
  ASSERT_TRUE(expected.has_value());
  ASSERT_NE(expected->first, 0u);

  // Substrate 2: real TCP, same logical schedule, real-time pacing
  // (heartbeats every 10 ms, 40 ms initial timeout — loopback_cluster.hpp).
  const crypto::KeyRegistry keys(kN, kSeed);
  TcpTransport::Config tcp;
  tcp.auth_seed = kSeed;
  LoopbackMesh mesh(kN, tcp);
  EventLoop& loop = mesh.loop();
  const runtime::NodeProcessConfig config{kN, 1, kRealTimeFd, 10 * kMs};
  std::vector<std::unique_ptr<runtime::FollowerProcess>> processes;
  for (ProcessId id = 0; id < kN; ++id)
    processes.push_back(std::make_unique<runtime::FollowerProcess>(
        mesh.transport(id), keys, config));

  ASSERT_TRUE(mesh.start(2'000 * kMs));
  for (auto& process : processes) process->start();
  loop.run_for(200 * kMs);

  // Crash the leader: its sockets close, then the process is gone while
  // its heartbeat and FD callbacks may still sit in the loop's queue.
  mesh.crash(0);
  processes[0].reset();
  const auto survivors_agree = [&] {
    for (ProcessId id = 1; id < kN; ++id)
      if (processes[id]->leader() != expected->first ||
          processes[id]->quorum() != expected->second)
        return false;
    return true;
  };
  EXPECT_TRUE(loop.run_until(survivors_agree, 60'000 * kMs))
      << "simulator settled on leader p" << expected->first << " with "
      << expected->second.to_string();
  for (ProcessId id = 1; id < kN; ++id) {
    EXPECT_EQ(processes[id]->leader(), expected->first) << "p" << id;
    EXPECT_EQ(processes[id]->quorum(), expected->second) << "p" << id;
  }
}

}  // namespace
}  // namespace qsel::net
