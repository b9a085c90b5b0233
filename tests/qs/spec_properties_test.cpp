// Randomized validation of the Quorum Selection specification
// (Section IV-A) against the full stack: for many seeded random fault
// schedules (crashes, single-link omissions, link delays — all within the
// f budget), after faults stop and the network is calm the system must
// satisfy:
//
//   Termination — no further quorums are issued during a long quiet
//                 window;
//   Agreement   — all live correct processes report the same quorum;
//   No suspicion — no quorum member suspects another quorum member.
//
// This is the paper's specification executed as a property, not a
// hand-picked scenario.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "runtime/quorum_cluster.hpp"

namespace qsel::runtime {
namespace {

constexpr SimDuration kMs = 1'000'000;

struct Sweep {
  ProcessId n;
  int f;
  std::uint64_t seed;
};

class QuorumSpecSweep : public ::testing::TestWithParam<Sweep> {};

TEST_P(QuorumSpecSweep, TerminationAgreementNoSuspicion) {
  const auto [n, f, seed] = GetParam();
  QuorumClusterConfig config;
  config.n = n;
  config.f = f;
  config.seed = seed;
  config.network.base_latency = 1 * kMs;
  config.network.jitter = 200'000;
  config.heartbeat_period = 5 * kMs;
  config.fd.initial_timeout = 12 * kMs;
  QuorumCluster cluster(config);
  cluster.start();

  // Random fault schedule, at most f crashed processes, plus link-level
  // omissions and delays attributed to the already-faulty set.
  Rng rng(seed * 7919 + 13);
  ProcessSet faulty;
  SimTime t = 20 * kMs;
  const int fault_events = static_cast<int>(rng.between(1, 4));
  for (int i = 0; i < fault_events; ++i) {
    cluster.simulator().run_until(t);
    t += rng.between(20, 120) * kMs;
    // Pick (or reuse) a faulty process.
    ProcessId culprit;
    if (faulty.size() < f && rng.chance(0.7)) {
      do {
        culprit = static_cast<ProcessId>(rng.below(n));
      } while (faulty.contains(culprit));
      faulty.insert(culprit);
    } else if (!faulty.empty()) {
      culprit = faulty.min();
    } else {
      culprit = static_cast<ProcessId>(rng.below(n));
      faulty.insert(culprit);
    }
    switch (rng.below(3)) {
      case 0:
        cluster.network().crash(culprit);
        break;
      case 1: {
        // Omit on one random outgoing link.
        auto victim = static_cast<ProcessId>(rng.below(n));
        if (victim != culprit)
          cluster.network().set_link_enabled(culprit, victim, false);
        break;
      }
      default: {
        // Heavy timing failure on all outgoing links.
        for (ProcessId to = 0; to < n; ++to)
          if (to != culprit)
            cluster.network().set_link_extra_delay(culprit, to, 80 * kMs);
        break;
      }
    }
  }
  ASSERT_LE(faulty.size(), f);

  // Let the system stabilize, then observe a long quiet window.
  cluster.simulator().run_until(t + 3000 * kMs);
  const std::uint64_t issued = cluster.total_quorums_issued();
  const auto quorum = cluster.agreed_quorum();
  cluster.simulator().run_until(t + 6000 * kMs);

  // Termination.
  EXPECT_EQ(cluster.total_quorums_issued(), issued)
      << "quorums still being issued in the quiet window";
  // Agreement.
  ASSERT_TRUE(quorum.has_value()) << "correct processes disagree";
  EXPECT_EQ(cluster.agreed_quorum(), quorum);
  EXPECT_EQ(quorum->size(), static_cast<int>(n) - f);
  // No suspicion within the quorum.
  for (ProcessId id : cluster.alive()) {
    if (!quorum->contains(id)) continue;
    EXPECT_FALSE(cluster.process(id)
                     .failure_detector()
                     .suspected()
                     .intersects(*quorum))
        << "member " << id << " suspects inside quorum "
        << quorum->to_string();
  }
}

std::vector<Sweep> sweeps() {
  std::vector<Sweep> result;
  std::uint64_t seed = 1;
  for (const auto& [n, f] :
       std::vector<std::pair<ProcessId, int>>{{4, 1}, {5, 2}, {7, 2}, {10, 3}})
    for (int i = 0; i < 4; ++i) result.push_back(Sweep{n, f, seed++});
  return result;
}

INSTANTIATE_TEST_SUITE_P(RandomFaultSchedules, QuorumSpecSweep,
                         ::testing::ValuesIn(sweeps()),
                         [](const auto& sweep_info) {
                           std::string name = "n";
                           name.append(std::to_string(sweep_info.param.n))
                               .append("_f")
                               .append(std::to_string(sweep_info.param.f))
                               .append("_seed")
                               .append(std::to_string(sweep_info.param.seed));
                           return name;
                         });

}  // namespace
}  // namespace qsel::runtime
