// Theorem 9 validated end to end: the constructive adversary's suspicion
// walk is injected into a real FollowerCluster as signed UPDATE messages
// from the faulty processes, and the number of quorums the correct
// processes issue is counted against the 3f+1 bound — the bound holds in
// the full system, not just in the abstract game.
#include <gtest/gtest.h>

#include <string>

#include "adversary/follower_game.hpp"
#include "runtime/follower_cluster.hpp"
#include "suspect/update_message.hpp"

namespace qsel::runtime {
namespace {

constexpr SimDuration kMs = 1'000'000;

class Theorem9Sweep : public ::testing::TestWithParam<int> {};

TEST_P(Theorem9Sweep, SimulatedWalkStaysWithinBound) {
  const int f = GetParam();
  const auto n = static_cast<ProcessId>(3 * f + 1);
  FollowerClusterConfig config;
  config.n = n;
  config.f = f;
  config.seed = 101 + static_cast<std::uint64_t>(f);
  config.network.base_latency = 1 * kMs;
  config.network.jitter = 100'000;
  config.heartbeat_period = 0;  // adversary drives all suspicions
  // Faulty set {0..f-1} is Byzantine: no honest processes there.
  const ProcessSet faulty = ProcessSet::range(0, static_cast<ProcessId>(f));
  FollowerCluster cluster(config, faulty);

  // The constructive walk from the adversary game, injected as signed
  // rows: each step stamps one suspicion in the faulty author's row.
  adversary::FollowerGame game(adversary::FollowerGameConfig{n, f, 0});
  const auto walk = game.constructive_changes();
  ASSERT_EQ(walk.leader_changes, static_cast<std::uint64_t>(3 * f));

  std::vector<std::vector<Epoch>> rows(
      static_cast<std::size_t>(f), std::vector<Epoch>(n, 0));  // per-faulty accumulated row
  SimTime t = 10 * kMs;
  for (auto [author, victim] : walk.suspicions) {
    ASSERT_LT(author, static_cast<ProcessId>(f)) << "walk author not faulty";
    rows[author][victim] = 1;  // epoch-1 suspicion
    const crypto::Signer signer(cluster.keys(), author);
    const auto update = suspect::UpdateMessage::make(signer, rows[author]);
    for (ProcessId to : cluster.correct())
      cluster.network().send(author, to, update);
    t += 20 * kMs;  // let each step settle (paper: adversary waits for
                    // the quorum to be output before the next suspicion)
    cluster.simulator().run_until(t);
  }
  cluster.simulator().run_until(t + 500 * kMs);

  // Correct processes agree on the final configuration...
  const auto agreed = cluster.agreed_leader_quorum();
  ASSERT_TRUE(agreed.has_value());
  EXPECT_EQ(agreed->first, static_cast<ProcessId>(3 * f))
      << "walk should end at leader 3f";
  // ...and no correct process issued more than 3f+1 quorums in any epoch
  // (Theorem 9), nor more than 6f+2 overall (Corollary 10).
  for (ProcessId id : cluster.alive()) {
    const auto& history = cluster.process(id).selector().history();
    std::map<Epoch, int> per_epoch;
    for (const auto& record : history) ++per_epoch[record.epoch];
    for (const auto& [epoch, count] : per_epoch) {
      EXPECT_LE(count, 3 * f + 1)
          << "process " << id << " issued " << count << " quorums in epoch "
          << epoch;
    }
    EXPECT_LE(history.size(), static_cast<std::size_t>(6 * f + 2))
        << "Corollary 10 violated at process " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(F, Theorem9Sweep, ::testing::Values(1, 2, 3),
                         [](const auto& sweep_info) {
                           std::string name = "f";
                           name.append(std::to_string(sweep_info.param));
                           return name;
                         });

}  // namespace
}  // namespace qsel::runtime
