#include "bchain/cluster.hpp"

#include <gtest/gtest.h>

namespace qsel::bchain {
namespace {

constexpr SimDuration kMs = 1'000'000;

QsClusterConfig base_config(ProcessId n, int f, std::uint64_t seed = 1) {
  QsClusterConfig config;
  config.n = n;
  config.f = f;
  config.seed = seed;
  config.network.base_latency = 1 * kMs;
  config.network.jitter = 200'000;
  config.fd.initial_timeout = 20 * kMs;
  config.client_retry = 60 * kMs;
  return config;
}

TEST(QsChainTest, NormalCaseCommitsWithChainComplexity) {
  QsChainCluster cluster(base_config(7, 2));
  cluster.start_clients(20);
  cluster.simulator().run_until(5000 * kMs);
  EXPECT_EQ(cluster.total_completed(), 20u);
  EXPECT_EQ(cluster.max_reconfigurations(), 0u);
  // Same data-path complexity as the replacement-based baseline:
  // (q-1) chain hops + (q-1) ack hops per request.
  const auto& stats = cluster.network().stats();
  EXPECT_EQ(stats.by_type("bchain.chain"), 20u * 4);
  EXPECT_EQ(stats.by_type("bchain.ack"), 20u * 4);
  EXPECT_EQ(stats.by_type("bchain.reconfig"), 0u);
}

TEST(QsChainTest, CrashedChainMemberExcludedViaSuspicions) {
  QsChainCluster cluster(base_config(4, 1, 3));
  cluster.start_clients(60);
  cluster.simulator().run_until(40 * kMs);
  cluster.network().crash(1);
  cluster.simulator().run_until(10000 * kMs);
  EXPECT_EQ(cluster.total_completed(), 60u);
  for (ProcessId id : cluster.alive_replicas()) {
    const auto& chain = cluster.replica(id).chain();
    EXPECT_EQ(std::count(chain.begin(), chain.end(), 1), 0)
        << "crashed node still in replica " << id << "'s chain";
  }
  // A few suspicion-driven reconfigurations suffice. Chains attribute
  // failures worse than the all-to-all quorum pattern of Fig. 2 — a
  // starving member can only suspect the *head* even when the break is
  // mid-chain, so transient false suspicions occur and are healed by an
  // epoch change; the count stays far below the C(n,q)-style churn of
  // blind enumeration/replacement.
  EXPECT_LE(cluster.max_reconfigurations(), 6u);
}

TEST(QsChainTest, CrashedHeadExcluded) {
  QsChainCluster cluster(base_config(4, 1, 5));
  cluster.start_clients(60);
  cluster.simulator().run_until(40 * kMs);
  cluster.network().crash(0);  // the head
  cluster.simulator().run_until(10000 * kMs);
  EXPECT_EQ(cluster.total_completed(), 60u);
  for (ProcessId id : cluster.alive_replicas())
    EXPECT_NE(cluster.replica(id).head(), 0u);
}

// The scenario that breaks blind replacement: a chain member that keeps
// its links alive but drops everything it forwards. Quorum selection pins
// the suspicions on the culprit (its neighbours' expectations time out
// against *it*) and converges; no spare-cycling.
TEST(QsChainTest, MisbehavingForwarderPinnedBySuspicions) {
  QsChainCluster cluster(base_config(7, 2, 7));
  cluster.start_clients(0);
  cluster.simulator().run_until(40 * kMs);
  for (ProcessId to = 0; to < 7; ++to)
    if (to != 1) cluster.network().set_link_enabled(1, to, false);
  cluster.simulator().run_until(3000 * kMs);
  const std::uint64_t completed_mid = cluster.total_completed();
  EXPECT_GT(completed_mid, 0u);
  for (ProcessId id : cluster.alive_replicas()) {
    if (id == 1) continue;  // the culprit's own view is unreliable
    const auto& chain = cluster.replica(id).chain();
    EXPECT_EQ(std::count(chain.begin(), chain.end(), 1), 0)
        << "culprit still in replica " << id << "'s chain";
  }
  // Progress continues.
  cluster.simulator().run_until(5000 * kMs);
  EXPECT_GT(cluster.total_completed(), completed_mid);
}

TEST(QsChainTest, ConfigIdSharedAcrossReplicas) {
  QsChainCluster cluster(base_config(4, 1, 9));
  cluster.start_clients(30);
  cluster.simulator().run_until(40 * kMs);
  cluster.network().crash(2);
  cluster.simulator().run_until(5000 * kMs);
  const std::uint64_t config_id = cluster.replica(0).config_id();
  for (ProcessId id : cluster.alive_replicas())
    EXPECT_EQ(cluster.replica(id).config_id(), config_id);
}

TEST(QsChainTest, StateConsistentAcrossExecutingReplicas) {
  QsChainCluster cluster(base_config(4, 1, 11));
  cluster.start_clients(25);
  cluster.simulator().run_until(5000 * kMs);
  ASSERT_EQ(cluster.total_completed(), 25u);
  const auto digest = cluster.replica(0).store().state_digest();
  for (ProcessId id : cluster.alive_replicas()) {
    if (cluster.replica(id).last_executed() == 0) continue;  // passive
    EXPECT_EQ(cluster.replica(id).store().state_digest(), digest);
  }
}

}  // namespace
}  // namespace qsel::bchain
