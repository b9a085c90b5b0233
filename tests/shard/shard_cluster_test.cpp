// End-to-end acceptance for the sharded service (DESIGN.md §12), over
// real loopback TCP: routing clients committing on both shards, a live
// whole-shard migration under client load with zero acknowledged-op
// loss, and a quorum change in one group leaving the co-hosted groups'
// views untouched.
#include "shard/shard_cluster.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace qsel::shard {
namespace {

/// `prefix` followed by `i` in decimal, built with append (GCC 12 at -O3
/// reports a -Wrestrict false positive on "literal" + std::string).
std::string numbered(const char* prefix, std::size_t i) {
  std::string s = prefix;
  s.append(std::to_string(i));
  return s;
}

constexpr std::uint64_t kSecond = 1'000'000'000;

/// Drives one RoutingClient through a scripted queue of puts, recording
/// each acknowledged (key, value) into a shared model. Each completion
/// submits the next op reentrantly, so the client stays saturated.
struct Workload {
  RoutingClient& client;
  std::map<std::string, std::string>& acked;
  std::vector<std::pair<std::string, std::string>> queue;
  std::size_t next = 0;

  void kick() {
    if (next >= queue.size()) return;
    const auto [key, value] = queue[next++];
    client.put(key, value, [this, key = key, value = value](
                               const smr::Outcome& outcome) {
      ASSERT_EQ(outcome.status, smr::ResultStatus::kOk) << "put " << key;
      acked[key] = value;
      kick();
    });
  }

  bool done() const { return next >= queue.size() && client.idle(); }
};

TEST(ShardClusterTest, ClientsCommitOnBothShards) {
  ShardClusterConfig config;
  config.seed = 42;
  ShardCluster cluster(config);
  ASSERT_TRUE(cluster.start());

  // One op per shard from each client, interleaved.
  std::map<std::string, std::string> acked;
  Workload low{cluster.client(0), acked, {{"apple", "1"}, {"banana", "2"}}};
  Workload high{cluster.client(1), acked, {{"zebra", "3"}, {"quince", "4"}}};
  low.kick();
  high.kick();
  ASSERT_TRUE(cluster.run_until(
      [&] { return low.done() && high.done(); }, 20 * kSecond));
  EXPECT_EQ(acked.size(), 4u);

  // Reads route to the owning shard and see the committed values.
  for (const auto& [key, value] : acked) {
    std::string got;
    bool done = false;
    cluster.client(0).get(key, [&](const smr::Outcome& outcome) {
      got = outcome.value;
      done = true;
    });
    ASSERT_TRUE(cluster.run_until([&] { return done; }, 10 * kSecond));
    EXPECT_EQ(got, value) << key;
  }

  // The data really is partitioned: low keys on group 1, high on group 2.
  const ShardKv* low_kv = cluster.shard_kv(0, ShardCluster::kLowGroup);
  const ShardKv* high_kv = cluster.shard_kv(0, ShardCluster::kHighGroup);
  ASSERT_NE(low_kv, nullptr);
  ASSERT_NE(high_kv, nullptr);
  EXPECT_TRUE(cluster.run_until(
      [&] {
        return low_kv->kv().get("apple").has_value() &&
               high_kv->kv().get("zebra").has_value();
      },
      10 * kSecond));
  EXPECT_FALSE(low_kv->kv().get("zebra").has_value());
  EXPECT_FALSE(high_kv->kv().get("apple").has_value());
}

TEST(ShardClusterTest, LiveMigrationUnderLoadLosesNoAcknowledgedOp) {
  ShardClusterConfig config;
  config.seed = 7;
  config.chunk_limit = 4;  // force several chunks
  ShardCluster cluster(config);
  ASSERT_TRUE(cluster.start());

  // Client 0 hammers the low shard (the range being moved); client 1
  // splits its writes across both shards.
  std::map<std::string, std::string> acked;
  Workload mover{cluster.client(0), acked, {}};
  Workload mixed{cluster.client(1), acked, {}};
  for (std::size_t i = 0; i < 24; ++i)
    mover.queue.emplace_back(numbered("a", i), numbered("v", i));
  for (std::size_t i = 0; i < 12; ++i) {
    mixed.queue.emplace_back(numbered("b", i), numbered("w", i));
    mixed.queue.emplace_back(numbered("z", i), numbered("x", i));
  }
  mover.kick();
  mixed.kick();

  // Let some load land, then move the whole low shard to group 2 while
  // both clients keep writing into it.
  ASSERT_TRUE(cluster.run_until(
      [&] { return mover.next >= 4 && mixed.next >= 4; }, 20 * kSecond));
  MigrationCoordinator::Result result;
  bool migrated = false;
  cluster.coordinator().move_range(
      /*migration_id=*/1, ShardCluster::kLowGroup, ShardCluster::kHighGroup,
      "", ShardCluster::kSplit, [&](const MigrationCoordinator::Result& r) {
        result = r;
        migrated = true;
      });

  ASSERT_TRUE(cluster.run_until(
      [&] { return migrated && mover.done() && mixed.done(); },
      60 * kSecond));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.new_epoch, 4u);  // 1 + two assigns + this commit
  EXPECT_GT(result.keys_moved, 0u);
  EXPECT_GT(result.chunks, 1u);
  EXPECT_EQ(acked.size(), 48u);

  // Zero acknowledged-op loss: every acked (key, value) is readable
  // through a routing client after the hand-off.
  for (const auto& [key, value] : acked) {
    std::string got;
    bool done = false;
    cluster.client(1).get(key, [&](const smr::Outcome& outcome) {
      got = outcome.value;
      done = true;
    });
    ASSERT_TRUE(cluster.run_until([&] { return done; }, 10 * kSecond));
    EXPECT_EQ(got, value) << key;
  }

  // The destination group owns the moved range at the new epoch; the
  // source dropped it. Committed on the quorum — check one member that
  // has applied the hand-off ops.
  EXPECT_TRUE(cluster.run_until(
      [&] {
        const ShardKv* dest =
            cluster.shard_kv(0, ShardCluster::kHighGroup);
        const ShardKv* source =
            cluster.shard_kv(0, ShardCluster::kLowGroup);
        return dest != nullptr && source != nullptr &&
               dest->owns("a0") && dest->config_epoch() == 4 &&
               !source->owns("a0") && source->owned().empty();
      },
      20 * kSecond));

  // The freeze window actually bit: at least one client was bounced by
  // FROZEN or STALE_EPOCH and retried to completion.
  const std::uint64_t bounces =
      cluster.client(0).rejects(smr::ResultStatus::kFrozen) +
      cluster.client(0).rejects(smr::ResultStatus::kStaleEpoch) +
      cluster.client(0).rejects(smr::ResultStatus::kWrongGroup) +
      cluster.client(1).rejects(smr::ResultStatus::kFrozen) +
      cluster.client(1).rejects(smr::ResultStatus::kStaleEpoch) +
      cluster.client(1).rejects(smr::ResultStatus::kWrongGroup);
  EXPECT_GT(bounces, 0u);
}

TEST(ShardClusterTest, QuorumChangeInOneGroupDoesNotPerturbOthers) {
  ShardClusterConfig config;
  config.seed = 11;
  ShardCluster cluster(config);
  ASSERT_TRUE(cluster.start());

  // Commit one op per shard so every group is live before the fault.
  std::map<std::string, std::string> acked;
  Workload warmup{cluster.client(0), acked, {{"cat", "1"}, {"nut", "2"}}};
  warmup.kick();
  ASSERT_TRUE(cluster.run_until([&] { return warmup.done(); }, 20 * kSecond));

  // Kill a low-group replica that sits in the group's active quorum, so
  // the survivors are forced to reconfigure around it.
  const ProcessSet quorum =
      cluster.replica(0, ShardCluster::kLowGroup)->active_quorum();
  ProcessId victim = ShardCluster::kNodes;  // group-local rank == node id
  for (ProcessId rank = ShardCluster::kNodes; rank-- > 0;) {
    if (quorum.contains(rank) && rank != 0) {
      victim = rank;
      break;
    }
  }
  ASSERT_LT(victim, ShardCluster::kNodes);
  const ProcessId observer = victim == 0 ? 1 : 0;

  const ViewId high_view =
      cluster.replica(observer, ShardCluster::kHighGroup)->view();
  const ViewId config_view =
      cluster.replica(observer, ShardCluster::kConfigGroup)->view();

  ASSERT_TRUE(cluster.kill_group_replica(victim, ShardCluster::kLowGroup));

  // Failure detection is op-driven (expectations on PREPARE/COMMIT, no
  // idle heartbeats), so drive traffic through the wounded group: the
  // stalled commit is what turns the victim's silence into a suspicion,
  // Algorithm 1 then moves the quorum and the view change lets the op
  // finish. Interleave a high-shard op to show it commits undisturbed.
  Workload after{cluster.client(1), acked, {{"dog", "3"}, {"pig", "4"}}};
  after.kick();
  ASSERT_TRUE(cluster.run_until(
      [&] {
        const xpaxos::Replica* survivor =
            cluster.replica(observer, ShardCluster::kLowGroup);
        return after.done() && survivor != nullptr &&
               !survivor->active_quorum().contains(victim);
      },
      60 * kSecond));

  // Co-hosted groups never noticed: same views as before the kill, even
  // though they share every socket and timer wheel with the low group.
  EXPECT_EQ(cluster.replica(observer, ShardCluster::kHighGroup)->view(),
            high_view);
  EXPECT_EQ(cluster.replica(observer, ShardCluster::kConfigGroup)->view(),
            config_view);
}

}  // namespace
}  // namespace qsel::shard
