// Sharded-cluster soak (tools/ci.sh stage 7): routing-client load on
// both shards, one live whole-shard migration under that load, and a
// whole-node kill/restart mid-migration — the scenario the sanitizers
// need to see, because the teardown/rebuild path (replica destructors,
// timer cancellation, socket shutdown) is where lifetime bugs live.
//
// QSEL_SHARD_SOAK_OPS overrides the per-client op count (default 30).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "shard/shard_cluster.hpp"

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

std::size_t ops_per_client() {
  if (const char* env = std::getenv("QSEL_SHARD_SOAK_OPS"))
    return static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  return 30;
}

// QSEL_SHARD_SOAK_LOG=1 turns on protocol logging plus a periodic state
// dump — the first thing to reach for when the soak times out on a
// loaded machine.
bool soak_logging() { return std::getenv("QSEL_SHARD_SOAK_LOG") != nullptr; }

void dump_state(ShardCluster& cluster, std::size_t mover_next,
                std::size_t mixed_next, bool migrated) {
  std::fprintf(stderr, "soak: mover=%zu mixed=%zu migrated=%d\n", mover_next,
               mixed_next, migrated ? 1 : 0);
  for (ProcessId i = 0; i < ShardCluster::kRoutingClients; ++i) {
    RoutingClient& client = cluster.client(i);
    std::fprintf(stderr,
                 "soak:   client%u done=%llu wrong=%llu frozen=%llu "
                 "stale=%llu\n",
                 unsigned(i),
                 static_cast<unsigned long long>(client.completed()),
                 static_cast<unsigned long long>(
                     client.rejects(smr::ResultStatus::kWrongGroup)),
                 static_cast<unsigned long long>(
                     client.rejects(smr::ResultStatus::kFrozen)),
                 static_cast<unsigned long long>(
                     client.rejects(smr::ResultStatus::kStaleEpoch)));
  }
  for (ProcessId node = 0; node < ShardCluster::kNodes; ++node) {
    for (const GroupId group :
         {ShardCluster::kConfigGroup, ShardCluster::kLowGroup,
          ShardCluster::kHighGroup}) {
      xpaxos::Replica* replica = cluster.replica(node, group);
      if (replica == nullptr) continue;
      std::fprintf(
          stderr,
          "soak:   p%u g%u view=%llu quorum=%s leader=%u %s exec=%llu "
          "suspects=%s\n",
          unsigned(node), unsigned(group),
          static_cast<unsigned long long>(replica->view()),
          replica->active_quorum().to_string().c_str(),
          unsigned(replica->leader()),
          replica->status() == xpaxos::Replica::Status::kNormal ? "normal"
                                                                : "viewchange",
          static_cast<unsigned long long>(replica->requests_executed()),
          replica->failure_detector().suspected().to_string().c_str());
    }
  }
}

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

TEST(ShardSoakTest, MigrationSurvivesNodeKillAndRestartUnderLoad) {
  if (soak_logging())
    set_log_level(std::strtoul(std::getenv("QSEL_SHARD_SOAK_LOG"), nullptr,
                               10) >= 2
                      ? LogLevel::kDebug
                      : LogLevel::kInfo);
  const std::string store_root =
      testing::TempDir() + "qsel_shard_soak_store";
  std::filesystem::remove_all(store_root);
  std::filesystem::create_directories(store_root);

  ShardClusterConfig config;
  config.seed = 23;
  config.chunk_limit = 4;
  config.store_root = store_root;
  ShardCluster cluster(config);
  ASSERT_TRUE(cluster.start());

  const std::size_t ops = ops_per_client();
  std::map<std::string, std::string> acked;
  Workload mover{cluster.client(0), acked, {}};
  Workload mixed{cluster.client(1), acked, {}};
  for (std::size_t i = 0; i < ops; ++i) {
    mover.queue.emplace_back(numbered("a", i), numbered("v", i));
    mixed.queue.emplace_back(numbered(i % 2 == 0 ? "b" : "z", i),
                             numbered("w", i));
  }
  mover.kick();
  mixed.kick();

  // Some load lands, then the whole low shard starts moving to group 2.
  ASSERT_TRUE(cluster.run_until(
      [&] { return mover.next >= 4 && mixed.next >= 4; }, 30 * kSecond));
  MigrationCoordinator::Result result;
  bool migrated = false;
  cluster.coordinator().move_range(
      /*migration_id=*/1, ShardCluster::kLowGroup, ShardCluster::kHighGroup,
      "", ShardCluster::kSplit, [&](const MigrationCoordinator::Result& r) {
        result = r;
        migrated = true;
      });

  // Mid-migration = the freeze has committed on a source replica but the
  // hand-off has not finished. At that instant, kill a whole node — all
  // three of its replicas, sockets and timers.
  ASSERT_TRUE(cluster.run_until(
      [&] {
        const ShardKv* source =
            cluster.shard_kv(0, ShardCluster::kLowGroup);
        return migrated || (source != nullptr && source->is_frozen("a0"));
      },
      60 * kSecond));
  constexpr ProcessId kVictim = 3;
  cluster.crash_node(kVictim);

  // The survivors (3 of 4 per group, f=1) must finish the migration and
  // drain both workloads, view-changing past the dead node wherever it
  // sat in an active quorum.
  bool drained = false;
  for (int slice = 0; slice < 36 && !drained; ++slice) {
    drained = cluster.run_until(
        [&] { return migrated && mover.done() && mixed.done(); },
        5 * kSecond);
    if (!drained && soak_logging())
      dump_state(cluster, mover.next, mixed.next, migrated);
  }
  ASSERT_TRUE(drained);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.new_epoch, 4u);
  EXPECT_EQ(acked.size(), 2 * ops);

  // Restart the node on its original port: quorum-selection state comes
  // back from its WAL store, the SMR layer rejoins as a laggard.
  cluster.restart_node(kVictim);
  ASSERT_TRUE(cluster.run_until(
      [&] { return cluster.fully_connected(); }, 60 * kSecond));

  // Zero acknowledged-op loss, end to end: every acked (key, value) is
  // readable through a routing client after migration + crash + restart.
  for (const auto& [key, value] : acked) {
    std::string got;
    bool done = false;
    cluster.client(1).get(key, [&](const smr::Outcome& outcome) {
      got = outcome.value;
      done = true;
    });
    ASSERT_TRUE(cluster.run_until([&] { return done; }, 30 * kSecond));
    EXPECT_EQ(got, value) << key;
  }

  std::filesystem::remove_all(store_root);
}

}  // namespace
}  // namespace qsel::shard
