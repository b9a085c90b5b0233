// Fail-over in one view change (DESIGN.md §18), on the simulated network.
//
// A replica keeps the verified client requests it relayed as a quorum
// member or received during a view change, and replays them when a view
// installs: the new leader queues its own, every other member sends it
// theirs. Covered here: a formerly passive replica leads with the
// members' requests, buffered PREPAREs replay ahead of buffered COMMITs,
// and held requests stay within the per-client cap and are all released
// once the load drains. The leader crash
// under load is LoadDriverTest.LeaderCrashNeedsNoClientRetry; the
// signature checks are XpaxosRequestCheckTest.
#include <gtest/gtest.h>

#include <memory>

#include "lone_replica.hpp"
#include "xpaxos/cluster.hpp"

namespace qsel::xpaxos {
namespace {

constexpr SimDuration kMs = 1'000'000;

/// Advances `sim` in `step`s until `done` holds or `limit` passes.
template <class Done>
bool run_until(sim::Simulator& sim, Done done, SimDuration limit,
               SimDuration step = kMs) {
  const SimTime deadline = sim.now() + limit;
  while (!done() && sim.now() < deadline) sim.run_until(sim.now() + step);
  return done();
}

TEST(XpaxosFailoverTest, PassiveReplicaLeadsWithTheMembersHeldRequests) {
  // Replica 0 is cut off from 1 and 2 until {1,2,3} is installed under
  // leader 1, so 0 is passive and drops client requests unread. Then 1
  // crashes: 0 leads {0,2,3}, and the requests outstanding at the crash
  // are the ones members 2 and 3 relayed to 1 and hold. They send them
  // to 0, which serves them long before the clients' 500 ms retry.
  ClusterConfig config;
  config.n = 4;
  config.f = 1;
  config.clients = 4;
  config.network.base_latency = 1 * kMs;
  config.network.jitter = 200'000;
  config.fd.initial_timeout = 10 * kMs;
  config.view_change_retry = 40 * kMs;
  config.client_retry = 500 * kMs;
  Cluster cluster(config);
  sim::Simulator& sim = cluster.simulator();
  sim::Network& network = cluster.network();
  cluster.start_clients(0);  // closed loop until the run ends

  network.set_link_enabled(0, 1, false);
  network.set_link_enabled(0, 2, false);
  const ProcessSet without_0{1, 2, 3};
  ASSERT_TRUE(run_until(
      sim,
      [&] {
        for (ProcessId id = 0; id < 4; ++id) {
          const Replica& r = cluster.replica(id);
          if (r.active_quorum() != without_0 ||
              r.status() != Replica::Status::kNormal)
            return false;
        }
        return true;
      },
      1'000 * kMs));
  network.set_link_enabled(0, 1, true);
  network.set_link_enabled(0, 2, true);
  sim.run_until(sim.now() + 100 * kMs);
  ASSERT_EQ(cluster.replica(0).active_quorum(), without_0);
  ASSERT_EQ(cluster.replica(0).held_requests(), 0u) << "0 is passive";
  std::uint64_t retransmissions = 0;
  for (std::uint32_t i = 0; i < config.clients; ++i)
    retransmissions += cluster.client(i).retransmissions();

  network.crash(1);
  const ProcessSet led_by_0{0, 2, 3};
  ASSERT_TRUE(run_until(
      sim,
      [&] {
        const Replica& r = cluster.replica(0);
        return r.active_quorum() == led_by_0 &&
               r.status() == Replica::Status::kNormal;
      },
      400 * kMs));
  ASSERT_TRUE(cluster.replica(0).is_leader());
  const std::uint64_t at_install = cluster.total_completed();
  sim.run_until(sim.now() + 50 * kMs);
  EXPECT_GE(cluster.total_completed(), at_install + config.clients);
  std::uint64_t after = 0;
  for (std::uint32_t i = 0; i < config.clients; ++i)
    after += cluster.client(i).retransmissions();
  EXPECT_EQ(after, retransmissions) << "a client had to retry";
  EXPECT_TRUE(cluster.histories_consistent());
}

TEST(XpaxosFailoverTest, BufferedCommitAheadOfItsPrepareRaisesNoSuspicion) {
  // Replica 1 joins the view change to view 2 (quorum {0,1,3}, leader 0).
  // Before the NEWVIEW arrives, member 3's COMMIT for slot 1 and then the
  // leader's PREPARE for it come in, and both are buffered. The PREPARE
  // met the failure detector on arrival; replayed after the COMMIT, the
  // COMMIT would expect it again, and the correct leader would be
  // suspected one timeout later.
  LoneReplica lone(1);
  Replica& replica = lone.replica();
  const crypto::Signer leader = lone.signer(0);
  replica.on_message(3, ViewChangeMessage::make(lone.signer(3), 2, {}, {}));
  ASSERT_EQ(replica.view(), 2u);
  ASSERT_EQ(replica.status(), Replica::Status::kViewChange);
  const PrepareMessage p = PrepareMessage::make(leader, 2, 1, *lone.request(1));
  replica.on_message(3, CommitMessage::make(lone.signer(3), p));
  replica.on_message(0, std::make_shared<PrepareMessage>(p));
  replica.on_message(0, NewViewMessage::make(leader, 2, {}, {}));
  ASSERT_EQ(replica.status(), Replica::Status::kNormal);
  replica.on_message(0, CommitMessage::make(leader, p));
  EXPECT_EQ(replica.last_executed(), 1u);
  lone.sim().run_until(1'000 * kMs);
  EXPECT_EQ(replica.failure_detector().suspicions_raised(), 0u);
}

TEST(XpaxosFailoverTest, HeldRequestsStayWithinThePerClientCap) {
  // Member 1 of view 1 relays and keeps 300 requests of one client that
  // leader 0 never proposes: only the kReplyWindow highest seqs stay.
  LoneReplica lone(1);
  Replica& replica = lone.replica();
  const crypto::Signer leader = lone.signer(0);
  constexpr std::uint64_t kSent = 300;
  constexpr std::uint64_t kLowestKept = kSent - smr::kReplyWindow + 1;
  for (std::uint64_t seq = 1; seq <= kSent; ++seq)
    replica.on_message(LoneReplica::kClient, lone.request(seq));
  EXPECT_EQ(replica.held_requests(), smr::kReplyWindow);
  // A logged PREPARE releases what it carries; the lower seqs are gone.
  replica.on_message(0, std::make_shared<PrepareMessage>(PrepareMessage::make(
                            leader, 1, 1, *lone.request(kLowestKept - 1))));
  EXPECT_EQ(replica.held_requests(), smr::kReplyWindow);
  replica.on_message(0, std::make_shared<PrepareMessage>(PrepareMessage::make(
                            leader, 1, 2, *lone.request(kLowestKept))));
  EXPECT_EQ(replica.held_requests(), smr::kReplyWindow - 1);
  // Installing view 3 (quorum {0,2,3}) leaves replica 1 out: it drops all.
  replica.on_message(0, NewViewMessage::make(leader, 3, {}, {}));
  ASSERT_EQ(replica.view(), 3u);
  ASSERT_EQ(replica.status(), Replica::Status::kNormal);
  EXPECT_EQ(replica.held_requests(), 0u);
}

TEST(XpaxosFailoverTest, HeldRequestsDrainWithTheLoad) {
  // Four clients send 60 requests each and the leader crashes mid-run.
  // Once every request has completed no live replica holds one: each was
  // released when a PREPARE carrying it was logged or when it executed.
  ClusterConfig config;
  config.n = 4;
  config.f = 1;
  config.clients = 4;
  config.network.base_latency = 1 * kMs;
  config.fd.initial_timeout = 10 * kMs;
  config.view_change_retry = 40 * kMs;
  Cluster cluster(config);
  sim::Simulator& sim = cluster.simulator();
  cluster.start_clients(60);
  sim.schedule_after(20 * kMs, [&] { cluster.network().crash(0); });
  ASSERT_TRUE(run_until(
      sim, [&] { return cluster.total_completed() == 4 * 60; }, 5'000 * kMs));
  ASSERT_GT(cluster.max_view_changes(), 0u);
  sim.run_until(sim.now() + 100 * kMs);
  for (ProcessId id = 1; id < 4; ++id)
    EXPECT_EQ(cluster.replica(id).held_requests(), 0u) << id;
  EXPECT_TRUE(cluster.histories_consistent());
}

}  // namespace
}  // namespace qsel::xpaxos
