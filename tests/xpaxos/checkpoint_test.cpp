// Checkpoints, log truncation, the bounded reply table and state transfer
// (DESIGN.md §16), on the simulated network: a replica that joins late
// installs the certified snapshot and converges; a lying CHECKPOINT never
// becomes stable; malformed certificates are refused in VIEWCHANGE,
// NEWVIEW and STATE; a STATE is installed only if it hashes to its
// certificate; retransmissions are answered from the reply window and
// dropped below it.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "runtime/sim_transport.hpp"
#include "smr/client.hpp"
#include "xpaxos/cluster.hpp"

namespace qsel::xpaxos {
namespace {

constexpr SimDuration kMs = 1'000'000;
constexpr SeqNum kK = Replica::kCheckpointInterval;

ClusterConfig base_config(std::uint32_t clients) {
  ClusterConfig config;
  config.n = 4;
  config.f = 1;
  config.seed = 1;
  config.clients = clients;
  config.network.base_latency = 1 * kMs;
  config.network.jitter = 200'000;
  config.fd.initial_timeout = 10 * kMs;
  config.view_change_retry = 40 * kMs;
  config.client_retry = 60 * kMs;
  return config;
}

/// Advances `sim` in `step`s until `done` holds or `limit` passes.
template <class Done>
bool run_until(sim::Simulator& sim, Done done, SimDuration limit,
               SimDuration step = 10 * kMs) {
  const SimTime deadline = sim.now() + limit;
  while (!done() && sim.now() < deadline) sim.run_until(sim.now() + step);
  return done();
}

/// Two serial clients put about one request in each slot. Runs them past
/// 3K slots (and the certificate at 3K), crashes the leader so passive
/// replica 3 joins view {1,2,3}, and runs every request to completion. The
/// first STATE sent is kept.
struct LateJoin {
  static constexpr std::uint64_t kPerClient = 300;

  Cluster cluster{base_config(2)};
  std::shared_ptr<const StateMessage> first_state;

  LateJoin() {
    cluster.network().set_send_hook(
        [this](ProcessId, ProcessId, const sim::PayloadPtr& msg, SimTime) {
          if (first_state == nullptr)
            first_state = std::dynamic_pointer_cast<const StateMessage>(msg);
        });
    cluster.start_clients(kPerClient);
  }

  void run() {
    sim::Simulator& sim = cluster.simulator();
    ASSERT_TRUE(run_until(
        sim,
        [&] { return cluster.replica(1).last_executed() >= 3 * kK + kK / 4; },
        20'000 * kMs));
    ASSERT_EQ(cluster.replica(3).last_executed(), 0u) << "3 is passive";
    cluster.network().crash(0);
    ASSERT_TRUE(run_until(
        sim, [&] { return cluster.total_completed() == 2 * kPerClient; },
        60'000 * kMs));
    sim.run_until(sim.now() + 500 * kMs);  // let every replica catch up
  }
};

TEST(CheckpointTest, PassiveReplicaJoinsByStateTransfer) {
  LateJoin scenario;
  scenario.run();
  Cluster& cluster = scenario.cluster;
  const Replica& joiner = cluster.replica(3);
  EXPECT_GE(joiner.state_transfers(), 1u);
  ASSERT_FALSE(joiner.executed_history().empty());
  // Its history starts just above the checkpoint it installed.
  const SeqNum first = joiner.executed_history().front().slot;
  EXPECT_GT(first, 3 * kK);
  EXPECT_EQ((first - 1) % kK, 0u);
  for (ProcessId id : ProcessSet{1, 2, 3}) {
    const Replica& r = cluster.replica(id);
    EXPECT_EQ(r.last_executed(), cluster.replica(1).last_executed()) << id;
    EXPECT_EQ(r.store().state_digest(),
              cluster.replica(1).store().state_digest())
        << id;
    EXPECT_GT(r.stable_checkpoint(), 3 * kK) << id;
    EXPECT_LE(r.retained_log_slots(), kK + base_config(2).pipeline_window)
        << id;
  }
  EXPECT_TRUE(cluster.histories_consistent());
}

/// A KvStore whose snapshot lies once it has applied more than
/// `honest_ops` operations, so its CHECKPOINT digests stop matching the
/// other replicas' while its replies stay correct.
class LyingSnapshotKv final : public app::StateMachine {
 public:
  explicit LyingSnapshotKv(std::uint64_t honest_ops)
      : honest_ops_(honest_ops) {}
  std::string apply_encoded(std::span<const std::uint8_t> bytes) override {
    return kv_.apply_encoded(bytes);
  }
  crypto::Digest state_digest() const override { return kv_.state_digest(); }
  std::vector<std::uint8_t> snapshot() const override {
    std::vector<std::uint8_t> bytes = kv_.snapshot();
    if (kv_.ops_applied() > honest_ops_) bytes.push_back(0xbd);
    return bytes;
  }
  bool restore(std::span<const std::uint8_t> bytes) override {
    return kv_.restore(bytes);
  }

 private:
  app::KvStore kv_;
  std::uint64_t honest_ops_;
};

/// Four replicas and a client slot (id 4) built by hand, so that a test
/// can give a replica its own app or stand between it and its transport.
struct HandBuiltCluster {
  ClusterConfig config = base_config(1);
  sim::Simulator sim;
  sim::Network network{sim, 5, config.network, config.seed};
  crypto::KeyRegistry keys{5, config.seed};
  std::vector<std::unique_ptr<runtime::SimTransport>> transports;
  std::vector<std::unique_ptr<Replica>> replicas;

  /// `app_for(id)` may return an empty factory (app::KvStore).
  explicit HandBuiltCluster(
      const std::function<Replica::AppFactory(ProcessId)>& app_for = {}) {
    for (ProcessId id = 0; id < 5; ++id)
      transports.push_back(
          std::make_unique<runtime::SimTransport>(network, id));
    for (ProcessId id = 0; id < 4; ++id)
      replicas.push_back(std::make_unique<Replica>(
          *transports[id], keys, config, nullptr,
          app_for ? app_for(id) : Replica::AppFactory{}));
  }

  smr::ClientConfig client_config() const {
    smr::ClientConfig client;
    client.replicas = 4;
    client.f = 1;
    client.retry_timeout = config.client_retry;
    return client;
  }
};

TEST(CheckpointTest, WrongDigestNeverBecomesStable) {
  // Replica 2 of the active quorum {0,1,2} certifies slot K honestly and
  // then lies, so no later checkpoint gathers n - f = 3 matching votes
  // while it is a member. The others expect its matching CHECKPOINT,
  // suspect it, and move to {0,1,3}, where checkpoints become stable again.
  HandBuiltCluster c([](ProcessId id) -> Replica::AppFactory {
    if (id != 2) return {};
    return [] { return std::make_unique<LyingSnapshotKv>(kK + kK / 2); };
  });
  const auto& replicas = c.replicas;
  smr::Client client(*c.transports[4], c.keys, c.client_config());
  client.start(4 * kK);

  // While the liar is a member, nothing past slot K becomes stable.
  const SimTime deadline = c.sim.now() + 30'000 * kMs;
  while (replicas[0]->view() == 1 && c.sim.now() < deadline)
    c.sim.run_until(c.sim.now() + kMs);
  ASSERT_NE(replicas[0]->view(), 1u) << "the liar was never suspected";
  for (ProcessId id : ProcessSet{0, 1}) {
    const Replica& r = *replicas[id];
    EXPECT_GE(r.last_executed(), 2 * kK) << id;
    EXPECT_EQ(r.stable_checkpoint(), kK) << id;
    // Nothing above the last good checkpoint was truncated.
    EXPECT_EQ(r.retained_log_slots(), r.last_executed() - kK) << id;
  }

  ASSERT_TRUE(run_until(
      c.sim, [&] { return client.completed() == 4 * kK; }, 30'000 * kMs));
  c.sim.run_until(c.sim.now() + 100 * kMs);
  EXPECT_EQ(replicas[0]->active_quorum(), (ProcessSet{0, 1, 3}));
  // The lying digest never became stable anywhere: the liar holds slot K
  // still, the others agree on a later checkpoint and truncate again.
  EXPECT_EQ(replicas[2]->stable_checkpoint(), kK);
  for (ProcessId id : ProcessSet{0, 1, 3}) {
    Replica& r = *replicas[id];
    EXPECT_EQ(r.view(), replicas[0]->view()) << id;
    EXPECT_EQ(r.stable_checkpoint(), replicas[0]->stable_checkpoint()) << id;
    EXPECT_GE(r.stable_checkpoint(), 3 * kK) << id;
    EXPECT_LE(r.retained_log_slots(), kK + c.config.pipeline_window) << id;
    EXPECT_FALSE(r.failure_detector().suspected().contains(3)) << id;
  }
}

TEST(CheckpointTest, CertificateLearnedAfterViewChangeStillCommits) {
  // Leader 0's CHECKPOINT for slot 2K is held back, so {0,1,2} executes
  // past 2K with slot K stable, and 1 and 2 suspect 0, which then
  // crashes. Once replica 2 has sent its VIEWCHANGE (carrying K), it gets
  // 0's vote and makes 2K stable. The new leader 1 never learns 2K, so
  // its NEWVIEW re-proposes from K + 1, below replica 2's log floor:
  // replica 2 must still commit those slots, or 1 and 3 suspect a correct
  // replica and change views again.
  HandBuiltCluster c;
  struct Held {
    ProcessId to;
    ProcessId from;
    sim::PayloadPtr message;
  };
  std::vector<Held> held;
  for (ProcessId id = 0; id < 4; ++id) {
    Replica* replica = c.replicas[id].get();
    c.transports[id]->set_handler(
        [&held, replica, id](ProcessId from, const sim::PayloadPtr& m) {
          const auto* vote = dynamic_cast<const CheckpointMessage*>(m.get());
          if (vote != nullptr && vote->slot == 2 * kK && vote->sender == 0) {
            held.push_back({id, from, m});
          } else {
            replica->on_message(from, m);
          }
        });
  }
  smr::Client client(*c.transports[4], c.keys, c.client_config());
  client.start(3 * kK);
  const auto& replicas = c.replicas;
  constexpr SimDuration kFine = 100'000;  // well inside one hop
  ASSERT_TRUE(run_until(
      c.sim,
      [&] {
        return std::min({replicas[0]->last_executed(),
                         replicas[1]->last_executed(),
                         replicas[2]->last_executed()}) >= 2 * kK;
      },
      30'000 * kMs, kFine));
  c.network.crash(0);
  const ProcessSet survivors{1, 2, 3};
  ASSERT_TRUE(run_until(
      c.sim, [&] { return replicas[2]->active_quorum() == survivors; },
      1'000 * kMs, kFine));
  ASSERT_EQ(replicas[2]->status(), Replica::Status::kViewChange);
  for (const Held& h : held)
    if (h.to == 2) replicas[2]->on_message(h.from, h.message);
  ASSERT_EQ(replicas[2]->stable_checkpoint(), 2 * kK);
  ASSERT_EQ(replicas[1]->stable_checkpoint(), kK);

  const auto installed = [&] {
    for (ProcessId id : survivors)
      if (replicas[id]->active_quorum() != survivors ||
          replicas[id]->status() != Replica::Status::kNormal)
        return false;
    return true;
  };
  ASSERT_TRUE(run_until(c.sim, installed, 1'000 * kMs, kFine));
  std::vector<std::uint64_t> view_changes;
  for (ProcessId id : survivors)
    view_changes.push_back(replicas[id]->view_changes());
  ASSERT_TRUE(run_until(
      c.sim, [&] { return client.completed() == 3 * kK; }, 30'000 * kMs));
  c.sim.run_until(c.sim.now() + 100 * kMs);
  for (ProcessId id : survivors) {
    Replica& r = *replicas[id];
    EXPECT_EQ(r.active_quorum(), survivors) << id;
    EXPECT_EQ(r.view_changes(), view_changes[id - 1]) << id;
    EXPECT_EQ(r.failure_detector().suspected(), ProcessSet{}) << id;
    EXPECT_EQ(r.last_executed(), replicas[1]->last_executed()) << id;
    EXPECT_EQ(r.store().state_digest(), replicas[1]->store().state_digest())
        << id;
  }
}

TEST(CheckpointTest, LaggingMemberTransfersWithAContiguousHistory) {
  // Replica 2 executes some slots in view 1, crashes and is replaced by
  // 3; {0,1,3} certifies 3K. Then 2 comes back and 3 crashes, so 2 is a
  // member again behind that certificate: it installs the state by
  // transfer, and its history restarts above the checkpoint rather than
  // keeping the slots it executed before the gap.
  Cluster cluster(base_config(2));
  sim::Simulator& sim = cluster.simulator();
  cluster.start_clients(3 * kK);
  ASSERT_TRUE(run_until(
      sim, [&] { return cluster.replica(2).last_executed() >= kK / 2; },
      10'000 * kMs));
  cluster.network().crash(2);
  ASSERT_TRUE(run_until(
      sim, [&] { return cluster.replica(0).stable_checkpoint() >= 3 * kK; },
      30'000 * kMs));
  ASSERT_LT(cluster.replica(2).last_executed(), kK);
  cluster.network().restart(2);
  sim.run_until(sim.now() + 200 * kMs);
  cluster.network().crash(3);
  ASSERT_TRUE(run_until(
      sim, [&] { return cluster.total_completed() == 6 * kK; },
      60'000 * kMs));
  sim.run_until(sim.now() + 500 * kMs);

  const Replica& lagger = cluster.replica(2);
  EXPECT_EQ(lagger.active_quorum(), (ProcessSet{0, 1, 2}));
  EXPECT_GE(lagger.state_transfers(), 1u);
  ASSERT_FALSE(lagger.executed_history().empty());
  const SeqNum first = lagger.executed_history().front().slot;
  EXPECT_GT(first, 3 * kK);
  EXPECT_EQ((first - 1) % kK, 0u);
  for (ProcessId id : ProcessSet{0, 1}) {
    EXPECT_EQ(cluster.replica(id).last_executed(), lagger.last_executed());
    EXPECT_EQ(cluster.replica(id).store().state_digest(),
              lagger.store().state_digest());
  }
  EXPECT_TRUE(cluster.histories_consistent());
}

/// A certificate over (slot, digest) signed by `signers`.
CheckpointCertificate certify(const crypto::KeyRegistry& keys, SeqNum slot,
                              const crypto::Digest& digest,
                              std::vector<ProcessId> signers) {
  CheckpointCertificate cert{slot, digest, {}};
  for (ProcessId id : signers)
    cert.proofs.push_back(crypto::Signer(keys, id).sign(
        CheckpointMessage::signed_bytes(slot, digest, id)));
  return cert;
}

TEST(CheckpointTest, CertificateNeedsNMinusFDistinctSigners) {
  const crypto::KeyRegistry keys(4, 1);
  const crypto::Signer verifier(keys, 3);
  crypto::Digest digest;
  digest.bytes.fill(0x42);
  EXPECT_TRUE(CheckpointCertificate{}.verify(verifier, 4, 1));
  EXPECT_TRUE(certify(keys, kK, digest, {0, 1, 2}).verify(verifier, 4, 1));
  EXPECT_TRUE(certify(keys, kK, digest, {0, 1, 2, 3}).verify(verifier, 4, 1));

  EXPECT_FALSE(certify(keys, kK, digest, {0, 1}).verify(verifier, 4, 1));
  EXPECT_FALSE(certify(keys, kK, digest, {0, 1, 1}).verify(verifier, 4, 1));
  EXPECT_FALSE(certify(keys, kK, digest, {0, 1, 2, 0}).verify(verifier, 4, 1))
      << "a signer counted twice invalidates even a large enough set";
  CheckpointCertificate forged = certify(keys, kK, digest, {0, 1, 2});
  forged.digest.bytes[0] ^= 1;
  EXPECT_FALSE(forged.verify(verifier, 4, 1));
  CheckpointCertificate genesis_with_proof = certify(keys, 0, {}, {0});
  EXPECT_FALSE(genesis_with_proof.verify(verifier, 4, 1));
}

/// One replica (id 3, passive in view 1) fed hand-made messages.
class CertificateCarrierTest : public ::testing::Test {
 protected:
  static constexpr ProcessId kTotal = 6;  // LateJoin's 4 replicas + 2 clients

  sim::Simulator sim_;
  sim::Network network_{sim_, kTotal, sim::NetworkConfig{}, /*seed=*/1};
  crypto::KeyRegistry keys_{kTotal, /*seed=*/1};
  runtime::SimTransport transport_{network_, 3};
  ViewMap views_{4, 1};

  std::unique_ptr<Replica> make_replica() {
    ReplicaConfig config;
    return std::make_unique<Replica>(transport_, keys_, config);
  }
  CheckpointCertificate good() const {
    crypto::Digest digest;
    digest.bytes.fill(0x42);
    return certify(keys_, kK, digest, {0, 1, 2});
  }
  CheckpointCertificate short_of_signers() const {
    CheckpointCertificate cert = good();
    cert.proofs.pop_back();
    return cert;
  }
  CheckpointCertificate signer_twice() const {
    CheckpointCertificate cert = good();
    cert.proofs.back() = cert.proofs.front();
    return cert;
  }
};

TEST_F(CertificateCarrierTest, ViewChangeWithBadCertificateIsRefused) {
  for (const CheckpointCertificate& bad :
       {short_of_signers(), signer_twice()}) {
    const auto replica = make_replica();
    replica->on_message(
        1, ViewChangeMessage::make(crypto::Signer(keys_, 1), 2, bad, {}));
    EXPECT_EQ(replica->view(), 1u);
    EXPECT_EQ(replica->status(), Replica::Status::kNormal);
  }
  const auto replica = make_replica();
  replica->on_message(
      1, ViewChangeMessage::make(crypto::Signer(keys_, 1), 2, good(), {}));
  EXPECT_EQ(replica->view(), 2u) << "a valid one is joined";
}

TEST_F(CertificateCarrierTest, NewViewWithBadCertificateIsRefused) {
  const ViewId view = views_.first_view_from(2, ProcessSet{1, 2, 3});
  const crypto::Signer leader(keys_, views_.leader_of(view));
  for (const CheckpointCertificate& bad :
       {short_of_signers(), signer_twice()}) {
    const auto replica = make_replica();
    replica->on_message(leader.self(),
                        NewViewMessage::make(leader, view, bad, {}));
    EXPECT_EQ(replica->view(), 1u);
  }
  const auto replica = make_replica();
  replica->on_message(leader.self(),
                      NewViewMessage::make(leader, view, good(), {}));
  EXPECT_EQ(replica->view(), view);
  EXPECT_EQ(replica->status(), Replica::Status::kNormal);
  EXPECT_EQ(replica->retained_log_slots(), 0u);
}

TEST_F(CertificateCarrierTest, ReplicaMadeActiveAsksForStateItLearnedPassive) {
  // A NEWVIEW carrying certificate c reaches replica 3 while it is
  // passive, then one with the same c makes it active: it must ask the
  // signers for c's state then, not only when c is new to it.
  LateJoin scenario;
  scenario.run();
  ASSERT_NE(scenario.first_state, nullptr);
  const CheckpointCertificate& cert = scenario.first_state->stable;
  std::uint64_t requests = 0;
  network_.set_send_hook(
      [&](ProcessId from, ProcessId, const sim::PayloadPtr& m, SimTime) {
        if (from == 3 && dynamic_cast<const StateRequestMessage*>(m.get()))
          ++requests;
      });
  const auto replica = make_replica();

  const ViewId passive = views_.first_view_from(2, ProcessSet{0, 1, 2});
  const crypto::Signer leader0(keys_, views_.leader_of(passive));
  replica->on_message(leader0.self(),
                      NewViewMessage::make(leader0, passive, cert, {}));
  ASSERT_EQ(replica->view(), passive);
  EXPECT_EQ(requests, 0u) << "a passive replica does not fetch state";

  const ViewId active =
      views_.first_view_from(passive + 1, ProcessSet{1, 2, 3});
  const crypto::Signer leader1(keys_, views_.leader_of(active));
  replica->on_message(leader1.self(),
                      NewViewMessage::make(leader1, active, cert, {}));
  ASSERT_EQ(replica->view(), active);
  ASSERT_TRUE(replica->in_active_quorum());
  EXPECT_GE(requests, 1u);

  replica->on_message(1, scenario.first_state);
  EXPECT_EQ(replica->state_transfers(), 1u);
  EXPECT_EQ(replica->last_executed(), cert.slot);
}

TEST_F(CertificateCarrierTest, StateIsInstalledOnlyWhenCertified) {
  LateJoin scenario;
  scenario.run();
  ASSERT_NE(scenario.first_state, nullptr);
  const StateMessage& genuine = *scenario.first_state;
  const SeqNum slot = genuine.stable.slot;
  const auto replica = make_replica();

  // A certificate short of signers, or with a signer counted twice.
  for (const bool twice : {false, true}) {
    auto bad = std::make_shared<StateMessage>(genuine);
    if (twice) {
      bad->stable.proofs.back() = bad->stable.proofs.front();
    } else {
      bad->stable.proofs.pop_back();
    }
    replica->on_message(1, bad);
  }
  // A snapshot that does not hash to the certified digest.
  auto tampered = std::make_shared<StateMessage>(genuine);
  tampered->snapshot.back() ^= 1;
  replica->on_message(1, tampered);
  EXPECT_EQ(replica->state_transfers(), 0u);
  EXPECT_EQ(replica->last_executed(), 0u);

  replica->on_message(1, scenario.first_state);
  EXPECT_EQ(replica->state_transfers(), 1u);
  EXPECT_EQ(replica->last_executed(), slot);
  EXPECT_EQ(replica->stable_checkpoint(), slot);
}

TEST(CheckpointTest, StalledRequestIsNotStrandedBelowTheReplyFloor) {
  // Every copy of the client's seq 1 is dropped while it keeps 16
  // requests in flight. Had the client gone on past seq kReplyWindow + 1,
  // the replicas would take seq 1, once it got through, as executed long
  // ago and never answer it; the engine holds those seqs back instead.
  constexpr std::uint64_t kRequests = smr::kReplyWindow + 44;
  HandBuiltCluster c;
  bool drop = true;
  for (ProcessId id = 0; id < 4; ++id) {
    Replica* replica = c.replicas[id].get();
    c.transports[id]->set_handler(
        [&drop, replica](ProcessId from, const sim::PayloadPtr& m) {
          const auto* request =
              dynamic_cast<const smr::ClientRequest*>(m.get());
          if (!(drop && request != nullptr && request->client_seq == 1))
            replica->on_message(from, m);
        });
  }
  smr::RequestEngine engine(*c.transports[4], c.keys, c.client_config());
  std::uint64_t submitted = 0;
  std::uint64_t settled = 0;
  std::function<void()> submit = [&] {
    ++submitted;
    engine.submit({1}, [&](const smr::Outcome&) {
      ++settled;
      if (submitted < kRequests) submit();
    });
  };
  for (int i = 0; i < 16; ++i) submit();
  c.sim.run_until(c.sim.now() + 2'000 * kMs);
  EXPECT_EQ(settled, smr::kReplyWindow - 1) << "seqs 2..kReplyWindow";

  drop = false;
  ASSERT_TRUE(run_until(
      c.sim, [&] { return settled == kRequests; }, 10'000 * kMs));
  c.sim.run_until(c.sim.now() + 100 * kMs);
  for (ProcessId id : ProcessSet{0, 1, 2})
    EXPECT_EQ(c.replicas[id]->requests_executed(), kRequests) << id;
}

TEST(CheckpointTest, RetransmissionsAnsweredInsideTheReplyWindowOnly) {
  constexpr std::uint64_t kRequests = smr::kReplyWindow + 44;
  Cluster cluster(base_config(1));
  cluster.start_clients(kRequests);
  ASSERT_TRUE(run_until(
      cluster.simulator(),
      [&] { return cluster.total_completed() == kRequests; }, 30'000 * kMs));
  cluster.simulator().run_until(cluster.simulator().now() + 100 * kMs);

  const ProcessId client = 4;
  const crypto::Signer signer(cluster.keys(), client);
  Replica& leader = cluster.replica(0);
  const auto replies = [&] {  // to the client, from any replica
    std::uint64_t total = 0;
    for (ProcessId id = 0; id < 4; ++id)
      total += cluster.network().stats().by_link(id, client);
    return total;
  };
  const std::uint64_t executed_before = leader.requests_executed();
  ASSERT_EQ(executed_before, kRequests);

  // Inside the window: the cached reply, without executing again.
  std::uint64_t sent = replies();
  leader.on_message(client, smr::ClientRequest::make(signer, kRequests, {1}));
  EXPECT_EQ(replies(), sent + 1);
  sent = replies();
  const std::uint64_t oldest = kRequests - smr::kReplyWindow + 1;
  leader.on_message(client, smr::ClientRequest::make(signer, oldest, {1}));
  EXPECT_EQ(replies(), sent + 1) << "the oldest seq still in the window";

  // At or below the floor (highest - R): neither executed nor answered.
  sent = replies();
  for (const std::uint64_t seq :
       {kRequests - smr::kReplyWindow, std::uint64_t{1}}) {
    const auto request = smr::ClientRequest::make(signer, seq, {1});
    for (ProcessId id : ProcessSet{0, 1, 2})
      cluster.replica(id).on_message(client, request);
  }
  cluster.simulator().run_until(cluster.simulator().now() + 500 * kMs);
  EXPECT_EQ(replies(), sent);
  for (ProcessId id : ProcessSet{0, 1, 2})
    EXPECT_EQ(cluster.replica(id).requests_executed(), executed_before) << id;
}

}  // namespace
}  // namespace qsel::xpaxos
