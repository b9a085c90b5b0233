// One leader-signature check per PREPARE per replica (DESIGN.md §17).
//
// Replica 1, a member of view 1's quorum {0, 1, 2} under leader 0, is fed
// hand-made PREPAREs and COMMITs. A COMMIT whose embedded PREPARE equals,
// proposal and signature, the one replica 1 already logged costs no HMAC
// for that PREPARE; anything else is checked as before, and a failed check
// still DETECTs the COMMIT's sender. HMACs are counted with
// crypto::hash_counters: each step's count less the signatures on the
// messages replica 1 sent in it is the number of checks it ran.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "crypto/sha256.hpp"
#include "runtime/sim_transport.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "xpaxos/replica.hpp"

namespace qsel::xpaxos {
namespace {

class XpaxosPrepareCheckTest : public ::testing::Test {
 protected:
  static constexpr ProcessId kTotal = 5;  // 4 replicas + 1 client (id 4)

  XpaxosPrepareCheckTest() {
    network_.set_send_hook(
        [this](ProcessId from, ProcessId, const sim::PayloadPtr& m, SimTime) {
          if (from == 1) sent_.insert(m.get());
        });
  }

  /// Delivers `message` to replica 1 and returns the signature checks it
  /// ran: HMACs computed less those that signed what it sent meanwhile.
  std::uint64_t checks_for(ProcessId from, const sim::PayloadPtr& message) {
    sent_.clear();
    const std::uint64_t before = crypto::hash_counters.hmacs;
    replica_->on_message(from, message);
    return crypto::hash_counters.hmacs - before - sent_.size();
  }

  PrepareMessage prepare(SeqNum slot) const {
    return PrepareMessage::make(leader_, 1, slot, *request_);
  }
  sim::PayloadPtr commit_by(ProcessId sender, const PrepareMessage& p) const {
    return CommitMessage::make(crypto::Signer(keys_, sender), p);
  }
  bool detected(ProcessId id) const {
    return replica_->failure_detector().detected_set().contains(id);
  }

  sim::Simulator sim_;
  sim::Network network_{sim_, kTotal, sim::NetworkConfig{}, /*seed=*/1};
  crypto::KeyRegistry keys_{kTotal, /*seed=*/1};
  runtime::SimTransport transport_{network_, 1};
  std::unique_ptr<Replica> replica_ =
      std::make_unique<Replica>(transport_, keys_, ReplicaConfig{});
  crypto::Signer leader_{keys_, 0};
  std::shared_ptr<const smr::ClientRequest> request_ =
      smr::ClientRequest::make(crypto::Signer(keys_, 4), 1, {1, 2, 3});
  std::set<const sim::Payload*> sent_;  // distinct payloads replica 1 sent
};

TEST_F(XpaxosPrepareCheckTest, HeldPrepareIsCheckedOnce) {
  const PrepareMessage p = prepare(1);
  EXPECT_EQ(checks_for(0, std::make_shared<PrepareMessage>(p)), 1u);
  EXPECT_EQ(checks_for(0, commit_by(0, p)), 1u) << "the sender's only";
  EXPECT_EQ(checks_for(2, commit_by(2, p)), 1u) << "the sender's only";
  EXPECT_EQ(replica_->last_executed(), 1u);
  EXPECT_TRUE(replica_->failure_detector().suspected().empty());
}

TEST_F(XpaxosPrepareCheckTest, LeaderPrepareAfterItsCommitIsStillReceived) {
  // The COMMIT overtakes the PREPARE: its embedded PREPARE is checked and
  // logged, and the leader's own PREPARE is expected. When that arrives it
  // needs no check, but it must still meet the expectation.
  const PrepareMessage p = prepare(1);
  EXPECT_EQ(checks_for(2, commit_by(2, p)), 2u);
  EXPECT_EQ(checks_for(0, std::make_shared<PrepareMessage>(p)), 0u);
  EXPECT_EQ(checks_for(0, commit_by(0, p)), 1u);
  EXPECT_EQ(replica_->last_executed(), 1u);
  sim_.run_until(1'000'000'000);
  EXPECT_EQ(replica_->failure_detector().suspicions_raised(), 0u)
      << "the leader's PREPARE reached the failure detector";
}

TEST_F(XpaxosPrepareCheckTest, HeldSignatureOverDoctoredBatchDetectsSender) {
  // Replica 2 reuses the leader's signature on the logged PREPARE over a
  // batch the leader never signed.
  const PrepareMessage p = prepare(1);
  replica_->on_message(0, std::make_shared<PrepareMessage>(p));
  PrepareMessage doctored = p;
  doctored.requests[0].op.push_back(9);
  ASSERT_EQ(doctored.sig, p.sig);
  EXPECT_EQ(checks_for(2, commit_by(2, doctored)), 2u);
  EXPECT_TRUE(detected(2));
  EXPECT_FALSE(detected(0));
  replica_->on_message(0, commit_by(0, p));
  EXPECT_EQ(replica_->last_executed(), 0u) << "replica 2's COMMIT counted";
  EXPECT_EQ(replica_->requests_executed(), 0u);
}

TEST_F(XpaxosPrepareCheckTest, SignatureFromAnotherSlotDetectsSender) {
  // The logged batch, carried under the leader's signature on slot 2.
  const PrepareMessage p = prepare(1);
  replica_->on_message(0, std::make_shared<PrepareMessage>(p));
  PrepareMessage forged = p;
  forged.sig = prepare(2).sig;
  ASSERT_TRUE(forged.same_proposal(p));
  EXPECT_EQ(checks_for(2, commit_by(2, forged)), 2u);
  EXPECT_TRUE(detected(2));
  EXPECT_FALSE(detected(0));
  replica_->on_message(0, commit_by(0, p));
  EXPECT_EQ(replica_->last_executed(), 0u) << "replica 2's COMMIT counted";
  EXPECT_EQ(replica_->requests_executed(), 0u);
}

}  // namespace
}  // namespace qsel::xpaxos
