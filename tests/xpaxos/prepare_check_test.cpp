// One signature check where one is needed (DESIGN.md §17, §18).
//
// A replica with no peers (lone_replica.hpp) is fed hand-made messages
// and the HMACs each delivery costs are counted with crypto::hash_counters.
//
// XpaxosPrepareCheckTest: replica 1, a member of view 1's quorum {0, 1, 2}
// under leader 0, gets PREPAREs and COMMITs. A COMMIT whose embedded
// PREPARE equals, proposal and signature, the one replica 1 already
// logged costs no HMAC for that PREPARE; anything else is checked as
// before, and a failed check still DETECTs the COMMIT's sender.
//
// XpaxosRequestCheckTest: a client request's signature is checked only
// where the replica acts on it (answers, keeps, relays or queues it).
#include <gtest/gtest.h>

#include <memory>

#include "lone_replica.hpp"

namespace qsel::xpaxos {
namespace {

class XpaxosPrepareCheckTest : public ::testing::Test {
 protected:
  std::uint64_t checks_for(ProcessId from, const sim::PayloadPtr& message) {
    return lone_.checks_for(from, message);
  }
  PrepareMessage prepare(SeqNum slot) const {
    return PrepareMessage::make(lone_.signer(0), 1, slot, *request_);
  }
  sim::PayloadPtr commit_by(ProcessId sender, const PrepareMessage& p) const {
    return CommitMessage::make(lone_.signer(sender), p);
  }
  bool detected(ProcessId id) {
    return replica_.failure_detector().detected_set().contains(id);
  }

  LoneReplica lone_{1};
  Replica& replica_ = lone_.replica();
  std::shared_ptr<const smr::ClientRequest> request_ = lone_.request(1);
};

TEST_F(XpaxosPrepareCheckTest, HeldPrepareIsCheckedOnce) {
  const PrepareMessage p = prepare(1);
  EXPECT_EQ(checks_for(0, std::make_shared<PrepareMessage>(p)), 1u);
  EXPECT_EQ(checks_for(0, commit_by(0, p)), 1u) << "the sender's only";
  EXPECT_EQ(checks_for(2, commit_by(2, p)), 1u) << "the sender's only";
  EXPECT_EQ(replica_.last_executed(), 1u);
  EXPECT_TRUE(replica_.failure_detector().suspected().empty());
}

TEST_F(XpaxosPrepareCheckTest, LeaderPrepareAfterItsCommitIsStillReceived) {
  // The COMMIT overtakes the PREPARE: its embedded PREPARE is checked and
  // logged, and the leader's own PREPARE is expected. When that arrives it
  // needs no check, but it must still meet the expectation.
  const PrepareMessage p = prepare(1);
  EXPECT_EQ(checks_for(2, commit_by(2, p)), 2u);
  EXPECT_EQ(checks_for(0, std::make_shared<PrepareMessage>(p)), 0u);
  EXPECT_EQ(checks_for(0, commit_by(0, p)), 1u);
  EXPECT_EQ(replica_.last_executed(), 1u);
  lone_.sim().run_until(1'000'000'000);
  EXPECT_EQ(replica_.failure_detector().suspicions_raised(), 0u)
      << "the leader's PREPARE reached the failure detector";
}

TEST_F(XpaxosPrepareCheckTest, HeldSignatureOverDoctoredBatchDetectsSender) {
  // Replica 2 reuses the leader's signature on the logged PREPARE over a
  // batch the leader never signed.
  const PrepareMessage p = prepare(1);
  replica_.on_message(0, std::make_shared<PrepareMessage>(p));
  PrepareMessage doctored = p;
  doctored.requests[0].op.push_back(9);
  ASSERT_EQ(doctored.sig, p.sig);
  EXPECT_EQ(checks_for(2, commit_by(2, doctored)), 2u);
  EXPECT_TRUE(detected(2));
  EXPECT_FALSE(detected(0));
  replica_.on_message(0, commit_by(0, p));
  EXPECT_EQ(replica_.last_executed(), 0u) << "replica 2's COMMIT counted";
  EXPECT_EQ(replica_.requests_executed(), 0u);
}

TEST_F(XpaxosPrepareCheckTest, SignatureFromAnotherSlotDetectsSender) {
  // The logged batch, carried under the leader's signature on slot 2.
  const PrepareMessage p = prepare(1);
  replica_.on_message(0, std::make_shared<PrepareMessage>(p));
  PrepareMessage forged = p;
  forged.sig = prepare(2).sig;
  ASSERT_TRUE(forged.same_proposal(p));
  EXPECT_EQ(checks_for(2, commit_by(2, forged)), 2u);
  EXPECT_TRUE(detected(2));
  EXPECT_FALSE(detected(0));
  replica_.on_message(0, commit_by(0, p));
  EXPECT_EQ(replica_.last_executed(), 0u) << "replica 2's COMMIT counted";
  EXPECT_EQ(replica_.requests_executed(), 0u);
}

TEST(XpaxosRequestCheckTest, RelayedCopyOfAQueuedRequestCostsNoHmac) {
  // Leader 0 with a one-slot pipeline: request 1 is proposed, request 2
  // queued behind it. A member's relayed copy of either is dropped before
  // its signature is checked.
  ReplicaConfig config;
  config.pipeline_window = 1;
  LoneReplica lone(0, config);
  const auto first = lone.request(1);
  const auto second = lone.request(2);
  EXPECT_EQ(lone.checks_for(LoneReplica::kClient, first), 1u);
  EXPECT_FALSE(lone.sent().empty()) << "request 1 was proposed";
  EXPECT_EQ(lone.checks_for(LoneReplica::kClient, second), 1u);
  EXPECT_TRUE(lone.sent().empty()) << "request 2 is queued";
  EXPECT_EQ(lone.replica().pending_proposals(), 1u);
  EXPECT_EQ(lone.checks_for(1, first), 0u);
  EXPECT_EQ(lone.checks_for(2, second), 0u);
  EXPECT_EQ(lone.replica().pending_proposals(), 1u);

  // Replica 3 is passive in view 1 and has no reply cached: it drops the
  // request unread.
  LoneReplica passive(3);
  EXPECT_EQ(passive.checks_for(LoneReplica::kClient, first), 0u);
  EXPECT_TRUE(passive.sent().empty());
  EXPECT_EQ(passive.replica().held_requests(), 0u);
}

TEST(XpaxosRequestCheckTest, ForgedRequestIsRejectedAndNeverRelayed) {
  // A request with a new (client, seq) is acted on, so member 1 checks it:
  // the forged one is neither relayed nor kept, the genuine one is both.
  LoneReplica lone(1);
  const auto genuine = lone.request(7);
  auto forged = std::make_shared<smr::ClientRequest>(*genuine);
  forged->op.push_back(9);
  EXPECT_EQ(lone.checks_for(LoneReplica::kClient, forged), 1u);
  EXPECT_TRUE(lone.sent().empty());
  EXPECT_EQ(lone.replica().held_requests(), 0u);
  EXPECT_EQ(lone.checks_for(LoneReplica::kClient, genuine), 1u);
  ASSERT_EQ(lone.sent().size(), 1u);
  EXPECT_EQ(lone.sent()[0].first, 0u) << "relayed to the leader";
  EXPECT_EQ(lone.replica().held_requests(), 1u);
}

TEST(XpaxosRequestCheckTest, CachedReplyGoesOnlyToAnAuthenticRequest) {
  // Leader 0 executes request 1 with members 1 and 2's COMMITs. A
  // retransmission is answered from the reply table after its check; a
  // forged copy under the same (client, seq) gets nothing.
  LoneReplica lone(0);
  const auto request = lone.request(1);
  lone.replica().on_message(LoneReplica::kClient, request);
  const PrepareMessage p = PrepareMessage::make(lone.signer(0), 1, 1, *request);
  lone.replica().on_message(1, CommitMessage::make(lone.signer(1), p));
  lone.replica().on_message(2, CommitMessage::make(lone.signer(2), p));
  ASSERT_EQ(lone.replica().requests_executed(), 1u);
  EXPECT_EQ(lone.checks_for(LoneReplica::kClient, request), 1u);
  ASSERT_EQ(lone.sent().size(), 1u);
  EXPECT_NE(dynamic_cast<const smr::ReplyMessage*>(lone.sent()[0].second.get()),
            nullptr);
  auto forged = std::make_shared<smr::ClientRequest>(*request);
  forged->op.push_back(9);
  EXPECT_EQ(lone.checks_for(LoneReplica::kClient, forged), 1u);
  EXPECT_TRUE(lone.sent().empty());
}

}  // namespace
}  // namespace qsel::xpaxos
