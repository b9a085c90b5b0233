#include "xpaxos/messages.hpp"

#include <gtest/gtest.h>

namespace qsel::xpaxos {
namespace {

struct Fixture {
  crypto::KeyRegistry keys{5, 1};  // 4 replicas + 1 client (id 4)
  crypto::Signer leader{keys, 0};
  crypto::Signer replica1{keys, 1};
  crypto::Signer client{keys, 4};

  std::shared_ptr<const ClientRequest> request() const {
    return ClientRequest::make(client, 7, {1, 2, 3});
  }
};

TEST(XpaxosMessagesTest, ClientRequestVerify) {
  Fixture fx;
  const auto req = fx.request();
  EXPECT_TRUE(req->verify(fx.leader));
  auto tampered = std::make_shared<ClientRequest>(*req);
  tampered->op.push_back(9);
  EXPECT_FALSE(tampered->verify(fx.leader));
}

TEST(XpaxosMessagesTest, PrepareVerifyBindsLeader) {
  Fixture fx;
  const auto prepare = PrepareMessage::make(fx.leader, 1, 5, *fx.request());
  EXPECT_TRUE(prepare.verify(fx.replica1, 4, 0));
  EXPECT_FALSE(prepare.verify(fx.replica1, 4, 1));  // wrong expected leader
  PrepareMessage forged = prepare;
  forged.slot = 6;
  EXPECT_FALSE(forged.verify(fx.replica1, 4, 0));
}

TEST(XpaxosMessagesTest, SameProposalIgnoresNothing) {
  Fixture fx;
  const auto a = PrepareMessage::make(fx.leader, 1, 5, *fx.request());
  auto b = a;
  EXPECT_TRUE(a.same_proposal(b));
  b.requests[0].op.push_back(1);
  EXPECT_FALSE(a.same_proposal(b));
}

TEST(XpaxosMessagesTest, BatchedPrepareCarriesEveryRequest) {
  Fixture fx;
  std::vector<BatchEntry> batch{BatchEntry{4, 1, {1}}, BatchEntry{4, 2, {2}},
                                BatchEntry{4, 3, {3}}};
  const auto prepare = PrepareMessage::make_batch(fx.leader, 1, 5, batch);
  EXPECT_TRUE(prepare.verify(fx.replica1, 5, 0));
  EXPECT_EQ(prepare.requests.size(), 3u);
  EXPECT_TRUE(prepare.contains(4, 2));
  EXPECT_FALSE(prepare.contains(4, 9));
  // Reordering the batch is a different proposal (execution order binds).
  PrepareMessage shuffled = prepare;
  std::swap(shuffled.requests[0], shuffled.requests[1]);
  EXPECT_FALSE(prepare.same_proposal(shuffled));
  EXPECT_FALSE(shuffled.verify(fx.replica1, 5, 0));  // signature binds order
}

TEST(XpaxosMessagesTest, EmptyBatchNeverVerifies) {
  Fixture fx;
  auto prepare = PrepareMessage::make(fx.leader, 1, 5, *fx.request());
  prepare.requests.clear();
  EXPECT_FALSE(prepare.verify(fx.replica1, 5, 0));
}

TEST(XpaxosMessagesTest, CommitEmbedsPrepare) {
  Fixture fx;
  const auto prepare = PrepareMessage::make(fx.leader, 1, 5, *fx.request());
  const auto commit = CommitMessage::make(fx.replica1, prepare);
  EXPECT_EQ(commit->sender, 1u);
  EXPECT_TRUE(commit->verify_sender(fx.leader, 4));
  EXPECT_TRUE(commit->prepare.verify(fx.leader, 4, 0));
  // Byzantine sender embeds a doctored prepare: sender signature still
  // verifies (it signed what it sent) but the embedded prepare fails.
  PrepareMessage doctored = prepare;
  doctored.requests[0].op.push_back(9);
  const auto malformed = CommitMessage::make(fx.replica1, doctored);
  EXPECT_TRUE(malformed->verify_sender(fx.leader, 4));
  EXPECT_FALSE(malformed->prepare.verify(fx.leader, 4, 0));
}

TEST(XpaxosMessagesTest, ViewChangeRoundTrip) {
  Fixture fx;
  std::vector<PrepareMessage> prepared{
      PrepareMessage::make(fx.leader, 1, 1, *fx.request()),
      PrepareMessage::make(fx.leader, 1, 2, *fx.request())};
  const auto vc = ViewChangeMessage::make(fx.replica1, 3, {}, prepared);
  EXPECT_TRUE(vc->verify(fx.leader, 4));
  EXPECT_EQ(vc->prepared.size(), 2u);
  auto tampered = std::make_shared<ViewChangeMessage>(*vc);
  tampered->new_view = 4;
  EXPECT_FALSE(tampered->verify(fx.leader, 4));
}

TEST(XpaxosMessagesTest, NewViewRoundTrip) {
  Fixture fx;
  std::vector<PrepareMessage> reproposals{
      PrepareMessage::make(fx.replica1, 2, 1, *fx.request())};
  const auto nv = NewViewMessage::make(fx.replica1, 2, {}, reproposals);
  EXPECT_TRUE(nv->verify(fx.leader, 4));
  auto tampered = std::make_shared<NewViewMessage>(*nv);
  tampered->reproposals.clear();
  EXPECT_FALSE(tampered->verify(fx.leader, 4));
}

}  // namespace
}  // namespace qsel::xpaxos
