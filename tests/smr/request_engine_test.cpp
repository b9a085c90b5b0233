// smr::RequestEngine driven directly: a client transport on the simulated
// network, replica slots that only record what they receive, and replies
// hand-signed from the KeyRegistry. Each test settles (or refuses to
// settle) requests by choosing which replies arrive.
#include "smr/client.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "crypto/signer.hpp"
#include "runtime/sim_transport.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "smr/client_messages.hpp"
#include "smr/typed_result.hpp"

namespace qsel::smr {
namespace {

constexpr SimDuration kMs = 1'000'000;

/// Replicas 0..replicas-1, the engine's client at id `replicas`, and one
/// more (unattached) client id after it.
class EngineHarness {
 public:
  explicit EngineHarness(RequestEngineConfig config)
      : replicas_(config.replicas),
        keys_(total(), /*seed=*/7),
        network_(sim_, total(), sim::NetworkConfig{}, /*seed=*/7) {
    for (ProcessId id = 0; id < replicas_; ++id) {
      transports_.push_back(
          std::make_unique<runtime::SimTransport>(network_, id));
      transports_.back()->set_handler(
          [this](ProcessId, const sim::PayloadPtr& message) {
            requests_.push_back(
                std::dynamic_pointer_cast<const ClientRequest>(message));
          });
    }
    transports_.push_back(
        std::make_unique<runtime::SimTransport>(network_, client()));
    engine_ = std::make_unique<RequestEngine>(*transports_.back(), keys_,
                                              config);
  }

  ProcessId client() const { return replicas_; }
  RequestEngine& engine() { return *engine_; }
  const crypto::KeyRegistry& keys() const { return keys_; }
  /// Every request copy the replicas received, in arrival order.
  const std::vector<std::shared_ptr<const ClientRequest>>& requests() const {
    return requests_;
  }

  /// Submits `op` and records its outcome (and how often `done` fired).
  void submit(const std::string& op) {
    engine_->submit(std::vector<std::uint8_t>(op.begin(), op.end()),
                    [this](const Outcome& outcome) {
                      outcomes_.push_back(outcome);
                    });
  }
  const std::vector<Outcome>& outcomes() const { return outcomes_; }

  /// Replica `replica` signs a reply naming client `to` and sends it to
  /// the engine; the simulator runs until it has arrived.
  void reply(ProcessId replica, std::uint64_t seq, std::string result,
             ProcessId to) {
    send(replica, ReplyMessage::make(crypto::Signer(keys_, replica),
                                     /*view=*/0, to, seq, std::move(result)));
  }
  void reply(ProcessId replica, std::uint64_t seq, std::string result) {
    reply(replica, seq, std::move(result), client());
  }
  void send(ProcessId replica, sim::PayloadPtr message) {
    transports_[replica]->send(client(), std::move(message));
    run_for(5 * kMs);
  }

  void run_for(SimDuration duration) { sim_.run_for(duration); }

 private:
  ProcessId total() const { return static_cast<ProcessId>(replicas_ + 2); }

  ProcessId replicas_;
  sim::Simulator sim_;
  crypto::KeyRegistry keys_;
  sim::Network network_;
  std::vector<std::unique_ptr<runtime::SimTransport>> transports_;
  std::unique_ptr<RequestEngine> engine_;
  std::vector<std::shared_ptr<const ClientRequest>> requests_;
  std::vector<Outcome> outcomes_;
};

RequestEngineConfig config(ProcessId replicas, int f) {
  RequestEngineConfig c;
  c.replicas = replicas;
  c.f = f;
  c.retry_timeout = 1'000 * kMs;  // out of the way unless a test wants it
  return c;
}

TEST(RequestEngineTest, RequestsInFlightSettleOutOfOrderOnce) {
  EngineHarness h(config(4, 1));
  h.submit("a");
  h.submit("b");
  h.submit("c");
  EXPECT_EQ(h.engine().outstanding(), 3u);

  h.reply(0, 3, "C");
  h.reply(1, 3, "C");
  EXPECT_EQ(h.engine().outstanding(), 2u);
  h.reply(2, 1, "A");
  h.reply(3, 1, "A");
  EXPECT_EQ(h.engine().outstanding(), 1u);
  h.reply(0, 2, "B");
  h.reply(1, 2, "B");
  EXPECT_EQ(h.engine().outstanding(), 0u);

  // Late replies for settled requests fire nothing.
  h.reply(2, 3, "C");
  h.reply(2, 2, "B");
  ASSERT_EQ(h.outcomes().size(), 3u);
  EXPECT_EQ(h.outcomes()[0].client_seq, 3u);
  EXPECT_EQ(h.outcomes()[0].value, "C");
  EXPECT_EQ(h.outcomes()[1].client_seq, 1u);
  EXPECT_EQ(h.outcomes()[1].value, "A");
  EXPECT_EQ(h.outcomes()[2].client_seq, 2u);
  EXPECT_EQ(h.outcomes()[2].value, "B");
  for (const Outcome& outcome : h.outcomes()) {
    EXPECT_EQ(outcome.status, ResultStatus::kOk);
    EXPECT_GT(outcome.latency, 0);
  }
}

TEST(RequestEngineTest, SettlesOnFPlusOneMatchingRepliesOnly) {
  EngineHarness h(config(7, 2));
  h.submit("op");
  h.reply(0, 1, "x");
  h.reply(1, 1, "x");
  h.reply(2, 1, "y");
  h.reply(3, 1, "y");
  h.reply(0, 1, "x");  // a repeat voter does not count twice
  EXPECT_TRUE(h.outcomes().empty()) << "f matching replies settled";
  EXPECT_EQ(h.engine().outstanding(), 1u);

  h.reply(4, 1, "y");  // the (f+1)-th "y"
  ASSERT_EQ(h.outcomes().size(), 1u);
  EXPECT_EQ(h.outcomes()[0].value, "y");
  EXPECT_EQ(h.engine().outstanding(), 0u);
}

TEST(RequestEngineTest, IgnoresOutsidersForgeriesAndOtherClients) {
  RequestEngineConfig c = config(4, 1);
  c.replica_set = ProcessSet{0, 1, 2};
  EngineHarness h(c);
  h.submit("op");
  h.run_for(5 * kMs);
  ASSERT_EQ(h.requests().size(), 3u) << "replica_set not addressed exactly";

  h.reply(0, 1, "r");
  h.reply(3, 1, "r");  // validly signed, but not an addressed replica
  // Signed by replica 1, then the result changed: the signature breaks.
  auto forged = std::make_shared<ReplyMessage>(*ReplyMessage::make(
      crypto::Signer(h.keys(), 1), 0, h.client(), 1, "other"));
  forged->result = "r";
  h.send(1, forged);
  // Claims replica 2 but is signed by replica 1.
  auto impostor = std::make_shared<ReplyMessage>(*ReplyMessage::make(
      crypto::Signer(h.keys(), 1), 0, h.client(), 1, "r"));
  impostor->replica = 2;
  h.send(1, impostor);
  // A correctly signed reply naming the other client.
  h.reply(1, 1, "r", h.client() + 1);
  EXPECT_TRUE(h.outcomes().empty());

  h.reply(2, 1, "r");
  ASSERT_EQ(h.outcomes().size(), 1u);
  EXPECT_EQ(h.outcomes()[0].value, "r");
}

TEST(RequestEngineTest, RetryRebroadcastsTheSameSignedRequest) {
  RequestEngineConfig c = config(4, 1);
  c.retry_timeout = 10 * kMs;
  EngineHarness h(c);
  h.submit("op");
  h.run_for(5 * kMs);
  ASSERT_EQ(h.requests().size(), 4u);
  EXPECT_EQ(h.engine().retransmissions(), 0u);

  h.run_for(10 * kMs);  // t = 15 ms: one retry at 10 ms
  EXPECT_EQ(h.engine().retransmissions(), 1u);
  ASSERT_EQ(h.requests().size(), 8u);
  for (const auto& request : h.requests()) {
    ASSERT_NE(request, nullptr);
    EXPECT_EQ(request.get(), h.requests()[0].get());
    EXPECT_TRUE(request->verify(crypto::Signer(h.keys(), 0)));
  }
  EXPECT_EQ(h.requests()[0]->client, h.client());
  EXPECT_EQ(h.requests()[0]->client_seq, 1u);

  h.reply(0, 1, "r");
  h.reply(1, 1, "r");
  ASSERT_EQ(h.outcomes().size(), 1u);
  const std::uint64_t retries = h.engine().retransmissions();
  h.run_for(100 * kMs);  // settled: the timer is gone
  EXPECT_EQ(h.engine().retransmissions(), retries);
}

TEST(RequestEngineTest, TypedResultsReportStatusEpochAndValue) {
  EngineHarness h(config(4, 1));
  h.submit("get");
  h.submit("put");
  h.reply(0, 1, TypedResult::ok(5, "value"));
  h.reply(1, 1, TypedResult::ok(5, "value"));
  h.reply(2, 2, TypedResult::stale_epoch(9));
  h.reply(3, 2, TypedResult::stale_epoch(9));
  ASSERT_EQ(h.outcomes().size(), 2u);
  EXPECT_EQ(h.outcomes()[0].status, ResultStatus::kOk);
  EXPECT_EQ(h.outcomes()[0].config_epoch, 5u);
  EXPECT_EQ(h.outcomes()[0].value, "value");
  EXPECT_EQ(h.outcomes()[1].status, ResultStatus::kStaleEpoch);
  EXPECT_EQ(h.outcomes()[1].config_epoch, 9u);
  EXPECT_EQ(h.outcomes()[1].value, "");
}

TEST(RequestEngineTest, HoldsSeqsAReplyWindowAboveTheOldestUnsettled) {
  // Replicas take a seq at or below (highest executed - kReplyWindow) as
  // executed, so while seq 1 is unsettled no seq from 1 + kReplyWindow on
  // may reach them: seq 1 would be stranded, never executed or answered.
  EngineHarness h(config(4, 1));
  const auto highest_sent = [&] {
    std::uint64_t highest = 0;
    for (const auto& request : h.requests())
      highest = std::max(highest, request->client_seq);
    return highest;
  };
  constexpr std::uint64_t kLast = kReplyWindow + 10;
  std::uint64_t submitted = 0;
  for (; submitted < 16; ++submitted) h.submit("op");
  for (std::uint64_t seq = 2; seq <= kReplyWindow; ++seq) {
    h.reply(0, seq, "r");
    h.reply(1, seq, "r");
    if (submitted < kLast) {
      h.submit("op");
      ++submitted;
    }
  }
  EXPECT_EQ(highest_sent(), kReplyWindow);
  EXPECT_EQ(h.engine().outstanding(), 1 + kLast - kReplyWindow);

  h.reply(2, 1, "r");
  h.reply(3, 1, "r");
  EXPECT_EQ(highest_sent(), kLast) << "the held seqs go out";
  EXPECT_EQ(h.engine().outstanding(), kLast - kReplyWindow);
}

TEST(RequestEngineTest, DoneMaySubmitAgain) {
  EngineHarness h(config(4, 1));
  std::vector<std::uint64_t> settled;
  RequestEngine& engine = h.engine();
  std::function<void(const Outcome&)> resubmit;
  resubmit = [&](const Outcome& outcome) {
    settled.push_back(outcome.client_seq);
    EXPECT_EQ(engine.outstanding(), 0u);  // removed before the callback
    if (settled.size() < 3) engine.submit({0x01}, resubmit);
  };
  engine.submit({0x01}, resubmit);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    h.reply(0, seq, "r");
    h.reply(1, seq, "r");
  }
  EXPECT_EQ(settled, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(engine.outstanding(), 0u);
  EXPECT_EQ(h.requests().size(), 12u);
}

}  // namespace
}  // namespace qsel::smr
