#include "smr/client.hpp"

#include <utility>

#include "common/assert.hpp"

namespace qsel::smr {

RequestEngine::RequestEngine(net::Transport& transport,
                             const crypto::KeyRegistry& keys,
                             RequestEngineConfig config)
    : transport_(transport),
      signer_(keys, transport.self()),
      config_(std::move(config)) {
  if (config_.replica_set.empty())
    config_.replica_set = ProcessSet::full(config_.replicas);
  QSEL_REQUIRE(!config_.replica_set.contains(self()));
  QSEL_REQUIRE(static_cast<int>(config_.replica_set.size()) > config_.f);
  transport_.set_handler([this](ProcessId from, const sim::PayloadPtr& m) {
    on_message(from, m);
  });
}

void RequestEngine::submit(std::vector<std::uint8_t> op, Callback done) {
  // Replicas keep replies for a client's kReplyWindow highest seqs only.
  QSEL_REQUIRE(pending_.size() < kReplyWindow);
  const std::uint64_t seq = next_seq_++;
  Pending& pending = pending_[seq];
  pending.request = ClientRequest::make(signer_, seq, std::move(op));
  pending.done = std::move(done);
  pending.issued_at = transport_.timers().now();
  send_ready();
}

void RequestEngine::send_ready() {
  // A replica takes a seq at or below (its highest executed one -
  // kReplyWindow) as executed. So a seq goes out only while it is less
  // than kReplyWindow above the oldest unsettled one; a later one waits
  // here until that one settles, or it could strand it.
  if (pending_.empty()) return;
  const std::uint64_t limit = pending_.begin()->first + kReplyWindow;
  for (auto it = pending_.lower_bound(next_unsent_);
       it != pending_.end() && it->first < limit; ++it) {
    transport_.broadcast(config_.replica_set, it->second.request);
    arm_retry(it->first);
    next_unsent_ = it->first + 1;
  }
}

void RequestEngine::arm_retry(std::uint64_t client_seq) {
  Pending& pending = pending_.at(client_seq);
  pending.retry = transport_.timers().schedule_timer(
      config_.retry_timeout, [this, client_seq] {
        const auto it = pending_.find(client_seq);
        if (it == pending_.end()) return;
        ++retransmissions_;
        transport_.broadcast(config_.replica_set, it->second.request);
        arm_retry(client_seq);
      });
}

void RequestEngine::on_message(ProcessId from, const sim::PayloadPtr& message) {
  (void)from;
  const auto reply = std::dynamic_pointer_cast<const ReplyMessage>(message);
  if (reply == nullptr) return;
  if (reply->client != self()) return;
  const auto it = pending_.find(reply->client_seq);
  if (it == pending_.end()) return;  // already settled (or never ours)
  if (!reply->verify(signer_, config_.replicas)) return;
  if (!config_.replica_set.contains(reply->replica)) return;
  Pending& pending = it->second;
  ProcessSet& voters = pending.replies[reply->result];
  voters.insert(reply->replica);
  if (voters.size() <= config_.f) return;  // need f+1 matching

  Outcome outcome;
  outcome.client_seq = reply->client_seq;
  outcome.latency = transport_.timers().now() - pending.issued_at;
  if (const auto typed = TypedResult::parse(reply->result)) {
    outcome.status = typed->status;
    outcome.config_epoch = typed->epoch;
    outcome.value = typed->value;
  } else {
    outcome.value = reply->result;
  }
  pending.retry.cancel();
  Callback done = std::move(pending.done);
  pending_.erase(it);  // before the callback: it may submit re-entrantly
  send_ready();
  if (done) done(outcome);
}

// --------------------------------------------------------------------------

Client::Client(net::Transport& transport, const crypto::KeyRegistry& keys,
               ClientConfig config)
    : engine_(transport, keys, config), workload_(config.workload) {}

void Client::start(std::uint64_t count) {
  target_ = count;
  issue_next();
}

std::uint64_t Client::rejects(ResultStatus status) const {
  const auto it = rejects_.find(status);
  return it == rejects_.end() ? 0 : it->second;
}

void Client::issue_next() {
  if (target_ != 0 && completed_ >= target_) return;
  const app::Operation op = workload_.next();
  engine_.submit(op.encode(), [this](const Outcome& outcome) {
    if (outcome.status == ResultStatus::kOk) {
      ++completed_;
      latencies_.record(static_cast<std::uint64_t>(outcome.latency));
    } else {
      // Typed reject: counted; the plain workload client has no shard
      // map to refetch, so it just moves on (the routing client is the
      // component that re-routes).
      ++rejects_[outcome.status];
    }
    issue_next();
  });
}

}  // namespace qsel::smr
