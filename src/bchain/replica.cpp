#include "bchain/replica.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace qsel::bchain {

/// How long a chain member lets a buffered client request starve before
/// blaming the head.
constexpr SimDuration kRequestTimeout = 40'000'000;  // 40 ms

Replica::Replica(net::Transport& transport, const crypto::KeyRegistry& keys,
                 ReplicaConfig config)
    : transport_(transport), signer_(keys, transport.self()), config_(config) {
  QSEL_REQUIRE(self() < config.n);
  QSEL_REQUIRE(config.f >= 1 &&
               static_cast<ProcessId>(config.f) * 2 < config.n);
  rebuild_chain();
  transport_.set_handler([this](ProcessId from, const sim::PayloadPtr& msg) {
    on_message(from, msg);
  });
}

void Replica::rebuild_chain() {
  // Deterministic function of the blamed set: first q unblamed ids in
  // ascending order; when spares are exhausted, re-admit blamed nodes
  // lowest-first (there is no better information — the BChain weakness).
  const auto q =
      static_cast<std::size_t>(static_cast<int>(config_.n) - config_.f);
  chain_.clear();
  for (ProcessId id = 0; id < config_.n && chain_.size() < q; ++id)
    if (!blamed_.contains(id)) chain_.push_back(id);
  for (ProcessId id = 0; id < config_.n && chain_.size() < q; ++id)
    if (blamed_.contains(id)) chain_.push_back(id);
  QSEL_ASSERT(chain_.size() == q);
}

bool Replica::in_chain() const {
  return std::find(chain_.begin(), chain_.end(), self()) != chain_.end();
}

void Replica::on_message(ProcessId from, const sim::PayloadPtr& message) {
  (void)from;
  if (auto request =
          std::dynamic_pointer_cast<const smr::ClientRequest>(message)) {
    handle_request(request);
  } else if (auto chain =
                 std::dynamic_pointer_cast<const ChainMessage>(message)) {
    handle_chain(chain);
  } else if (auto ack = std::dynamic_pointer_cast<const AckMessage>(message)) {
    handle_ack(ack);
  } else if (auto reconfig =
                 std::dynamic_pointer_cast<const ReconfigMessage>(message)) {
    handle_reconfig(reconfig);
  }
}

void Replica::handle_request(
    const std::shared_ptr<const smr::ClientRequest>& request) {
  if (!request->verify(signer_)) return;
  const auto key = std::make_pair(request->client, request->client_seq);
  if (const auto it = results_.find(key); it != results_.end()) {
    if (request->client < transport_.process_count())
      transport_.send(request->client,
                      smr::ReplyMessage::make(signer_, reconfigurations(),
                                              request->client,
                                              request->client_seq, it->second));
    return;
  }
  if (client_index_.contains(key)) return;
  if (head() == self()) {
    const SeqNum slot = next_slot_++;
    client_index_[key] = slot;
    handle_chain(ChainMessage::make(signer_, reconfigurations() + 1, slot,
                                    *request));
    return;
  }
  if (!in_chain()) return;
  // Chain member: watch the head. A starving request means the head is
  // not driving the chain.
  backlog_.emplace(key,
                   BacklogEntry{request, transport_.timers().now()});
  arm_request_timer();
}

void Replica::arm_request_timer() {
  if (request_timer_.active() || backlog_.empty()) return;
  // Fire when the oldest entry reaches the timeout; entries younger than
  // that must not trigger blame (the head may be handling them right now).
  SimTime oldest = transport_.timers().now();
  for (const auto& [key, entry] : backlog_) {
    (void)key;
    oldest = std::min(oldest, entry.since);
  }
  const SimTime deadline = oldest + kRequestTimeout;
  const SimTime now = transport_.timers().now();
  const SimDuration delay = deadline > now ? deadline - now : 1;
  request_timer_ = transport_.timers().schedule_timer(delay, [this] {
    for (auto it = backlog_.begin(); it != backlog_.end();) {
      if (results_.contains(it->first) || client_index_.contains(it->first))
        it = backlog_.erase(it);
      else
        ++it;
    }
    if (backlog_.empty()) return;
    if (!in_chain()) {
      // Evicted nodes see no chain traffic; their stale backlog says
      // nothing about the current head.
      backlog_.clear();
      return;
    }
    const SimTime now2 = transport_.timers().now();
    bool starved = false;
    for (const auto& [key, entry] : backlog_) {
      (void)key;
      if (now2 - entry.since >= kRequestTimeout) starved = true;
    }
    if (starved) {
      QSEL_LOG(kInfo, "bchain") << "p" << self() << " blames head p"
                                << head() << " (starving requests)";
      blame(head());
      // Fresh grace period even when the blame was a no-op (head already
      // blamed): without it the timer would re-arm with zero delay.
      for (auto& [key, entry] : backlog_) {
        (void)key;
        entry.since = transport_.timers().now();
      }
    }
    arm_request_timer();
  });
}

void Replica::blame(ProcessId culprit) {
  if (blamed_.contains(culprit)) return;
  const auto msg = ReconfigMessage::make(signer_, reconfigurations() + 1,
                                         culprit);
  transport_.broadcast(ProcessSet::full(config_.n) - ProcessSet{self()},
                       msg);
  handle_reconfig(msg);
}

void Replica::forward_down(const std::shared_ptr<const ChainMessage>& msg) {
  const ProcessId next = successor();
  Slot& slot = log_[msg->slot];
  if (next == kNoProcess) {
    // Tail: start the ACK on its way back up.
    slot.acked_epoch = msg->config_epoch;
    const ProcessId prev = predecessor();
    if (prev != kNoProcess)
      transport_.send(prev,
                      AckMessage::make(signer_, msg->config_epoch, msg->slot));
    try_execute();
    return;
  }
  transport_.send(next, msg);
  // Watch for the ACK; a missing ACK means someone below us in the chain
  // failed — blame the successor (all this node can observe).
  const SeqNum slot_no = msg->slot;
  const std::uint64_t epoch_at_send = msg->config_epoch;
  slot.ack_timer.cancel();
  slot.ack_timer = transport_.timers().schedule_timer(
      config_.ack_timeout, [this, slot_no, epoch_at_send] {
        if (epoch_at_send != reconfigurations() + 1) return;  // stale config
        const auto it = log_.find(slot_no);
        if (it == log_.end() || it->second.acked_epoch >= epoch_at_send)
          return;
        const ProcessId suspect = successor();
        if (suspect == kNoProcess) return;
        QSEL_LOG(kInfo, "bchain") << "p" << self() << " blames p" << suspect
                                  << " (no ACK for slot " << slot_no << ")";
        blame(suspect);
      });
}

void Replica::handle_chain(const std::shared_ptr<const ChainMessage>& msg) {
  if (msg->config_epoch != reconfigurations() + 1) return;  // other config
  if (!msg->verify(signer_, config_.n, head())) return;
  if (!in_chain()) return;
  Slot& slot = log_[msg->slot];
  if (!slot.chain_msg ||
      slot.chain_msg->config_epoch != msg->config_epoch) {
    slot.chain_msg = *msg;
    client_index_[{msg->client, msg->client_seq}] = msg->slot;
    backlog_.erase({msg->client, msg->client_seq});
    forward_down(msg);
  }
  try_execute();
}

void Replica::handle_ack(const std::shared_ptr<const AckMessage>& msg) {
  if (msg->config_epoch != reconfigurations() + 1) return;
  if (!msg->verify(signer_, config_.n)) return;
  const auto it = log_.find(msg->slot);
  if (it == log_.end() || !it->second.chain_msg) return;
  if (it->second.acked_epoch >= msg->config_epoch) return;  // duplicate
  it->second.acked_epoch = msg->config_epoch;
  it->second.ack_timer.cancel();
  const ProcessId prev = predecessor();
  if (prev != kNoProcess)
    transport_.send(prev,
                    AckMessage::make(signer_, msg->config_epoch, msg->slot));
  try_execute();
}

void Replica::handle_reconfig(
    const std::shared_ptr<const ReconfigMessage>& msg) {
  if (!msg->verify(signer_, config_.n)) return;
  if (msg->failed >= config_.n) return;
  if (blamed_.contains(msg->failed)) return;
  blamed_.insert(msg->failed);
  // Forward-on-change so every replica converges on the same blamed set
  // regardless of arrival order (grow-only union).
  transport_.broadcast(ProcessSet::full(config_.n) - ProcessSet{self()},
                       msg);
  QSEL_LOG(kInfo, "bchain") << "p" << self() << " reconfig #"
                            << reconfigurations() << ": evicted p"
                            << msg->failed;
  rebuild_chain();
  // Reset in-flight transport state; the (possibly new) head re-drives —
  // after the reconfiguration had time to reach everyone, otherwise the
  // re-driven CHAIN messages overtake the RECONFIG, get dropped for their
  // "future" epoch and trigger a blame cascade against correct nodes.
  for (auto& [slot_no, slot] : log_) {
    (void)slot_no;
    slot.ack_timer.cancel();  // acked_epoch is epoch-scoped already
  }
  redrive_timer_.cancel();
  if (head() == self()) {
    redrive_timer_ = transport_.timers().schedule_timer(
        2 * transport_.round_length(), [this] { redrive_as_head(); });
  }
  // The new chain gets a fresh grace period for starving requests.
  for (auto& [key, entry] : backlog_) {
    (void)key;
    entry.since = transport_.timers().now();
  }
  request_timer_.cancel();
  arm_request_timer();
}

void Replica::redrive_as_head() {
  if (head() != self()) return;  // leadership moved while waiting
  if (!log_.empty())
    next_slot_ = std::max(next_slot_, log_.rbegin()->first + 1);
  for (auto& [slot_no, slot] : log_) {
    if (slot.executed || !slot.chain_msg) continue;
    smr::ClientRequest request;
    request.client = slot.chain_msg->client;
    request.client_seq = slot.chain_msg->client_seq;
    request.op = slot.chain_msg->op;
    auto fresh = ChainMessage::make(signer_, reconfigurations() + 1, slot_no,
                                    request);
    slot.chain_msg = *fresh;
    forward_down(fresh);
  }
}

void Replica::try_execute() {
  for (;;) {
    const auto it = log_.find(last_executed_ + 1);
    if (it == log_.end()) return;
    Slot& slot = it->second;
    if (!slot.chain_msg || slot.executed) return;
    if (slot.acked_epoch < slot.chain_msg->config_epoch) return;
    slot.executed = true;
    ++last_executed_;
    const ChainMessage& m = *slot.chain_msg;
    const std::string result = store_.apply_encoded(m.op);
    ++requests_executed_;
    executed_history_.push_back(smr::ExecutedEntry{
        it->first, m.client, m.client_seq, crypto::sha256(m.op)});
    results_[{m.client, m.client_seq}] = result;
    backlog_.erase({m.client, m.client_seq});
    if (m.client >= config_.n && m.client < transport_.process_count()) {
      transport_.send(m.client,
                      smr::ReplyMessage::make(signer_, reconfigurations(),
                                              m.client, m.client_seq, result));
    }
  }
}

}  // namespace qsel::bchain
