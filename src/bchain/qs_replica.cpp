#include "bchain/qs_replica.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace qsel::bchain {

/// Delay before the head re-drives unexecuted slots after a chain change,
/// letting the UPDATE gossip settle first.
constexpr SimDuration kRedriveDelay = 3'000'000;  // 3 ms

QsReplica::QsReplica(net::Transport& transport,
                     const crypto::KeyRegistry& keys, QsReplicaConfig config)
    : transport_(transport),
      signer_(keys, transport.self()),
      config_(config),
      plane_(transport, signer_,
             {config.n, config.f, config.fd, suspect::GossipMode::kFullRow},
             [this](ProcessSet quorum) { on_selected_quorum(quorum); }) {
  QSEL_REQUIRE(self() < config.n);
  for (ProcessId id : selector().quorum()) chain_.push_back(id);
  transport_.set_handler([this](ProcessId from, const sim::PayloadPtr& msg) {
    on_message(from, msg);
  });
}

void QsReplica::on_message(ProcessId from, const sim::PayloadPtr& message) {
  if (auto request =
          std::dynamic_pointer_cast<const smr::ClientRequest>(message)) {
    handle_request(request);
  } else if (auto chain =
                 std::dynamic_pointer_cast<const ChainMessage>(message)) {
    handle_chain(chain);
  } else if (auto ack = std::dynamic_pointer_cast<const AckMessage>(message)) {
    handle_ack(ack);
  } else {
    plane_.on_message(from, message);
  }
}

void QsReplica::handle_request(
    const std::shared_ptr<const smr::ClientRequest>& request) {
  if (!request->verify(signer_)) return;
  const auto key = std::make_pair(request->client, request->client_seq);
  if (const auto it = results_.find(key); it != results_.end()) {
    if (request->client < transport_.process_count())
      transport_.send(request->client,
                      smr::ReplyMessage::make(signer_, config_id(),
                                              request->client,
                                              request->client_seq, it->second));
    return;
  }
  if (client_index_.contains(key)) return;
  if (head() == self()) {
    const SeqNum slot = next_slot_++;
    client_index_[key] = slot;
    handle_chain(ChainMessage::make(signer_, config_id(), slot, *request));
    return;
  }
  if (!in_chain()) return;
  // Chain member: the head owes the chain a CHAIN message for this
  // request; a starving request surfaces as an expectation timeout, i.e.
  // as a *suspicion* against the head rather than an unattributed blame.
  if (fd().suspected().contains(head())) return;
  const auto client = request->client;
  const auto client_seq = request->client_seq;
  fd().expect(head(),
              [client, client_seq](ProcessId, const sim::PayloadPtr& m) {
                const auto* c = dynamic_cast<const ChainMessage*>(m.get());
                return c != nullptr && c->client == client &&
                       c->client_seq == client_seq;
              },
              "chain-proposal");
}

void QsReplica::forward_down(const std::shared_ptr<const ChainMessage>& msg) {
  const ProcessId next = successor();
  Slot& slot = log_[msg->slot];
  if (next == kNoProcess) {
    slot.acked_config = msg->config_epoch;
    const ProcessId prev = predecessor();
    if (prev != kNoProcess)
      transport_.send(prev,
                      AckMessage::make(signer_, msg->config_epoch, msg->slot));
    try_execute();
    return;
  }
  transport_.send(next, msg);
  // The ACK for this slot is *expected* from the successor; its absence is
  // a suspicion the failure detector turns into quorum-selection input.
  if (!fd().suspected().contains(next)) {
    const SeqNum slot_no = msg->slot;
    const std::uint64_t config = msg->config_epoch;
    fd().expect(next,
                [slot_no, config](ProcessId, const sim::PayloadPtr& m) {
                  const auto* a = dynamic_cast<const AckMessage*>(m.get());
                  return a != nullptr && a->slot == slot_no &&
                         a->config_epoch == config;
                },
                "ack");
  }
}

void QsReplica::handle_chain(const std::shared_ptr<const ChainMessage>& msg) {
  if (msg->config_epoch != config_id()) return;  // other configuration
  if (!msg->verify(signer_, config_.n, head())) return;
  // Expectations target the head (the signer), regardless of the relaying
  // predecessor.
  fd().on_receive(msg->sig.signer, msg);
  if (!in_chain()) return;
  Slot& slot = log_[msg->slot];
  if (!slot.chain_msg || slot.chain_msg->config_epoch != msg->config_epoch) {
    slot.chain_msg = *msg;
    client_index_[{msg->client, msg->client_seq}] = msg->slot;
    forward_down(msg);
  }
  try_execute();
}

void QsReplica::handle_ack(const std::shared_ptr<const AckMessage>& msg) {
  if (!msg->verify(signer_, config_.n)) return;
  fd().on_receive(msg->sender, msg);
  if (msg->config_epoch != config_id()) return;
  const auto it = log_.find(msg->slot);
  if (it == log_.end() || !it->second.chain_msg) return;
  if (it->second.acked_config == msg->config_epoch)
    return;  // duplicate in this configuration
  it->second.acked_config = msg->config_epoch;
  const ProcessId prev = predecessor();
  if (prev != kNoProcess)
    transport_.send(prev,
                    AckMessage::make(signer_, msg->config_epoch, msg->slot));
  try_execute();
}

void QsReplica::on_selected_quorum(ProcessSet quorum) {
  chain_.clear();
  for (ProcessId id : quorum) chain_.push_back(id);
  QSEL_LOG(kInfo, "bchain.qs") << "p" << self() << " new chain (config "
                               << quorum.to_string() << ")";
  // Expectations from the previous configuration are void (the paper's
  // CANCEL on quorum installation, Section V-B).
  fd().cancel_all();
  redrive_timer_.cancel();
  if (head() == self()) {
    redrive_timer_ = transport_.timers().schedule_timer(
        kRedriveDelay, plane_.guard([this] { redrive_as_head(); }));
  }
}

void QsReplica::redrive_as_head() {
  if (head() != self()) return;
  if (!log_.empty())
    next_slot_ = std::max(next_slot_, log_.rbegin()->first + 1);
  for (auto& [slot_no, slot] : log_) {
    if (slot.executed || !slot.chain_msg) continue;
    smr::ClientRequest request;
    request.client = slot.chain_msg->client;
    request.client_seq = slot.chain_msg->client_seq;
    request.op = slot.chain_msg->op;
    auto fresh = ChainMessage::make(signer_, config_id(), slot_no, request);
    slot.chain_msg = *fresh;
    forward_down(fresh);
  }
}

void QsReplica::try_execute() {
  for (;;) {
    const auto it = log_.find(last_executed_ + 1);
    if (it == log_.end()) return;
    Slot& slot = it->second;
    if (!slot.chain_msg || slot.executed) return;
    if (slot.acked_config != slot.chain_msg->config_epoch) return;
    slot.executed = true;
    ++last_executed_;
    const ChainMessage& m = *slot.chain_msg;
    const std::string result = store_.apply_encoded(m.op);
    ++requests_executed_;
    results_[{m.client, m.client_seq}] = result;
    if (m.client >= config_.n && m.client < transport_.process_count()) {
      transport_.send(m.client,
                      smr::ReplyMessage::make(signer_, config_id(), m.client,
                                              m.client_seq, result));
    }
  }
}

}  // namespace qsel::bchain
