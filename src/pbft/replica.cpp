#include "pbft/replica.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace qsel::pbft {

Replica::Replica(net::Transport& transport, const crypto::KeyRegistry& keys,
                 ReplicaConfig config)
    : transport_(transport), signer_(keys, transport.self()), config_(config) {
  QSEL_REQUIRE(self() < config.n);
  QSEL_REQUIRE(config.f >= 1);
  QSEL_REQUIRE(config.n >= 3 * static_cast<ProcessId>(config.f) + 1);
  transport_.set_handler([this](ProcessId from, const sim::PayloadPtr& msg) {
    on_message(from, msg);
  });
}

void Replica::broadcast_all(const sim::PayloadPtr& message) {
  transport_.broadcast(ProcessSet::full(config_.n) - ProcessSet{self()},
                       message);
}

void Replica::on_message(ProcessId from, const sim::PayloadPtr& message) {
  (void)from;
  if (auto request =
          std::dynamic_pointer_cast<const smr::ClientRequest>(message)) {
    handle_request(request);
  } else if (auto preprepare =
                 std::dynamic_pointer_cast<const PrePrepareMessage>(message)) {
    handle_preprepare(*preprepare);
  } else if (auto vote =
                 std::dynamic_pointer_cast<const VoteMessage>(message)) {
    handle_vote(vote);
  } else if (auto viewchange =
                 std::dynamic_pointer_cast<const ViewChangeMessage>(message)) {
    handle_viewchange(viewchange);
  } else if (auto newview =
                 std::dynamic_pointer_cast<const NewViewMessage>(message)) {
    handle_newview(newview);
  }
}

void Replica::handle_request(
    const std::shared_ptr<const smr::ClientRequest>& request) {
  if (!request->verify(signer_)) return;
  const auto key = std::make_pair(request->client, request->client_seq);
  if (const auto it = results_.find(key); it != results_.end()) {
    if (request->client < transport_.process_count())
      transport_.send(request->client,
                      smr::ReplyMessage::make(signer_, view_, request->client,
                                              request->client_seq, it->second));
    return;
  }
  if (client_index_.contains(key)) return;  // already in the pipeline
  if (is_primary() && !in_view_change_) {
    propose(*request);
    return;
  }
  // Backup: buffer and watch the primary. If the request does not execute
  // before the timer fires, the primary is suspected at quorum granularity
  // and a view change starts.
  backlog_.emplace(key, BacklogEntry{request, transport_.timers().now()});
  arm_request_timer();
}

void Replica::arm_request_timer() {
  if (request_timer_.active() || backlog_.empty()) return;
  SimTime oldest = transport_.timers().now();
  for (const auto& [key, entry] : backlog_) {
    (void)key;
    oldest = std::min(oldest, entry.since);
  }
  const SimTime deadline = oldest + config_.request_timeout;
  const SimTime now = transport_.timers().now();
  const SimDuration delay = deadline > now ? deadline - now : 1;
  request_timer_ = transport_.timers().schedule_timer(delay, [this] {
    // Drop satisfied entries first.
    for (auto it = backlog_.begin(); it != backlog_.end();) {
      if (results_.contains(it->first) || client_index_.contains(it->first)) {
        it = backlog_.erase(it);
      } else {
        ++it;
      }
    }
    if (backlog_.empty()) return;
    const SimTime now2 = transport_.timers().now();
    bool starved = false;
    for (const auto& [key, entry] : backlog_) {
      (void)key;
      if (now2 - entry.since >= config_.request_timeout) starved = true;
    }
    if (starved)
      start_view_change(view_ + 1);
    else
      arm_request_timer();
  });
}

void Replica::propose(const smr::ClientRequest& request) {
  const SeqNum slot = next_slot_++;
  const PrePrepareMessage msg =
      PrePrepareMessage::make(signer_, view_, slot, request);
  client_index_[{request.client, request.client_seq}] = slot;
  broadcast_all(std::make_shared<PrePrepareMessage>(msg));
  handle_preprepare(msg);
}

void Replica::handle_preprepare(const PrePrepareMessage& msg) {
  if (msg.view != view_ || in_view_change_) return;
  if (!msg.verify(signer_, config_.n, primary())) return;
  Slot& slot = log_[msg.slot];
  if (slot.preprepare) {
    // A conflicting primary-signed pre-prepare would be equivocation; the
    // baseline simply keeps the first (detection is the paper's
    // contribution, not PBFT's).
    if (slot.preprepare->request_digest() != msg.request_digest()) return;
  } else {
    slot.preprepare = msg;
    client_index_[{msg.client, msg.client_seq}] = msg.slot;
    backlog_.erase({msg.client, msg.client_seq});
  }
  if (!slot.prepare_sent) {
    slot.prepare_sent = true;
    // The primary's pre-prepare counts as its prepare vote.
    slot.prepares.insert(primary());
    if (!is_primary()) {
      broadcast_all(VoteMessage::make(signer_, VoteMessage::Phase::kPrepare,
                                      view_, msg.slot, msg.request_digest()));
      slot.prepares.insert(self());
    }
  }
  maybe_send_commit(msg.slot);
}

void Replica::handle_vote(const std::shared_ptr<const VoteMessage>& msg) {
  if (msg->view != view_ || in_view_change_) return;
  if (!msg->verify(signer_, config_.n)) return;
  Slot& slot = log_[msg->slot];
  if (slot.preprepare &&
      slot.preprepare->request_digest() != msg->digest)
    return;  // vote for a different proposal
  if (msg->phase == VoteMessage::Phase::kPrepare) {
    slot.prepares.insert(msg->sender);
    maybe_send_commit(msg->slot);
  } else {
    slot.commits.insert(msg->sender);
    try_execute();
  }
}

void Replica::maybe_send_commit(SeqNum slot_no) {
  Slot& slot = log_[slot_no];
  if (!slot.preprepare || slot.commit_sent) return;
  // Prepared: a quorum() of matching prepares (the count includes the
  // primary's implicit vote and our own) — 2f+1 at n = 3f+1, larger for
  // over-provisioned clusters so any two certificates intersect in f+1.
  if (static_cast<std::size_t>(slot.prepares.size()) < quorum()) return;
  slot.commit_sent = true;
  broadcast_all(VoteMessage::make(signer_, VoteMessage::Phase::kCommit, view_,
                                  slot_no,
                                  slot.preprepare->request_digest()));
  slot.commits.insert(self());
  try_execute();
}

void Replica::try_execute() {
  for (;;) {
    const auto it = log_.find(last_executed_ + 1);
    if (it == log_.end()) return;
    Slot& slot = it->second;
    if (!slot.preprepare || slot.executed) return;
    if (static_cast<std::size_t>(slot.commits.size()) < quorum()) return;

    slot.executed = true;
    ++last_executed_;
    const PrePrepareMessage& p = *slot.preprepare;
    const bool noop = p.op.empty() && p.client == 0;
    std::string result;
    if (!noop) {
      result = store_.apply_encoded(p.op);
      ++requests_executed_;
    }
    executed_history_.push_back(smr::ExecutedEntry{
        p.slot, p.client, p.client_seq, crypto::sha256(p.op)});
    results_[{p.client, p.client_seq}] = result;
    backlog_.erase({p.client, p.client_seq});
    if (!noop && p.client >= config_.n &&
        p.client < transport_.process_count()) {
      transport_.send(p.client,
                      smr::ReplyMessage::make(signer_, view_, p.client,
                                              p.client_seq, result));
    }
  }
}

// --------------------------------------------------------------------------
// View change (simplified PBFT)

std::vector<PrePrepareMessage> Replica::prepared_log() const {
  std::vector<PrePrepareMessage> prepared;
  for (const auto& [slot_no, slot] : log_) {
    (void)slot_no;
    if (slot.preprepare && slot.commit_sent)  // prepared certificate
      prepared.push_back(*slot.preprepare);
  }
  return prepared;
}

void Replica::start_view_change(ViewId target) {
  if (target <= view_) return;
  view_ = target;
  in_view_change_ = true;
  ++view_changes_;
  QSEL_LOG(kInfo, "pbft") << "p" << self() << " view change to " << view_;
  viewchanges_.clear();
  const auto msg = ViewChangeMessage::make(signer_, view_, prepared_log());
  broadcast_all(msg);
  if (is_primary()) {
    viewchanges_[self()] = msg;
    maybe_assemble_new_view();
  }
  // If this view change stalls (e.g. the new primary is also faulty), the
  // backlog timer fires again and moves on — after a fresh grace period.
  for (auto& [key, entry] : backlog_) {
    (void)key;
    entry.since = transport_.timers().now();
  }
  request_timer_.cancel();
  arm_request_timer();
}

void Replica::handle_viewchange(
    const std::shared_ptr<const ViewChangeMessage>& msg) {
  if (!msg->verify(signer_, config_.n)) return;
  if (msg->new_view <= view_ && !(msg->new_view == view_ && in_view_change_))
    return;
  if (msg->new_view > view_) {
    // Join: f+1 would be the textbook trigger; joining on the first keeps
    // the baseline simple and only speeds its convergence.
    start_view_change(msg->new_view);
  }
  if (!is_primary() || !in_view_change_) return;
  viewchanges_[msg->sender] = msg;
  maybe_assemble_new_view();
}

void Replica::maybe_assemble_new_view() {
  QSEL_ASSERT(is_primary());
  if (viewchanges_.size() < quorum()) return;
  std::map<SeqNum, PrePrepareMessage> merged;
  for (const auto& [sender, vc] : viewchanges_) {
    (void)sender;
    for (const PrePrepareMessage& p : vc->prepared) {
      if (p.view > view_) continue;
      const auto primary_of =
          static_cast<ProcessId>((p.view - 1) % config_.n);
      if (!p.verify(signer_, config_.n, primary_of)) continue;
      const auto it = merged.find(p.slot);
      if (it == merged.end() || it->second.view < p.view)
        merged.insert_or_assign(p.slot, p);
    }
  }
  const SeqNum max_slot = merged.empty() ? 0 : merged.rbegin()->first;
  std::vector<PrePrepareMessage> reproposals;
  for (SeqNum slot_no = 1; slot_no <= max_slot; ++slot_no) {
    smr::ClientRequest request;
    if (const auto it = merged.find(slot_no); it != merged.end()) {
      request.client = it->second.client;
      request.client_seq = it->second.client_seq;
      request.op = it->second.op;
    } else {
      request.client = 0;
      request.client_seq = slot_no;
    }
    reproposals.push_back(
        PrePrepareMessage::make(signer_, view_, slot_no, request));
  }
  next_slot_ = max_slot + 1;
  const auto nv = NewViewMessage::make(signer_, view_, std::move(reproposals));
  broadcast_all(nv);
  handle_newview(nv);
}

void Replica::handle_newview(const std::shared_ptr<const NewViewMessage>& msg) {
  if (!msg->verify(signer_, config_.n)) return;
  if (msg->view < view_) return;
  const auto expected =
      static_cast<ProcessId>((msg->view - 1) % config_.n);
  if (msg->primary != expected) return;
  if (msg->view > view_) {
    // Catch up to the installed view directly.
    view_ = msg->view;
    ++view_changes_;
    viewchanges_.clear();
    in_view_change_ = true;
  }
  if (!in_view_change_) return;  // duplicate NEW-VIEW for the current view
  in_view_change_ = false;
  QSEL_LOG(kInfo, "pbft") << "p" << self() << " installed view " << view_;
  SeqNum max_slot = 0;
  for (const PrePrepareMessage& p : msg->reproposals) {
    if (p.view != view_) continue;
    max_slot = std::max(max_slot, p.slot);
    handle_preprepare(p);
  }
  if (is_primary()) {
    next_slot_ = std::max(next_slot_, max_slot + 1);
    auto backlog = std::move(backlog_);
    backlog_.clear();
    for (const auto& [key, entry] : backlog) {
      (void)key;
      handle_request(entry.request);
    }
  }
  try_execute();
}

}  // namespace qsel::pbft
