#include "xpaxos/replica.hpp"

#include <algorithm>
#include <utility>

#include "app/kv_store.hpp"
#include "common/assert.hpp"
#include "common/logging.hpp"
#include "net/codec.hpp"

namespace qsel::xpaxos {
namespace {

/// Own snapshots kept while their certificates form; older ones go first.
constexpr std::size_t kMaxOwnSnapshots = 4;
/// CHECKPOINT slots remembered per sender.
constexpr std::size_t kMaxVotesPerSender = 4;

bool is_noop(const BatchEntry& e) { return e.client == 0 && e.op.empty(); }

}  // namespace

Replica::Replica(net::Transport& transport, const crypto::KeyRegistry& keys,
                 ReplicaConfig config, store::NodeStore* store,
                 const AppFactory& app_factory)
    : transport_(transport),
      signer_(keys, transport.self()),
      config_(std::move(config)),
      view_map_(config_.n, config_.f),
      plane_(transport, signer_,
             {config_.n, config_.f, config_.fd, suspect::GossipMode::kFullRow,
              store},
             config_.policy == QuorumPolicy::kQuorumSelection
                 ? [this](ProcessSet q) { on_selected_quorum(q); }
                 : decltype(plane_)::IssueQuorum{},
             [this](ProcessSet s) { on_suspected(s); }) {
  QSEL_REQUIRE(self() < config_.n);
  QSEL_REQUIRE(config_.pipeline_window >= 1);
  QSEL_REQUIRE(config_.max_batch >= 1 &&
               config_.max_batch <= PrepareMessage::kMaxBatch);
  app_ = app_factory ? app_factory() : std::make_unique<app::KvStore>();
  QSEL_REQUIRE(app_ != nullptr);
  stable_ = std::make_shared<StateMessage>();
  votes_.resize(config_.n);
  transport_.set_handler([this](ProcessId from, const sim::PayloadPtr& msg) {
    on_message(from, msg);
  });
  plane_.recover();
}

Replica::~Replica() {
  // The transport and its timer queue may outlive this replica (a
  // GroupHost can retire one group while the node keeps running), so
  // nothing scheduled may touch a dead `this`: the view-change timer is
  // cancelled here, the plane guards its queued SUSPECTED deliveries.
  view_change_timer_.cancel();
  state_timer_.cancel();
  transport_.set_handler(nullptr);
}

void Replica::send_to_quorum(const sim::PayloadPtr& message) {
  for (ProcessId member : active_quorum())
    if (member != self()) transport_.send(member, message);
}

void Replica::on_message(ProcessId from, const sim::PayloadPtr& message) {
  // Authentication is by signature; `from` may be a forwarder.
  if (auto request = std::dynamic_pointer_cast<const ClientRequest>(message)) {
    handle_request(request);
  } else if (auto prepare =
                 std::dynamic_pointer_cast<const PrepareMessage>(message)) {
    if (!leader_signed(*prepare)) return;
    fd().on_receive(prepare->sig.signer, message);
    handle_prepare(*prepare);
  } else if (auto commit =
                 std::dynamic_pointer_cast<const CommitMessage>(message)) {
    handle_commit(commit);
  } else if (auto viewchange =
                 std::dynamic_pointer_cast<const ViewChangeMessage>(message)) {
    handle_viewchange(viewchange);
  } else if (auto newview =
                 std::dynamic_pointer_cast<const NewViewMessage>(message)) {
    handle_newview(newview);
  } else if (auto checkpoint =
                 std::dynamic_pointer_cast<const CheckpointMessage>(message)) {
    handle_checkpoint(checkpoint);
  } else if (const auto* state_request =
                 dynamic_cast<const StateRequestMessage*>(message.get())) {
    handle_state_request(*state_request);
  } else if (auto state =
                 std::dynamic_pointer_cast<const StateMessage>(message)) {
    handle_state(state);
  } else {
    plane_.on_message(from, message);
  }
  // Catch FD timeout adaptation, which has no write-ahead hook; the dirty
  // check makes this a few integer compares in the steady state.
  plane_.maybe_persist();
}

// --------------------------------------------------------------------------
// Normal case (Fig. 2)

void Replica::handle_request(
    const std::shared_ptr<const ClientRequest>& request) {
  // The client's signature is checked only where the request is acted on:
  // answered, held, relayed or queued. A copy dropped unread costs nothing.
  const RequestKey key{request->client, request->client_seq};
  if (const std::string* result = cached_result(key)) {
    // Retransmission of an executed request: resend the cached reply.
    if (request->verify(signer_) &&
        request->client < transport_.process_count())
      transport_.send(request->client,
                      ReplyMessage::make(signer_, view_, request->client,
                                         request->client_seq, *result));
    return;
  }
  // Below the reply floor: executed long ago and its reply slid out of
  // the window; neither re-executed nor answered.
  if (executed(key)) return;
  if (status_ != Status::kNormal) {
    // Kept for the leader of the view being installed (DESIGN.md §18).
    if (request->verify(signer_)) hold(request);
    return;
  }
  if (!in_active_quorum()) return;
  if (!is_leader()) {
    // Quorum members relay the request to the leader and expect the
    // corresponding PREPARE: a correct leader proposes within two
    // communication rounds (accuracy holds), a crashed or omitting leader
    // becomes a suspicion that drives quorum selection even when no other
    // traffic is in flight. The request is kept in case that happens.
    if (client_index_.contains(key)) return;  // already proposed
    if (!request->verify(signer_)) return;
    transport_.send(leader(), request);
    hold(request);
    if (!fd().suspected().contains(leader())) {
      const ViewId view = view_;
      const auto client = request->client;
      const auto client_seq = request->client_seq;
      fd().expect(leader(),
                  [view, client, client_seq](ProcessId,
                                             const sim::PayloadPtr& m) {
                    const auto* p =
                        dynamic_cast<const PrepareMessage*>(m.get());
                    return p != nullptr && p->view == view &&
                           p->contains(client, client_seq);
                  },
                  "proposal");
    }
    return;
  }
  // A copy of a request already queued or in flight, most often one a
  // member relayed.
  if (pending_keys_.contains(key) || proposed(key)) return;
  if (!request->verify(signer_)) return;
  pending_keys_.insert(key);
  pending_requests_.push_back(request);
  pump_proposals();
}

std::size_t Replica::in_flight_instances() const {
  QSEL_ASSERT(next_slot_ >= last_executed_ + 1);
  return static_cast<std::size_t>(next_slot_ - 1 - last_executed_);
}

void Replica::pump_proposals() {
  if (pumping_) return;
  pumping_ = true;
  while (is_leader() && status_ == Status::kNormal &&
         !pending_requests_.empty() &&
         in_flight_instances() < config_.pipeline_window) {
    std::vector<BatchEntry> batch;
    batch.reserve(std::min(config_.max_batch, pending_requests_.size()));
    while (!pending_requests_.empty() && batch.size() < config_.max_batch) {
      const auto request = pending_requests_.front();
      pending_requests_.pop_front();
      const RequestKey key{request->client, request->client_seq};
      pending_keys_.erase(key);
      // Re-validate: the request may have executed or been re-proposed
      // (view-change replay) while it sat in the queue.
      if (executed(key) || proposed(key)) continue;
      batch.push_back(
          BatchEntry{request->client, request->client_seq, request->op});
    }
    if (!batch.empty()) propose_batch(std::move(batch));
  }
  pumping_ = false;
}

void Replica::propose_batch(std::vector<BatchEntry> batch) {
  QSEL_ASSERT(is_leader() && status_ == Status::kNormal);
  const SeqNum slot = next_slot_++;
  const PrepareMessage prepare =
      PrepareMessage::make_batch(signer_, view_, slot, std::move(batch));
  QSEL_LOG(kDebug, "xpaxos") << "p" << self() << " proposes slot " << slot
                             << " (" << prepare.requests.size()
                             << " requests) in view " << view_;
  send_to_quorum(std::make_shared<PrepareMessage>(prepare));
  handle_prepare(prepare);
}

void Replica::expect_commit(ProcessId from, ViewId view, SeqNum slot_no) {
  fd().expect(from,
              [view, slot_no](ProcessId, const sim::PayloadPtr& m) {
                const auto* c = dynamic_cast<const CommitMessage*>(m.get());
                return c != nullptr && c->prepare.view == view &&
                       c->prepare.slot == slot_no;
              },
              "commit");
}

void Replica::handle_prepare(const PrepareMessage& prepare) {
  if (prepare.view != view_) return;
  if (status_ != Status::kNormal) {
    // The leader installed the view before us and its normal-case traffic
    // overtook the NEWVIEW; replay once we install (links are not FIFO).
    buffered_protocol_.push_back(std::make_shared<PrepareMessage>(prepare));
    return;
  }
  if (prepare.slot <= log_floor()) {
    // A certificate covers this slot: its state is in a snapshot, so it is
    // not logged. A NEWVIEW can still re-propose it (its base is the
    // highest certificate in the VIEWCHANGE set, and this replica may have
    // learned a higher one since), and every other member waits on this
    // replica's COMMIT, so a member commits it all the same.
    for (const BatchEntry& e : prepare.requests)
      release({e.client, e.client_seq});
    if (in_active_quorum())
      send_to_quorum(CommitMessage::make(signer_, prepare));
    return;
  }

  Slot& slot = log_[prepare.slot];
  if (slot.prepare) {
    if (slot.prepare->view == prepare.view) {
      if (!slot.prepare->same_proposal(prepare)) {
        // Two conflicting leader-signed proposals for the same (view,
        // slot): equivocation, a provable commission failure.
        QSEL_LOG(kInfo, "xpaxos") << "p" << self()
                                  << " detected equivocation by leader p"
                                  << leader();
        fd().detected(leader());
        return;
      }
    } else if (slot.prepare->view < prepare.view) {
      // A re-proposal from a newer view supersedes; commits are per-view.
      slot.prepare = prepare;
      slot.commits.clear();
      slot.own_commit_sent = false;
    } else {
      return;  // stale
    }
  } else {
    slot.prepare = prepare;
  }
  for (const BatchEntry& e : prepare.requests) {
    client_index_[{e.client, e.client_seq}] = prepare.slot;
    release({e.client, e.client_seq});
  }

  if (!in_active_quorum()) return;  // passive replicas only track the log
  if (!slot.own_commit_sent) {
    slot.own_commit_sent = true;
    send_to_quorum(CommitMessage::make(signer_, *slot.prepare));
    record_commit(prepare.slot, self());
    // Section V-A: expect a COMMIT from every quorum member — except those
    // whose COMMIT already arrived (first subtlety) and self.
    for (ProcessId member : active_quorum()) {
      if (member == self() || slot.commits.contains(member)) continue;
      expect_commit(member, view_, prepare.slot);
    }
  }
  try_execute();
}

bool Replica::leader_signed(const PrepareMessage& prepare) const {
  if (prepare.view == view_) {
    const auto it = log_.find(prepare.slot);
    if (it != log_.end() && it->second.prepare &&
        it->second.prepare->sig == prepare.sig &&
        it->second.prepare->same_proposal(prepare))
      return true;  // the same signed bytes and signer, checked when logged
  }
  return prepare.verify(signer_, config_.n, view_map_.leader_of(prepare.view));
}

void Replica::handle_commit(const std::shared_ptr<const CommitMessage>& commit) {
  if (!commit->verify_sender(signer_, config_.n)) return;
  fd().on_receive(commit->sender, commit);
  if (commit->prepare.view != view_) return;
  if (status_ != Status::kNormal) {
    buffered_protocol_.push_back(commit);
    return;
  }
  if (!in_active_quorum()) return;
  if (!active_quorum().contains(commit->sender)) return;

  // Second subtlety: the embedded PREPARE must be a valid leader proposal;
  // otherwise the commit is malformed and its *sender* is detected.
  if (!leader_signed(commit->prepare)) {
    QSEL_LOG(kInfo, "xpaxos") << "p" << self()
                              << " detected malformed COMMIT from p"
                              << commit->sender;
    fd().detected(commit->sender);
    return;
  }
  if (commit->prepare.slot <= log_floor()) return;

  Slot& slot = log_[commit->prepare.slot];
  if (slot.prepare && slot.prepare->view == view_ &&
      !slot.prepare->same_proposal(commit->prepare)) {
    // Valid leader-signed PREPARE conflicting with the one we hold:
    // the leader equivocated.
    QSEL_LOG(kInfo, "xpaxos") << "p" << self()
                              << " detected equivocation via COMMIT (leader p"
                              << leader() << ")";
    fd().detected(leader());
    return;
  }

  record_commit(commit->prepare.slot, commit->sender);
  if (!slot.prepare) {
    // Third subtlety (Fig. 3): the COMMIT overtook the PREPARE. Act on the
    // embedded PREPARE right away and expect the leader's own PREPARE.
    if (leader() != self()) {
      const ViewId view = view_;
      const SeqNum slot_no = commit->prepare.slot;
      fd().expect(leader(),
                  [view, slot_no](ProcessId, const sim::PayloadPtr& m) {
                    const auto* p =
                        dynamic_cast<const PrepareMessage*>(m.get());
                    return p != nullptr && p->view == view &&
                           p->slot == slot_no;
                  },
                  "prepare");
    }
    handle_prepare(commit->prepare);
  } else {
    try_execute();
  }
}

void Replica::record_commit(SeqNum slot_no, ProcessId sender) {
  log_[slot_no].commits.insert(sender);
}

void Replica::try_execute() {
  for (;;) {
    const auto it = log_.find(last_executed_ + 1);
    if (it == log_.end()) break;
    Slot& slot = it->second;
    if (!slot.prepare || slot.executed) break;
    const ProcessSet required = view_map_.quorum_of(slot.prepare->view);
    if (!required.is_subset_of(slot.commits)) break;

    slot.executed = true;
    ++last_executed_;
    const PrepareMessage& p = *slot.prepare;
    for (const BatchEntry& e : p.requests) {
      if (is_noop(e)) {
        executed_history_.push_back(smr::ExecutedEntry{
            p.slot, e.client, e.client_seq, crypto::sha256(e.op)});
        continue;
      }
      const RequestKey key{e.client, e.client_seq};
      client_index_.erase(key);
      release(key);
      const bool replyable =
          e.client < transport_.process_count() && e.client >= config_.n;
      // Exactly-once: a view change can resurrect a request that already
      // executed in an earlier slot (see the NEWVIEW merge dedup); the
      // cached result answers it without re-applying, and one below the
      // reply floor is dropped. The reply table is identical across
      // replicas with the same executed prefix, so this stays
      // deterministic.
      if (const std::string* done = cached_result(key)) {
        if (replyable)
          transport_.send(e.client, ReplyMessage::make(signer_, view_, e.client,
                                                       e.client_seq, *done));
        continue;
      }
      if (executed(key)) continue;
      std::string result = app_->apply_encoded(e.op);
      ++requests_executed_;
      executed_history_.push_back(smr::ExecutedEntry{
          p.slot, e.client, e.client_seq, crypto::sha256(e.op)});
      if (replyable)
        transport_.send(e.client, ReplyMessage::make(signer_, view_, e.client,
                                                     e.client_seq, result));
      cache_result(key, std::move(result));
    }
    QSEL_LOG(kDebug, "xpaxos") << "p" << self() << " executed slot " << p.slot;
    if (p.slot % kCheckpointInterval == 0) take_checkpoint(p.slot);
  }
  // Executions free pipeline-window slots; the leader refills them.
  pump_proposals();
}

// --------------------------------------------------------------------------
// View changes and quorum installation (Section V-B)

void Replica::on_suspected(ProcessSet suspects) {
  // Enumeration policy: XPaxos detects failures at the granularity of the
  // quorum — any suspicion touching the active quorum moves to the next
  // quorum in the enumeration.
  if (suspects.intersects(active_quorum())) start_view_change(view_ + 1);
}

void Replica::on_selected_quorum(ProcessSet quorum) {
  if (quorum == active_quorum() && status_ == Status::kNormal) return;
  if (quorum == active_quorum() && status_ == Status::kViewChange) return;
  // "Process i suspects all quorums ordered before Q": jump to the first
  // view from view_+1 that installs exactly Q.
  start_view_change(view_map_.first_view_from(view_ + 1, quorum));
}

void Replica::start_view_change(ViewId target) {
  QSEL_REQUIRE(target > view_ ||
               (target == view_ && status_ == Status::kViewChange));
  if (target == view_) return;
  view_ = target;
  status_ = Status::kViewChange;
  ++view_changes_;
  QSEL_LOG(kInfo, "xpaxos") << "p" << self() << " view change to " << view_
                            << " quorum " << active_quorum().to_string();
  fd().cancel_all();  // Section V-B: PREPARE/COMMIT expectations are void now
  viewchanges_.clear();
  newview_expected_ = false;
  buffered_protocol_.clear();
  broadcast_viewchange();
  // Every participant expects a VIEWCHANGE from every other member of the
  // target quorum: correct members emit theirs within a communication
  // round of seeing the same suspicion gossip, so this meets the accuracy
  // requirement, while a crashed member's silence becomes the suspicion
  // that lets Quorum Selection move on. The NEWVIEW expectation is issued
  // later, only once the full VIEWCHANGE set is visible (before that a
  // correct leader-elect legitimately cannot assemble).
  for (ProcessId member : active_quorum()) {
    if (member == self()) continue;
    const ViewId view = view_;
    fd().expect(member,
                [view](ProcessId, const sim::PayloadPtr& m) {
                  const auto* vc =
                      dynamic_cast<const ViewChangeMessage*>(m.get());
                  return vc != nullptr && vc->new_view >= view;
                },
                "viewchange");
  }
  arm_view_change_timer();
}

void Replica::arm_view_change_timer() {
  view_change_timer_.cancel();
  view_change_timer_ = transport_.timers().schedule_timer(
      config_.view_change_retry, [this] {
        if (status_ != Status::kViewChange) return;
        if (config_.policy == QuorumPolicy::kEnumeration) {
          // Quorum-granularity detection: this quorum did not complete the
          // view change in time; try the next one.
          start_view_change(view_ + 1);
        } else {
          // Retransmit; Algorithm 1 will move the quorum when suspicions
          // propagate.
          broadcast_viewchange();
          arm_view_change_timer();
        }
      });
}

std::vector<PrepareMessage> Replica::prepared_log() const {
  // The log holds only slots above log_floor(), i.e. above the
  // certificate the VIEWCHANGE carries.
  std::vector<PrepareMessage> prepared;
  prepared.reserve(log_.size());
  for (const auto& [slot_no, slot] : log_)
    if (slot.prepare) prepared.push_back(*slot.prepare);
  return prepared;
}

void Replica::broadcast_viewchange() {
  const CheckpointCertificate& stable =
      transfer_target_.slot > stable_->stable.slot ? transfer_target_
                                                   : stable_->stable;
  const auto msg =
      ViewChangeMessage::make(signer_, view_, stable, prepared_log());
  transport_.broadcast(plane_.others(), msg);
  viewchanges_[self()] = msg;
  maybe_assemble_new_view();
}

void Replica::handle_viewchange(
    const std::shared_ptr<const ViewChangeMessage>& msg) {
  if (!msg->verify(signer_, config_.n)) return;
  if (!msg->stable.verify(signer_, config_.n, config_.f)) return;
  fd().on_receive(msg->sender, msg);
  if (msg->new_view < view_) return;  // stale
  if (msg->new_view > view_) {
    // Another correct process moved ahead (its timer fired or its quorum
    // selection output arrived first); join its view change.
    start_view_change(msg->new_view);
  }
  if (status_ != Status::kViewChange) return;
  if (msg->new_view != view_) return;
  if (!active_quorum().contains(msg->sender)) return;
  viewchanges_[msg->sender] = msg;
  maybe_assemble_new_view();
}

void Replica::maybe_assemble_new_view() {
  if (status_ != Status::kViewChange) return;
  for (ProcessId member : active_quorum())
    if (!viewchanges_.contains(member)) return;
  if (leader() != self()) {
    // The full VIEWCHANGE set is visible, so the leader-elect can assemble
    // now: from here on a correct leader delivers the NEWVIEW within two
    // communication rounds — the accuracy-compliant moment to expect it.
    if (!newview_expected_) {
      newview_expected_ = true;
      const ViewId view = view_;
      fd().expect(leader(),
                  [view](ProcessId, const sim::PayloadPtr& m) {
                    const auto* nv =
                        dynamic_cast<const NewViewMessage*>(m.get());
                    return nv != nullptr && nv->view >= view;
                  },
                  "newview");
    }
    return;
  }

  // Start from the highest certificate in the set (each verified on
  // receipt): every slot at or below it is in its snapshot.
  const CheckpointCertificate* base = &stable_->stable;
  for (const auto& [sender, vc] : viewchanges_)
    if (vc->stable.slot > base->slot) base = &vc->stable;

  // Merge: for every slot above it keep the prepare from the highest view
  // (ignoring anything that fails leader-signature validation — Byzantine
  // members cannot inject entries).
  std::map<SeqNum, PrepareMessage> merged;
  for (const auto& [sender, vc] : viewchanges_) {
    (void)sender;
    for (const PrepareMessage& p : vc->prepared) {
      if (p.view > view_ || p.slot <= base->slot) continue;
      if (!p.verify(signer_, config_.n, view_map_.leader_of(p.view)))
        continue;
      const auto it = merged.find(p.slot);
      if (it == merged.end() || it->second.view < p.view)
        merged.insert_or_assign(p.slot, p);
    }
  }
  const SeqNum max_slot =
      merged.empty() ? base->slot : merged.rbegin()->first;

  // A request may survive in two slots: its original proposal lost by an
  // earlier merge (stale, never committed — a fully committed slot is
  // carried by every quorum intersection) plus the re-proposal the client
  // retransmission earned in a later view. Re-proposing both would execute
  // it twice, so keep only the highest-view occurrence of each (client,
  // seq) — the only one that can have committed.
  std::map<std::pair<std::uint32_t, std::uint64_t>,
           std::pair<ViewId, SeqNum>>
      winners;
  for (const auto& [slot_no, p] : merged) {
    for (const BatchEntry& e : p.requests) {
      if (e.client == 0 && e.op.empty()) continue;  // per-slot no-op filler
      const auto key = std::make_pair(e.client, e.client_seq);
      const auto it = winners.find(key);
      if (it == winners.end() || it->second.first < p.view)
        winners.insert_or_assign(key, std::make_pair(p.view, slot_no));
    }
  }

  std::vector<PrepareMessage> reproposals;
  reproposals.reserve(static_cast<std::size_t>(max_slot - base->slot));
  for (SeqNum slot_no = base->slot + 1; slot_no <= max_slot; ++slot_no) {
    std::vector<BatchEntry> batch;
    if (const auto it = merged.find(slot_no); it != merged.end()) {
      for (const BatchEntry& e : it->second.requests) {
        if (e.client == 0 && e.op.empty()) continue;
        const auto win = winners.find({e.client, e.client_seq});
        if (win != winners.end() && win->second.second == slot_no)
          batch.push_back(e);
      }
    }
    if (batch.empty())
      batch.push_back(BatchEntry{0, slot_no, {}});  // no-op filler for gaps
    reproposals.push_back(
        PrepareMessage::make_batch(signer_, view_, slot_no, std::move(batch)));
  }
  next_slot_ = max_slot + 1;
  const auto nv =
      NewViewMessage::make(signer_, view_, *base, std::move(reproposals));
  transport_.broadcast(plane_.others(), nv);
  handle_newview(nv);
}

void Replica::handle_newview(const std::shared_ptr<const NewViewMessage>& msg) {
  if (!msg->verify(signer_, config_.n)) return;
  if (!msg->stable.verify(signer_, config_.n, config_.f)) return;
  fd().on_receive(msg->leader, msg);
  if (msg->view < view_) return;
  if (msg->leader != view_map_.leader_of(msg->view)) return;
  if (msg->view > view_) {
    // Catch up to the installed view directly.
    view_ = msg->view;
    status_ = Status::kViewChange;
    ++view_changes_;
    fd().cancel_all();
    viewchanges_.clear();
    newview_expected_ = false;
    buffered_protocol_.clear();
  }
  if (status_ == Status::kNormal) return;  // duplicate NEWVIEW

  status_ = Status::kNormal;
  view_change_timer_.cancel();
  fd().cancel_all();
  QSEL_LOG(kInfo, "xpaxos") << "p" << self() << " installed view " << view_
                            << " (" << msg->reproposals.size()
                            << " reproposals)";
  // Before the re-proposals, which start just above the certificate: a
  // replica behind it drops its log up to it and fetches the snapshot.
  learn_certificate(msg->stable);
  // This view may make active a replica that is behind a certificate it
  // learned while passive, or whose transfer a view change cut short;
  // learn_certificate asks only when the certificate is new to it.
  if (!state_timer_.active()) request_state();
  SeqNum max_slot = msg->stable.slot;
  for (const PrepareMessage& p : msg->reproposals) {
    if (p.view != view_) continue;
    if (!p.verify(signer_, config_.n, leader())) continue;
    max_slot = std::max(max_slot, p.slot);
    handle_prepare(p);
  }
  reproposed_through_ = max_slot;
  // Replay normal-case traffic that overtook this NEWVIEW, PREPAREs first.
  // A COMMIT replayed ahead of its PREPARE would expect that PREPARE from
  // the leader, but the buffered one met the failure detector on arrival,
  // before the expectation existed, so the correct leader would be
  // suspected one timeout later (DESIGN.md §18).
  auto buffered = std::move(buffered_protocol_);
  buffered_protocol_.clear();
  std::stable_partition(buffered.begin(), buffered.end(),
                        [](const sim::PayloadPtr& m) {
                          return dynamic_cast<const PrepareMessage*>(
                                     m.get()) != nullptr;
                        });
  for (const sim::PayloadPtr& message : buffered) {
    if (auto prepare =
            std::dynamic_pointer_cast<const PrepareMessage>(message)) {
      handle_prepare(*prepare);
    } else if (auto commit =
                   std::dynamic_pointer_cast<const CommitMessage>(message)) {
      handle_commit(commit);
    }
  }
  // The requests held here that no PREPARE of this view carries yet
  // (DESIGN.md §18). The leader queues them behind the ones it queued
  // before; every other member sends them to the leader once, as a client
  // retransmission would, but arms no expectation: the leader may answer
  // from its reply table instead of proposing.
  std::vector<std::shared_ptr<const ClientRequest>> held;
  for (const auto& [client, requests] : held_)
    for (const auto& [seq, request] : requests) held.push_back(request);
  if (!in_active_quorum()) {
    held_.clear();
  } else if (is_leader()) {
    next_slot_ = std::max(next_slot_, max_slot + 1);
    std::vector<std::shared_ptr<const ClientRequest>> replay(
        pending_requests_.begin(), pending_requests_.end());
    pending_requests_.clear();
    pending_keys_.clear();
    replay.insert(replay.end(), held.begin(), held.end());
    for (const auto& request : replay) handle_request(request);
  } else {
    for (const auto& request : held) transport_.send(leader(), request);
  }
  try_execute();
}

// --------------------------------------------------------------------------
// Checkpoints, the reply table and state transfer (DESIGN.md §16)

const std::string* Replica::cached_result(const RequestKey& key) const {
  const auto client = replies_.find(key.first);
  if (client == replies_.end()) return nullptr;
  const auto it = client->second.find(key.second);
  return it == client->second.end() ? nullptr : &it->second;
}

bool Replica::executed(const RequestKey& key) const {
  if (cached_result(key) != nullptr) return true;
  // Every executed seq above (highest - R) is among the R kept, so one
  // at or below that floor is the only kind that can be executed and
  // missing from the table.
  const auto client = replies_.find(key.first);
  if (client == replies_.end()) return false;
  const std::uint64_t highest = client->second.rbegin()->first;
  return highest > smr::kReplyWindow &&
         key.second <= highest - smr::kReplyWindow;
}

bool Replica::proposed(const RequestKey& key) const {
  const auto it = client_index_.find(key);
  if (it == client_index_.end()) return false;
  const auto slot = log_.find(it->second);
  return slot != log_.end() && slot->second.prepare &&
         slot->second.prepare->contains(key.first, key.second);
}

void Replica::hold(const std::shared_ptr<const ClientRequest>& request) {
  auto& requests = held_[request->client];
  requests.emplace(request->client_seq, request);
  // A client's lowest seq is the first to have executed elsewhere.
  if (requests.size() > smr::kReplyWindow) requests.erase(requests.begin());
}

void Replica::release(const RequestKey& key) {
  if (held_.empty()) return;
  const auto client = held_.find(key.first);
  if (client == held_.end()) return;
  client->second.erase(key.second);
  if (client->second.empty()) held_.erase(client);
}

std::size_t Replica::held_requests() const {
  std::size_t count = 0;
  for (const auto& [client, requests] : held_) count += requests.size();
  return count;
}

void Replica::cache_result(const RequestKey& key, std::string result) {
  auto& results = replies_[key.first];
  results.emplace(key.second, std::move(result));
  if (results.size() > smr::kReplyWindow) results.erase(results.begin());
}

std::vector<std::uint8_t> Replica::encode_snapshot(SeqNum slot) const {
  net::Encoder enc;
  enc.u64(slot);
  enc.u64(requests_executed_);
  enc.bytes(app_->snapshot());
  enc.u32(static_cast<std::uint32_t>(replies_.size()));
  for (const auto& [client, results] : replies_) {
    enc.u32(client);
    enc.u32(static_cast<std::uint32_t>(results.size()));
    for (const auto& [seq, result] : results) {
      enc.u64(seq);
      enc.str(result);
    }
  }
  return std::move(enc).take();
}

bool Replica::restore_snapshot(std::span<const std::uint8_t> bytes,
                               SeqNum slot) {
  net::Decoder dec(bytes);
  const SeqNum at = dec.u64();
  const std::uint64_t requests_executed = dec.u64();
  const std::vector<std::uint8_t> app = dec.bytes();
  const std::uint32_t clients = dec.u32();
  std::map<std::uint32_t, std::map<std::uint64_t, std::string>> replies;
  for (std::uint32_t i = 0; i < clients && dec.ok(); ++i) {
    auto& results = replies[dec.u32()];
    const std::uint32_t count = dec.u32();
    if (count == 0 || count > smr::kReplyWindow) return false;
    for (std::uint32_t j = 0; j < count && dec.ok(); ++j) {
      const std::uint64_t seq = dec.u64();
      results.emplace(seq, dec.str());
    }
  }
  if (!dec.done() || at != slot || !app_->restore(app)) return false;
  requests_executed_ = requests_executed;
  replies_ = std::move(replies);
  return true;
}

void Replica::take_checkpoint(SeqNum slot) {
  std::vector<std::uint8_t> bytes = encode_snapshot(slot);
  const crypto::Digest digest = crypto::sha256(bytes);
  own_snapshots_.insert_or_assign(slot, OwnSnapshot{digest, std::move(bytes)});
  while (own_snapshots_.size() > kMaxOwnSnapshots)
    own_snapshots_.erase(own_snapshots_.begin());
  const auto msg = CheckpointMessage::make(signer_, slot, digest);
  send_to_quorum(msg);
  // A slot first proposed in this view is executed by every correct member
  // within a round of this replica (the COMMITs it executed on went to the
  // whole quorum) and checkpointed with the same digest. A certificate
  // needs every member, so one that withholds its CHECKPOINT or sends
  // another digest would stop truncation for all: expect the matching one,
  // like a COMMIT. A re-proposed slot may have been checkpointed in an
  // earlier view, by a member whose vote went to that view's quorum.
  if (in_active_quorum() && slot > reproposed_through_) {
    for (ProcessId member : active_quorum()) {
      if (member == self()) continue;
      // Skip a member whose matching vote is in, or that is past this
      // slot (its vote here pruned).
      const auto& theirs = votes_[member];
      const auto vote = theirs.find(slot);
      const bool done = vote != theirs.end()
                            ? vote->second->digest == digest
                            : !theirs.empty() && theirs.rbegin()->first > slot;
      if (done) continue;
      fd().expect(member,
                  [slot, digest](ProcessId, const sim::PayloadPtr& m) {
                    const auto* c =
                        dynamic_cast<const CheckpointMessage*>(m.get());
                    return c != nullptr && c->slot == slot &&
                           c->digest == digest;
                  },
                  "checkpoint");
    }
  }
  count_checkpoint_vote(msg);
}

void Replica::handle_checkpoint(
    const std::shared_ptr<const CheckpointMessage>& msg) {
  if (!msg->verify(signer_, config_.n)) return;
  fd().on_receive(msg->sender, msg);
  count_checkpoint_vote(msg);
}

void Replica::count_checkpoint_vote(
    const std::shared_ptr<const CheckpointMessage>& msg) {
  if (msg->slot <= log_floor()) return;
  auto& mine = votes_[msg->sender];
  mine.emplace(msg->slot, msg);  // a sender's first vote per slot counts
  while (mine.size() > kMaxVotesPerSender) mine.erase(mine.begin());
  // Stable once n - f distinct replicas sent matching CHECKPOINTs.
  CheckpointCertificate cert{msg->slot, msg->digest, {}};
  for (const auto& votes : votes_) {
    const auto it = votes.find(msg->slot);
    if (it != votes.end() && it->second->digest == msg->digest)
      cert.proofs.push_back(it->second->sig);
  }
  if (cert.proofs.size() >= config_.n - static_cast<ProcessId>(config_.f))
    learn_certificate(cert);
}

void Replica::learn_certificate(const CheckpointCertificate& cert) {
  if (cert.slot <= log_floor()) return;
  if (cert.slot <= last_executed_) {
    // Executed through it: our own snapshot becomes the stable checkpoint
    // (without a matching one there is nothing to serve; wait for the
    // next certificate).
    const auto own = own_snapshots_.find(cert.slot);
    if (own == own_snapshots_.end() || own->second.digest != cert.digest)
      return;
    auto stable = std::make_shared<StateMessage>();
    stable->stable = cert;
    stable->snapshot = std::move(own->second.bytes);
    stable_ = std::move(stable);
    own_snapshots_.erase(own_snapshots_.begin(), std::next(own));
    truncate_through(cert.slot);
    return;
  }
  // Behind it: the slots up to it now arrive only as its snapshot.
  transfer_target_ = cert;
  truncate_through(cert.slot);
  request_state();
}

void Replica::truncate_through(SeqNum slot) {
  log_.erase(log_.begin(), log_.upper_bound(slot));
  std::erase_if(client_index_,
                [slot](const auto& entry) { return entry.second <= slot; });
  for (auto& votes : votes_)
    votes.erase(votes.begin(), votes.upper_bound(slot));
}

void Replica::request_state() {
  state_timer_.cancel();
  // Only a quorum member needs the state now: its execution is what
  // replies and checkpoints wait on. A passive replica asks when a
  // NEWVIEW makes it active.
  if (transfer_target_.slot <= last_executed_ || !in_active_quorum()) return;
  const auto msg = StateRequestMessage::make(signer_, transfer_target_.slot);
  for (const crypto::Signature& proof : transfer_target_.proofs)
    if (proof.signer != self()) transport_.send(proof.signer, msg);
  state_timer_ = transport_.timers().schedule_timer(
      config_.view_change_retry, [this] { request_state(); });
}

void Replica::handle_state_request(const StateRequestMessage& msg) {
  if (!msg.verify(signer_, config_.n)) return;
  if (stable_->stable.slot == 0 || stable_->stable.slot < msg.slot) return;
  transport_.send(msg.sender, stable_);
}

void Replica::handle_state(const std::shared_ptr<const StateMessage>& msg) {
  const CheckpointCertificate& cert = msg->stable;
  if (cert.slot <= last_executed_) return;
  if (!cert.verify(signer_, config_.n, config_.f)) return;
  // Only the certified state is installed; anything else is ignored and
  // the next reply (or retry) gets its chance.
  if (crypto::sha256(msg->snapshot) != cert.digest) return;
  if (!restore_snapshot(msg->snapshot, cert.slot)) return;
  QSEL_LOG(kInfo, "xpaxos") << "p" << self()
                            << " installed checkpoint " << cert.slot
                            << " by state transfer";
  ++state_transfers_;
  // Slots executed before the gap are dropped with it, so the history is
  // contiguous and starts just above the installed checkpoint.
  executed_history_.clear();
  // Held requests the snapshot executed are settled.
  for (auto client = held_.begin(); client != held_.end();) {
    std::erase_if(client->second, [&](const auto& entry) {
      return executed({client->first, entry.first});
    });
    client = client->second.empty() ? held_.erase(client) : std::next(client);
  }
  last_executed_ = cert.slot;
  next_slot_ = std::max(next_slot_, last_executed_ + 1);
  stable_ = msg;
  own_snapshots_.clear();
  if (transfer_target_.slot <= cert.slot) {
    transfer_target_ = CheckpointCertificate{};
    state_timer_.cancel();
  }
  truncate_through(cert.slot);
  try_execute();
}

}  // namespace qsel::xpaxos
