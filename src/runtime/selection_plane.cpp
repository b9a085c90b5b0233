#include "runtime/selection_plane.hpp"

#include <algorithm>
#include <span>
#include <type_traits>
#include <utility>

#include "suspect/delta_update_message.hpp"
#include "suspect/update_message.hpp"

namespace qsel::runtime {

template <class Selector>
std::unique_ptr<Selector> SelectionPlane<Selector>::make_selector(
    IssueQuorum issue_quorum, suspect::GossipMode gossip, int f) {
  auto broadcast = [this](sim::PayloadPtr msg) {
    transport_.broadcast(others(), msg);
  };
  auto send = [this](ProcessId to, sim::PayloadPtr msg) {
    transport_.send(to, std::move(msg));
  };
  if constexpr (std::is_same_v<Selector, qs::QuorumSelector>) {
    return std::make_unique<qs::QuorumSelector>(
        signer_, qs::QuorumSelectorConfig{n_, f, gossip},
        qs::QuorumSelector::Hooks{std::move(issue_quorum), broadcast,
                                  [this] { maybe_persist(); }, send});
  } else {
    // Algorithm 2 drives the detector itself: it expects the leader's
    // FOLLOWERS, cancels on leader changes, detects malformed
    // announcements.
    return std::make_unique<fs::FollowerSelector>(
        signer_, fs::FollowerSelectorConfig{n_, f, gossip},
        fs::FollowerSelector::Hooks{
            std::move(issue_quorum), broadcast,
            [this](ProcessId leader, Epoch epoch) {
              fd_.expect(
                  leader,
                  [epoch](ProcessId, const sim::PayloadPtr& m) {
                    auto* followers =
                        dynamic_cast<const fs::FollowersMessage*>(m.get());
                    return followers != nullptr && followers->epoch == epoch;
                  },
                  "followers", /*backoff_on_cancel=*/true);
            },
            [this] { fd_.cancel_all(); },
            [this](ProcessId culprit) { fd_.detected(culprit); }, send});
  }
}

template <class Selector>
SelectionPlane<Selector>::SelectionPlane(
    net::Transport& transport, const crypto::Signer& signer,
    const Config& config, IssueQuorum issue_quorum,
    fd::FailureDetector::SuspectCallback app_suspected)
    : transport_(transport),
      signer_(signer),
      n_(config.n),
      store_(config.store),
      app_suspected_(std::move(app_suspected)),
      // SUSPECTED arrives through the event queue, possibly after the node
      // was destroyed — hence the alive guard.
      fd_(transport.timers(), transport.self(), config.n, config.fd,
          [this, alive = alive_](ProcessSet suspects) {
            if (!*alive) return;
            if (selector_ != nullptr)
              selector_->on_suspected(suspects);
            else if (app_suspected_)
              app_suspected_(suspects);
          }) {
  if (issue_quorum)
    selector_ = make_selector(std::move(issue_quorum), config.gossip, config.f);
}

template <class Selector>
void SelectionPlane<Selector>::recover() {
  if (store_ == nullptr) return;
  if (const auto recovered = store_->recover()) {
    // Timeouts first: restore() re-evaluates the quorum, and any epoch
    // advance it triggers should persist a state that already includes
    // the recovered timeouts.
    fd_.restore_timeouts(recovered->fd_timeouts);
    // Only Algorithm 1 has durable selector state.
    if constexpr (requires(Selector& s, std::span<const Epoch> row) {
                    s.restore(Epoch{1}, row);
                  }) {
      if (selector_ != nullptr)
        selector_->restore(recovered->epoch, recovered->own_row);
    }
  }
  maybe_persist();  // first boot journals the initial state
}

template <class Selector>
bool SelectionPlane<Selector>::on_message(ProcessId from,
                                          const sim::PayloadPtr& message) {
  // Authenticate, feed the failure detector (RECEIVE), then merge.
  if (auto update =
          std::dynamic_pointer_cast<const suspect::UpdateMessage>(message)) {
    if (selector_ != nullptr && update->verify(signer_, n_)) {
      fd_.on_receive(from, message);
      selector_->on_update(update);
    }
    return true;
  }
  // DELTA-UPDATE and ROW-DIGEST belong to the delta encoding. A full-row
  // node drops them, so no peer can make it send digest repairs.
  if (selector_ == nullptr ||
      selector_->core().gossip_mode() != suspect::GossipMode::kDelta)
    return false;
  if (auto delta = std::dynamic_pointer_cast<const suspect::DeltaUpdateMessage>(
          message)) {
    if (delta->verify(signer_, n_)) {
      fd_.on_receive(from, message);
      selector_->on_delta(delta);
    }
    return true;
  }
  if (auto digests =
          std::dynamic_pointer_cast<const suspect::RowDigestMessage>(message)) {
    // Unsigned anti-entropy advice: never fed to the failure detector,
    // and a lying digest costs at most bounded repair traffic
    // (suspicion_core.hpp). The core re-checks well-formedness.
    selector_->on_row_digests(from, *digests);
    return true;
  }
  return false;
}

template <class Selector>
void SelectionPlane<Selector>::tick() {
  ++ticks_;
  // Anti-entropy: forward-on-change gossip is reliable only over reliable
  // links, so an UPDATE lost to a partition (or a TCP reconnect window) is
  // never re-sent and matrices would stay split after the heal.
  // Re-offering the known signed rows makes dissemination self-healing;
  // receivers absorb duplicates without re-forwarding.
  if (selector_ != nullptr) maybe_resync();
  maybe_persist();
}

template <class Selector>
void SelectionPlane<Selector>::maybe_resync() {
  if (n_ <= 64) {
    // The historical fixed cadence, bit-for-bit.
    if (ticks_ % 16 == 0) selector_->resync();
    return;
  }
  if (++ticks_since_resync_ < resync_interval_) return;
  ticks_since_resync_ = 0;
  const suspect::SuspicionCore& core = selector_->core();
  const std::uint64_t churn =
      core.updates_forwarded() + core.repairs_sent() + core.epoch_advances();
  resync_interval_ = churn != last_churn_marker_
                         ? std::max<std::uint64_t>(4, resync_interval_ / 2)
                         : std::min<std::uint64_t>(64, resync_interval_ * 2);
  last_churn_marker_ = churn;
  selector_->resync();
}

template <class Selector>
void SelectionPlane<Selector>::maybe_persist() {
  if (store_ == nullptr) return;
  // Dirty check before any O(n) work: the own-row version counter moves
  // exactly when a cell of the own row increases, the FD generation
  // exactly when a timeout adapts. A selector-less plane only journals
  // FD timeouts.
  const suspect::SuspicionCore* core =
      selector_ != nullptr ? &selector_->core() : nullptr;
  const suspect::RowVersion row_version =
      core != nullptr ? core->matrix().row_version(signer_.self()) : 0;
  const Epoch epoch = core != nullptr ? core->epoch() : 0;
  const std::uint64_t fd_generation = fd_.timeout_generation();
  if (has_persisted_ && row_version == persisted_row_version_ &&
      epoch == persisted_epoch_ && fd_generation == persisted_fd_generation_)
    return;
  store::DurableNodeState state;
  state.epoch = epoch;
  if (core != nullptr) {
    const auto row = core->matrix().row(signer_.self());
    state.own_row.assign(row.begin(), row.end());
  }
  state.fd_timeouts = fd_.timeouts();
  store_->persist(state);
  persisted_row_version_ = row_version;
  persisted_epoch_ = epoch;
  persisted_fd_generation_ = fd_generation;
  has_persisted_ = true;
}

template class SelectionPlane<qs::QuorumSelector>;
template class SelectionPlane<fs::FollowerSelector>;

}  // namespace qsel::runtime
