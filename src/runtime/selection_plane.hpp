// SelectionPlane — the failure detector and selector of Figure 1, composed
// once for every node (DESIGN.md §15).
//
// A node embeds one plane and keeps only its application (heartbeats,
// FOLLOWERS, XPaxos, the chain). The plane owns the detector and the
// selector (Algorithm 1 or 2); verification and dispatch of UPDATE,
// DELTA-UPDATE and ROW-DIGEST; store recovery and the write-ahead persist;
// the anti-entropy cadence; and one liveness guard on every callback it
// queues, so the node can die while its transport's timer queue runs on.
// The gossip encoding is the node type's: heartbeat nodes tick the plane
// and run delta gossip with digest anti-entropy, XPaxos and the QS chain
// never tick and keep self-repairing full-row UPDATEs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/process_set.hpp"
#include "common/types.hpp"
#include "crypto/signer.hpp"
#include "fd/failure_detector.hpp"
#include "fs/follower_selector.hpp"
#include "net/transport.hpp"
#include "qs/quorum_selector.hpp"
#include "store/node_store.hpp"
#include "suspect/suspicion_core.hpp"

namespace qsel::runtime {

template <class Selector>
class SelectionPlane {
 public:
  /// The selector's <QUORUM> output: (Q) for Algorithm 1, (leader, Q) for
  /// Algorithm 2.
  using IssueQuorum = decltype(Selector::Hooks::issue_quorum);

  struct Config {
    ProcessId n = 4;
    int f = 1;
    fd::FailureDetectorConfig fd;
    /// Fixed by node type: kDelta for nodes that tick(), else kFullRow.
    suspect::GossipMode gossip = suspect::GossipMode::kFullRow;
    /// Non-null makes the node durable (recover(), maybe_persist()). Must
    /// outlive the plane.
    store::NodeStore* store = nullptr;
  };

  /// Builds the detector and, when `issue_quorum` is set, the selector
  /// that consumes its SUSPECTED events. Without a selector SUSPECTED
  /// goes to `app_suspected` instead and suspicion gossip is ignored
  /// (XPaxos' enumeration policy reacts per quorum, not per process).
  /// The transport handler stays the node's: it offers every message it
  /// does not consume itself to on_message().
  SelectionPlane(net::Transport& transport, const crypto::Signer& signer,
                 const Config& config, IssueQuorum issue_quorum,
                 fd::FailureDetector::SuspectCallback app_suspected = {});

  /// Pending SUSPECTED deliveries and guarded callbacks become no-ops.
  ~SelectionPlane() { *alive_ = false; }

  SelectionPlane(const SelectionPlane&) = delete;
  SelectionPlane& operator=(const SelectionPlane&) = delete;

  /// Joins the store's durable state (FD timeouts, then epoch and own
  /// row — join semantics, so recovering twice is a no-op) and journals
  /// the result. Restoring may issue a quorum into the application, so the
  /// node calls this last in its constructor. No-op without a store.
  void recover();

  /// Verifies and dispatches UPDATE, and DELTA-UPDATE and ROW-DIGEST under
  /// delta gossip; returns false for the rest, which is the application's.
  bool on_message(ProcessId from, const sim::PayloadPtr& message);

  /// One heartbeat of a ticking node: the anti-entropy cadence, then a
  /// persist that catches FD timeout adaptation (it has no write-ahead
  /// hook; losing a few doublings only costs re-adaptation, never safety).
  void tick();

  /// Journals the durable state when it differs from the last journaled
  /// value. Runs as the selector's write-ahead hook (row and epoch
  /// changes) and from tick(); nodes that never tick call it after each
  /// message instead.
  void maybe_persist();

  /// Wraps `fn` so it no-ops once this plane is destroyed: the guard for
  /// callbacks queued on a timer queue that may outlive the node.
  std::function<void()> guard(std::function<void()> fn) const {
    return [alive = alive_, fn = std::move(fn)] {
      if (*alive) fn();
    };
  }

  /// Protocol width n: peers are ids 0..n-1. The transport may expose a
  /// wider id space (client slots); membership never spans those.
  ProcessId n() const { return n_; }
  /// Every peer but self.
  ProcessSet others() const {
    return ProcessSet::full(n_) - ProcessSet{signer_.self()};
  }

  fd::FailureDetector& failure_detector() { return fd_; }
  bool has_selector() const { return selector_ != nullptr; }
  Selector& selector() { return *selector_; }
  const Selector& selector() const { return *selector_; }

 private:
  std::unique_ptr<Selector> make_selector(IssueQuorum issue_quorum,
                                          suspect::GossipMode gossip, int f);
  /// Digest anti-entropy cadence: the historical fixed every-16th-tick
  /// resync for n <= 64 (small-system traces are pinned on it), an
  /// adaptive interval beyond — churn (forwards, repairs, epoch moves)
  /// since the last resync halves the interval down to 4 ticks, a quiet
  /// interval doubles it up to 64, so big idle clusters pay digest
  /// traffic rarely while healing partitions converge fast.
  void maybe_resync();

  net::Transport& transport_;
  const crypto::Signer& signer_;
  ProcessId n_;
  store::NodeStore* store_;
  fd::FailureDetector::SuspectCallback app_suspected_;
  /// Set false on destruction; every queued callback holds a copy.
  /// Declared before fd_, whose SUSPECTED callback captures it.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  fd::FailureDetector fd_;
  std::unique_ptr<Selector> selector_;

  std::uint64_t ticks_ = 0;
  /// Adaptive anti-entropy cadence (n > 64 only; see maybe_resync()):
  /// ticks between digest resyncs, clamped to [4, 64].
  std::uint64_t resync_interval_ = 16;
  std::uint64_t ticks_since_resync_ = 0;
  std::uint64_t last_churn_marker_ = 0;

  /// Dirty markers for maybe_persist: the own-row version counter, epoch
  /// and FD timeout generation together cover every field of
  /// DurableNodeState, so an unchanged triple means the O(n) snapshot
  /// build and store write can be skipped (the per-message common case).
  suspect::RowVersion persisted_row_version_ = 0;
  Epoch persisted_epoch_ = 0;
  std::uint64_t persisted_fd_generation_ = 0;
  bool has_persisted_ = false;
};

extern template class SelectionPlane<qs::QuorumSelector>;
extern template class SelectionPlane<fs::FollowerSelector>;

}  // namespace qsel::runtime
