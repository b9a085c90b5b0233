// FollowerSelector — Algorithm 2 (Section VIII), Follower Selection.
//
// A variant of Quorum Selection for leader-centric applications (a single
// leader talks to q-1 followers; followers do not talk to each other).
// The *no suspicion* property weakens to *no leader suspicion*: eventually
// no correct quorum member suspects the leader and the correct leader
// suspects no quorum member. Under |Pi| > 3f and FIFO channels this
// circumvents the Omega(f^2) lower bound of Theorem 4: at most 3f + 1
// quorums per epoch (Theorem 9) and 6f + 2 after the failure detector
// becomes accurate (Corollary 10).
//
// Mechanics: suspicions propagate exactly as in Algorithm 1; the leader is
// the node designated by a maximal line subgraph of the suspect graph
// (Definition 1); the leader picks q-1 possible followers (Definition 2)
// and broadcasts a signed FOLLOWERS message, which receivers validate
// against Definition 3 — a malformed or equivocating message is a
// detectable commission failure.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/process_set.hpp"
#include "common/types.hpp"
#include "crypto/signer.hpp"
#include "fs/followers_message.hpp"
#include "suspect/suspicion_core.hpp"
#include "trace/tracer.hpp"

namespace qsel::fs {

struct FollowerSelectorConfig {
  ProcessId n = 0;
  int f = 0;
  /// Wire format for suspicion dissemination (suspicion_core.hpp).
  suspect::GossipMode gossip = suspect::GossipMode::kFullRow;
  /// kDelta dissemination fanout cap; 0 = auto (uncapped for n <= 64,
  /// 2*ceil(log2 n) beyond — suspicion_core.hpp).
  ProcessId fanout = 0;

  int quorum_size() const { return static_cast<int>(n) - f; }
};

struct LeaderQuorumRecord {
  ProcessId leader;
  ProcessSet quorum;  // leader + followers
  Epoch epoch;
};

class FollowerSelector {
 public:
  struct Hooks {
    /// <QUORUM, leader, Q> output.
    std::function<void(ProcessId leader, ProcessSet quorum)> issue_quorum;
    /// Broadcast to every other process.
    std::function<void(sim::PayloadPtr)> broadcast;
    /// <EXPECT, P_{Fw, epoch}, leader>: expect a FOLLOWERS message for
    /// `epoch` from `leader` (Line 23).
    std::function<void(ProcessId leader, Epoch epoch)> fd_expect_followers;
    /// <CANCEL> previously issued expectations (Lines 11, 21).
    std::function<void()> fd_cancel;
    /// <DETECTED, culprit> (Lines 30, 32).
    std::function<void(ProcessId culprit)> fd_detected;
    /// Optional point-to-point send for digest anti-entropy repairs;
    /// unset falls back to broadcast.
    std::function<void(ProcessId, sim::PayloadPtr)> send = {};
  };

  FollowerSelector(const crypto::Signer& signer, FollowerSelectorConfig config,
                   Hooks hooks);

  /// <SUSPECTED, S> from the local failure detector.
  void on_suspected(ProcessSet s) { core_.on_suspected(s); }

  /// UPDATE message from the network.
  void on_update(const std::shared_ptr<const suspect::UpdateMessage>& msg) {
    core_.on_update(msg);
  }

  /// DELTA-UPDATE message from the network.
  void on_delta(const std::shared_ptr<const suspect::DeltaUpdateMessage>& msg) {
    core_.on_delta(msg);
  }

  /// ROW-DIGEST anti-entropy summary from `from` (delta gossip mode).
  void on_row_digests(ProcessId from, const suspect::RowDigestMessage& msg) {
    core_.on_row_digests(from, msg);
  }

  /// FOLLOWERS message from the network (possibly forwarded; authenticated
  /// by the embedded leader signature).
  void on_followers(const std::shared_ptr<const FollowersMessage>& msg);

  /// Anti-entropy tick: re-offers suspicion state lost to dropped
  /// messages (SuspicionCore::resync), then re-broadcasts the current
  /// announcement(). FOLLOWERS is one-shot like forward-on-change gossip,
  /// so a broadcast lost to a partition would otherwise leave the
  /// leader/quorum split forever after the heal; receivers absorb
  /// duplicates without re-evaluating.
  void resync() {
    core_.resync();
    if (auto msg = announcement(); msg != nullptr) hooks_.broadcast(msg);
  }

  /// Attaches an event tracer to this selector and its suspicion core:
  /// <QUORUM, leader, Q> outputs (peer = leader), suspicion and UPDATE
  /// traffic are journaled.
  void set_tracer(trace::Tracer* tracer) {
    tracer_ = tracer;
    core_.set_tracer(tracer);
  }

  // --- observers --------------------------------------------------------

  ProcessId leader() const { return leader_; }
  ProcessSet quorum() const { return qlast_; }
  bool stable() const { return stable_; }
  Epoch epoch() const { return core_.epoch(); }
  const suspect::SuspicionCore& core() const { return core_; }

  const std::vector<LeaderQuorumRecord>& history() const { return history_; }
  std::uint64_t quorums_issued() const { return history_.size(); }

  /// The FOLLOWERS message this process broadcast as the stable leader of
  /// the current epoch, for retransmission to processes with a stale view
  /// (a single lost broadcast — e.g. across a partition — must not wedge
  /// a receiver forever); null whenever this process is not that leader.
  std::shared_ptr<const FollowersMessage> announcement() const;

 private:
  void update_quorum();
  void issue(ProcessId leader, ProcessSet quorum);
  /// The q-1 lexicographically smallest possible followers of `line`,
  /// excluding the leader (Definition 2 + Definition 3a).
  ProcessSet select_followers(const graph::SimpleGraph& line,
                              ProcessId leader) const;
  bool well_formed(const FollowersMessage& msg,
                   const graph::SimpleGraph& line) const;

  const crypto::Signer& signer_;
  FollowerSelectorConfig config_;
  Hooks hooks_;
  suspect::SuspicionCore core_;
  ProcessId leader_ = 0;  // initial leader p_1 (index 0)
  bool stable_ = true;
  ProcessSet qlast_;
  std::shared_ptr<const FollowersMessage> last_announcement_;
  std::vector<LeaderQuorumRecord> history_;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace qsel::fs
