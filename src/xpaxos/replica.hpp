// XPaxos replica with pluggable quorum policy (Section V).
//
// Normal case follows Fig. 2: the view's leader PREPAREs client requests
// to the active quorum; members COMMIT to each other; a slot executes when
// commits from the *whole* quorum are in (XPaxos requires all q members to
// participate, which is exactly why any single active fault forces a view
// change — and why Quorum Selection pays off).
//
// Failure detection is integrated per Section V-A:
//  * on sending/receiving a PREPARE, expect a matching COMMIT from every
//    quorum member whose COMMIT has not already arrived (first subtlety);
//  * a COMMIT embeds the leader's PREPARE; if the embedded PREPARE is
//    invalid the *sender* is DETECTED, if it conflicts with the leader's
//    PREPARE for the same (view, slot) the *leader* is DETECTED
//    (equivocation — second subtlety);
//  * a COMMIT arriving before its PREPARE is acted upon immediately and an
//    expectation for the PREPARE is issued against the leader (Fig. 3 —
//    third subtlety).
//
// Quorum policy (Section V-B):
//  * kEnumeration — the original XPaxos strategy: suspicion of the active
//    quorum moves to the next of the C(n, q) quorums in a fixed
//    enumeration, cycling round-robin;
//  * kQuorumSelection — this paper: the failure detector feeds Algorithm 1
//    and <QUORUM, Q> outputs jump straight to the first view that installs
//    Q ("suspect all quorums ordered before Q"), cancelling outstanding
//    expectations.
//
// The replica runs over net::Transport, so the same code drives the
// simulator (runtime::SimTransport), real TCP, and a shard group's slice
// of a shared TCP transport (shard::GroupTransport). The application is
// pluggable (app_factory): a plain KvStore by default, a ShardMap or
// fenced ShardKv machine in the sharded service.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "app/state_machine.hpp"
#include "common/process_set.hpp"
#include "common/types.hpp"
#include "crypto/signer.hpp"
#include "fd/failure_detector.hpp"
#include "net/transport.hpp"
#include "qs/quorum_selector.hpp"
#include "runtime/selection_plane.hpp"
#include "store/node_store.hpp"
#include "xpaxos/messages.hpp"
#include "xpaxos/view_map.hpp"

namespace qsel::xpaxos {

enum class QuorumPolicy { kEnumeration, kQuorumSelection };

struct ReplicaConfig {
  ProcessId n = 4;  // replica count (transport id space may be larger: clients)
  int f = 1;
  QuorumPolicy policy = QuorumPolicy::kQuorumSelection;
  fd::FailureDetectorConfig fd;
  /// While a view change is pending, retry/advance after this long.
  SimDuration view_change_retry = 30'000'000;  // 30 ms
  /// Commit pipelining: the leader keeps at most this many consensus
  /// instances between PREPARE and execution; 1 = the serial pre-pipeline
  /// behavior (propose, wait for execution, propose the next).
  std::size_t pipeline_window = 16;
  /// Max client requests packed into one PREPARE. Batches form reactively:
  /// a PREPARE carries more than one request only when the window is full
  /// and a queue builds behind it, so an idle system keeps 1-request
  /// latency.
  std::size_t max_batch = 8;
};

class Replica final {
 public:
  using AppFactory = std::function<std::unique_ptr<app::StateMachine>()>;

  /// Installs itself as `transport`'s handler; self() = transport.self(),
  /// which must be a replica id (< config.n). Suspicions travel as
  /// full-row UPDATEs: the replica never ticks its selection plane, and a
  /// full row repairs itself on the next change (DESIGN.md §15). A
  /// non-null `store` (outliving the replica) makes the selection state
  /// durable; `app_factory` builds the application, unset = app::KvStore.
  Replica(net::Transport& transport, const crypto::KeyRegistry& keys,
          ReplicaConfig config, store::NodeStore* store = nullptr,
          const AppFactory& app_factory = {});
  /// Cancels pending timers and detaches from the transport, so a replica
  /// can be destroyed while its transport (and timer queue) live on.
  ~Replica();

  void on_message(ProcessId from, const sim::PayloadPtr& message);

  // --- observers --------------------------------------------------------

  ProcessId self() const { return signer_.self(); }
  ViewId view() const { return view_; }
  ProcessSet active_quorum() const { return view_map_.quorum_of(view_); }
  ProcessId leader() const { return view_map_.leader_of(view_); }
  bool is_leader() const { return leader() == self(); }
  bool in_active_quorum() const { return active_quorum().contains(self()); }
  enum class Status { kNormal, kViewChange };
  Status status() const { return status_; }

  const app::StateMachine& store() const { return *app_; }
  app::StateMachine& store() { return *app_; }
  SeqNum last_executed() const { return last_executed_; }
  std::uint64_t view_changes() const { return view_changes_; }
  std::uint64_t requests_executed() const { return requests_executed_; }
  /// Instances this leader has proposed but not yet executed (the pipeline
  /// occupancy); meaningful on the current leader only.
  std::size_t in_flight_instances() const;
  /// Requests queued behind a full pipeline window (leader only).
  std::size_t pending_proposals() const { return pending_requests_.size(); }
  fd::FailureDetector& failure_detector() { return plane_.failure_detector(); }
  /// Null under the enumeration policy.
  const qs::QuorumSelector* selector() const {
    return plane_.has_selector() ? &plane_.selector() : nullptr;
  }

  /// Executed history, for cross-replica consistency checks.
  const std::vector<smr::ExecutedEntry>& executed_history() const {
    return executed_history_;
  }

 private:
  struct Slot {
    std::optional<PrepareMessage> prepare;
    ProcessSet commits;  // senders of valid matching COMMITs
    bool own_commit_sent = false;
    bool executed = false;
  };

  void handle_request(const std::shared_ptr<const ClientRequest>& request);
  void propose_batch(std::vector<BatchEntry> batch);
  /// Drains pending_requests_ into PREPARE batches while the pipeline
  /// window has room. Re-entrancy-safe (a no-op while already pumping).
  void pump_proposals();
  void handle_prepare(const PrepareMessage& prepare, bool via_commit);
  void handle_commit(const std::shared_ptr<const CommitMessage>& commit);
  void handle_viewchange(const std::shared_ptr<const ViewChangeMessage>& msg);
  void handle_newview(const std::shared_ptr<const NewViewMessage>& msg);

  fd::FailureDetector& fd() { return plane_.failure_detector(); }
  /// Enumeration policy only: SUSPECTED straight from the detector.
  void on_suspected(ProcessSet suspects);
  void on_selected_quorum(ProcessSet quorum);
  void start_view_change(ViewId target);
  void broadcast_viewchange();
  void maybe_assemble_new_view();
  void arm_view_change_timer();
  void try_execute();
  void record_commit(SeqNum slot_no, ProcessId sender);
  void expect_commit(ProcessId from, ViewId view, SeqNum slot_no);

  /// Sends to every member of the view's quorum except self.
  void send_to_quorum(const sim::PayloadPtr& message);

  std::vector<PrepareMessage> prepared_log() const;

  net::Transport& transport_;
  crypto::Signer signer_;
  ReplicaConfig config_;
  ViewMap view_map_;
  /// Selector-less under the enumeration policy.
  runtime::SelectionPlane<qs::QuorumSelector> plane_;
  std::unique_ptr<app::StateMachine> app_;

  ViewId view_ = 1;
  Status status_ = Status::kNormal;
  std::uint64_t view_changes_ = 0;
  sim::TimerHandle view_change_timer_;

  std::map<SeqNum, Slot> log_;
  SeqNum next_slot_ = 1;  // leader only
  SeqNum last_executed_ = 0;
  std::uint64_t requests_executed_ = 0;
  std::vector<smr::ExecutedEntry> executed_history_;

  /// (client, client_seq) -> slot, for duplicate suppression.
  std::map<std::pair<std::uint32_t, std::uint64_t>, SeqNum> client_index_;
  /// Executed results, for replying to retransmitted requests.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::string> results_;
  /// Leader-side proposal queue: requests wait here while the pipeline
  /// window is full (and across view changes). pending_keys_ mirrors the
  /// queue so retransmissions cannot enqueue a request twice.
  std::deque<std::shared_ptr<const ClientRequest>> pending_requests_;
  std::set<std::pair<std::uint32_t, std::uint64_t>> pending_keys_;
  bool pumping_ = false;

  /// VIEWCHANGE messages collected for view_ (by everyone: the
  /// leader-elect assembles from them; members use completeness of the set
  /// as the trigger to start expecting the NEWVIEW — before that the
  /// leader-elect legitimately cannot assemble, so expecting earlier would
  /// violate the accuracy requirement).
  std::map<ProcessId, std::shared_ptr<const ViewChangeMessage>> viewchanges_;
  bool newview_expected_ = false;
  /// PREPARE/COMMIT messages for the *target* view that raced ahead of the
  /// NEWVIEW (links are not FIFO); replayed once the view installs.
  std::vector<sim::PayloadPtr> buffered_protocol_;
};

}  // namespace qsel::xpaxos
