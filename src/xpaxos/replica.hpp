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
// Checkpoints (DESIGN.md §16): after executing every kCheckpointInterval-th
// slot a replica snapshots the app plus its reply table and sends a signed
// CHECKPOINT to the active quorum; n - f matching ones make the checkpoint
// stable, and the log at or below it is dropped. VIEWCHANGE and NEWVIEW
// carry the certificate instead of that prefix, and a quorum member behind
// a certificate fetches the snapshot by STATE transfer while it goes on
// sending COMMITs. Per client only the kReplyWindow highest executed
// results are kept, so state stays flat in uptime.
//
// The replica runs over net::Transport, so the same code drives the
// simulator (runtime::SimTransport), real TCP, and a shard group's slice
// of a shared TCP transport (shard::GroupTransport). The application is
// pluggable (app_factory): a plain KvStore by default, a ShardMap or
// fenced ShardKv machine in the sharded service.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "app/state_machine.hpp"
#include "common/process_set.hpp"
#include "common/types.hpp"
#include "crypto/signer.hpp"
#include "fd/failure_detector.hpp"
#include "net/transport.hpp"
#include "qs/quorum_selector.hpp"
#include "runtime/selection_plane.hpp"
#include "smr/executed_log.hpp"
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

  /// Checkpoint interval K, in slots. A constant rather than a knob: 128
  /// keeps every view change under about 150 re-proposals at the default
  /// pipeline window.
  static constexpr SeqNum kCheckpointInterval = 128;

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

  /// Executed history, for cross-replica consistency checks. A replica
  /// that installed a checkpoint by state transfer holds only the slots
  /// executed after it, so compare histories by slot.
  const smr::ExecutedLog& executed_history() const {
    return executed_history_;
  }

  /// The stable checkpoint this replica holds (0 = genesis).
  SeqNum stable_checkpoint() const { return stable_->stable.slot; }
  /// Log slots currently retained (all above the stable checkpoint).
  std::size_t retained_log_slots() const { return log_.size(); }
  /// Checkpoints installed by state transfer.
  std::uint64_t state_transfers() const { return state_transfers_; }

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
  /// Precondition: `prepare` carries a valid signature by the leader of
  /// its view, so it is not checked again here. on_message and
  /// handle_commit establish it with leader_signed(), handle_newview by
  /// verifying each re-proposal, the buffered replay at receipt, and
  /// propose_batch by signing.
  void handle_prepare(const PrepareMessage& prepare, bool via_commit);
  /// True when `prepare` is signed by the leader of its view. A PREPARE of
  /// the current view equal, proposal and signature, to the one logged for
  /// its slot was checked when it was logged: no HMAC (DESIGN.md §17).
  bool leader_signed(const PrepareMessage& prepare) const;
  void handle_commit(const std::shared_ptr<const CommitMessage>& commit);
  void handle_viewchange(const std::shared_ptr<const ViewChangeMessage>& msg);
  void handle_newview(const std::shared_ptr<const NewViewMessage>& msg);
  void handle_checkpoint(const std::shared_ptr<const CheckpointMessage>& msg);
  void handle_state_request(const StateRequestMessage& msg);
  void handle_state(const std::shared_ptr<const StateMessage>& msg);

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

  // --- checkpoints, reply table, state transfer (DESIGN.md §16) --------
  using RequestKey = std::pair<std::uint32_t, std::uint64_t>;
  /// The cached reply for an executed request, or null.
  const std::string* cached_result(const RequestKey& key) const;
  /// Executed already: cached, or at or below the client's reply floor.
  bool executed(const RequestKey& key) const;
  void cache_result(const RequestKey& key, std::string result);
  std::vector<std::uint8_t> encode_snapshot(SeqNum slot) const;
  bool restore_snapshot(std::span<const std::uint8_t> bytes, SeqNum slot);
  void take_checkpoint(SeqNum slot);
  void count_checkpoint_vote(
      const std::shared_ptr<const CheckpointMessage>& msg);
  /// Adopts a verified stable certificate: as the held checkpoint when
  /// this replica executed through it, else as the state to fetch.
  void learn_certificate(const CheckpointCertificate& cert);
  /// Slots at or below this are covered by a certificate and not logged.
  SeqNum log_floor() const {
    return std::max(stable_->stable.slot, transfer_target_.slot);
  }
  void truncate_through(SeqNum slot);
  void request_state();

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
  smr::ExecutedLog executed_history_;

  /// (client, client_seq) -> slot of a prepared, unexecuted request, for
  /// duplicate suppression; erased when the request executes.
  std::map<RequestKey, SeqNum> client_index_;
  /// Reply table: per client, the results of its kReplyWindow highest
  /// executed seqs, for answering retransmissions. Part of the snapshot.
  std::map<std::uint32_t, std::map<std::uint64_t, std::string>> replies_;

  /// The stable checkpoint held (certificate plus snapshot), served as is
  /// to STATE-REQUESTs; genesis until the first one.
  std::shared_ptr<const StateMessage> stable_;
  /// Own snapshots above the stable checkpoint awaiting certificates.
  struct OwnSnapshot {
    crypto::Digest digest;
    std::vector<std::uint8_t> bytes;
  };
  std::map<SeqNum, OwnSnapshot> own_snapshots_;
  /// CHECKPOINT votes by sender, each sender's few highest slots only.
  std::vector<std::map<SeqNum, std::shared_ptr<const CheckpointMessage>>>
      votes_;
  /// Highest certificate above last_executed_ (slot 0 = none): the
  /// checkpoint to fetch by state transfer.
  CheckpointCertificate transfer_target_;
  sim::TimerHandle state_timer_;
  /// Highest slot the current view's NEWVIEW covered (its certificate or
  /// a re-proposal); the slots above it are first proposed in this view.
  SeqNum reproposed_through_ = 0;
  std::uint64_t state_transfers_ = 0;
  /// Leader-side proposal queue: requests wait here while the pipeline
  /// window is full (and across view changes). pending_keys_ mirrors the
  /// queue so retransmissions cannot enqueue a request twice.
  std::deque<std::shared_ptr<const ClientRequest>> pending_requests_;
  std::set<RequestKey> pending_keys_;
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
