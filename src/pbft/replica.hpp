// PBFT-style baseline replica.
//
// Three-phase normal case with all-to-all broadcast: the primary
// PRE-PREPAREs to every replica; every replica broadcasts a PREPARE vote;
// once a quorum() of matching PREPAREs (PRE-PREPARE included) is in, it
// broadcasts a COMMIT vote; once a quorum() of matching COMMITs is in,
// the slot executes. quorum() is 2f+1 at n = 3f+1 and grows with n (see
// its doc comment).
// Tolerates up to f non-primary crashes with no reconfiguration at all —
// the property that costs O(n^2) messages per request and motivates
// Quorum Selection (paper introduction / Distler et al. [6]).
//
// View change (simplified): a backlog timer on buffered client requests
// triggers VIEW-CHANGE for view+1; the new primary collects 2f+1
// VIEW-CHANGEs, merges prepared entries by slot (highest view wins) and
// re-proposes them in a NEW-VIEW.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "app/kv_store.hpp"
#include "common/process_set.hpp"
#include "common/types.hpp"
#include "crypto/signer.hpp"
#include "pbft/messages.hpp"
#include "net/transport.hpp"
#include "smr/client_messages.hpp"
#include "smr/executed_log.hpp"

namespace qsel::pbft {

struct ReplicaConfig {
  ProcessId n = 4;  // use n = 3f + 1
  int f = 1;
  /// How long a buffered request may wait before this replica starts a
  /// view change against the primary.
  SimDuration request_timeout = 40'000'000;  // 40 ms
};

class Replica final {
 public:
  /// Installs itself as `transport`'s handler; self() = transport.self(),
  /// which must be a replica id (< config.n).
  Replica(net::Transport& transport, const crypto::KeyRegistry& keys,
          ReplicaConfig config);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  void on_message(ProcessId from, const sim::PayloadPtr& message);

  ProcessId self() const { return signer_.self(); }
  ViewId view() const { return view_; }
  ProcessId primary() const {
    return static_cast<ProcessId>((view_ - 1) % config_.n);
  }
  bool is_primary() const { return primary() == self(); }

  /// Certificate size: the smallest count such that any two certificates
  /// intersect in at least f+1 replicas, i.e. ceil((n+f+1)/2). Equals the
  /// textbook 2f+1 when n = 3f+1; for over-provisioned clusters
  /// (n > 3f+1) the textbook constant is unsound — two disjoint 2f+1
  /// certificates fit into n, so partitioned halves could commit
  /// diverging histories.
  std::size_t quorum() const {
    return (static_cast<std::size_t>(config_.n) +
            static_cast<std::size_t>(config_.f) + 2) /
           2;
  }

  const app::KvStore& store() const { return store_; }
  SeqNum last_executed() const { return last_executed_; }
  std::uint64_t view_changes() const { return view_changes_; }
  std::uint64_t requests_executed() const { return requests_executed_; }

  /// Executed history, for cross-replica consistency checks.
  const smr::ExecutedLog& executed_history() const {
    return executed_history_;
  }

 private:
  struct Slot {
    std::optional<PrePrepareMessage> preprepare;
    ProcessSet prepares;  // senders of matching PREPARE votes
    ProcessSet commits;
    bool prepare_sent = false;
    bool commit_sent = false;
    bool executed = false;
  };

  void handle_request(const std::shared_ptr<const smr::ClientRequest>& request);
  void propose(const smr::ClientRequest& request);
  void handle_preprepare(const PrePrepareMessage& msg);
  void handle_vote(const std::shared_ptr<const VoteMessage>& msg);
  void handle_viewchange(const std::shared_ptr<const ViewChangeMessage>& msg);
  void handle_newview(const std::shared_ptr<const NewViewMessage>& msg);
  void maybe_send_commit(SeqNum slot_no);
  void try_execute();
  void start_view_change(ViewId target);
  void maybe_assemble_new_view();
  void arm_request_timer();
  void broadcast_all(const sim::PayloadPtr& message);
  std::vector<PrePrepareMessage> prepared_log() const;

  net::Transport& transport_;
  crypto::Signer signer_;
  ReplicaConfig config_;

  ViewId view_ = 1;
  bool in_view_change_ = false;
  std::uint64_t view_changes_ = 0;

  app::KvStore store_;
  std::map<SeqNum, Slot> log_;
  SeqNum next_slot_ = 1;
  SeqNum last_executed_ = 0;
  std::uint64_t requests_executed_ = 0;
  smr::ExecutedLog executed_history_;

  std::map<std::pair<std::uint32_t, std::uint64_t>, SeqNum> client_index_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::string> results_;
  /// Requests waiting for the primary (non-primary backlog drives the view
  /// change timer). Each entry remembers when it started waiting so only
  /// genuinely starved requests trigger a view change.
  struct BacklogEntry {
    std::shared_ptr<const smr::ClientRequest> request;
    SimTime since;
  };
  std::map<std::pair<std::uint32_t, std::uint64_t>, BacklogEntry> backlog_;
  sim::TimerHandle request_timer_;

  std::map<ProcessId, std::shared_ptr<const ViewChangeMessage>> viewchanges_;
};

}  // namespace qsel::pbft
