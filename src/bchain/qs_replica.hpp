// Chain replication driven by Quorum Selection — the paper's future-work
// case ("integrate Quorum Selection in ... other special cases, e.g. when
// processes are communicating along a chain", Section X).
//
// Same data path as the BChain baseline (CHAIN down, ACK up, ~2(q-1)
// messages per request), but reconfiguration runs the paper's full stack:
// a missing ACK or a starving request becomes an *expectation timeout* in
// the failure detector, the suspicion gossips through Algorithm 1's
// eventually-consistent matrix, and the chain is the selected quorum in
// ascending id order. Configurations are identified by the quorum mask,
// so every replica derives the same chain identity without extra
// agreement; no blamed-set churn, no assumed-correct spares — suspicions
// against the real culprit accumulate in the matrix and keep it out.
//
// Limitation shared with the BChain baseline: there is no state transfer,
// so a previously-passive process promoted into the chain relays traffic
// but only executes slots from its join point onward (the executing
// majority still answers clients).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "app/kv_store.hpp"
#include "bchain/messages.hpp"
#include "common/process_set.hpp"
#include "common/types.hpp"
#include "crypto/signer.hpp"
#include "fd/failure_detector.hpp"
#include "net/transport.hpp"
#include "qs/quorum_selector.hpp"
#include "runtime/selection_plane.hpp"
#include "smr/client_messages.hpp"

namespace qsel::bchain {

struct QsReplicaConfig {
  ProcessId n = 4;
  int f = 1;
  fd::FailureDetectorConfig fd;
};

/// Suspicions travel as full-row UPDATEs: like XPaxos, the chain never
/// ticks its selection plane (DESIGN.md §15).
class QsReplica final {
 public:
  /// Installs itself as `transport`'s handler; self() = transport.self().
  QsReplica(net::Transport& transport, const crypto::KeyRegistry& keys,
            QsReplicaConfig config);

  void on_message(ProcessId from, const sim::PayloadPtr& message);

  ProcessId self() const { return signer_.self(); }
  /// The selected quorum in ascending order is the chain; its mask is the
  /// shared configuration id.
  const std::vector<ProcessId>& chain() const { return chain_; }
  std::uint64_t config_id() const {
    return selector().quorum().fingerprint64();
  }
  ProcessId head() const { return chain_.front(); }
  bool in_chain() const { return selector().quorum().contains(self()); }
  std::uint64_t reconfigurations() const { return selector().quorums_issued(); }
  std::uint64_t requests_executed() const { return requests_executed_; }
  const app::KvStore& store() const { return store_; }
  SeqNum last_executed() const { return last_executed_; }
  fd::FailureDetector& failure_detector() { return plane_.failure_detector(); }
  const qs::QuorumSelector& selector() const { return plane_.selector(); }

  /// Journals this replica's suspicion plane and reconfiguration
  /// (<QUORUM, Q>) outputs into `tracer` (null detaches).
  void set_tracer(trace::Tracer* tracer) {
    plane_.selector().set_tracer(tracer);
  }

 private:
  struct Slot {
    std::optional<ChainMessage> chain_msg;
    std::uint64_t acked_config = 0;  // config_id whose ACK passed through
    bool executed = false;
  };

  void handle_request(const std::shared_ptr<const smr::ClientRequest>& request);
  void handle_chain(const std::shared_ptr<const ChainMessage>& msg);
  void handle_ack(const std::shared_ptr<const AckMessage>& msg);
  void on_selected_quorum(ProcessSet quorum);
  void forward_down(const std::shared_ptr<const ChainMessage>& msg);
  void redrive_as_head();
  void try_execute();
  ProcessId successor() const { return chain_neighbour(chain_, self(), 1); }
  ProcessId predecessor() const {
    return chain_neighbour(chain_, self(), -1);
  }
  fd::FailureDetector& fd() { return plane_.failure_detector(); }

  net::Transport& transport_;
  crypto::Signer signer_;
  QsReplicaConfig config_;
  runtime::SelectionPlane<qs::QuorumSelector> plane_;

  std::vector<ProcessId> chain_;
  sim::TimerHandle redrive_timer_;

  app::KvStore store_;
  std::map<SeqNum, Slot> log_;
  SeqNum next_slot_ = 1;
  SeqNum last_executed_ = 0;
  std::uint64_t requests_executed_ = 0;
  std::map<std::pair<std::uint32_t, std::uint64_t>, SeqNum> client_index_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::string> results_;
};

}  // namespace qsel::bchain
