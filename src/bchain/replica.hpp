// BChain-style baseline replica.
//
// The active quorum is a chain of q = n - f replicas (initially ids
// 0..q-1, head first); the remaining f are spares. A request travels head
// -> tail as a CHAIN message (each hop forwards), the tail answers with an
// ACK that travels tail -> head; a node executes a slot when it has both
// the CHAIN message and the ACK. Messages per request: (q-1) + (q-1) hops
// — the chain dissemination the paper cites from BChain [7].
//
// Reconfiguration by replacement: a node that misses the ACK after
// forwarding blames its successor; chain members that see a client
// request starve blame the head. Blames are a grow-only set gossiped with
// forward-on-change, and the chain is a deterministic function of the
// blamed set — the first q unblamed ids in order, re-admitting blamed
// nodes lowest-first when spares run out. That re-admission is exactly
// the weakness the paper points out: replacement assumes fresh processes
// are correct and has no way to converge on the actual culprit.
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
#include "net/transport.hpp"
#include "smr/client_messages.hpp"
#include "smr/executed_log.hpp"

namespace qsel::bchain {

struct ReplicaConfig {
  ProcessId n = 4;
  int f = 1;
  /// How long a node waits for the ACK after forwarding a CHAIN message.
  SimDuration ack_timeout = 20'000'000;  // 20 ms
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
  /// Monotone count of applied blames (the reconfiguration counter).
  std::uint64_t reconfigurations() const {
    return static_cast<std::uint64_t>(blamed_.size());
  }
  ProcessSet blamed() const { return blamed_; }
  /// Chain order, head first — a pure function of blamed().
  const std::vector<ProcessId>& chain() const { return chain_; }
  ProcessId head() const { return chain_.front(); }
  bool in_chain() const;
  std::uint64_t requests_executed() const { return requests_executed_; }
  const app::KvStore& store() const { return store_; }
  SeqNum last_executed() const { return last_executed_; }

  /// Executed history, for cross-replica consistency checks.
  const smr::ExecutedLog& executed_history() const {
    return executed_history_;
  }

 private:
  struct Slot {
    std::optional<ChainMessage> chain_msg;
    /// Config epoch whose ACK has passed through this node (0 = none).
    /// Epoch-scoped: after a reconfiguration the slot needs a fresh ACK,
    /// and an executed node must still *relay* fresh ACKs upstream.
    std::uint64_t acked_epoch = 0;
    bool executed = false;
    sim::TimerHandle ack_timer;
  };

  void handle_request(const std::shared_ptr<const smr::ClientRequest>& request);
  void handle_chain(const std::shared_ptr<const ChainMessage>& msg);
  void handle_ack(const std::shared_ptr<const AckMessage>& msg);
  void handle_reconfig(const std::shared_ptr<const ReconfigMessage>& msg);
  void blame(ProcessId culprit);
  void rebuild_chain();
  void redrive_as_head();
  void forward_down(const std::shared_ptr<const ChainMessage>& msg);
  void arm_request_timer();
  void try_execute();
  ProcessId successor() const { return chain_neighbour(chain_, self(), 1); }
  ProcessId predecessor() const {
    return chain_neighbour(chain_, self(), -1);
  }

  net::Transport& transport_;
  crypto::Signer signer_;
  ReplicaConfig config_;

  ProcessSet blamed_;
  std::vector<ProcessId> chain_;  // size q, head first

  app::KvStore store_;
  std::map<SeqNum, Slot> log_;
  SeqNum next_slot_ = 1;  // head only
  SeqNum last_executed_ = 0;
  std::uint64_t requests_executed_ = 0;
  smr::ExecutedLog executed_history_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, SeqNum> client_index_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::string> results_;
  struct BacklogEntry {
    std::shared_ptr<const smr::ClientRequest> request;
    SimTime since;
  };
  std::map<std::pair<std::uint32_t, std::uint64_t>, BacklogEntry> backlog_;
  sim::TimerHandle request_timer_;
  sim::TimerHandle redrive_timer_;
};

}  // namespace qsel::bchain
