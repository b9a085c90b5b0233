// NodeProcess — the composed system of Figure 1 for Quorum Selection
// (Algorithm 1), substrate-independent.
//
// Stacks the paper's three modules — a heartbeat application issuing
// expectations, the expectation-based failure detector, and the
// QuorumSelector with its suspicion CRDT — behind the net::Transport
// interface. The detector and the selector are the node's SelectionPlane;
// this class is the heartbeat application. The same class is instantiated
// over SimTransport by QuorumCluster (virtual time, deterministic) and over
// TcpTransport by the loopback harness and the qsel_node CLI (real
// sockets, wall-clock time); the substrate only decides how messages and
// timer ticks arrive.
#pragma once

#include <cstdint>

#include "common/process_set.hpp"
#include "common/types.hpp"
#include "crypto/signer.hpp"
#include "fd/failure_detector.hpp"
#include "net/transport.hpp"
#include "qs/quorum_selector.hpp"
#include "runtime/heartbeat.hpp"
#include "runtime/selection_plane.hpp"
#include "store/node_store.hpp"

namespace qsel::runtime {

/// One heartbeat node's stack: NodeProcess and FollowerProcess.
struct NodeProcessConfig {
  ProcessId n = 4;
  int f = 1;
  fd::FailureDetectorConfig fd;
  /// Heartbeat period; 0 disables the heartbeat application (experiments
  /// that inject suspicions directly).
  SimDuration heartbeat_period = 5'000'000;  // 5 ms
};

class NodeProcess {
 public:
  /// `store`, when non-null, makes the node durable: construction
  /// recovers epoch, own suspicion row and FD timeouts from it (join
  /// semantics — recovery is idempotent), and every subsequent change to
  /// that state is journaled *before* it is broadcast, so a crash can
  /// never have told peers something a restart forgets. The store must
  /// outlive the process. Suspicions travel as delta gossip with digest
  /// anti-entropy (DESIGN.md §11).
  ///
  /// Safe to destroy with timer callbacks still queued (node restart):
  /// the plane's liveness guard turns them into no-ops.
  NodeProcess(net::Transport& transport, const crypto::KeyRegistry& keys,
              const NodeProcessConfig& config,
              store::NodeStore* store = nullptr);

  NodeProcess(const NodeProcess&) = delete;
  NodeProcess& operator=(const NodeProcess&) = delete;

  /// Begins the heartbeat application (no-op when the period is 0).
  void start();

  /// Stops the heartbeat application (crash induction in the TCP harness;
  /// the simulator models crashes in the network instead).
  void stop();

  ProcessId self() const { return signer_.self(); }
  qs::QuorumSelector& selector() { return plane_.selector(); }
  const qs::QuorumSelector& selector() const { return plane_.selector(); }
  fd::FailureDetector& failure_detector() { return plane_.failure_detector(); }
  ProcessSet quorum() const { return selector().quorum(); }

 private:
  void tick();
  void on_message(ProcessId from, const sim::PayloadPtr& message);

  net::Transport& transport_;
  crypto::Signer signer_;
  SimDuration heartbeat_period_;
  SelectionPlane<qs::QuorumSelector> plane_;
  std::uint64_t heartbeat_seq_ = 0;
  bool stopped_ = false;
};

}  // namespace qsel::runtime
