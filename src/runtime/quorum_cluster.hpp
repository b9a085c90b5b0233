// QuorumCluster — n NodeProcesses (Figure 1, Algorithm 1) over the
// simulated network.
//
// Each node is a runtime::NodeProcess — the substrate-independent stack of
// heartbeat application, expectation-based failure detector and
// QuorumSelector — instantiated here over a SimTransport slot of the
// shared deterministic Network. QuorumCluster builds n such processes
// (minus any ids reserved as Byzantine, which tests/adversaries attach
// themselves) and exposes the cluster-level observations the experiments
// need: whether correct processes agree on a quorum, total quorum changes,
// epochs. The TCP twin of this class is net::LoopbackCluster.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/process_set.hpp"
#include "common/types.hpp"
#include "crypto/signer.hpp"
#include "fd/failure_detector.hpp"
#include "runtime/node_process.hpp"
#include "runtime/sim_transport.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "store/node_store.hpp"

namespace qsel::runtime {

struct QuorumClusterConfig {
  ProcessId n = 4;
  int f = 1;
  std::uint64_t seed = 1;
  sim::NetworkConfig network;
  fd::FailureDetectorConfig fd;
  /// Heartbeat period; 0 disables the heartbeat application (experiments
  /// that inject suspicions directly).
  SimDuration heartbeat_period = 5'000'000;  // 5 ms
};

class QuorumCluster {
 public:
  /// `byzantine` ids get no honest process; tests may attach their own
  /// actors for them (an unattached id behaves as crashed-from-start).
  explicit QuorumCluster(QuorumClusterConfig config,
                         ProcessSet byzantine = {});

  sim::Simulator& simulator() { return sim_; }
  sim::Network& network() { return *network_; }
  const crypto::KeyRegistry& keys() const { return keys_; }

  /// Ids running honest NodeProcesses (including any that crashed later).
  ProcessSet correct() const { return correct_; }

  /// Honest processes that have not crashed — the processes the paper's
  /// Agreement/Termination properties quantify over.
  ProcessSet alive() const;

  NodeProcess& process(ProcessId id);

  /// Wires `tracer` into the whole run: simulator clock, network
  /// SEND/DELIVER/DROP and fault injection, every honest process's
  /// suspicion plane and <QUORUM, Q> outputs. The tracer must outlive the
  /// cluster. Call before start().
  void attach_tracer(trace::Tracer& tracer);

  /// Starts heartbeats on all honest processes.
  void start();

  /// Crash-recovery: requires a prior network().crash(id) of an honest
  /// process. Rebuilds the NodeProcess over the node's in-memory store
  /// (every process journals to one), so it rejoins holding its persisted
  /// epoch, own suspicion row and FD timeouts — never a pre-crash epoch —
  /// and un-crashes the network slot. Heartbeats resume immediately.
  void restart(ProcessId id);

  store::NodeStore& store(ProcessId id);

  /// True when all honest processes currently report the same quorum;
  /// returns that quorum.
  std::optional<ProcessSet> agreed_quorum() const;

  /// Sum of quorums issued across honest processes.
  std::uint64_t total_quorums_issued() const;

 private:
  /// (Re)builds the process over id's transport slot and store.
  void build_process(ProcessId id);

  QuorumClusterConfig config_;
  sim::Simulator sim_;
  crypto::KeyRegistry keys_;
  std::unique_ptr<sim::Network> network_;
  ProcessSet correct_;
  std::vector<std::unique_ptr<SimTransport>> transports_;  // index = id
  std::vector<std::unique_ptr<store::NodeStore>> stores_;  // index = id
  std::vector<std::unique_ptr<NodeProcess>> processes_;    // index = id
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace qsel::runtime
