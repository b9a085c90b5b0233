// FollowerProcess / FollowerCluster — the composed system of Figure 1 for
// Follower Selection (Algorithm 2).
//
// Differences from the QuorumCluster: the selector is the leader-centric
// FollowerSelector, the network runs with FIFO links (the Section VIII
// assumption), and the heartbeat application follows the leader-centric
// pattern the paper motivates — the leader exchanges heartbeats with the
// quorum, followers do not monitor each other, so follower-follower
// suspicions never arise from the application itself.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/process_set.hpp"
#include "common/types.hpp"
#include "crypto/signer.hpp"
#include "fd/failure_detector.hpp"
#include "fs/follower_selector.hpp"
#include "net/transport.hpp"
#include "runtime/node_process.hpp"
#include "runtime/quorum_cluster.hpp"
#include "runtime/selection_plane.hpp"
#include "runtime/sim_transport.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace qsel::runtime {

/// The QuorumCluster knobs; FollowerCluster forces network.fifo_links on.
using FollowerClusterConfig = QuorumClusterConfig;

/// One Follower Selection node over any net::Transport. Suspicions travel
/// as delta gossip with digest anti-entropy, like NodeProcess; FOLLOWERS
/// needs FIFO links (Section VIII), which TCP connections provide.
class FollowerProcess {
 public:
  FollowerProcess(net::Transport& transport, const crypto::KeyRegistry& keys,
                  const NodeProcessConfig& config);

  void start();

  ProcessId self() const { return signer_.self(); }
  fs::FollowerSelector& selector() { return plane_.selector(); }
  const fs::FollowerSelector& selector() const { return plane_.selector(); }
  fd::FailureDetector& failure_detector() { return plane_.failure_detector(); }
  ProcessId leader() const { return selector().leader(); }
  ProcessSet quorum() const { return selector().quorum(); }

 private:
  void tick();
  void on_message(ProcessId from, const sim::PayloadPtr& message);

  net::Transport& transport_;
  crypto::Signer signer_;
  SimDuration heartbeat_period_;
  SelectionPlane<fs::FollowerSelector> plane_;
  std::uint64_t heartbeat_seq_ = 0;
};

class FollowerCluster {
 public:
  explicit FollowerCluster(FollowerClusterConfig config,
                           ProcessSet byzantine = {});

  sim::Simulator& simulator() { return sim_; }
  sim::Network& network() { return *network_; }
  const crypto::KeyRegistry& keys() const { return keys_; }
  ProcessSet correct() const { return correct_; }

  /// Honest processes that have not crashed.
  ProcessSet alive() const;

  FollowerProcess& process(ProcessId id);

  /// Wires `tracer` into the whole run (network, suspicion plane, quorum
  /// outputs); must outlive the cluster. Call before start().
  void attach_tracer(trace::Tracer& tracer);

  void start();

  /// The (leader, quorum) every honest process agrees on, if they do.
  std::optional<std::pair<ProcessId, ProcessSet>> agreed_leader_quorum() const;

  std::uint64_t total_quorums_issued() const;
  std::uint64_t max_quorums_issued() const;

 private:
  FollowerClusterConfig config_;
  sim::Simulator sim_;
  crypto::KeyRegistry keys_;
  std::unique_ptr<sim::Network> network_;
  ProcessSet correct_;
  std::vector<std::unique_ptr<SimTransport>> transports_;  // index = id
  std::vector<std::unique_ptr<FollowerProcess>> processes_;
};

}  // namespace qsel::runtime
