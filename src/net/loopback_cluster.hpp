// LoopbackCluster — n NodeProcesses over real TCP on 127.0.0.1.
//
// The TCP twin of runtime::QuorumCluster: a LoopbackMesh of n
// TcpTransports, each with a FrameTamper for byte-level fault injection,
// each driving a full runtime::NodeProcess stack. Everything runs on the
// one thread that pumps the loop, so a whole multi-node integration test
// is a single sequential program — no races to sanitize away, and cluster
// state can be inspected between poll rounds.
//
// Faults available to tests: crash(id) (stops the node and closes its
// sockets — peers see resets and reconnect-with-backoff against a dead
// port), partition(side)/heal() (frame drops crossing the cut, applied to
// every node's tamper), and the TamperConfig rates (random drop /
// delay / duplicate / split on every frame).
//
// Convergence on real time is awaited, not asserted at a fixed instant:
// run_until(pred, timeout) pumps the loop until the predicate holds.
// converged() — all alive matrices equal — is the natural predicate, since
// identical matrices force same-epoch processes to identical quorums.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/process_set.hpp"
#include "common/types.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "fd/failure_detector.hpp"
#include "net/event_loop.hpp"
#include "net/loopback_mesh.hpp"
#include "net/tamper.hpp"
#include "net/tcp_transport.hpp"
#include "runtime/node_process.hpp"
#include "store/node_store.hpp"

namespace qsel::net {

struct LoopbackClusterConfig {
  ProcessId n = 4;
  int f = 1;
  std::uint64_t seed = 1;
  /// Real-time pacing: heartbeats every 10ms with a 40ms initial timeout
  /// ride out scheduler jitter that virtual time never sees.
  SimDuration heartbeat_period = 10'000'000;
  fd::FailureDetectorConfig fd = kRealTimeFd;
  TamperConfig tamper;  // rates default to 0 = clean network
  /// Shared channel-auth key for every transport (tcp_transport.hpp);
  /// empty = legacy unauthenticated channels.
  std::vector<std::uint8_t> auth_key;
  /// Root for per-node FileNodeStores (<root>/node<i>). Empty = in-memory
  /// stores: restart() still recovers, but state dies with the cluster.
  std::string store_root;
};

class LoopbackCluster {
 public:
  explicit LoopbackCluster(LoopbackClusterConfig config);

  EventLoop& loop() { return mesh_.loop(); }
  runtime::NodeProcess& process(ProcessId id);
  FrameTamper& tamper(ProcessId id);
  TcpTransport& transport(ProcessId id) { return mesh_.transport(id); }

  /// Wires `tracer` (which must outlive the cluster) into the loop clock,
  /// every transport's send/deliver/drop stream and every node's suspicion
  /// plane. Call before start().
  void attach_tracer(trace::Tracer& tracer);

  /// Starts dialing, waits (pumping the loop) until the full connection
  /// mesh is up, then starts heartbeats everywhere. Returns false when the
  /// mesh did not come up within `connect_timeout_ns`.
  bool start(std::uint64_t connect_timeout_ns = 2'000'000'000);

  /// Every ordered pair of non-crashed nodes has an established outgoing
  /// connection.
  bool fully_connected() const { return mesh_.fully_connected(); }

  /// Pumps the event loop until `pred` holds; false on timeout.
  bool run_until(const std::function<bool()>& pred,
                 std::uint64_t timeout_ns) {
    return loop().run_until(pred, timeout_ns);
  }
  void run_for(std::uint64_t duration_ns) { loop().run_for(duration_ns); }

  /// Stops the node's heartbeats and closes all its sockets; peers notice
  /// only through silence, as with a real process kill.
  void crash(ProcessId id);

  /// Restart-with-recovered-state: rebuilds the crashed node's transport
  /// on its original port and a fresh NodeProcess over the node's
  /// NodeStore, so it rejoins holding its persisted epoch, suspicion row
  /// and FD timeouts. Peers' reconnect loops find the revived listener on
  /// their own. The caller still pumps the loop to convergence.
  void restart(ProcessId id);

  /// Applies partition/heal to every node's tamper (sender-side frame
  /// drops crossing the cut — equivalent to cutting the links).
  void partition(ProcessSet side_a);
  void heal();

  ProcessSet alive() const { return mesh_.alive(); }

  /// All alive nodes hold identical suspicion matrices (and there is at
  /// least one). Identical matrices make same-epoch quorums identical, so
  /// this is the strongest steady-state the protocol owes us.
  bool converged() const;

  /// Mirrors the fuzzer's agreement oracle: every alive node's quorum has
  /// size n - f, and any two alive nodes at the same epoch report the same
  /// quorum. Returns a description of the first violation, nullopt if
  /// consistent.
  std::optional<std::string> agreement_error() const;

  /// Digest over every alive node's final quorum (see final_quorum_digest)
  /// — the value parity tests compare across substrates.
  crypto::Digest outcome_digest() const;

 private:
  /// Builds the tamper (next seed in the stream) and the node over the
  /// id's mesh transport, reusing the node's store.
  void attach(ProcessId id);

  LoopbackClusterConfig config_;
  LoopbackMesh mesh_;  // declared before the nodes: destroyed after them
  crypto::KeyRegistry keys_;
  std::vector<std::unique_ptr<store::NodeStore>> stores_;
  std::vector<std::unique_ptr<FrameTamper>> tampers_;
  std::vector<std::unique_ptr<runtime::NodeProcess>> processes_;
  std::uint64_t tamper_seed_state_;
  trace::Tracer* tracer_ = nullptr;
  std::optional<ProcessSet> partition_;
};

/// Chained trace digest over synthetic <QUORUM> events, one per (id,
/// quorum) pair in the given order. Epochs are deliberately excluded:
/// epoch advancement is path-dependent (scenario/oracle.cpp explains why),
/// so identical protocol *outcomes* on different substrates may sit at
/// different epochs. Both parity sides feed their final per-process
/// quorums through this one function and compare digests.
crypto::Digest final_quorum_digest(
    std::span<const std::pair<ProcessId, ProcessSet>> quorums);

}  // namespace qsel::net
