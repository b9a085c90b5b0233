// LoopbackMesh — n TcpTransports on 127.0.0.1 sharing one EventLoop.
//
// The TCP twin of sim::Network's n processes joined by reliable
// asynchronous channels: every TCP harness (LoopbackCluster, ShardCluster,
// load::run_loopback, the loopback tests) runs its nodes on one of these.
// All transports come from one base TcpTransport::Config, with self, n and
// listen_port set per id. Each binds an ephemeral port in its constructor,
// so every pair is wired before any transport dials: no races, no fixed
// port numbers to collide on.
//
// Boot: build the mesh, attach one node per transport, start(). Crash:
// stop or destroy the node, crash(id). Restart: destroy the node,
// restart(id), attach a fresh node to transport(id) before the loop runs
// again. Peers' reconnect loops find the revived listener on its old port
// by themselves. The mesh outlives its nodes: declare it before them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/process_set.hpp"
#include "common/types.hpp"
#include "fd/failure_detector.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"

namespace qsel::net {

/// Real-time failure-detector pacing for nodes on a loopback mesh: a
/// 40 ms initial timeout, adaptive up to 1 s, rides out scheduler jitter
/// that virtual time never sees.
inline constexpr fd::FailureDetectorConfig kRealTimeFd{
    /*initial_timeout=*/40'000'000, /*max_timeout=*/1'000'000'000,
    /*adaptive=*/true};

class LoopbackMesh {
 public:
  /// Builds and wires n transports from `base`; none dials until start().
  LoopbackMesh(ProcessId n, TcpTransport::Config base);

  EventLoop& loop() { return loop_; }
  TcpTransport& transport(ProcessId id);

  /// Starts every transport, then pumps the loop until fully_connected().
  /// False when the mesh did not come up within `timeout_ns`.
  bool start(std::uint64_t timeout_ns);

  /// Every ordered pair of live ids has an established outgoing connection.
  bool fully_connected() const;

  /// Closes all of the id's sockets; peers notice only through silence,
  /// as with a real process kill.
  void crash(ProcessId id);

  /// Rebuilds a crashed id's transport on its original port, wires and
  /// starts it. The caller's node on the old transport must be gone.
  void restart(ProcessId id);

  ProcessSet alive() const { return ProcessSet::full(size()) - crashed_; }

 private:
  ProcessId size() const { return static_cast<ProcessId>(ports_.size()); }
  /// Builds id's transport bound to `port` (0 = ephemeral).
  void build(ProcessId id, std::uint16_t port);
  void wire(ProcessId id);

  TcpTransport::Config base_;
  EventLoop loop_;  // declared before the transports: destroyed after them
  std::vector<std::unique_ptr<TcpTransport>> transports_;
  std::vector<std::uint16_t> ports_;  // original listen ports, for restart
  ProcessSet crashed_;
};

}  // namespace qsel::net
