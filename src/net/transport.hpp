// Transport — the substrate interface a protocol node runs on.
//
// Every protocol node (NodeProcess, FollowerProcess, the XPaxos, PBFT and
// chain replicas — each Figure 1 stack around its runtime::SelectionPlane)
// is written against this per-node interface instead of the global
// sim::Network, so the SAME protocol code runs on two substrates:
//
//   runtime::SimTransport  — adapts one process's slot of the in-process
//                            discrete-event Network (virtual time,
//                            deterministic, what every counting experiment
//                            and the fuzzer use);
//   net::TcpTransport      — real non-blocking TCP sockets on a poll-based
//                            EventLoop (wall-clock time, partial writes,
//                            reordering across connections, reconnects).
//
// Parity contract (DESIGN.md §"Transport"): both substrates deliver whole
// messages, may drop or reorder them, never corrupt them undetectably
// (TCP framing errors close the connection; authentication stays in the
// message layer), and expose a timer queue sharing the sim::Simulator API
// so the failure detector's adaptive timeouts work unchanged — virtual
// nanoseconds under simulation, real nanoseconds under TCP. Anything a
// protocol needs beyond this interface is a parity bug.
#pragma once

#include <functional>

#include "common/process_set.hpp"
#include "common/types.hpp"
#include "sim/payload.hpp"
#include "sim/simulator.hpp"

namespace qsel::net {

class Transport {
 public:
  /// Delivery upcall: a whole, decoded message from `from`. The transport
  /// authenticates nothing — signature checks stay in the message layer,
  /// exactly as with the simulated network.
  using Handler =
      std::function<void(ProcessId from, const sim::PayloadPtr& message)>;

  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;

  virtual ProcessId self() const = 0;
  virtual ProcessId process_count() const = 0;

  /// Timer queue driving this node: the shared Simulator event queue under
  /// simulation, the EventLoop's real-time-advanced queue under TCP.
  virtual sim::Simulator& timers() = 0;

  /// The "communication round" used to size failure-detector timeouts
  /// (paper Section IV-B: expected messages within two rounds).
  virtual SimDuration round_length() const = 0;

  virtual void set_handler(Handler handler) = 0;

  /// Best-effort message send; silently dropped when the peer is
  /// unreachable (the failure detector is what notices).
  virtual void send(ProcessId to, sim::PayloadPtr message) = 0;

  /// Sends to every member of `targets`; a copy to self() (if included) is
  /// delivered locally after one event-loop hop, mirroring
  /// sim::Network::broadcast.
  virtual void broadcast(ProcessSet targets, const sim::PayloadPtr& message) = 0;
};

}  // namespace qsel::net
