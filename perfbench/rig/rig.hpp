// The benchmark rig: builds an XPaxos + quorum-selection cluster from the
// program's public classes, drives it with closed-loop clients, and
// checks what it produced.
//
// The cluster is the one load::run_sim / load::run_loopback build for the
// same load::LoadConfig (same construction order, same client streams,
// same loopback failure-detector pacing), so a sim workload reproduces
// load::run_sim bit for bit — tests/parity_test.cpp holds it to that. What
// the rig adds is access: it keeps every replica and client reachable, so
// it can time the layers from outside (rig/probe.hpp), take exact
// per-op latencies, drain outstanding ops and check the outputs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"
#include "load/driver.hpp"
#include "net/tcp_transport.hpp"
#include "rig/probe.hpp"

namespace perfbench {

/// One benchmark workload; perfbench/README.md gives why each exists.
struct Workload {
  const char* name;
  bool tcp;  // loopback TCP, else the simulated network
  std::uint32_t clients;
  std::uint32_t outstanding;  // closed-loop window per client
  /// Sim only: replica 0, the initial leader, crashes at this virtual
  /// time; 0 = fault-free.
  qsel::SimDuration crash_leader_at;
  /// Sim only: the measured interval, in virtual time.
  qsel::SimDuration virtual_ns;
  /// outage_ms windows: the longest wait for an ack is taken per window
  /// and the median reported. The sim window is the whole interval, so
  /// there it is the crash's outage. On TCP a window is long enough to
  /// hold the workload's recurring stall: 1 s for tcp_window's delayed
  /// ACK; 100 ms on tcp_serial, where a 1 s window's longest gap is a
  /// rare scheduling hiccup that varies several-fold between runs.
  qsel::SimDuration gap_window_ns;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// The load configuration `w` runs at `seed`. For a sim workload,
/// load::run_sim(load_config(w, seed)) is the reference run.
qsel::load::LoadConfig load_config(const Workload& w, std::uint64_t seed);

/// Counters read from the program's public observers, summed over the
/// cluster.
struct Observed {
  std::uint64_t view_changes = 0;
  std::uint64_t fd_expectations = 0;
  std::uint64_t fd_suspicions = 0;
  std::uint64_t qs_quorums = 0;
  std::uint64_t qs_solver_runs = 0;
  std::uint64_t qs_cache_hits = 0;
  std::uint64_t retransmissions = 0;
  /// Simulator::events_processed of the timer queue (the whole event
  /// queue on sim, the EventLoop's timers on TCP).
  std::uint64_t timer_events = 0;
  std::uint64_t sim_messages = 0;  // sim::Network::stats
  std::uint64_t sim_bytes = 0;
  qsel::net::IoStats io;  // TcpTransport::io_stats

  Observed operator-(const Observed& before) const;
};

/// The current leader's queue, sampled once per round.
struct QueueSamples {
  std::uint64_t samples = 0;
  std::uint64_t pending_max = 0;
  std::uint64_t in_flight_sum = 0;
};

struct Episode {
  /// Cluster build, through mesh connect on TCP, up to the first submit.
  double setup_s = 0;

  // --- the measured interval ---------------------------------------------
  std::uint64_t interval_ns = 0;  // virtual on sim, wall on TCP
  double wall_s = 0;
  double cpu_s = 0;  // process user + sys
  std::uint64_t committed = 0;
  std::vector<std::uint64_t> latencies_ns;  // one per op acked
  /// Per gap window, the longest wait from the interval start or one
  /// client ack to the next (engine clock).
  std::vector<std::uint64_t> window_gaps_ns;
  /// What load::run_sim reports at the end of the same interval.
  qsel::crypto::Digest app_digest{};
  std::uint64_t responses_digest = 0;

  Observed observed;  // interval delta
  QueueSamples queue;
  std::uint64_t rounds = 0;
  std::uint64_t history_len = 0;  // furthest replica's executed history
  Probe::Totals spans;            // traced episodes only
  MessageCounts messages;         // traced episodes only

  // --- after the drain ----------------------------------------------------
  std::uint64_t attempted = 0;
  /// Ops never acknowledged after the drain plus typed rejects.
  std::uint64_t failed = 0;
  /// First correctness-gate violation; empty when the outputs are correct.
  std::string error;
};

/// Builds the cluster for `w`, runs the measured interval (`tcp_interval_ns`
/// of wall time on TCP, w.virtual_ns on sim), drains every outstanding op
/// and checks the outputs. A non-null probe puts every replica and client
/// behind a TimedTransport.
Episode run_episode(const Workload& w, std::uint64_t seed,
                    std::uint64_t tcp_interval_ns, Probe* probe);

/// Builds the cluster for `w` and tears it down again; returns the
/// seconds from build start to the point the first op would be submitted.
double time_setup(const Workload& w, std::uint64_t seed);

}  // namespace perfbench
