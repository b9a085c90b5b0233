// Deterministic closed-/open-loop load generator for the XPaxos SMR path.
//
// One LoadConfig drives two substrates with the same client logic:
//
//  * run_sim()      — virtual time over sim::Network. Bit-for-bit
//                     deterministic given (config, seed): committed counts,
//                     latency histograms and the replicated-state digest
//                     are pure functions of the config. This is what the
//                     equivalence battery and the BENCH_6 gate ratios use.
//  * run_loopback() — real time over TcpTransports on 127.0.0.1, the
//                     measurement substrate for wall-clock throughput
//                     (timed arms of BENCH_6, informational).
//
// Closed loop: each of `clients` keeps `outstanding` signed requests in
// flight (outstanding = 1 reproduces the classic serial client). Open
// loop: requests are paced at `open_rate_per_sec` aggregate regardless of
// completions, with a per-client `max_outstanding` cap beyond which
// arrivals are shed (and counted — a shed arrival is a latency the
// histogram would otherwise hide).
//
// Each client draws from its own disjoint key range by default
// (workload key_offset = client_index * key_space), so the final KV state
// is independent of cross-client interleaving — the property the
// pipelining equivalence tests turn into a bit-identical digest check.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "app/workload.hpp"
#include "crypto/sha256.hpp"
#include "metrics/histogram.hpp"
#include "sim/network.hpp"
#include "xpaxos/replica.hpp"

namespace qsel::load {

struct LoadConfig {
  ProcessId n = 4;
  int f = 1;
  xpaxos::QuorumPolicy policy = xpaxos::QuorumPolicy::kQuorumSelection;
  std::uint64_t seed = 1;

  // --- client shape ----------------------------------------------------
  std::uint32_t clients = 4;
  /// Closed loop: in-flight window per client.
  std::uint32_t outstanding = 4;
  /// > 0 switches to open loop: aggregate request arrivals per second,
  /// split evenly across clients.
  std::uint64_t open_rate_per_sec = 0;
  /// Open loop: per-client in-flight cap; arrivals beyond it are shed.
  std::uint32_t max_outstanding = 64;

  // --- stop condition --------------------------------------------------
  /// > 0: each client submits exactly this many requests and the run ends
  /// when all have committed (the equivalence-battery mode). 0: run for
  /// duration_ms and report what committed.
  std::uint64_t requests_per_client = 0;
  std::uint64_t duration_ms = 200;

  // --- server shape ----------------------------------------------------
  std::size_t pipeline_window = 16;
  std::size_t max_batch = 8;
  SimDuration view_change_retry = 30'000'000;
  SimDuration client_retry = 50'000'000;

  // --- workload --------------------------------------------------------
  /// Per-client key range size (ranges are disjoint across clients).
  std::uint32_t key_space = 64;
  std::uint32_t value_bytes = 16;
  double put_fraction = 0.5;
  double get_fraction = 0.4;
  double zipf_theta = 0.0;

  /// Sim substrate only.
  sim::NetworkConfig network;
  /// Sim substrate only: called once after the cluster is built, before
  /// the clock starts. Tests use it to schedule fault injection —
  /// sim.schedule_after(t, [&]{ network.crash(leader); }) and friends.
  std::function<void(sim::Simulator&, sim::Network&)> sim_faults;
};

struct LoadReport {
  std::uint64_t committed = 0;
  std::uint64_t submitted = 0;
  std::uint64_t shed = 0;  // open loop only
  std::uint64_t retransmissions = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t duration_ns = 0;  // virtual (sim) or wall (loopback)
  metrics::LatencyHistogram latency;
  /// State digest of the furthest-executed surviving replica (the
  /// equivalence battery compares it across pipeline windows).
  crypto::Digest app_digest{};
  /// Order-sensitive per-client digest of (client_seq, response value)
  /// chains, combined order-independently across clients: batching and
  /// pipelining may not change what any client was told.
  std::uint64_t responses_digest = 0;
  /// Sim substrate: empty when the executed history passed the ordering
  /// oracle (contiguous slots from 1, no duplicate (client, seq); with
  /// serial clients, per-client seqs strictly increasing), else a
  /// description of the first violation.
  std::string history_error;
  /// Substrate traffic: sim reports network messages/bytes, loopback
  /// reports TCP frames/bytes plus how many frames rode the zero-copy
  /// broadcast path.
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t frames_shared = 0;
  /// PREPAREs sent, for the batch-amortization ratio committed/prepares.
  std::uint64_t prepares = 0;

  double throughput_per_sec() const;
  /// Deterministic single-line JSON (fixed key order; doubles printed
  /// with fixed precision) — two runs of the same (config, seed) on the
  /// sim substrate are bit-identical.
  std::string to_json() const;
};

/// Runs the workload on the simulated network (virtual time).
LoadReport run_sim(const LoadConfig& config);

/// Runs the workload over real loopback TCP (wall-clock time).
LoadReport run_loopback(const LoadConfig& config);

}  // namespace qsel::load
