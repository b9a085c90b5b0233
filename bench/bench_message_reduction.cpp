// Experiment E5 — the motivating claim (Section I, citing Distler et
// al. [6]): running on an active quorum of n-f processes drops roughly
// 1/3 of the inter-replica messages at n = 3f+1 (and 1/2 at n = 2f+1)
// compared to full-broadcast BFT — and Quorum Selection keeps that
// benefit in the presence of failures.
//
// Measures inter-replica messages and bytes per request plus median
// request latency for: the PBFT-style baseline (all-to-all), XPaxos on
// the selected quorum, and the BChain-style chain, each fault-free and
// with one crashed replica.
#include <cstdint>
#include <iostream>
#include <string>

#include "bchain/cluster.hpp"
#include "metrics/table.hpp"
#include "pbft/cluster.hpp"
#include "xpaxos/cluster.hpp"

using namespace qsel;

namespace {

constexpr SimDuration kMs = 1'000'000;
constexpr std::uint64_t kRequests = 200;

struct Measurement {
  double messages_per_request = 0;
  double bytes_per_request = 0;
  double median_latency_ms = 0;
  std::uint64_t completed = 0;
};

/// Counts only inter-replica traffic: client requests and replies are
/// identical across protocols and excluded.
template <class Cluster>
Measurement measure(Cluster& cluster, ProcessId n, bool crash_one,
                    SimTime horizon) {
  cluster.start_clients(kRequests);
  if (crash_one) {
    cluster.simulator().run_until(30 * kMs);
    cluster.network().crash(n - 2);  // a non-leader quorum member
  }
  cluster.simulator().run_until(horizon);
  Measurement m;
  m.completed = cluster.total_completed();
  const auto& stats = cluster.network().stats();
  const std::uint64_t inter_replica = stats.total_messages() -
                                      stats.by_type("smr.request") -
                                      stats.by_type("smr.reply");
  // Dominated by protocol messages.
  const std::uint64_t inter_bytes = stats.total_bytes();
  if (m.completed > 0) {
    m.messages_per_request = static_cast<double>(inter_replica) /
                             static_cast<double>(m.completed);
    m.bytes_per_request =
        static_cast<double>(inter_bytes) / static_cast<double>(m.completed);
    m.median_latency_ms =
        static_cast<double>(cluster.client(0).latencies().p50()) / 1e6;
  }
  return m;
}

}  // namespace

int main() {
  std::cout << "E5: inter-replica messages per request — full broadcast vs "
               "active quorum (n = 3f+1)\n\n";
  metrics::Table table({"protocol", "n", "f", "fault", "msgs/req",
                        "bytes/req", "median lat (ms)", "completed"});

  for (int f : {1, 2}) {
    const auto n = static_cast<ProcessId>(3 * f + 1);
    for (const bool crash : {false, true}) {
      const char* fault = crash ? "1 crash" : "none";
      {
        pbft::ClusterConfig config;
        config.n = n;
        config.f = f;
        config.seed = 7;
        config.network.base_latency = 1 * kMs;
        config.network.jitter = 200'000;
        pbft::Cluster cluster(config);
        const auto m = measure(cluster, n, crash, 30'000 * kMs);
        table.row("pbft (all-to-all)", n, f, fault, m.messages_per_request,
                  m.bytes_per_request, m.median_latency_ms, m.completed);
      }
      {
        xpaxos::ClusterConfig config;
        config.n = n;
        config.f = f;
        config.policy = xpaxos::QuorumPolicy::kQuorumSelection;
        config.seed = 7;
        config.network.base_latency = 1 * kMs;
        config.network.jitter = 200'000;
        config.fd.initial_timeout = 10 * kMs;
        xpaxos::Cluster cluster(config);
        const auto m = measure(cluster, n, crash, 30'000 * kMs);
        table.row("xpaxos + quorum sel.", n, f, fault, m.messages_per_request,
                  m.bytes_per_request, m.median_latency_ms, m.completed);
      }
      {
        bchain::ClusterConfig config;
        config.n = n;
        config.f = f;
        config.seed = 7;
        config.network.base_latency = 1 * kMs;
        config.network.jitter = 200'000;
        bchain::Cluster cluster(config);
        const auto m = measure(cluster, n, crash, 30'000 * kMs);
        table.row("bchain (chain)", n, f, fault, m.messages_per_request,
                  m.bytes_per_request, m.median_latency_ms, m.completed);
      }
    }
  }
  table.print(std::cout);
  std::cout << "\n(XPaxos quorum pattern: (q-1) prepares + q(q-1) commits; "
               "PBFT: (n-1) + 2n(n-1) votes — the active quorum drops the "
               "share of messages the paper's introduction reports. BChain "
               "trades latency for the minimum message count.)\n";
  return 0;
}
