// Ablation studies for the design choices DESIGN.md calls out.
//
// A1 — chain reconfiguration: BChain's replacement ("promote a spare,
//      assume it is correct") vs the same data path driven by the paper's
//      failure detector + Algorithm 1 (the Section X future-work
//      integration). Two scenarios:
//      (a) locally-attributable fault: a member drops everything it
//          relays — both policies isolate it (the integration costs
//          nothing on the easy case);
//      (b) Byzantine accuser: a faulty member broadcasts accusations
//          against innocent members. Replacement believes any blame and
//          evicts innocents until the chain routes through the attacker;
//          under Algorithm 1 an accusation is an *edge* incident to its
//          author, so the first independent set simply drops the accuser.
//
// A2 — failure detector timeout adaptivity: with doubling-on-false-
//      suspicion (eventual strong accuracy) vs a fixed timeout, under an
//      eventually-synchronous network whose pre-GST delays exceed the
//      initial timeout.
#include <cstdint>
#include <iostream>

#include "bchain/cluster.hpp"
#include "metrics/table.hpp"
#include "runtime/quorum_cluster.hpp"

using namespace qsel;

namespace {

constexpr SimDuration kMs = 1'000'000;

}  // namespace

int main() {
  std::cout << "A1: chain reconfiguration — replacement (BChain) vs quorum "
               "selection (Section X integration)\n"
            << "scenario: n = 7, f = 2; chain member p1 keeps receiving but "
               "drops all messages it sends\n\n";
  metrics::Table a1({"reconfig policy", "reconfigs", "culprit isolated",
                     "completed @3s", "completed @8s"});
  {
    bchain::ClusterConfig config;
    config.n = 7;
    config.f = 2;
    config.seed = 5;
    config.network.base_latency = 1 * kMs;
    config.network.jitter = 200'000;
    bchain::Cluster cluster(config);
    cluster.start_clients(0);
    cluster.simulator().run_until(40 * kMs);
    for (ProcessId to = 0; to < 7; ++to)
      if (to != 1) cluster.network().set_link_enabled(1, to, false);
    cluster.simulator().run_until(3000 * kMs);
    const std::uint64_t mid = cluster.total_completed();
    cluster.simulator().run_until(8000 * kMs);
    bool isolated = true;
    for (ProcessId id : cluster.alive_replicas()) {
      if (id == 1) continue;
      const auto& chain = cluster.replica(id).chain();
      if (std::count(chain.begin(), chain.end(), 1) != 0) isolated = false;
    }
    a1.row("replacement", cluster.max_reconfigurations(),
           isolated ? "yes" : "NO (cycled back in)", mid,
           cluster.total_completed());
  }
  {
    bchain::QsClusterConfig config;
    config.n = 7;
    config.f = 2;
    config.seed = 5;
    config.network.base_latency = 1 * kMs;
    config.network.jitter = 200'000;
    config.fd.initial_timeout = 20 * kMs;
    bchain::QsChainCluster cluster(config);
    cluster.start_clients(0);
    cluster.simulator().run_until(40 * kMs);
    for (ProcessId to = 0; to < 7; ++to)
      if (to != 1) cluster.network().set_link_enabled(1, to, false);
    cluster.simulator().run_until(3000 * kMs);
    const std::uint64_t mid = cluster.total_completed();
    cluster.simulator().run_until(8000 * kMs);
    bool isolated = true;
    for (ProcessId id : cluster.alive_replicas()) {
      if (id == 1) continue;
      const auto& chain = cluster.replica(id).chain();
      if (std::count(chain.begin(), chain.end(), 1) != 0) isolated = false;
    }
    a1.row("quorum-selection", cluster.max_reconfigurations(),
           isolated ? "yes" : "NO", mid, cluster.total_completed());
  }
  a1.print(std::cout);

  std::cout << "\nA1b: Byzantine accuser — faulty p1 broadcasts accusations "
               "against innocent members 2, 3, 4 (n = 7, f = 2)\n\n";
  metrics::Table a1b({"reconfig policy", "innocents evicted",
                      "accuser in final chain", "completed @5s"});
  {
    bchain::ClusterConfig config;
    config.n = 7;
    config.f = 2;
    config.seed = 13;
    config.network.base_latency = 1 * kMs;
    config.network.jitter = 200'000;
    bchain::Cluster cluster(config);  // p1 runs honestly except for blames
    cluster.start_clients(0);
    cluster.simulator().run_until(40 * kMs);
    const crypto::Signer attacker(cluster.keys(), 1);
    std::uint64_t epoch = 1;
    for (ProcessId victim : ProcessSet{2, 3, 4}) {
      const auto blame =
          bchain::ReconfigMessage::make(attacker, epoch++, victim);
      for (ProcessId to = 0; to < 7; ++to)
        if (to != 1) cluster.network().send(1, to, blame);
    }
    cluster.simulator().run_until(5000 * kMs);
    const auto& chain = cluster.replica(0).chain();
    int innocents_evicted = 0;
    for (ProcessId victim : ProcessSet{2, 3, 4})
      if (std::count(chain.begin(), chain.end(), victim) == 0)
        ++innocents_evicted;
    const bool accuser_in =
        std::count(chain.begin(), chain.end(), 1) != 0;
    a1b.row("replacement", innocents_evicted, accuser_in ? "yes" : "no",
            cluster.total_completed());
  }
  {
    bchain::QsClusterConfig config;
    config.n = 7;
    config.f = 2;
    config.seed = 13;
    config.network.base_latency = 1 * kMs;
    config.network.jitter = 200'000;
    config.fd.initial_timeout = 20 * kMs;
    bchain::QsChainCluster cluster(config);
    cluster.start_clients(0);
    cluster.simulator().run_until(40 * kMs);
    // The attacker's only weapon here is a signed suspicion row — every
    // claimed edge is incident to the attacker itself.
    const crypto::Signer attacker(cluster.keys(), 1);
    std::vector<Epoch> row(7, 0);
    row[2] = row[3] = row[4] = 1;
    const auto poison = suspect::UpdateMessage::make(attacker, row);
    for (ProcessId to = 0; to < 7; ++to)
      if (to != 1) cluster.network().send(1, to, poison);
    cluster.simulator().run_until(5000 * kMs);
    const auto& chain = cluster.replica(0).chain();
    int innocents_evicted = 0;
    for (ProcessId victim : ProcessSet{2, 3, 4})
      if (std::count(chain.begin(), chain.end(), victim) == 0)
        ++innocents_evicted;
    const bool accuser_in =
        std::count(chain.begin(), chain.end(), 1) != 0;
    a1b.row("quorum-selection", innocents_evicted, accuser_in ? "yes" : "no",
            cluster.total_completed());
  }
  a1b.print(std::cout);
  std::cout << "\n(Replacement accepts any signed blame at face value; "
               "under Algorithm 1 the same accusations become edges "
               "(1,2),(1,3),(1,4) and the first independent set drops the "
               "accuser instead.)\n";

  std::cout << "\nA2: adaptive vs fixed failure-detector timeouts under "
               "eventual synchrony\n"
            << "pre-GST extra delay 60 ms, initial timeout 12 ms, GST at "
               "400 ms, n = 5, f = 2\n\n";
  metrics::Table a2({"timeout policy", "false suspicions (post-GST window)",
                     "quorum changes total", "stable at end"});
  for (const bool adaptive : {true, false}) {
    runtime::QuorumClusterConfig config;
    config.n = 5;
    config.f = 2;
    config.seed = 4;
    config.network.base_latency = 1 * kMs;
    config.network.jitter = 200'000;
    config.network.pre_gst_extra = 60 * kMs;
    config.network.gst = 400 * kMs;
    config.heartbeat_period = 5 * kMs;
    config.fd.initial_timeout = 12 * kMs;
    config.fd.adaptive = adaptive;
    runtime::QuorumCluster cluster(config);
    cluster.start();
    cluster.simulator().run_until(3000 * kMs);
    std::uint64_t raised_mid = 0;
    for (ProcessId id : cluster.correct())
      raised_mid +=
          cluster.process(id).failure_detector().suspicions_raised();
    const std::uint64_t issued_mid = cluster.total_quorums_issued();
    cluster.simulator().run_until(6000 * kMs);
    std::uint64_t raised_post = 0;
    for (ProcessId id : cluster.correct())
      raised_post +=
          cluster.process(id).failure_detector().suspicions_raised();
    const bool stable = cluster.total_quorums_issued() == issued_mid &&
                        cluster.agreed_quorum().has_value();
    a2.row(adaptive ? "adaptive (doubling)" : "fixed",
           raised_post - raised_mid, cluster.total_quorums_issued(),
           stable ? "yes" : "NO");
  }
  a2.print(std::cout);
  std::cout << "\n(Fixed timeouts below the real network delay keep raising "
               "false suspicions forever — eventual strong accuracy needs "
               "the back-off.)\n";
  return 0;
}
