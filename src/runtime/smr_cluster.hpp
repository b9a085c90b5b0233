// SmrCluster — one SMR protocol's replicas plus clients over the simulated
// network: the harness for every replica built as Replica(transport, keys,
// ReplicaConfig) — XPaxos, the PBFT and BChain baselines, the QS chain.
// Replicas take ids 0..n-1 (reserved Byzantine slots stay unattached for
// tests to fill), clients n..n+c-1, each over its own SimTransport. The
// observations are the ones experiments compare across protocols.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "app/workload.hpp"
#include "common/assert.hpp"
#include "common/process_set.hpp"
#include "common/types.hpp"
#include "crypto/signer.hpp"
#include "runtime/sim_transport.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "smr/client.hpp"
#include "smr/executed_log.hpp"
#include "trace/tracer.hpp"

namespace qsel::runtime {

/// The cluster's own knobs on top of the configuration every replica gets.
/// Deriving from ReplicaConfig keeps `config.n`, `config.f` and each
/// protocol's knobs where callers expect them.
template <class ReplicaConfig>
struct SmrClusterConfig : ReplicaConfig {
  std::uint32_t clients = 1;
  std::uint64_t seed = 1;
  sim::NetworkConfig network;
  SimDuration client_retry = 50'000'000;
  app::WorkloadConfig workload;
};

template <class Replica, class ReplicaConfig>
class SmrCluster {
 public:
  using Config = SmrClusterConfig<ReplicaConfig>;

  explicit SmrCluster(Config config, ProcessSet byzantine = {})
      : config_(std::move(config)),
        keys_(total(), config_.seed),
        network_(std::make_unique<sim::Network>(sim_, total(), config_.network,
                                                config_.seed)),
        honest_replicas_(ProcessSet::full(config_.n) - byzantine),
        replicas_(config_.n) {
    QSEL_REQUIRE(byzantine.is_subset_of(ProcessSet::full(config_.n)));
    const ReplicaConfig& replica_config = config_;
    for (ProcessId id : honest_replicas_) {
      transports_.push_back(std::make_unique<SimTransport>(*network_, id));
      replicas_[id] =
          std::make_unique<Replica>(*transports_.back(), keys_, replica_config);
    }
    smr::ClientConfig client_config;
    client_config.replicas = config_.n;
    client_config.f = config_.f;
    client_config.retry_timeout = config_.client_retry;
    client_config.workload = config_.workload;
    for (std::uint32_t i = 0; i < config_.clients; ++i) {
      const auto id = static_cast<ProcessId>(config_.n + i);
      client_config.workload.seed = config_.workload.seed + i;
      transports_.push_back(std::make_unique<SimTransport>(*network_, id));
      clients_.push_back(std::make_unique<smr::Client>(*transports_.back(),
                                                       keys_, client_config));
    }
  }

  sim::Simulator& simulator() { return sim_; }
  sim::Network& network() { return *network_; }
  const crypto::KeyRegistry& keys() const { return keys_; }

  Replica& replica(ProcessId id) {
    QSEL_REQUIRE(id < config_.n && replicas_[id] != nullptr);
    return *replicas_[id];
  }

  smr::Client& client(std::uint32_t index) {
    QSEL_REQUIRE(index < clients_.size());
    return *clients_[index];
  }

  /// Honest replica ids that have not crashed.
  ProcessSet alive_replicas() const {
    ProcessSet alive;
    for (ProcessId id : honest_replicas_)
      if (!network_->is_crashed(id)) alive.insert(id);
    return alive;
  }

  /// Wires `tracer` (which must outlive the cluster) into the simulator
  /// clock and the network, plus every honest replica that journals its
  /// own events (set_tracer). Call before start_clients().
  void attach_tracer(trace::Tracer& tracer) {
    tracer.set_clock([this] { return sim_.now(); });
    network_->set_tracer(&tracer);
    if constexpr (requires(Replica& r) { r.set_tracer(&tracer); }) {
      for (ProcessId id : honest_replicas_) replicas_[id]->set_tracer(&tracer);
    }
  }

  /// Starts every client with `requests_per_client` requests.
  void start_clients(std::uint64_t requests_per_client) {
    for (auto& client : clients_) client->start(requests_per_client);
  }

  std::uint64_t total_completed() const {
    std::uint64_t total = 0;
    for (const auto& client : clients_) total += client->completed();
    return total;
  }

  // Per-protocol counters over the alive replicas; each is instantiated
  // only for replicas that have the counter.
  std::uint64_t total_view_changes() const {
    std::uint64_t total = 0;
    for (ProcessId id : alive_replicas())
      total += replicas_[id]->view_changes();
    return total;
  }
  std::uint64_t max_view_changes() const {
    return max_over([](const Replica& r) { return r.view_changes(); });
  }
  std::uint64_t max_reconfigurations() const {
    return max_over([](const Replica& r) { return r.reconfigurations(); });
  }

  /// True when, for every slot executed by two honest live replicas, the
  /// executed entries match exactly. Entries are matched by slot: a
  /// replica that installed a checkpoint by state transfer holds only the
  /// slots after it.
  bool histories_consistent() const {
    for (ProcessId a : alive_replicas())
      for (ProcessId b : alive_replicas())
        if (a < b && !same_slots(replicas_[a]->executed_history(),
                                 replicas_[b]->executed_history()))
          return false;
    return true;
  }

 private:
  /// Both histories are in slot order; compares the slots both executed.
  static bool same_slots(const smr::ExecutedLog& ha,
                         const smr::ExecutedLog& hb) {
    if (ha.empty() || hb.empty()) return true;
    const SeqNum lo = std::max(ha.front().slot, hb.front().slot);
    const SeqNum hi = std::min(ha.back().slot, hb.back().slot);
    auto a = ha.begin();
    auto b = hb.begin();
    while (a != ha.end() && a->slot < lo) ++a;
    while (b != hb.end() && b->slot < lo) ++b;
    for (; a != ha.end() && a->slot <= hi; ++a, ++b)
      if (b == hb.end() || *a != *b) return false;
    return b == hb.end() || b->slot > hi;
  }

  ProcessId total() const {
    return static_cast<ProcessId>(config_.n + config_.clients);
  }

  template <class Counter>
  std::uint64_t max_over(Counter counter) const {
    std::uint64_t most = 0;
    for (ProcessId id : alive_replicas())
      most = std::max(most, counter(*replicas_[id]));
    return most;
  }

  Config config_;
  sim::Simulator sim_;
  crypto::KeyRegistry keys_;
  std::unique_ptr<sim::Network> network_;
  ProcessSet honest_replicas_;
  /// One per live process (replica or client); each attaches itself to its
  /// slot of the network. Declared before the protocol objects that borrow
  /// them so destruction runs protocol-first.
  std::vector<std::unique_ptr<SimTransport>> transports_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<smr::Client>> clients_;
};

}  // namespace qsel::runtime
