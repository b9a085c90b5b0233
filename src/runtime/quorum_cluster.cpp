#include "runtime/quorum_cluster.hpp"

#include "common/assert.hpp"

namespace qsel::runtime {

QuorumCluster::QuorumCluster(QuorumClusterConfig config, ProcessSet byzantine)
    : config_(config),
      keys_(config.n, config.seed),
      network_(std::make_unique<sim::Network>(sim_, config.n, config.network,
                                              config.seed)),
      correct_(ProcessSet::full(config.n) - byzantine),
      transports_(config.n),
      stores_(config.n),
      processes_(config.n) {
  QSEL_REQUIRE(byzantine.is_subset_of(ProcessSet::full(config.n)));
  for (ProcessId id : correct_) {
    transports_[id] = std::make_unique<SimTransport>(*network_, id);
    stores_[id] = std::make_unique<store::MemoryNodeStore>();
    build_process(id);
  }
}

void QuorumCluster::build_process(ProcessId id) {
  processes_[id] = std::make_unique<NodeProcess>(
      *transports_[id], keys_,
      NodeProcessConfig{config_.n, config_.f, config_.fd,
                        config_.heartbeat_period},
      stores_[id].get());
  if (tracer_ != nullptr) processes_[id]->selector().set_tracer(tracer_);
}

NodeProcess& QuorumCluster::process(ProcessId id) {
  QSEL_REQUIRE(id < config_.n && processes_[id] != nullptr);
  return *processes_[id];
}

void QuorumCluster::attach_tracer(trace::Tracer& tracer) {
  tracer_ = &tracer;
  tracer.set_clock([this] { return sim_.now(); });
  network_->set_tracer(&tracer);
  for (ProcessId id : correct_) processes_[id]->selector().set_tracer(&tracer);
}

void QuorumCluster::start() {
  for (ProcessId id : correct_) processes_[id]->start();
}

void QuorumCluster::restart(ProcessId id) {
  QSEL_REQUIRE(id < config_.n && processes_[id] != nullptr);
  QSEL_REQUIRE_MSG(network_->is_crashed(id), "restart() needs a prior crash()");
  // Destroy-then-rebuild over the same transport slot and store: the new
  // process recovers in its constructor (join semantics — a second
  // recovery of the same store is a no-op) and re-registers its handler.
  processes_[id].reset();
  build_process(id);
  network_->restart(id);
  processes_[id]->start();
}

store::NodeStore& QuorumCluster::store(ProcessId id) {
  QSEL_REQUIRE(id < config_.n && stores_[id] != nullptr);
  return *stores_[id];
}

ProcessSet QuorumCluster::alive() const {
  ProcessSet result;
  for (ProcessId id : correct_)
    if (!network_->is_crashed(id)) result.insert(id);
  return result;
}

std::optional<ProcessSet> QuorumCluster::agreed_quorum() const {
  std::optional<ProcessSet> quorum;
  for (ProcessId id : alive()) {
    const ProcessSet q = processes_[id]->quorum();
    if (!quorum) {
      quorum = q;
    } else if (*quorum != q) {
      return std::nullopt;
    }
  }
  return quorum;
}

std::uint64_t QuorumCluster::total_quorums_issued() const {
  std::uint64_t total = 0;
  for (ProcessId id : alive())
    total += processes_[id]->selector().quorums_issued();
  return total;
}

}  // namespace qsel::runtime
