#include "net/loopback_cluster.hpp"

#include <sstream>
#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "trace/event.hpp"
#include "trace/tracer.hpp"

namespace qsel::net {

namespace {

TcpTransport::Config tcp_config(const LoopbackClusterConfig& config) {
  TcpTransport::Config tcp;
  tcp.auth_key = config.auth_key;
  tcp.auth_seed = config.seed;
  return tcp;
}

}  // namespace

LoopbackCluster::LoopbackCluster(LoopbackClusterConfig config)
    : config_(std::move(config)),
      mesh_(config_.n, tcp_config(config_)),
      keys_(config_.n, config_.seed),
      stores_(config_.n),
      tampers_(config_.n),
      processes_(config_.n),
      tamper_seed_state_(config_.tamper.seed) {
  // Every node gets a store so restart() can recover it: files when the
  // config names a root (survives the cluster object — the soak harness
  // reuses them), memory otherwise.
  for (ProcessId id = 0; id < config_.n; ++id) {
    if (config_.store_root.empty()) {
      stores_[id] = std::make_unique<store::MemoryNodeStore>();
    } else {
      stores_[id] = std::make_unique<store::FileNodeStore>(
          config_.store_root + "/node" + std::to_string(id), config_.n);
    }
  }
  for (ProcessId id = 0; id < config_.n; ++id) attach(id);
}

void LoopbackCluster::attach(ProcessId id) {
  TamperConfig tamper = config_.tamper;
  tamper.seed = splitmix64(tamper_seed_state_);
  tampers_[id] = std::make_unique<FrameTamper>(mesh_.transport(id), tamper);
  if (partition_) tampers_[id]->partition(*partition_);
  processes_[id] = std::make_unique<runtime::NodeProcess>(
      mesh_.transport(id), keys_,
      runtime::NodeProcessConfig{config_.n, config_.f, config_.fd,
                                 config_.heartbeat_period},
      stores_[id].get());
  if (tracer_ != nullptr) {
    mesh_.transport(id).set_tracer(tracer_);
    processes_[id]->selector().set_tracer(tracer_);
  }
}

runtime::NodeProcess& LoopbackCluster::process(ProcessId id) {
  QSEL_REQUIRE(id < config_.n);
  return *processes_[id];
}

FrameTamper& LoopbackCluster::tamper(ProcessId id) {
  QSEL_REQUIRE(id < config_.n);
  return *tampers_[id];
}

void LoopbackCluster::attach_tracer(trace::Tracer& tracer) {
  tracer_ = &tracer;
  tracer.set_clock([this] { return loop().now_ns(); });
  for (ProcessId id = 0; id < config_.n; ++id) {
    mesh_.transport(id).set_tracer(&tracer);
    processes_[id]->selector().set_tracer(&tracer);
  }
}

bool LoopbackCluster::start(std::uint64_t connect_timeout_ns) {
  if (!mesh_.start(connect_timeout_ns)) return false;
  for (auto& process : processes_) process->start();
  return true;
}

void LoopbackCluster::crash(ProcessId id) {
  process(id).stop();
  mesh_.crash(id);
}

void LoopbackCluster::restart(ProcessId id) {
  QSEL_REQUIRE_MSG(id < config_.n && !alive().contains(id),
                   "restart() needs a prior crash()");
  // The node and its tamper go before the mesh rebuilds their transport
  // on the original port, where peers' reconnect loops — which kept
  // dialing it throughout the outage — find it without any rewiring.
  processes_[id].reset();
  tampers_[id].reset();
  mesh_.restart(id);
  attach(id);
  processes_[id]->start();
}

void LoopbackCluster::partition(ProcessSet side_a) {
  partition_ = side_a;
  for (auto& tamper : tampers_) tamper->partition(side_a);
}

void LoopbackCluster::heal() {
  partition_.reset();
  for (auto& tamper : tampers_) tamper->heal();
}

bool LoopbackCluster::converged() const {
  const suspect::SuspicionMatrix* reference = nullptr;
  for (ProcessId id : alive()) {
    const auto& matrix = processes_[id]->selector().matrix();
    if (reference == nullptr)
      reference = &matrix;
    else if (!(matrix == *reference))
      return false;
  }
  return reference != nullptr;
}

std::optional<std::string> LoopbackCluster::agreement_error() const {
  const int want = static_cast<int>(config_.n) - config_.f;
  for (ProcessId id : alive()) {
    const ProcessSet quorum = processes_[id]->quorum();
    if (quorum.size() != want) {
      std::ostringstream os;
      os << "p" << id << " reports quorum " << quorum.to_string()
         << " of size " << quorum.size() << ", want " << want;
      return os.str();
    }
  }
  for (ProcessId a : alive()) {
    for (ProcessId b : alive()) {
      if (b <= a) continue;
      const auto& sa = processes_[a]->selector();
      const auto& sb = processes_[b]->selector();
      if (sa.epoch() != sb.epoch()) continue;
      if (sa.quorum() != sb.quorum()) {
        std::ostringstream os;
        os << "p" << a << " reports " << sa.quorum().to_string() << " but p"
           << b << " reports " << sb.quorum().to_string() << " (both in epoch "
           << sa.epoch() << ")";
        return os.str();
      }
    }
  }
  return std::nullopt;
}

crypto::Digest LoopbackCluster::outcome_digest() const {
  std::vector<std::pair<ProcessId, ProcessSet>> quorums;
  for (ProcessId id : alive())
    quorums.emplace_back(id, processes_[id]->quorum());
  return final_quorum_digest(quorums);
}

crypto::Digest final_quorum_digest(
    std::span<const std::pair<ProcessId, ProcessSet>> quorums) {
  std::vector<trace::Event> events;
  events.reserve(quorums.size());
  for (const auto& [id, quorum] : quorums) {
    trace::Event event;
    event.type = trace::EventType::kQuorum;
    event.actor = id;
    event.arg0 = quorum.fingerprint64();
    events.push_back(std::move(event));
  }
  return trace::digest_of(events);
}

}  // namespace qsel::net
