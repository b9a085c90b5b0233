#include "net/loopback_cluster.hpp"

#include <sstream>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "trace/event.hpp"
#include "trace/tracer.hpp"

namespace qsel::net {

LoopbackClusterConfig loopback_config_from(const ClusterConfig& cluster) {
  LoopbackClusterConfig config;
  config.n = cluster.n;
  config.f = cluster.f;
  config.seed = cluster.seed;
  config.heartbeat_period = cluster.heartbeat_period;
  config.fd.initial_timeout = cluster.fd_initial_timeout;
  config.fd.max_timeout = cluster.fd_max_timeout;
  config.fd.adaptive = true;
  config.auth_key = cluster.auth_key;
  config.store_root = cluster.store_dir;
  config.reconnect.base = cluster.reconnect_base;
  config.reconnect.cap = cluster.reconnect_cap;
  return config;
}

LoopbackCluster::LoopbackCluster(LoopbackClusterConfig config)
    : config_(config),
      keys_(config.n, config.seed),
      stores_(config.n),
      transports_(config.n),
      tampers_(config.n),
      processes_(config.n),
      ports_(config.n, 0),
      tamper_seed_state_(config.tamper.seed) {
  QSEL_REQUIRE(config_.n >= 1 && config_.n <= kMaxProcesses);

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

  // Every transport binds its listen socket in its constructor, so by the
  // time the wiring pass below runs, every port is known — no races, no
  // fixed port numbers to collide on.
  for (ProcessId id = 0; id < config_.n; ++id)
    build_node(id, /*port=*/0, splitmix64(tamper_seed_state_));
  for (ProcessId id = 0; id < config_.n; ++id)
    ports_[id] = transports_[id]->listen_port();
  for (ProcessId from = 0; from < config_.n; ++from)
    for (ProcessId to = 0; to < config_.n; ++to)
      if (from != to) transports_[from]->set_peer(to, ports_[to]);
}

void LoopbackCluster::build_node(ProcessId id, std::uint16_t port,
                                 std::uint64_t tamper_seed) {
  TcpTransport::Config tcp;
  tcp.self = id;
  tcp.n = config_.n;
  tcp.listen_port = port;
  tcp.auth_key = config_.auth_key;
  tcp.auth_seed = config_.seed;
  tcp.reconnect = config_.reconnect;
  transports_[id] = std::make_unique<TcpTransport>(loop_, tcp);
  TamperConfig tamper = config_.tamper;
  tamper.seed = tamper_seed;
  tampers_[id] =
      std::make_unique<TamperedTransport>(*transports_[id], tamper);
  if (partition_) tampers_[id]->partition(*partition_);
  processes_[id] = std::make_unique<runtime::NodeProcess>(
      *tampers_[id], keys_,
      runtime::NodeProcessConfig{config_.n, config_.f, config_.fd,
                                 config_.heartbeat_period},
      stores_[id].get());
  if (tracer_ != nullptr) {
    transports_[id]->set_tracer(tracer_);
    processes_[id]->selector().set_tracer(tracer_);
  }
}

LoopbackCluster::~LoopbackCluster() {
  for (auto& transport : transports_)
    if (transport) transport->shutdown();
}

runtime::NodeProcess& LoopbackCluster::process(ProcessId id) {
  QSEL_REQUIRE(id < config_.n);
  return *processes_[id];
}

TamperedTransport& LoopbackCluster::tamper(ProcessId id) {
  QSEL_REQUIRE(id < config_.n);
  return *tampers_[id];
}

TcpTransport& LoopbackCluster::transport(ProcessId id) {
  QSEL_REQUIRE(id < config_.n);
  return *transports_[id];
}

void LoopbackCluster::attach_tracer(trace::Tracer& tracer) {
  tracer_ = &tracer;
  tracer.set_clock([this] { return loop_.now_ns(); });
  for (ProcessId id = 0; id < config_.n; ++id) {
    transports_[id]->set_tracer(&tracer);
    processes_[id]->selector().set_tracer(&tracer);
  }
}

bool LoopbackCluster::start(std::uint64_t connect_timeout_ns) {
  for (auto& transport : transports_) transport->start();
  if (!run_until([this] { return fully_connected(); }, connect_timeout_ns))
    return false;
  for (auto& process : processes_) process->start();
  return true;
}

bool LoopbackCluster::fully_connected() const {
  for (ProcessId from = 0; from < config_.n; ++from) {
    if (crashed_.contains(from)) continue;
    for (ProcessId to = 0; to < config_.n; ++to) {
      if (to == from || crashed_.contains(to)) continue;
      if (!transports_[from]->connected_to(to)) return false;
    }
  }
  return true;
}

void LoopbackCluster::crash(ProcessId id) {
  QSEL_REQUIRE(id < config_.n);
  processes_[id]->stop();
  transports_[id]->shutdown();
  crashed_.insert(id);
}

void LoopbackCluster::restart(ProcessId id) {
  QSEL_REQUIRE(id < config_.n);
  QSEL_REQUIRE_MSG(crashed_.contains(id), "restart() needs a prior crash()");
  // Tear down in dependency order (node holds the tamper wrapper holds
  // the transport), then rebuild on the original port so peers' reconnect
  // loops — which kept dialing it throughout the outage — find the
  // revived listener without any rewiring.
  processes_[id].reset();
  tampers_[id].reset();
  transports_[id].reset();
  build_node(id, ports_[id], splitmix64(tamper_seed_state_));
  QSEL_REQUIRE(transports_[id]->listen_port() == ports_[id]);
  for (ProcessId to = 0; to < config_.n; ++to)
    if (to != id) transports_[id]->set_peer(to, ports_[to]);
  crashed_.erase(id);
  transports_[id]->start();
  processes_[id]->start();
}

store::NodeStore& LoopbackCluster::store(ProcessId id) {
  QSEL_REQUIRE(id < config_.n);
  return *stores_[id];
}

void LoopbackCluster::partition(ProcessSet side_a) {
  partition_ = side_a;
  for (auto& tamper : tampers_) tamper->partition(side_a);
}

void LoopbackCluster::heal() {
  partition_.reset();
  for (auto& tamper : tampers_) tamper->heal();
}

ProcessSet LoopbackCluster::alive() const {
  return ProcessSet::full(config_.n) - crashed_;
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
