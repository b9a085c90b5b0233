#include "net/loopback_mesh.hpp"

#include <utility>

#include "common/assert.hpp"

namespace qsel::net {

LoopbackMesh::LoopbackMesh(ProcessId n, TcpTransport::Config base)
    : base_(std::move(base)), transports_(n), ports_(n, 0) {
  QSEL_REQUIRE(n >= 1 && n <= kMaxProcesses);
  base_.n = n;
  for (ProcessId id = 0; id < n; ++id) build(id, /*port=*/0);
  for (ProcessId id = 0; id < n; ++id) wire(id);
}

void LoopbackMesh::build(ProcessId id, std::uint16_t port) {
  TcpTransport::Config config = base_;
  config.self = id;
  config.listen_port = port;
  transports_[id] = std::make_unique<TcpTransport>(loop_, config);
  ports_[id] = transports_[id]->listen_port();
}

void LoopbackMesh::wire(ProcessId id) {
  for (ProcessId to = 0; to < size(); ++to)
    if (to != id) transports_[id]->set_peer(to, ports_[to]);
}

TcpTransport& LoopbackMesh::transport(ProcessId id) {
  QSEL_REQUIRE(id < size());
  return *transports_[id];
}

bool LoopbackMesh::start(std::uint64_t timeout_ns) {
  for (auto& transport : transports_) transport->start();
  return loop_.run_until([this] { return fully_connected(); }, timeout_ns);
}

bool LoopbackMesh::fully_connected() const {
  const ProcessSet live = alive();
  for (ProcessId from : live)
    for (ProcessId to : live)
      if (to != from && !transports_[from]->connected_to(to)) return false;
  return true;
}

void LoopbackMesh::crash(ProcessId id) {
  transport(id).shutdown();
  crashed_.insert(id);
}

void LoopbackMesh::restart(ProcessId id) {
  QSEL_REQUIRE_MSG(crashed_.contains(id), "restart() needs a prior crash()");
  const std::uint16_t port = ports_[id];
  transports_[id].reset();
  build(id, port);
  QSEL_REQUIRE(ports_[id] == port);
  wire(id);
  crashed_.erase(id);
  transports_[id]->start();
}

}  // namespace qsel::net
