#include "shard/shard_cluster.hpp"

#include <utility>

#include "common/assert.hpp"

namespace qsel::shard {

ShardCluster::ShardCluster(ShardClusterConfig config)
    : config_(std::move(config)),
      transports_(kTotal),
      ports_(kTotal, 0),
      hosts_(kNodes) {
  // Transports first: every listen port is known before any wiring.
  for (ProcessId id = 0; id < kTotal; ++id) {
    net::TcpTransport::Config tcp;
    tcp.self = id;
    tcp.n = kTotal;
    tcp.auth_key = config_.auth_key;
    tcp.auth_seed = config_.seed;
    tcp.reconnect = config_.reconnect;
    transports_[id] = std::make_unique<net::TcpTransport>(loop_, tcp);
    ports_[id] = transports_[id]->listen_port();
  }
  for (ProcessId from = 0; from < kTotal; ++from)
    for (ProcessId to = 0; to < kTotal; ++to)
      if (from != to) transports_[from]->set_peer(to, ports_[to]);

  for (ProcessId node = 0; node < kNodes; ++node)
    build_node(node, ports_[node]);

  for (ProcessId i = 0; i < kRoutingClients; ++i) {
    RoutingClient::Config client;
    client.config_group = kConfigGroup;
    client.endpoints = client_endpoints();
    client.key_seed = config_.seed;
    client.retry_timeout = config_.retry_timeout;
    client.backoff_base = config_.backoff_base;
    client.backoff_cap = config_.backoff_cap;
    client.jitter_seed = config_.seed * 1000 + i;
    clients_.push_back(std::make_unique<RoutingClient>(
        *transports_[kNodes + i], std::move(client)));
  }

  MigrationCoordinator::Config coordinator;
  coordinator.config_group = kConfigGroup;
  coordinator.endpoints = client_endpoints();
  coordinator.key_seed = config_.seed;
  coordinator.retry_timeout = config_.retry_timeout;
  coordinator.chunk_limit = config_.chunk_limit;
  coordinator_ = std::make_unique<MigrationCoordinator>(
      *transports_[kCoordinatorId], std::move(coordinator));

  admin_ = std::make_unique<GroupEngines>(
      *transports_[kAdminId],
      std::vector<GroupEndpoint>{{group_spec(kConfigGroup), config_.f}},
      config_.seed, config_.retry_timeout);
}

ShardCluster::~ShardCluster() {
  for (auto& transport : transports_)
    if (transport) transport->shutdown();
}

GroupSpec ShardCluster::group_spec(GroupId group) const {
  GroupSpec spec;
  spec.id = group;
  for (ProcessId node = 0; node < kNodes; ++node)
    spec.members.push_back(node);
  // Every client-side process gets a slot in every group; distinct global
  // ids map to distinct local ids, so request (client, seq) spaces never
  // collide.
  spec.clients = {kNodes, kNodes + 1, kCoordinatorId};
  if (group == kConfigGroup) spec.clients.push_back(kAdminId);
  return spec;
}

std::vector<GroupEndpoint> ShardCluster::client_endpoints() const {
  return {{group_spec(kConfigGroup), config_.f},
          {group_spec(kLowGroup), config_.f},
          {group_spec(kHighGroup), config_.f}};
}

void ShardCluster::build_node(ProcessId node, std::uint16_t port) {
  (void)port;  // the transport is already bound by the caller
  hosts_[node] = std::make_unique<GroupHost>(*transports_[node]);
  for (const GroupId group : {kConfigGroup, kLowGroup, kHighGroup}) {
    HostedGroupConfig hosted;
    hosted.spec = group_spec(group);
    hosted.replica.f = config_.f;
    hosted.replica.policy = xpaxos::QuorumPolicy::kQuorumSelection;
    hosted.replica.fd = config_.fd;
    hosted.replica.view_change_retry = config_.view_change_retry;
    hosted.key_seed = config_.seed;
    hosted.store_dir = config_.store_root.empty()
                           ? std::string{}
                           : config_.store_root + "/node" +
                                 std::to_string(node);
    if (group == kConfigGroup) {
      hosted.app_factory = [] {
        return std::make_unique<ShardMapMachine>();
      };
    } else {
      const std::string split = config_.split;
      const bool low = group == kLowGroup;
      hosted.app_factory = [split, low]() -> std::unique_ptr<app::StateMachine> {
        ShardKv::Config kv;
        kv.owned = low ? std::vector<std::pair<std::string, std::string>>{
                             {"", split}}
                       : std::vector<std::pair<std::string, std::string>>{
                             {split, ""}};
        return std::make_unique<ShardKv>(std::move(kv));
      };
    }
    hosts_[node]->add_replica(std::move(hosted));
  }
}

bool ShardCluster::start(std::uint64_t timeout_ns) {
  for (auto& transport : transports_) transport->start();
  if (!run_until([this] { return fully_connected(); }, timeout_ns))
    return false;
  // Bootstrap the map: the data groups already own their ranges (ShardKv
  // construction), the map must say so too.
  if (!assign("", config_.split, kLowGroup, timeout_ns)) return false;
  if (!assign(config_.split, "", kHighGroup, timeout_ns)) return false;
  return true;
}

bool ShardCluster::fully_connected() const {
  for (ProcessId from = 0; from < kTotal; ++from) {
    if (crashed_.contains(from)) continue;
    for (ProcessId to = 0; to < kTotal; ++to) {
      if (to == from || crashed_.contains(to)) continue;
      if (!transports_[from]->connected_to(to)) return false;
    }
  }
  return true;
}

RoutingClient& ShardCluster::client(ProcessId i) {
  QSEL_REQUIRE(i < kRoutingClients);
  return *clients_[i];
}

GroupHost& ShardCluster::host(ProcessId node) {
  QSEL_REQUIRE(node < kNodes && hosts_[node] != nullptr);
  return *hosts_[node];
}

xpaxos::Replica* ShardCluster::replica(ProcessId node, GroupId group) {
  if (node >= kNodes || hosts_[node] == nullptr) return nullptr;
  return hosts_[node]->replica(group);
}

const ShardKv* ShardCluster::shard_kv(ProcessId node, GroupId group) const {
  if (node >= kNodes || hosts_[node] == nullptr) return nullptr;
  const xpaxos::Replica* replica = hosts_[node]->replica(group);
  if (replica == nullptr) return nullptr;
  return dynamic_cast<const ShardKv*>(&replica->store());
}

bool ShardCluster::kill_group_replica(ProcessId node, GroupId group) {
  if (node >= kNodes || hosts_[node] == nullptr) return false;
  return hosts_[node]->remove_replica(group);
}

void ShardCluster::crash_node(ProcessId node) {
  QSEL_REQUIRE(node < kNodes);
  hosts_[node].reset();  // replicas die first (timers cancelled) ...
  transports_[node]->shutdown();  // ... then the sockets close
  crashed_.insert(node);
}

void ShardCluster::restart_node(ProcessId node) {
  QSEL_REQUIRE(node < kNodes);
  QSEL_REQUIRE_MSG(crashed_.contains(node),
                   "restart_node() needs a prior crash_node()");
  transports_[node].reset();
  net::TcpTransport::Config tcp;
  tcp.self = node;
  tcp.n = kTotal;
  tcp.listen_port = ports_[node];
  tcp.auth_key = config_.auth_key;
  tcp.auth_seed = config_.seed;
  tcp.reconnect = config_.reconnect;
  transports_[node] = std::make_unique<net::TcpTransport>(loop_, tcp);
  QSEL_REQUIRE(transports_[node]->listen_port() == ports_[node]);
  for (ProcessId to = 0; to < kTotal; ++to)
    if (to != node) transports_[node]->set_peer(to, ports_[to]);
  build_node(node, ports_[node]);
  crashed_.erase(node);
  transports_[node]->start();
}

bool ShardCluster::assign(const std::string& lo, const std::string& hi,
                          GroupId group, std::uint64_t timeout_ns) {
  bool done = false;
  bool ok = false;
  admin_->engine(kConfigGroup)
      ->submit(MapOp{MapOpType::kAssign, lo, hi, group}.encode(),
               [&](const smr::Outcome& outcome) {
                 done = true;
                 ok = outcome.status == smr::ResultStatus::kOk &&
                      outcome.value == "assigned";
               });
  return run_until([&] { return done; }, timeout_ns) && ok;
}

}  // namespace qsel::shard
