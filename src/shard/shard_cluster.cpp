#include "shard/shard_cluster.hpp"

#include <utility>

#include "common/assert.hpp"

namespace qsel::shard {
namespace {

constexpr int kF = 1;  // every group: 4 members, one fault
constexpr SimDuration kAdminRetry = 50'000'000;  // as RoutingClient's

net::TcpTransport::Config tcp_config(std::uint64_t seed) {
  net::TcpTransport::Config tcp;
  tcp.auth_seed = seed;
  return tcp;
}

}  // namespace

ShardCluster::ShardCluster(ShardClusterConfig config)
    : config_(std::move(config)),
      mesh_(kTotal, tcp_config(config_.seed)),
      hosts_(kNodes) {
  for (ProcessId node = 0; node < kNodes; ++node) build_node(node);

  for (ProcessId i = 0; i < kRoutingClients; ++i) {
    RoutingClient::Config client;
    client.config_group = kConfigGroup;
    client.endpoints = client_endpoints();
    client.key_seed = config_.seed;
    client.jitter_seed = config_.seed * 1000 + i;
    clients_.push_back(std::make_unique<RoutingClient>(
        mesh_.transport(kNodes + i), std::move(client)));
  }

  MigrationCoordinator::Config coordinator;
  coordinator.config_group = kConfigGroup;
  coordinator.endpoints = client_endpoints();
  coordinator.key_seed = config_.seed;
  coordinator.chunk_limit = config_.chunk_limit;
  coordinator_ = std::make_unique<MigrationCoordinator>(
      mesh_.transport(kCoordinatorId), std::move(coordinator));

  admin_ = std::make_unique<GroupEngines>(
      mesh_.transport(kAdminId),
      std::vector<GroupEndpoint>{{group_spec(kConfigGroup), kF}},
      config_.seed, kAdminRetry);
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
  return {{group_spec(kConfigGroup), kF},
          {group_spec(kLowGroup), kF},
          {group_spec(kHighGroup), kF}};
}

void ShardCluster::build_node(ProcessId node) {
  hosts_[node] = std::make_unique<GroupHost>(mesh_.transport(node));
  for (const GroupId group : {kConfigGroup, kLowGroup, kHighGroup}) {
    HostedGroupConfig hosted;
    hosted.spec = group_spec(group);
    hosted.replica.f = kF;
    hosted.replica.policy = xpaxos::QuorumPolicy::kQuorumSelection;
    hosted.replica.fd = net::kRealTimeFd;
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
      const bool low = group == kLowGroup;
      hosted.app_factory = [low]() -> std::unique_ptr<app::StateMachine> {
        ShardKv::Config kv;
        kv.owned = low ? std::vector<std::pair<std::string, std::string>>{
                             {"", kSplit}}
                       : std::vector<std::pair<std::string, std::string>>{
                             {kSplit, ""}};
        return std::make_unique<ShardKv>(std::move(kv));
      };
    }
    hosts_[node]->add_replica(std::move(hosted));
  }
}

bool ShardCluster::start(std::uint64_t timeout_ns) {
  if (!mesh_.start(timeout_ns)) return false;
  // Bootstrap the map: the data groups already own their ranges (ShardKv
  // construction), the map must say so too.
  if (!assign("", kSplit, kLowGroup, timeout_ns)) return false;
  if (!assign(kSplit, "", kHighGroup, timeout_ns)) return false;
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
  mesh_.crash(node);     // ... then the sockets close
}

void ShardCluster::restart_node(ProcessId node) {
  QSEL_REQUIRE(node < kNodes);
  mesh_.restart(node);
  build_node(node);
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
