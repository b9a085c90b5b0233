// ShardCluster — the sharded service over real loopback TCP.
//
// The e2e harness for DESIGN.md §12 and the TCP twin of a deployed
// sharded cluster: four node processes (transport ids 0..3) each host a
// GroupHost with replicas of all three groups — the shard-config group
// replicating the ShardMap, and two data groups replicating fenced
// ShardKv machines (group 1 serves [.., split), group 2 [split, ..)).
// Ids 4..5 are routing clients, 6 the migration coordinator, 7 an admin
// slot the harness bootstraps the map through (two ASSIGN ops). All 8
// transports form one net::LoopbackMesh on one EventLoop, so an entire
// multi-process scenario is a single sequential program — which is what
// lets the soak test run under the sanitizers without any
// thread-interleaving noise.
//
// Per-group crypto is real: each group's KeyRegistry derives from the
// shared seed and the group id, so the harness exercises exactly the key
// isolation a production cluster would have.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/event_loop.hpp"
#include "net/loopback_mesh.hpp"
#include "shard/group_host.hpp"
#include "shard/migration.hpp"
#include "shard/routing_client.hpp"
#include "shard/shard_kv.hpp"

namespace qsel::shard {

struct ShardClusterConfig {
  std::uint64_t seed = 1;
  std::uint32_t chunk_limit = 8;
  /// Root for per-node durable quorum-selection state; "" = memory-only.
  std::string store_root;
};

class ShardCluster {
 public:
  static constexpr ProcessId kNodes = 4;           // transport ids 0..3
  static constexpr ProcessId kRoutingClients = 2;  // ids 4..5
  static constexpr ProcessId kCoordinatorId = 6;
  static constexpr ProcessId kAdminId = 7;
  static constexpr ProcessId kTotal = 8;
  static constexpr GroupId kConfigGroup = 0;
  static constexpr GroupId kLowGroup = 1;   // [.., kSplit)
  static constexpr GroupId kHighGroup = 2;  // [kSplit, ..)
  static constexpr char kSplit[] = "m";

  explicit ShardCluster(ShardClusterConfig config);

  /// Starts dialing, waits for the full mesh, then commits the two
  /// bootstrap ASSIGN ops through the config group. False on timeout.
  bool start(std::uint64_t timeout_ns = 20'000'000'000);

  net::EventLoop& loop() { return mesh_.loop(); }
  bool run_until(const std::function<bool()>& pred, std::uint64_t timeout_ns) {
    return loop().run_until(pred, timeout_ns);
  }
  void run_for(std::uint64_t duration_ns) { loop().run_for(duration_ns); }

  RoutingClient& client(ProcessId i);  // i < kRoutingClients
  MigrationCoordinator& coordinator() { return *coordinator_; }
  GroupHost& host(ProcessId node);
  xpaxos::Replica* replica(ProcessId node, GroupId group);
  /// The node's ShardKv for a data group (nullptr for the config group or
  /// a crashed/retired replica).
  const ShardKv* shard_kv(ProcessId node, GroupId group) const;

  /// Kills ONE group's replica at `node`; co-hosted groups keep running.
  /// The group's survivors must view-change past the silent member.
  bool kill_group_replica(ProcessId node, GroupId group);

  /// Crashes a whole node process (all its hosted replicas + sockets).
  void crash_node(ProcessId node);
  /// Rebuilds the node on its original port. Quorum-selection state comes
  /// back from the node's store (when store_root is set); the SMR log and
  /// application state restart empty and the replica re-joins as a
  /// laggard — acknowledged operations live on the f+1 survivors.
  void restart_node(ProcessId node);

  /// Submits an ASSIGN through the admin slot and pumps until it commits.
  bool assign(const std::string& lo, const std::string& hi, GroupId group,
              std::uint64_t timeout_ns = 10'000'000'000);

  /// True when every non-crashed transport is connected to every other.
  bool fully_connected() const { return mesh_.fully_connected(); }

 private:
  void build_node(ProcessId node);
  GroupSpec group_spec(GroupId group) const;
  std::vector<GroupEndpoint> client_endpoints() const;

  ShardClusterConfig config_;
  net::LoopbackMesh mesh_;  // declared before the nodes: destroyed after
  std::vector<std::unique_ptr<GroupHost>> hosts_;  // one per node
  std::vector<std::unique_ptr<RoutingClient>> clients_;
  std::unique_ptr<MigrationCoordinator> coordinator_;
  std::unique_ptr<GroupEngines> admin_;
};

}  // namespace qsel::shard
