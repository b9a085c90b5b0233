// GroupHost — one OS process hosting replicas of several shard groups.
//
// Owns the node's GroupMux and, per hosted group: the group's
// crypto::KeyRegistry (derived from the shared base seed and the group id,
// identical at every node), the GroupTransport slice, an optional
// store::FileNodeStore rooted at `<store_dir>/group_<id>` so groups never
// share durability files, and the xpaxos::Replica itself. All replicas
// share the base transport's event loop and timer queue — hosting three
// groups costs three state machines, not three sockets-and-threads stacks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "app/state_machine.hpp"
#include "crypto/signer.hpp"
#include "shard/group_transport.hpp"
#include "store/node_store.hpp"
#include "xpaxos/replica.hpp"

namespace qsel::shard {

struct HostedGroupConfig {
  GroupSpec spec;
  /// Per-replica protocol settings. n is overwritten with the spec's
  /// member count.
  xpaxos::ReplicaConfig replica;
  /// Builds this group's state machine (ShardMapMachine for the config
  /// group, ShardKv for a data group). Unset = app::KvStore.
  xpaxos::Replica::AppFactory app_factory;
  /// Base signing seed shared by the whole cluster; the group key seed is
  /// derived from it (GroupSpec::key_seed).
  std::uint64_t key_seed = 0;
  /// When nonempty, quorum-selection state persists under
  /// `<store_dir>/group_<id>`; empty = memory-only.
  std::string store_dir;
};

class GroupHost {
 public:
  /// Takes over `base`'s handler (via the mux); create at most one per
  /// transport.
  explicit GroupHost(net::Transport& base) : base_(base), mux_(base) {}

  /// Builds the group's registry, transport slice, store, and replica.
  /// base.self() must be a member (not just a client) of the spec.
  xpaxos::Replica& add_replica(HostedGroupConfig config);

  xpaxos::Replica* replica(GroupId id);
  const xpaxos::Replica* replica(GroupId id) const;

  /// Retires this node's replica of one group: the replica is destroyed
  /// (its timers cancelled, its handler detached) while every co-hosted
  /// group keeps running. To the group's other members the node simply
  /// goes silent — the failure-detector path, not a clean leave. Returns
  /// false when the group is not hosted here.
  bool remove_replica(GroupId id);
  GroupMux& mux() { return mux_; }
  std::size_t group_count() const { return entries_.size(); }

 private:
  struct Entry {
    std::unique_ptr<crypto::KeyRegistry> keys;
    std::unique_ptr<store::FileNodeStore> store;  // null when memory-only
    GroupTransport* transport = nullptr;          // owned by mux_
    std::unique_ptr<xpaxos::Replica> replica;
  };

  net::Transport& base_;
  GroupMux mux_;
  std::map<GroupId, Entry> entries_;
};

}  // namespace qsel::shard
