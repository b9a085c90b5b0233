#include "shard/group_host.hpp"

#include <filesystem>
#include <utility>

#include "common/assert.hpp"

namespace qsel::shard {

xpaxos::Replica& GroupHost::add_replica(HostedGroupConfig config) {
  const GroupId id = config.spec.id;
  QSEL_ASSERT_MSG(!entries_.contains(id), "group hosted twice");
  const auto self_local = config.spec.local_of(base_.self());
  QSEL_ASSERT_MSG(
      self_local.has_value() && *self_local < config.spec.members.size(),
      "GroupHost::add_replica: base.self() is not a member of the group");

  Entry entry;
  entry.keys = std::make_unique<crypto::KeyRegistry>(
      config.spec.local_count(), config.spec.key_seed(config.key_seed));
  if (!config.store_dir.empty()) {
    // FileNodeStore makes its own leaf directory but not the parents.
    std::filesystem::create_directories(config.store_dir);
    entry.store = std::make_unique<store::FileNodeStore>(
        config.store_dir + "/group_" + std::to_string(id),
        static_cast<ProcessId>(config.spec.members.size()));
  }
  entry.transport = &mux_.add_group(config.spec);

  xpaxos::ReplicaConfig replica_config = config.replica;
  replica_config.n = static_cast<ProcessId>(config.spec.members.size());
  entry.replica = std::make_unique<xpaxos::Replica>(
      *entry.transport, *entry.keys, std::move(replica_config),
      entry.store.get(), config.app_factory);

  auto [it, inserted] = entries_.emplace(id, std::move(entry));
  QSEL_ASSERT(inserted);
  return *it->second.replica;
}

bool GroupHost::remove_replica(GroupId id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  // The transport slice stays registered with the mux; with no handler it
  // drops the group's frames, which is exactly "this node went dark".
  entries_.erase(it);
  return true;
}

xpaxos::Replica* GroupHost::replica(GroupId id) {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : it->second.replica.get();
}

const xpaxos::Replica* GroupHost::replica(GroupId id) const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : it->second.replica.get();
}

}  // namespace qsel::shard
