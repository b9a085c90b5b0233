// ShardMap — the replicated configuration of a sharded key-value service.
//
// One XPaxos group (the shard-config group) replicates this machine; every
// other replica group serves the key ranges the map assigns to it. The map
// carries a monotonically increasing *config epoch*: every ownership
// change (assign at bootstrap, commit of a live migration) bumps it by
// one, and the epoch is the fencing token the data groups use to reject
// stale clients deterministically (shard_kv.hpp).
//
// Ranges are [lo, hi) with hi = "" meaning unbounded above, sorted by lo
// and non-overlapping; lookup is a binary search. The whole map is small
// (shards, not keys), so GET returns the full encoded map and clients
// cache it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "app/state_machine.hpp"
#include "net/codec.hpp"

namespace qsel::shard {

using GroupId = std::uint32_t;

struct ShardRange {
  std::string lo;
  std::string hi;  // exclusive; "" = unbounded above
  GroupId group = 0;
  /// A migration away from `group` is prepared but not yet committed.
  bool migrating = false;

  bool operator==(const ShardRange&) const = default;
  bool contains(const std::string& key) const {
    return key >= lo && (hi.empty() || key < hi);
  }
};

struct ShardMap {
  std::uint64_t epoch = 0;
  std::vector<ShardRange> ranges;  // sorted by lo, non-overlapping

  bool operator==(const ShardMap&) const = default;

  /// The range owning `key`, or nullptr when no range covers it.
  const ShardRange* lookup(const std::string& key) const;

  void encode(net::Encoder& enc) const;
  static std::optional<ShardMap> decode(net::Decoder& dec);
  std::string encode_to_string() const;
  static std::optional<ShardMap> decode_from_string(const std::string& bytes);
};

/// Operations on the ShardMapMachine, encoded as net::Encoder bytes.
enum class MapOpType : std::uint8_t {
  kGet = 1,          // -> value = encoded ShardMap
  kAssign = 2,       // lo, hi, group: set/replace the range; epoch += 1
  kPrepareMove = 3,  // lo, group_to: mark migrating (no epoch bump)
  kCommitMove = 4,   // lo, group_to: ownership moves; epoch += 1
};

struct MapOp {
  MapOpType type = MapOpType::kGet;
  std::string lo;
  std::string hi;       // kAssign only
  GroupId group = 0;    // kAssign / kPrepareMove / kCommitMove

  std::vector<std::uint8_t> encode() const;
  static std::optional<MapOp> decode(std::span<const std::uint8_t> bytes);
};

/// The shard-config group's state machine. Every result — including the
/// malformed-op result — is a smr::TypedResult envelope carrying the
/// current config epoch, so clients always learn how stale they are.
class ShardMapMachine final : public app::StateMachine {
 public:
  /// Starts empty at epoch 1; ranges are assigned through consensus
  /// (kAssign ops), so every replica derives the same map.
  ShardMapMachine() { map_.epoch = 1; }

  std::string apply_encoded(std::span<const std::uint8_t> bytes) override;
  crypto::Digest state_digest() const override;
  std::vector<std::uint8_t> snapshot() const override;
  bool restore(std::span<const std::uint8_t> bytes) override;

  const ShardMap& map() const { return map_; }

 private:
  std::string apply(const MapOp& op);

  ShardMap map_;
};

}  // namespace qsel::shard
