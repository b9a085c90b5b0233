#include "shard/shard_map.hpp"

#include <algorithm>

#include "smr/typed_result.hpp"

namespace qsel::shard {

const ShardRange* ShardMap::lookup(const std::string& key) const {
  // Last range with lo <= key; ranges are sorted and non-overlapping.
  auto it = std::upper_bound(
      ranges.begin(), ranges.end(), key,
      [](const std::string& k, const ShardRange& r) { return k < r.lo; });
  if (it == ranges.begin()) return nullptr;
  --it;
  return it->contains(key) ? &*it : nullptr;
}

void ShardMap::encode(net::Encoder& enc) const {
  enc.u64(epoch);
  enc.u32(static_cast<std::uint32_t>(ranges.size()));
  for (const ShardRange& r : ranges) {
    enc.str(r.lo);
    enc.str(r.hi);
    enc.u32(r.group);
    enc.u8(r.migrating ? 1 : 0);
  }
}

std::optional<ShardMap> ShardMap::decode(net::Decoder& dec) {
  ShardMap map;
  map.epoch = dec.u64();
  const std::uint32_t count = dec.u32();
  if (!dec.ok()) return std::nullopt;
  for (std::uint32_t i = 0; i < count; ++i) {
    ShardRange r;
    r.lo = dec.str();
    r.hi = dec.str();
    r.group = dec.u32();
    r.migrating = dec.u8() != 0;
    if (!dec.ok()) return std::nullopt;
    if (!r.hi.empty() && r.hi <= r.lo) return std::nullopt;  // empty range
    if (i > 0) {
      // Sorted and non-overlapping: the previous range must be bounded
      // above and end at or before this one starts. Adjacent ranges
      // (prev.hi == r.lo) are fine; [a,c) followed by [b,...) is not.
      const ShardRange& prev = map.ranges.back();
      if (prev.hi.empty() || r.lo < prev.hi) return std::nullopt;
    }
    map.ranges.push_back(std::move(r));
  }
  return map;
}

std::string ShardMap::encode_to_string() const {
  net::Encoder enc;
  encode(enc);
  const auto bytes = std::move(enc).take();
  return std::string(bytes.begin(), bytes.end());
}

std::optional<ShardMap> ShardMap::decode_from_string(
    const std::string& bytes) {
  const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
  net::Decoder dec(std::span<const std::uint8_t>(data, bytes.size()));
  auto map = decode(dec);
  if (!map || !dec.done()) return std::nullopt;
  return map;
}

std::vector<std::uint8_t> MapOp::encode() const {
  net::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(type));
  enc.str(lo);
  enc.str(hi);
  enc.u32(group);
  return std::move(enc).take();
}

std::optional<MapOp> MapOp::decode(std::span<const std::uint8_t> bytes) {
  net::Decoder dec(bytes);
  MapOp op;
  const std::uint8_t type = dec.u8();
  op.lo = dec.str();
  op.hi = dec.str();
  op.group = dec.u32();
  if (!dec.done()) return std::nullopt;
  if (type < static_cast<std::uint8_t>(MapOpType::kGet) ||
      type > static_cast<std::uint8_t>(MapOpType::kCommitMove))
    return std::nullopt;
  op.type = static_cast<MapOpType>(type);
  return op;
}

std::string ShardMapMachine::apply_encoded(
    std::span<const std::uint8_t> bytes) {
  const auto op = MapOp::decode(bytes);
  if (!op) return smr::TypedResult::ok(map_.epoch, "<malformed>");
  return apply(*op);
}

std::string ShardMapMachine::apply(const MapOp& op) {
  switch (op.type) {
    case MapOpType::kGet:
      return smr::TypedResult::ok(map_.epoch, map_.encode_to_string());
    case MapOpType::kAssign: {
      // Replace any range starting at exactly op.lo, else insert sorted.
      // Overlap with neighbours is the operator's responsibility (the
      // harness assigns disjoint ranges); the machine stays deterministic
      // either way.
      ShardRange r{op.lo, op.hi, op.group, /*migrating=*/false};
      auto it = std::lower_bound(
          map_.ranges.begin(), map_.ranges.end(), op.lo,
          [](const ShardRange& a, const std::string& lo) { return a.lo < lo; });
      if (it != map_.ranges.end() && it->lo == op.lo)
        *it = std::move(r);
      else
        map_.ranges.insert(it, std::move(r));
      ++map_.epoch;
      return smr::TypedResult::ok(map_.epoch, "assigned");
    }
    case MapOpType::kPrepareMove: {
      for (ShardRange& r : map_.ranges) {
        if (r.lo != op.lo) continue;
        if (r.group == op.group)
          return smr::TypedResult::ok(map_.epoch, "noop");
        r.migrating = true;
        return smr::TypedResult::ok(map_.epoch, "prepared");
      }
      return smr::TypedResult::ok(map_.epoch, "no-such-range");
    }
    case MapOpType::kCommitMove: {
      for (ShardRange& r : map_.ranges) {
        if (r.lo != op.lo) continue;
        // A replayed duplicate COMMIT_MOVE must not advance the fencing
        // epoch: the epoch is forward-only and data groups compare it
        // exactly, so a spurious bump would fence out live routers.
        if (r.group == op.group && !r.migrating)
          return smr::TypedResult::ok(map_.epoch, "noop");
        r.group = op.group;
        r.migrating = false;
        ++map_.epoch;
        return smr::TypedResult::ok(map_.epoch, "committed");
      }
      return smr::TypedResult::ok(map_.epoch, "no-such-range");
    }
  }
  return smr::TypedResult::ok(map_.epoch, "<malformed>");
}

crypto::Digest ShardMapMachine::state_digest() const {
  return crypto::sha256(snapshot());
}

std::vector<std::uint8_t> ShardMapMachine::snapshot() const {
  net::Encoder enc;
  map_.encode(enc);
  return std::move(enc).take();
}

bool ShardMapMachine::restore(std::span<const std::uint8_t> bytes) {
  net::Decoder dec(bytes);
  auto map = ShardMap::decode(dec);
  if (!map || !dec.done()) return false;
  map_ = std::move(*map);
  return true;
}

}  // namespace qsel::shard
