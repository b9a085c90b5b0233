// ShardMap + ShardMapMachine: lookup over sorted ranges, codec
// round-trips with malformed-input rejection, and the epoch discipline of
// the map ops (ASSIGN and COMMIT_MOVE bump, PREPARE_MOVE does not).
#include "shard/shard_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "smr/typed_result.hpp"

namespace qsel::shard {
namespace {

ShardMap two_shards() {
  ShardMap map;
  map.epoch = 3;
  map.ranges = {{"", "m", 1, false}, {"m", "", 2, false}};
  return map;
}

TEST(ShardMapTest, LookupRoutesByRange) {
  const ShardMap map = two_shards();
  ASSERT_NE(map.lookup("apple"), nullptr);
  EXPECT_EQ(map.lookup("apple")->group, 1u);
  EXPECT_EQ(map.lookup("m")->group, 2u);       // lo is inclusive
  EXPECT_EQ(map.lookup("zebra")->group, 2u);   // hi "" = unbounded
  EXPECT_EQ(map.lookup("")->group, 1u);
}

TEST(ShardMapTest, LookupOutsideAnyRangeIsNull) {
  ShardMap map;
  map.ranges = {{"g", "m", 1, false}};
  EXPECT_EQ(map.lookup("a"), nullptr);
  EXPECT_EQ(map.lookup("m"), nullptr);  // hi is exclusive
  EXPECT_NE(map.lookup("g"), nullptr);
}

TEST(ShardMapTest, StringCodecRoundTrips) {
  const ShardMap map = two_shards();
  const auto decoded = ShardMap::decode_from_string(map.encode_to_string());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, map);
}

TEST(ShardMapTest, DecodeRejectsUnsortedRanges) {
  ShardMap map;
  map.ranges = {{"m", "", 2, false}, {"", "m", 1, false}};  // wrong order
  net::Encoder enc;
  enc.u64(map.epoch);
  enc.u32(2);
  for (const ShardRange& r : map.ranges) {
    enc.str(r.lo);
    enc.str(r.hi);
    enc.u32(r.group);
    enc.u8(0);
  }
  const auto bytes = std::move(enc).take();
  EXPECT_FALSE(ShardMap::decode_from_string(
                   std::string(bytes.begin(), bytes.end()))
                   .has_value());
  EXPECT_FALSE(ShardMap::decode_from_string("junk").has_value());
}

TEST(ShardMapMachineTest, AssignInsertsAndBumpsEpoch) {
  ShardMapMachine machine;
  EXPECT_EQ(machine.map().epoch, 1u);

  const auto op = MapOp{MapOpType::kAssign, "", "m", 1}.encode();
  const auto result = smr::TypedResult::parse(machine.apply_encoded(op));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->value, "assigned");
  EXPECT_EQ(result->epoch, 2u);
  EXPECT_EQ(machine.map().epoch, 2u);
  ASSERT_EQ(machine.map().ranges.size(), 1u);

  // Re-assigning the same lo replaces in place.
  machine.apply_encoded(MapOp{MapOpType::kAssign, "", "m", 2}.encode());
  ASSERT_EQ(machine.map().ranges.size(), 1u);
  EXPECT_EQ(machine.map().ranges[0].group, 2u);
  EXPECT_EQ(machine.map().epoch, 3u);
}

TEST(ShardMapMachineTest, MoveLifecycleBumpsOnCommitOnly) {
  ShardMapMachine machine;
  machine.apply_encoded(MapOp{MapOpType::kAssign, "", "m", 1}.encode());
  const std::uint64_t epoch = machine.map().epoch;

  auto prepared = smr::TypedResult::parse(machine.apply_encoded(
      MapOp{MapOpType::kPrepareMove, "", "", 2}.encode()));
  ASSERT_TRUE(prepared.has_value());
  EXPECT_EQ(prepared->value, "prepared");
  EXPECT_EQ(machine.map().epoch, epoch);  // no bump yet
  EXPECT_TRUE(machine.map().ranges[0].migrating);

  auto committed = smr::TypedResult::parse(machine.apply_encoded(
      MapOp{MapOpType::kCommitMove, "", "", 2}.encode()));
  ASSERT_TRUE(committed.has_value());
  EXPECT_EQ(committed->value, "committed");
  EXPECT_EQ(machine.map().epoch, epoch + 1);
  EXPECT_EQ(machine.map().ranges[0].group, 2u);
  EXPECT_FALSE(machine.map().ranges[0].migrating);

  // Preparing a move to the current owner is a no-op.
  auto noop = smr::TypedResult::parse(machine.apply_encoded(
      MapOp{MapOpType::kPrepareMove, "", "", 2}.encode()));
  ASSERT_TRUE(noop.has_value());
  EXPECT_EQ(noop->value, "noop");

  // Moves against an unknown range fail deterministically.
  auto missing = smr::TypedResult::parse(machine.apply_encoded(
      MapOp{MapOpType::kCommitMove, "zzz", "", 2}.encode()));
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->value, "no-such-range");
}

TEST(ShardMapMachineTest, SnapshotRestoreRoundTrips) {
  ShardMapMachine source;
  source.apply_encoded(MapOp{MapOpType::kAssign, "", "m", 1}.encode());
  source.apply_encoded(MapOp{MapOpType::kAssign, "m", "", 2}.encode());
  source.apply_encoded(MapOp{MapOpType::kPrepareMove, "", "", 3}.encode());
  ShardMapMachine copy;
  ASSERT_TRUE(copy.restore(source.snapshot()));
  EXPECT_EQ(copy.state_digest(), source.state_digest());
  EXPECT_EQ(copy.map(), source.map());
  EXPECT_FALSE(copy.restore(std::vector<std::uint8_t>{0xff}));
  EXPECT_EQ(copy.map(), source.map());
}

TEST(ShardMapMachineTest, GetReturnsTheEncodedMap) {
  ShardMapMachine machine;
  machine.apply_encoded(MapOp{MapOpType::kAssign, "", "m", 1}.encode());
  const auto result = smr::TypedResult::parse(
      machine.apply_encoded(MapOp{MapOpType::kGet, "", "", 0}.encode()));
  ASSERT_TRUE(result.has_value());
  const auto map = ShardMap::decode_from_string(result->value);
  ASSERT_TRUE(map.has_value());
  EXPECT_EQ(*map, machine.map());
}

TEST(ShardMapMachineTest, MalformedOpsAreDeterministicNoops) {
  ShardMapMachine machine;
  const auto digest = machine.state_digest();
  const std::vector<std::uint8_t> junk{0xff, 0xff};
  const auto result = smr::TypedResult::parse(machine.apply_encoded(junk));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->value, "<malformed>");
  EXPECT_EQ(machine.state_digest(), digest);
}

}  // namespace
}  // namespace qsel::shard
