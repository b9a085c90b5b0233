// ShardKv fencing and hand-off tests: the F1–F4 invariants, the freeze /
// snapshot / install / adopt / drop protocol including duplicate and
// reordered chunks, digest-verified adoption, and the determinism that
// makes every decision safe to take post-consensus.
#include "shard/shard_kv.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "net/codec.hpp"
#include "smr/typed_result.hpp"

namespace qsel::shard {
namespace {

using smr::ResultStatus;
using smr::TypedResult;

std::vector<std::uint8_t> put(const std::string& key,
                              const std::string& value) {
  return app::Operation{app::OpType::kPut, key, value}.encode();
}

std::vector<std::uint8_t> get(const std::string& key) {
  return app::Operation{app::OpType::kGet, key, {}}.encode();
}

std::span<const std::uint8_t> as_span(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TypedResult apply_op(ShardKv& kv, const std::vector<std::uint8_t>& op) {
  const auto result = TypedResult::parse(kv.apply_encoded(op));
  EXPECT_TRUE(result.has_value()) << "untyped result from ShardKv";
  return result.value_or(TypedResult{});
}

ShardKv low_half(std::uint64_t epoch = 1) {
  ShardKv::Config config;
  config.initial_epoch = epoch;
  config.owned = {{"", "m"}};
  return ShardKv(std::move(config));
}

TEST(ShardKvSnapshotTest, SnapshotRestoreRoundTrips) {
  // Owned ranges, an epoch bump, a source-side freeze and a half-installed
  // destination migration all travel in the snapshot.
  ShardKv source = low_half(/*epoch=*/3);
  apply_op(source, ShardKvOp::client_op(3, put("apple", "1")));
  apply_op(source, ShardKvOp::freeze(/*migration_id=*/7, "a", "b"));
  apply_op(source, ShardKvOp::install_chunk(
                       /*migration_id=*/9, /*chunk_seq=*/0,
                       encode_pairs({{"pear", "2"}})));
  ShardKv copy = low_half();
  ASSERT_TRUE(copy.restore(source.snapshot()));
  EXPECT_EQ(copy.state_digest(), source.state_digest());
  EXPECT_EQ(copy.snapshot(), source.snapshot());
  EXPECT_EQ(copy.config_epoch(), 3u);
  EXPECT_TRUE(copy.is_frozen("apple"));
  // The copy goes on deciding exactly as the source does.
  const auto op = ShardKvOp::client_op(3, put("cherry", "3"));
  EXPECT_EQ(copy.apply_encoded(op), source.apply_encoded(op));
  EXPECT_EQ(copy.state_digest(), source.state_digest());
  EXPECT_FALSE(copy.restore(std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(copy.state_digest(), source.state_digest());
}

TEST(ShardKvFencingTest, StaleEpochRejectedBeforeAnythingElse) {
  ShardKv kv = low_half(/*epoch=*/5);
  // F1: even an op for a key we own, with a frozen-range miss, is fenced
  // on epoch first.
  const auto result =
      apply_op(kv, ShardKvOp::client_op(/*epoch=*/4, put("apple", "1")));
  EXPECT_EQ(result.status, ResultStatus::kStaleEpoch);
  EXPECT_EQ(result.epoch, 5u);
  EXPECT_EQ(kv.kv().size(), 0u);
}

TEST(ShardKvFencingTest, NewerEpochIsAccepted) {
  // The client refetched the map before this replica heard of the bump —
  // ownership still gates, so accepting is safe.
  ShardKv kv = low_half(/*epoch=*/5);
  const auto result =
      apply_op(kv, ShardKvOp::client_op(/*epoch=*/7, put("apple", "1")));
  EXPECT_EQ(result.status, ResultStatus::kOk);
  EXPECT_EQ(kv.kv().size(), 1u);
}

TEST(ShardKvFencingTest, UnownedKeyIsWrongGroup) {
  ShardKv kv = low_half();
  const auto result =
      apply_op(kv, ShardKvOp::client_op(1, put("zebra", "1")));  // >= "m"
  EXPECT_EQ(result.status, ResultStatus::kWrongGroup);
  EXPECT_EQ(result.epoch, 1u);
  EXPECT_EQ(kv.kv().size(), 0u);
}

TEST(ShardKvFencingTest, FrozenRangeRejectsWritesUntilDrop) {
  ShardKv kv = low_half();
  apply_op(kv, ShardKvOp::client_op(1, put("apple", "1")));

  apply_op(kv, ShardKvOp::freeze(/*migration=*/9, "a", "c"));
  EXPECT_TRUE(kv.is_frozen("apple"));
  EXPECT_FALSE(kv.is_frozen("date"));

  // F3: both reads and writes inside the frozen range reject.
  EXPECT_EQ(apply_op(kv, ShardKvOp::client_op(1, put("apple", "2"))).status,
            ResultStatus::kFrozen);
  EXPECT_EQ(apply_op(kv, ShardKvOp::client_op(1, get("apple"))).status,
            ResultStatus::kFrozen);
  // Keys outside the freeze stay serviceable.
  EXPECT_EQ(apply_op(kv, ShardKvOp::client_op(1, put("date", "4"))).status,
            ResultStatus::kOk);

  // Freeze is idempotent: a duplicate freeze op changes nothing.
  const auto digest = kv.state_digest();
  apply_op(kv, ShardKvOp::freeze(9, "a", "c"));
  EXPECT_EQ(kv.state_digest(), digest);
}

TEST(ShardKvFencingTest, EpochOnlyMovesForward) {
  ShardKv kv = low_half();
  apply_op(kv, ShardKvOp::freeze(1, "a", "c"));
  apply_op(kv, ShardKvOp::drop(1, /*epoch_new=*/4, "a", "c"));
  EXPECT_EQ(kv.config_epoch(), 4u);
  // F4: a late drop carrying an older epoch cannot roll it back.
  apply_op(kv, ShardKvOp::freeze(2, "c", "f"));
  apply_op(kv, ShardKvOp::drop(2, /*epoch_new=*/3, "c", "f"));
  EXPECT_EQ(kv.config_epoch(), 4u);
}

// ---------------------------------------------------------------------------
// Hand-off: source side.

TEST(ShardKvHandoffTest, SnapshotChunksCoverTheFrozenRange) {
  ShardKv kv = low_half();
  for (char c = 'a'; c <= 'e'; ++c)
    apply_op(kv, ShardKvOp::client_op(1, put(std::string(1, c), "v")));
  apply_op(kv, ShardKvOp::freeze(1, "a", "d"));

  const auto info = apply_op(kv, ShardKvOp::range_info("a", "d"));
  net::Decoder dec(as_span(info.value));
  EXPECT_EQ(dec.u64(), 3u);  // a, b, c — d is exclusive
  const crypto::Digest range_digest = dec.digest();
  ASSERT_TRUE(dec.done());
  EXPECT_EQ(range_digest, kv.kv().range_digest("a", "d"));

  // Two chunks of 2: [a, b], [c].
  const auto chunk0 =
      apply_op(kv, ShardKvOp::snapshot_chunk("a", "d", 0, 2)).value;
  const auto chunk1 =
      apply_op(kv, ShardKvOp::snapshot_chunk("a", "d", 2, 2)).value;
  const auto pairs0 = decode_pairs(as_span(chunk0));
  const auto pairs1 = decode_pairs(as_span(chunk1));
  ASSERT_TRUE(pairs0 && pairs1);
  EXPECT_EQ(pairs0->size(), 2u);
  EXPECT_EQ(pairs1->size(), 1u);
  EXPECT_EQ((*pairs0)[0].first, "a");
  EXPECT_EQ((*pairs1)[0].first, "c");
}

TEST(ShardKvHandoffTest, DropErasesRangeUnfreezesAndFences) {
  ShardKv kv = low_half();
  apply_op(kv, ShardKvOp::client_op(1, put("apple", "1")));
  apply_op(kv, ShardKvOp::client_op(1, put("kiwi", "2")));
  apply_op(kv, ShardKvOp::freeze(7, "a", "c"));

  const auto result = apply_op(kv, ShardKvOp::drop(7, 2, "a", "c"));
  EXPECT_EQ(result.value, "dropped");
  EXPECT_EQ(kv.config_epoch(), 2u);
  EXPECT_FALSE(kv.owns("apple"));
  EXPECT_FALSE(kv.is_frozen("apple"));
  EXPECT_TRUE(kv.owns("kiwi"));
  EXPECT_EQ(kv.kv().range_size("a", "c"), 0u);
  EXPECT_EQ(kv.kv().range_size("", ""), 1u);  // kiwi survived

  // A stale client (map epoch 1) now gets STALE_EPOCH, not silence.
  EXPECT_EQ(apply_op(kv, ShardKvOp::client_op(1, put("apple", "x"))).status,
            ResultStatus::kStaleEpoch);
}

// ---------------------------------------------------------------------------
// Hand-off: destination side.

struct Handoff {
  ShardKv source = low_half();
  ShardKv dest{ShardKv::Config{1, {{"m", ""}}}};
  crypto::Digest digest{};
  std::vector<std::string> chunks;  // encoded pair blocks, in order

  /// Freezes [a, c) on the source and snapshots it in chunks of 2.
  void stage(int keys) {
    for (int i = 0; i < keys; ++i) {
      std::string key = "a";
      key.append(std::to_string(i));
      apply_op(source, ShardKvOp::client_op(1, put(key, "v")));
    }
    apply_op(source, ShardKvOp::freeze(1, "a", "c"));
    const auto info = apply_op(source, ShardKvOp::range_info("a", "c"));
    net::Decoder dec(as_span(info.value));
    const std::uint64_t count = dec.u64();
    digest = dec.digest();
    for (std::uint64_t offset = 0; offset < count; offset += 2)
      chunks.push_back(
          apply_op(source, ShardKvOp::snapshot_chunk("a", "c", offset, 2))
              .value);
  }

  std::vector<std::uint8_t> chunk_bytes(std::size_t i) const {
    return {chunks[i].begin(), chunks[i].end()};
  }
};

TEST(ShardKvHandoffTest, AdoptVerifiesDigestAndTakesOwnership) {
  Handoff h;
  h.stage(5);
  ASSERT_EQ(h.chunks.size(), 3u);
  for (std::size_t i = 0; i < h.chunks.size(); ++i)
    EXPECT_EQ(apply_op(h.dest, ShardKvOp::install_chunk(
                  1, static_cast<std::uint32_t>(i), h.chunk_bytes(i)))
                  .value,
              "installed");

  const auto adopted = apply_op(
      h.dest, ShardKvOp::adopt(1, /*epoch_new=*/2, "a", "c", h.digest, 3));
  EXPECT_EQ(adopted.value, "adopted");
  EXPECT_TRUE(h.dest.owns("a1"));
  EXPECT_EQ(h.dest.config_epoch(), 2u);
  // The migrated data digests identically on both sides.
  EXPECT_EQ(h.dest.kv().range_digest("a", "c"),
            h.source.kv().range_digest("a", "c"));
}

TEST(ShardKvHandoffTest, DuplicateAndReorderedChunksAreAbsorbed) {
  Handoff h;
  h.stage(5);
  ASSERT_EQ(h.chunks.size(), 3u);
  // Deliver out of order, with duplicates.
  EXPECT_EQ(apply_op(h.dest, ShardKvOp::install_chunk(1, 2, h.chunk_bytes(2)))
                .value,
            "installed");
  EXPECT_EQ(apply_op(h.dest, ShardKvOp::install_chunk(1, 0, h.chunk_bytes(0)))
                .value,
            "installed");
  EXPECT_EQ(apply_op(h.dest, ShardKvOp::install_chunk(1, 0, h.chunk_bytes(0)))
                .value,
            "dup");
  EXPECT_EQ(apply_op(h.dest, ShardKvOp::install_chunk(1, 1, h.chunk_bytes(1)))
                .value,
            "installed");
  EXPECT_EQ(apply_op(h.dest, ShardKvOp::install_chunk(1, 2, h.chunk_bytes(2)))
                .value,
            "dup");

  const auto adopted =
      apply_op(h.dest, ShardKvOp::adopt(1, 2, "a", "c", h.digest, 3));
  EXPECT_EQ(adopted.value, "adopted");
  EXPECT_EQ(h.dest.kv().range_digest("a", "c"),
            h.source.kv().range_digest("a", "c"));
}

TEST(ShardKvHandoffTest, AdoptWithMissingChunksFailsDeterministically) {
  Handoff h;
  h.stage(5);
  apply_op(h.dest, ShardKvOp::install_chunk(1, 0, h.chunk_bytes(0)));
  const auto adopted =
      apply_op(h.dest, ShardKvOp::adopt(1, 2, "a", "c", h.digest, 3));
  EXPECT_EQ(adopted.value, "adopt-missing-chunks");
  EXPECT_FALSE(h.dest.owns("a1"));
  EXPECT_EQ(h.dest.config_epoch(), 1u);  // ownership unchanged, no bump
}

TEST(ShardKvHandoffTest, AdoptWithDigestMismatchFails) {
  Handoff h;
  h.stage(3);
  for (std::size_t i = 0; i < h.chunks.size(); ++i)
    apply_op(h.dest, ShardKvOp::install_chunk(
                  1, static_cast<std::uint32_t>(i), h.chunk_bytes(i)));
  crypto::Digest wrong = h.digest;
  wrong.bytes[0] ^= 0xff;
  const auto adopted = apply_op(
      h.dest,
      ShardKvOp::adopt(1, 2, "a", "c", wrong,
                       static_cast<std::uint32_t>(h.chunks.size())));
  EXPECT_EQ(adopted.value, "adopt-digest-mismatch");
  EXPECT_FALSE(h.dest.owns("a1"));
}

TEST(ShardKvTest, MalformedOpsLeaveStateUntouched) {
  ShardKv kv = low_half();
  const auto digest = kv.state_digest();
  const std::vector<std::uint8_t> junk{0x00, 0x01, 0x02};
  const auto result = TypedResult::parse(kv.apply_encoded(junk));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->value, "<malformed>");
  EXPECT_EQ(kv.state_digest(), digest);
}

TEST(ShardKvTest, ReplicasApplyingSameLogAgreeOnDigest) {
  // The determinism claim behind post-consensus fencing: two replicas
  // applying the same op sequence agree byte-for-byte, rejects included.
  ShardKv a = low_half();
  ShardKv b = low_half();
  const std::vector<std::vector<std::uint8_t>> log = {
      ShardKvOp::client_op(1, put("apple", "1")),
      ShardKvOp::client_op(0, put("apple", "Z")),  // stale: rejected
      ShardKvOp::freeze(4, "a", "c"),
      ShardKvOp::client_op(1, put("apple", "2")),  // frozen: rejected
      ShardKvOp::client_op(1, put("kiwi", "3")),
      ShardKvOp::drop(4, 2, "a", "c"),
  };
  for (const auto& op : log) EXPECT_EQ(a.apply_encoded(op), b.apply_encoded(op));
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

}  // namespace
}  // namespace qsel::shard
