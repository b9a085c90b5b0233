#include "app/kv_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace qsel::app {
namespace {

TEST(OperationTest, EncodeDecodeRoundTrip) {
  const Operation op{OpType::kPut, "key-1", "value-1"};
  const auto decoded = Operation::decode(op.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, op);
}

TEST(OperationTest, MalformedBytesRejected) {
  EXPECT_FALSE(Operation::decode(std::vector<std::uint8_t>{}).has_value());
  EXPECT_FALSE(Operation::decode(std::vector<std::uint8_t>{9, 9}).has_value());
  // Valid layout but unknown op type.
  Operation op{OpType::kGet, "k", ""};
  auto bytes = op.encode();
  bytes[0] = 77;
  EXPECT_FALSE(Operation::decode(bytes).has_value());
  // Trailing garbage.
  bytes = op.encode();
  bytes.push_back(0);
  EXPECT_FALSE(Operation::decode(bytes).has_value());
}

TEST(KvStoreTest, PutGetDel) {
  KvStore store;
  EXPECT_EQ(store.apply({OpType::kPut, "a", "1"}), "");
  EXPECT_EQ(store.apply({OpType::kGet, "a", ""}), "1");
  EXPECT_EQ(store.apply({OpType::kPut, "a", "2"}), "replaced");
  EXPECT_EQ(store.apply({OpType::kGet, "a", ""}), "2");
  EXPECT_EQ(store.apply({OpType::kDel, "a", ""}), "deleted");
  EXPECT_EQ(store.apply({OpType::kDel, "a", ""}), "");
  EXPECT_EQ(store.apply({OpType::kGet, "a", ""}), "");
  EXPECT_EQ(store.ops_applied(), 7u);
}

TEST(KvStoreTest, ApplyEncodedMalformedIsDeterministicNoop) {
  KvStore a;
  KvStore b;
  const std::vector<std::uint8_t> garbage{1, 2, 3};
  EXPECT_EQ(a.apply_encoded(garbage), "<malformed>");
  EXPECT_EQ(b.apply_encoded(garbage), "<malformed>");
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(KvStoreTest, DigestReflectsHistory) {
  KvStore a;
  KvStore b;
  EXPECT_EQ(a.state_digest(), b.state_digest());
  a.apply({OpType::kPut, "x", "1"});
  EXPECT_NE(a.state_digest(), b.state_digest());
  b.apply({OpType::kPut, "x", "1"});
  EXPECT_EQ(a.state_digest(), b.state_digest());
  // Same final contents but different op counts differ.
  a.apply({OpType::kGet, "x", ""});
  EXPECT_NE(a.state_digest(), b.state_digest());
}

TEST(KvStoreTest, SnapshotRestoreRoundTrips) {
  KvStore source;
  source.apply({OpType::kPut, "x", "1"});
  source.apply({OpType::kPut, "y", "2"});
  source.apply({OpType::kDel, "x", ""});
  source.apply({OpType::kGet, "y", ""});
  KvStore copy;
  copy.apply({OpType::kPut, "stale", "gone after restore"});
  ASSERT_TRUE(copy.restore(source.snapshot()));
  EXPECT_EQ(copy.state_digest(), source.state_digest());
  EXPECT_EQ(copy.snapshot(), source.snapshot());
  EXPECT_EQ(copy.ops_applied(), 4u);
  EXPECT_EQ(copy.get("y"), "2");
  EXPECT_FALSE(copy.get("stale").has_value());
  // Malformed bytes leave the state alone.
  std::vector<std::uint8_t> truncated = source.snapshot();
  truncated.pop_back();
  EXPECT_FALSE(copy.restore(truncated));
  EXPECT_EQ(copy.state_digest(), source.state_digest());
}

TEST(KvStoreTest, GetObserver) {
  KvStore store;
  EXPECT_FALSE(store.get("missing").has_value());
  store.apply({OpType::kPut, "k", "v"});
  EXPECT_EQ(store.get("k"), "v");
  EXPECT_EQ(store.size(), 1u);
}

}  // namespace
}  // namespace qsel::app
