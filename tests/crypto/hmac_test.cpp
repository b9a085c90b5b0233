#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"

namespace qsel::crypto {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

// RFC 4231 test vectors for HMAC-SHA256.
TEST(HmacTest, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  EXPECT_EQ(hmac_sha256(key, bytes_of("Hi There")).to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(
      hmac_sha256(bytes_of("Jefe"), bytes_of("what do ya want for nothing?"))
          .to_hex(),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> message(50, 0xdd);
  EXPECT_EQ(hmac_sha256(key, message).to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case4) {
  std::vector<std::uint8_t> key;
  for (std::uint8_t b = 0x01; b <= 0x19; ++b) key.push_back(b);
  const std::vector<std::uint8_t> message(50, 0xcd);
  EXPECT_EQ(hmac_sha256(key, message).to_hex(),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacTest, Rfc4231Case5Truncated) {
  const std::vector<std::uint8_t> key(20, 0x0c);
  EXPECT_EQ(hmac_sha256(key, bytes_of("Test With Truncation"))
                .to_hex()
                .substr(0, 32),
            "a3b6167473100ee06e0c796c2955552b");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  // Key longer than the block size must be hashed first.
  const std::vector<std::uint8_t> key(131, 0xaa);
  EXPECT_EQ(hmac_sha256(key, bytes_of("Test Using Larger Than Block-Size Key "
                                      "- Hash Key First"))
                .to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, Rfc4231Case7LongKeyAndMessage) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  EXPECT_EQ(
      hmac_sha256(key, bytes_of("This is a test using a larger than "
                                "block-size key and a larger than block-size "
                                "data. The key needs to be hashed before "
                                "being used by the HMAC algorithm."))
          .to_hex(),
      "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

/// RFC 2104 spelled out: H((K' ^ opad) || H((K' ^ ipad) || m)), with K'
/// the key zero-padded to a block, or its hash when longer than a block.
Digest textbook_hmac(const std::vector<std::uint8_t>& key,
                     const std::vector<std::uint8_t>& message) {
  std::vector<std::uint8_t> block = key;
  if (block.size() > 64) {
    const Digest hashed = sha256(key);
    block.assign(hashed.bytes.begin(), hashed.bytes.end());
  }
  block.resize(64, 0);
  std::vector<std::uint8_t> inner;
  for (std::uint8_t b : block) inner.push_back(b ^ 0x36);
  inner.insert(inner.end(), message.begin(), message.end());
  const Digest inner_digest = sha256(inner);
  std::vector<std::uint8_t> outer;
  for (std::uint8_t b : block) outer.push_back(b ^ 0x5c);
  outer.insert(outer.end(), inner_digest.bytes.begin(),
               inner_digest.bytes.end());
  return sha256(outer);
}

TEST(HmacKeyTest, MatchesTextbookHmac) {
  // Key lengths across the block size (64), one past it and the hashed
  // case; message lengths across one, two and several inner blocks. One
  // HmacKey serves every message, so its midstates must survive reuse.
  Rng rng(4231);
  std::vector<std::uint8_t> message(300);
  for (auto& byte : message) byte = static_cast<std::uint8_t>(rng());
  for (std::size_t key_len = 0; key_len <= 130; ++key_len) {
    std::vector<std::uint8_t> key(key_len);
    for (auto& byte : key) byte = static_cast<std::uint8_t>(rng());
    const HmacKey hmac_key(key);
    for (std::size_t len = 0; len <= message.size(); ++len) {
      const std::vector<std::uint8_t> m(message.begin(),
                                        message.begin() +
                                            static_cast<std::ptrdiff_t>(len));
      ASSERT_EQ(hmac_key.mac(m), textbook_hmac(key, m))
          << "key " << key_len << " B, message " << len << " B";
    }
    EXPECT_EQ(hmac_sha256(key, message), textbook_hmac(key, message));
  }
}

TEST(HmacKeyTest, ShortMessageCostsTwoCompressions) {
  // The key's two blocks are paid once, at construction; a message of at
  // most 55 bytes then fits the inner hash's final block, and the inner
  // digest the outer one's.
  const std::vector<std::uint8_t> key(32, 0x42);
  std::uint64_t before = hash_counters.compressions;
  const HmacKey hmac_key(key);
  EXPECT_EQ(hash_counters.compressions - before, 2u);
  const std::vector<std::uint8_t> message(56, 0x17);
  for (std::size_t len = 0; len <= 55; ++len) {
    before = hash_counters.compressions;
    const std::uint64_t hmacs = hash_counters.hmacs;
    hmac_key.mac(std::span(message.data(), len));
    EXPECT_EQ(hash_counters.compressions - before, 2u) << "len=" << len;
    EXPECT_EQ(hash_counters.hmacs - hmacs, 1u);
  }
  before = hash_counters.compressions;
  hmac_key.mac(message);
  EXPECT_EQ(hash_counters.compressions - before, 3u) << "56 bytes spill";
}

TEST(HmacTest, DifferentKeysDifferentTags) {
  const auto msg = bytes_of("message");
  EXPECT_NE(hmac_sha256(bytes_of("key1"), msg),
            hmac_sha256(bytes_of("key2"), msg));
}

TEST(HmacTest, DifferentMessagesDifferentTags) {
  const auto key = bytes_of("key");
  EXPECT_NE(hmac_sha256(key, bytes_of("a")), hmac_sha256(key, bytes_of("b")));
}

}  // namespace
}  // namespace qsel::crypto
