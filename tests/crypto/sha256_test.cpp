#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "crypto/sha256_compress.hpp"

namespace qsel::crypto {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

// FIPS 180-4 / NIST test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(sha256({}).to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(sha256(bytes_of("abc")).to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      sha256(bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .to_hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  const std::vector<std::uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(hasher.finish().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const auto data = bytes_of("the quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Sha256 hasher;
    hasher.update(std::span(data.data(), split));
    hasher.update(std::span(data.data() + split, data.size() - split));
    EXPECT_EQ(hasher.finish(), sha256(data)) << "split=" << split;
  }
}

TEST(Sha256Test, PaddingBoundaries) {
  // Lengths around the 56-byte padding boundary and the 64-byte block size:
  // bulk updates must agree with byte-at-a-time updates.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 121u}) {
    const std::vector<std::uint8_t> data(len, 'x');
    Sha256 a;
    a.update(data);
    const Digest one = a.finish();
    Sha256 b;
    for (std::uint8_t byte : data) b.update(std::span(&byte, 1));
    EXPECT_EQ(b.finish(), one) << "len=" << len;
  }
}

TEST(Sha256Test, HasherIsReusableAfterFinish) {
  Sha256 hasher;
  hasher.update(bytes_of("abc"));
  const Digest first = hasher.finish();
  hasher.update(bytes_of("abc"));
  EXPECT_EQ(hasher.finish(), first);
}

/// FIPS 180-4 padding and length block built by hand around the scalar
/// compression: the oracle for the dispatched Sha256.
Digest scalar_sha256(const std::vector<std::uint8_t>& data) {
  std::vector<std::uint8_t> padded = data;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = 8 * static_cast<std::uint64_t>(data.size());
  for (int i = 7; i >= 0; --i)
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  detail::State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  detail::compress_scalar(state, padded.data(), padded.size() / 64);
  Digest digest;
  for (std::size_t i = 0; i < 32; ++i)
    digest.bytes[i] =
        static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  return digest;
}

TEST(Sha256Test, DispatchedMatchesScalarOracleAtEveryLength) {
  // Every padding case: one block, the 56-byte length boundary, two and
  // more blocks; one-shot and byte-at-a-time.
  Rng rng(256);
  for (std::size_t len = 0; len <= 300; ++len) {
    std::vector<std::uint8_t> data(len);
    for (auto& byte : data) byte = static_cast<std::uint8_t>(rng());
    const Digest expect = scalar_sha256(data);
    EXPECT_EQ(sha256(data), expect) << "len=" << len;
    Sha256 bytewise;
    for (std::uint8_t byte : data) bytewise.update(std::span(&byte, 1));
    EXPECT_EQ(bytewise.finish(), expect) << "len=" << len;
  }
}

TEST(Sha256Test, ShaNiMatchesScalarOracle) {
#if defined(__x86_64__)
  if (!detail::cpu_has_sha_ni())
    GTEST_SKIP() << "CPU lacks the x86 SHA extensions (cpuid sha / sha_ni): "
                    "only the scalar compression runs here";
  Rng rng(0x5a5a);
  const auto random_state = [&rng] {
    detail::State state;
    for (auto& word : state) word = static_cast<std::uint32_t>(rng());
    return state;
  };
  std::vector<std::uint8_t> blocks(8 * 64);
  const auto fill = [&rng, &blocks] {
    for (auto& byte : blocks) byte = static_cast<std::uint8_t>(rng());
  };
  for (int pair = 0; pair < 100'000; ++pair) {
    detail::State scalar = random_state();
    detail::State ni = scalar;
    fill();
    detail::compress_scalar(scalar, blocks.data(), 1);
    detail::compress_sha_ni(ni, blocks.data(), 1);
    ASSERT_EQ(ni, scalar) << "pair " << pair;
  }
  // Multi-block calls carry the state across blocks inside the vectors.
  for (std::size_t count = 2; count <= 8; ++count) {
    detail::State scalar = random_state();
    detail::State ni = scalar;
    fill();
    detail::compress_scalar(scalar, blocks.data(), count);
    detail::compress_sha_ni(ni, blocks.data(), count);
    EXPECT_EQ(ni, scalar) << count << " blocks";
  }
#else
  GTEST_SKIP() << "not x86-64: no SHA extensions to compare";
#endif
}

TEST(Sha256Test, CountsCompressions) {
  const std::uint64_t before = hash_counters.compressions;
  sha256(std::vector<std::uint8_t>(55, 'x'));   // one block
  sha256(std::vector<std::uint8_t>(56, 'x'));   // the length spills: two
  sha256(std::vector<std::uint8_t>(200, 'x'));  // four
  EXPECT_EQ(hash_counters.compressions - before, 7u);
}

TEST(DigestTest, Prefix64AndHex) {
  const Digest d = sha256(bytes_of("abc"));
  EXPECT_EQ(d.prefix64(), 0xba7816bf8f01cfeaULL);
  EXPECT_EQ(d.to_hex().size(), 64u);
}

TEST(DigestTest, OrderingIsDeterministic) {
  const Digest a = sha256(bytes_of("a"));
  const Digest b = sha256(bytes_of("b"));
  EXPECT_NE(a, b);
  EXPECT_TRUE((a < b) != (b < a));
}

}  // namespace
}  // namespace qsel::crypto
