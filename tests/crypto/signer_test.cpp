#include "crypto/signer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace qsel::crypto {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(SignerTest, SignVerifyRoundTrip) {
  const KeyRegistry registry(4, 1);
  const Signer signer(registry, 2);
  const auto msg = bytes_of("PREPARE view=1 slot=7");
  const Signature sig = signer.sign(msg);
  EXPECT_EQ(sig.signer, 2u);
  EXPECT_TRUE(signer.verify(msg, sig));
}

TEST(SignerTest, TamperedMessageFails) {
  const KeyRegistry registry(4, 1);
  const Signer signer(registry, 0);
  const Signature sig = signer.sign(bytes_of("original"));
  EXPECT_FALSE(signer.verify(bytes_of("tampered"), sig));
}

TEST(SignerTest, ForgedSignerIdFails) {
  const KeyRegistry registry(4, 1);
  const Signer byzantine(registry, 3);
  const auto msg = bytes_of("equivocation");
  // A Byzantine process signs with its own key but claims another id.
  Signature forged = byzantine.sign(msg);
  forged.signer = 1;
  EXPECT_FALSE(byzantine.verify(msg, forged));
}

TEST(SignerTest, UnknownSignerIdFails) {
  const KeyRegistry registry(4, 1);
  const Signer signer(registry, 0);
  Signature sig = signer.sign(bytes_of("m"));
  sig.signer = 99;
  EXPECT_FALSE(signer.verify(bytes_of("m"), sig));
}

TEST(SignerTest, KeysDifferAcrossProcessesAndSeeds) {
  const KeyRegistry a(3, 1);
  const KeyRegistry b(3, 2);
  const auto msg = bytes_of("m");
  EXPECT_NE(a.sign(0, msg).tag, a.sign(1, msg).tag);
  EXPECT_NE(a.sign(0, msg).tag, b.sign(0, msg).tag);
}

TEST(SignerTest, DeterministicAcrossRegistryCopies) {
  const KeyRegistry a(3, 7);
  const KeyRegistry b(3, 7);
  const auto msg = bytes_of("m");
  EXPECT_EQ(a.sign(2, msg).tag, b.sign(2, msg).tag);
  EXPECT_TRUE(b.verify(msg, a.sign(2, msg)));

  // A key's midstates are built on its first use: tags are the same
  // before and after, whether that use is a sign or a verify.
  const KeyRegistry fresh(3, 7);
  const Signature first = fresh.sign(1, msg);
  EXPECT_EQ(fresh.sign(1, msg), first);
  EXPECT_EQ(a.sign(1, msg), first);
  const KeyRegistry verify_first(3, 7);
  EXPECT_TRUE(verify_first.verify(msg, first));
  EXPECT_EQ(verify_first.sign(1, msg), first);

  // Copies of a partly built registry (keys 1 and 2 built, 0 not) sign
  // and verify like the original, on built and unbuilt keys alike.
  const KeyRegistry copy = a;
  for (ProcessId id = 0; id < 3; ++id) {
    EXPECT_EQ(copy.sign(id, msg), b.sign(id, msg)) << "key " << id;
    EXPECT_TRUE(copy.verify(msg, a.sign(id, msg))) << "key " << id;
  }
}

}  // namespace
}  // namespace qsel::crypto
