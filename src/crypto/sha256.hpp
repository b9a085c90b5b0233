// Self-contained SHA-256 (FIPS 180-4).
//
// Used for request digests in the replicated application (XPaxos COMMIT
// messages carry a hash of the client request, Section V-A) and as the
// compression core of HMAC-based simulated signatures. Implemented from
// the specification; test vectors in tests/crypto/sha256_test.cpp.
//
// The block compression runs on the x86 SHA extensions when the CPU has
// them and on portable scalar code otherwise, chosen once per process
// from the CPU's feature bits (crypto/sha256_compress.hpp). Both produce
// the same bytes; the scalar function is the tests' oracle.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace qsel::crypto {

struct Digest {
  std::array<std::uint8_t, 32> bytes{};

  bool operator==(const Digest&) const = default;
  auto operator<=>(const Digest&) const = default;

  std::string to_hex() const;

  /// First 8 bytes as an integer, handy as a short deterministic tag.
  std::uint64_t prefix64() const {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v = (v << 8) | bytes[static_cast<std::size_t>(i)];
    return v;
  }
};

class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(std::span<const std::uint8_t> data);
  /// Finalizes and resets the hasher for reuse.
  Digest finish();

 private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot convenience.
Digest sha256(std::span<const std::uint8_t> data);

/// Hashing work done by this process, for attribution (BENCH_9). Plain
/// integers: the code base starts no threads. Read deltas around the
/// work of interest.
struct HashCounters {
  std::uint64_t compressions = 0;  // SHA-256 blocks compressed
  std::uint64_t hmacs = 0;         // HMAC-SHA256 tags computed
};
extern HashCounters hash_counters;

}  // namespace qsel::crypto
