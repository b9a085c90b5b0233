// HMAC-SHA256 (RFC 2104).
//
// The simulated signature scheme (crypto/signer.hpp) authenticates message
// bytes with HMAC under a per-process private key, giving the paper's
// "cryptographic primitives cannot be broken" abstraction inside the
// simulator.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/sha256.hpp"

namespace qsel::crypto {

/// An HMAC-SHA256 key with its two key-only blocks already compressed:
/// `inner_` has absorbed key ^ ipad and `outer_` key ^ opad. Each mac()
/// copies them and finishes, saving the two compressions a from-scratch
/// HMAC spends on those blocks; the tags are the RFC 2104 bytes.
class HmacKey {
 public:
  explicit HmacKey(std::span<const std::uint8_t> key);

  Digest mac(std::span<const std::uint8_t> message) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// One-shot HMAC: HmacKey(key).mac(message).
Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message);

}  // namespace qsel::crypto
