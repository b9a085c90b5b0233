#include "crypto/hmac.hpp"

#include <algorithm>
#include <array>

namespace qsel::crypto {

HmacKey::HmacKey(std::span<const std::uint8_t> key) {
  constexpr std::size_t kBlockSize = 64;
  std::array<std::uint8_t, kBlockSize> key_block{};
  if (key.size() > kBlockSize) {
    const Digest hashed = sha256(key);
    std::copy(hashed.bytes.begin(), hashed.bytes.end(), key_block.begin());
  } else {
    std::copy(key.begin(), key.end(), key_block.begin());
  }

  std::array<std::uint8_t, kBlockSize> ipad;
  std::array<std::uint8_t, kBlockSize> opad;
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x5c);
  }
  inner_.update(ipad);
  outer_.update(opad);
}

Digest HmacKey::mac(std::span<const std::uint8_t> message) const {
  ++hash_counters.hmacs;
  Sha256 inner = inner_;
  inner.update(message);
  const Digest inner_digest = inner.finish();

  Sha256 outer = outer_;
  outer.update(inner_digest.bytes);
  return outer.finish();
}

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message) {
  return HmacKey(key).mac(message);
}

}  // namespace qsel::crypto
