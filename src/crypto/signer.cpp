#include "crypto/signer.hpp"

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace qsel::crypto {

KeyRegistry::KeyRegistry(ProcessId n, std::uint64_t seed) {
  QSEL_REQUIRE(n <= kMaxProcesses);
  keys_.resize(n);
  Rng rng(seed ^ 0x51676e6572210000ULL);
  for (auto& key : keys_) {
    for (std::size_t i = 0; i < key.size(); i += 8) {
      const std::uint64_t word = rng();
      for (std::size_t b = 0; b < 8; ++b)
        key[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
}

Signature KeyRegistry::sign(ProcessId signer,
                            std::span<const std::uint8_t> message) const {
  QSEL_REQUIRE(signer < keys_.size());
  return Signature{mac_key(signer).mac(message), signer};
}

bool KeyRegistry::verify(std::span<const std::uint8_t> message,
                         const Signature& sig) const {
  if (sig.signer >= keys_.size()) return false;
  return mac_key(sig.signer).mac(message) == sig.tag;
}

const HmacKey& KeyRegistry::mac_key(ProcessId id) const {
  if (mac_keys_.empty()) mac_keys_.resize(keys_.size());
  std::optional<HmacKey>& key = mac_keys_[id];
  if (!key) key.emplace(keys_[id]);
  return *key;
}

}  // namespace qsel::crypto
