// Simulated digital signatures.
//
// The paper authenticates UPDATE, FOLLOWERS, PREPARE and COMMIT messages
// with signatures sigma_l and assumes they cannot be forged (Section IV).
// Inside the simulator we realize this with HMAC-SHA256 under per-process
// private keys held by a KeyRegistry: the registry hands process i only
// its own signing key, while verification recomputes the tag from the
// registry's copy. A Byzantine actor in the simulation can therefore sign
// anything *as itself* (including equivocating contents) but cannot
// produce a valid tag for another process — exactly the adversary model
// the paper assumes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace qsel::crypto {

struct Signature {
  Digest tag;
  ProcessId signer = kNoProcess;

  bool operator==(const Signature&) const = default;
};

/// Holds every process's signing key; created once per simulation from a
/// seed. Distributing only private handles (Signer) mirrors a PKI.
///
/// Each key's HMAC midstates are built on its first sign or verify, and
/// their table on the first of all, never in the constructor: a cluster
/// build hashes and allocates nothing more for them. That cache is mutated
/// through const calls, so a registry is not thread-safe (the code base
/// starts no threads). Copies carry whatever midstates are built.
class KeyRegistry {
 public:
  KeyRegistry(ProcessId n, std::uint64_t seed);

  ProcessId process_count() const {
    return static_cast<ProcessId>(keys_.size());
  }

  /// Signs message bytes with process `signer`'s key. Call through Signer
  /// in protocol code; exposed here for adversary implementations that
  /// legitimately own their key.
  Signature sign(ProcessId signer, std::span<const std::uint8_t> message) const;

  /// True when `sig` is a valid tag by `sig.signer` over `message`.
  bool verify(std::span<const std::uint8_t> message,
              const Signature& sig) const;

 private:
  /// Process `id`'s midstates, built on first use.
  const HmacKey& mac_key(ProcessId id) const;

  std::vector<std::array<std::uint8_t, 32>> keys_;
  /// Parallel to keys_ once the first key is used; empty before.
  mutable std::vector<std::optional<HmacKey>> mac_keys_;
};

/// A process's own signing capability: wraps the registry but fixes the
/// signer id, so protocol modules cannot accidentally sign as peers.
class Signer {
 public:
  Signer(const KeyRegistry& registry, ProcessId self)
      : registry_(&registry), self_(self) {}

  ProcessId self() const { return self_; }

  Signature sign(std::span<const std::uint8_t> message) const {
    return registry_->sign(self_, message);
  }

  bool verify(std::span<const std::uint8_t> message,
              const Signature& sig) const {
    return registry_->verify(message, sig);
  }

 private:
  const KeyRegistry* registry_;
  ProcessId self_;
};

}  // namespace qsel::crypto
