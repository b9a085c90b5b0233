// Internal to src/crypto and its tests: the SHA-256 compression functions
// behind Sha256. Sha256 picks one of them once per process; the tests
// check the SHA-NI one against the scalar one, which stays as the fallback
// for CPUs without the x86 SHA extensions and as the oracle.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace qsel::crypto::detail {

using State = std::array<std::uint32_t, 8>;

/// Compresses `blocks` consecutive 64-byte blocks into `state` (FIPS 180-4
/// §6.2.2). Portable; runs on every CPU.
void compress_scalar(State& state, const std::uint8_t* data,
                     std::size_t blocks);

/// True when this CPU has the x86 SHA extensions (and the SSE4.1 the
/// SHA-NI path also uses). Always false off x86-64.
bool cpu_has_sha_ni();

#if defined(__x86_64__)
/// compress_scalar on the x86 SHA extensions. Call only when
/// cpu_has_sha_ni() holds.
void compress_sha_ni(State& state, const std::uint8_t* data,
                     std::size_t blocks);
#endif

}  // namespace qsel::crypto::detail
