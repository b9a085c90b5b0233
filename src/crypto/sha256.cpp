#include "crypto/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/assert.hpp"
#include "crypto/sha256_compress.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace qsel::crypto {

HashCounters hash_counters;

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int k) {
  return std::rotr(x, k);
}

using CompressFn = void (*)(detail::State&, const std::uint8_t*, std::size_t);

CompressFn pick_compress() {
#if defined(__x86_64__)
  if (detail::cpu_has_sha_ni()) return detail::compress_sha_ni;
#endif
  return detail::compress_scalar;
}

void compress(detail::State& state, const std::uint8_t* data,
              std::size_t blocks) {
  static const CompressFn chosen = pick_compress();
  hash_counters.compressions += blocks;
  chosen(state, data, blocks);
}

}  // namespace

namespace detail {

void compress_scalar(State& state, const std::uint8_t* data,
                     std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::array<std::uint32_t, 64> w;
    for (int i = 0; i < 16; ++i) {
      w[static_cast<std::size_t>(i)] =
          (std::uint32_t{data[4 * i]} << 24) |
          (std::uint32_t{data[4 * i + 1]} << 16) |
          (std::uint32_t{data[4 * i + 2]} << 8) |
          std::uint32_t{data[4 * i + 3]};
    }
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                               (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                               (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

bool cpu_has_sha_ni() {
  __builtin_cpu_init();  // may run before the runtime's own initialization
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

// The SHA extensions keep the working variables as two vectors, ABEF and
// CDGH (lane 3 first). Each _mm_sha256rnds2_epu32 runs two rounds on the
// two low lanes of W+K; msg1/msg2 extend the message schedule four words
// at a time: W[t..t+3] from W[t-16..t-13], W[t-15..t-12] (sigma0),
// W[t-7..t-4] and W[t-2..t-1] (sigma1).
__attribute__((target("sha,sse4.1"))) void compress_sha_ni(
    State& state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // W[4i..4i+3] for the last four groups, ring-indexed
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      __m128i& group = w[i % 4];
      if (i < 4) {
        group = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
            byte_swap);
      } else {
        const __m128i& prev = w[(i + 3) % 4];
        group = _mm_sha256msg1_epu32(group, w[(i + 1) % 4]);
        group = _mm_add_epi32(group,
                              _mm_alignr_epi8(prev, w[(i + 2) % 4], 4));
        group = _mm_sha256msg2_epu32(group, prev);
      }
      __m128i wk = _mm_add_epi32(
          group, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                     &kRoundConstants[static_cast<std::size_t>(4 * i)])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0e);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  dcba = _mm_blend_epi16(feba, dchg, 0xf0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), hgfe);
}

#else

bool cpu_has_sha_ni() { return false; }

#endif

}  // namespace detail

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      compress(state_, buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (const std::size_t blocks = (data.size() - offset) / 64; blocks > 0) {
    compress(state_, data.data() + offset, blocks);
    offset += 64 * blocks;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Digest Sha256::finish() {
  // Padding: 0x80, zeros, 64-bit big-endian bit length ending a block.
  const std::uint64_t bit_len = total_len_ * 8;
  QSEL_ASSERT(buffer_len_ < 64);
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_),
              buffer_.end(), std::uint8_t{0});
    compress(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_),
            buffer_.begin() + 56, std::uint8_t{0});
  for (std::size_t i = 0; i < 8; ++i)
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  compress(state_, buffer_.data(), 1);

  Digest digest;
  for (std::size_t i = 0; i < 8; ++i) {
    digest.bytes[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest.bytes[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest.bytes[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest.bytes[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  reset();
  return digest;
}

Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 hasher;
  hasher.update(data);
  return hasher.finish();
}

std::string Digest::to_hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (std::uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace qsel::crypto
