#include "valcon/crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "valcon/crypto/sha256_kernel.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define VALCON_SHA256_X86 1
#include <immintrin.h>
#endif

namespace valcon::crypto {

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

constexpr std::uint32_t rotr(std::uint32_t x, unsigned s) {
  return (x >> s) | (x << (32 - s));
}

#ifdef VALCON_SHA256_X86

#define VALCON_SHA_NI __attribute__((target("sha,sse4.1,ssse3")))

// Four rounds on one 4-word schedule group: rnds2 runs two rounds on the
// low two lanes of `wk`, the shuffle moves the high two lanes down.
VALCON_SHA_NI inline void sha_ni_rounds4(__m128i& abef, __m128i& cdgh,
                                         __m128i msg, std::size_t group) {
  const __m128i wk = _mm_add_epi32(
      msg, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
               &kRoundConstants[4 * group])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

// The next schedule group W[t..t+3] from the four groups before it:
// msg1 adds sigma0(W[t-15]) to W[t-16], the alignr supplies W[t-7], and
// msg2 adds sigma1(W[t-2]).
VALCON_SHA_NI inline __m128i sha_ni_schedule(__m128i w16, __m128i w12,
                                             __m128i w8, __m128i w4) {
  const __m128i partial = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12),
                                        _mm_alignr_epi8(w4, w8, 4));
  return _mm_sha256msg2_epu32(partial, w4);
}

#endif  // VALCON_SHA256_X86

}  // namespace

namespace detail {

void compress_blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 64) {
    std::array<std::uint32_t, 64> w;
    for (std::size_t i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
             (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
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

#ifdef VALCON_SHA256_X86

VALCON_SHA_NI void compress_blocks_sha_ni(std::uint32_t* state,
                                          const std::uint8_t* data,
                                          std::size_t nblocks) {
  // Big-endian words: reverse the bytes within each 32-bit lane.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  auto* const state_lo = reinterpret_cast<__m128i*>(state);
  auto* const state_hi = reinterpret_cast<__m128i*>(state + 4);

  // sha256rnds2 keeps the state as (a, b, e, f) and (c, d, g, h), each
  // with the first-named word in the top lane.
  const __m128i badc = _mm_shuffle_epi32(_mm_loadu_si128(state_lo), 0xb1);
  const __m128i hgfe = _mm_shuffle_epi32(_mm_loadu_si128(state_hi), 0x1b);
  __m128i abef = _mm_alignr_epi8(badc, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, badc, 0xf0);

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto* block = reinterpret_cast<const __m128i*>(data);
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128(block + 0), byte_swap);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128(block + 1), byte_swap);
    __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128(block + 2), byte_swap);
    __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128(block + 3), byte_swap);
    sha_ni_rounds4(abef, cdgh, m0, 0);
    sha_ni_rounds4(abef, cdgh, m1, 1);
    sha_ni_rounds4(abef, cdgh, m2, 2);
    sha_ni_rounds4(abef, cdgh, m3, 3);
    for (std::size_t group = 4; group < 16; group += 4) {
      m0 = sha_ni_schedule(m0, m1, m2, m3);
      sha_ni_rounds4(abef, cdgh, m0, group);
      m1 = sha_ni_schedule(m1, m2, m3, m0);
      sha_ni_rounds4(abef, cdgh, m1, group + 1);
      m2 = sha_ni_schedule(m2, m3, m0, m1);
      sha_ni_rounds4(abef, cdgh, m2, group + 2);
      m3 = sha_ni_schedule(m3, m0, m1, m2);
      sha_ni_rounds4(abef, cdgh, m3, group + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // (a, b, e, f), (c, d, g, h) -> (a, b, c, d), (e, f, g, h).
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(state_lo, _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(state_hi, _mm_alignr_epi8(dchg, feba, 8));
}

bool sha_ni_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
         __builtin_cpu_supports("ssse3");
}

#else

// Never picked: sha_ni_supported() is false off x86.
void compress_blocks_sha_ni(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t nblocks) {
  compress_blocks_portable(state, data, nblocks);
}

bool sha_ni_supported() { return false; }

#endif  // VALCON_SHA256_X86

CompressFn picked_kernel() {
  // Function-local rather than namespace-scope: a Sha256 built by another
  // translation unit's static initializer could otherwise run before this
  // one is initialized and call a null kernel.
  static const CompressFn kernel =
      sha_ni_supported() ? compress_blocks_sha_ni : compress_blocks_portable;
  return kernel;
}

}  // namespace detail

namespace {
thread_local std::uint64_t blocks_compressed = 0;
}  // namespace

std::uint64_t& sha256_blocks() { return blocks_compressed; }

Sha256::Sha256() : Sha256(detail::picked_kernel()) {}

Sha256::Sha256(detail::CompressFn compress_blocks)
    : compress_blocks_(compress_blocks),
      state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::compress(const std::uint8_t* data, std::size_t nblocks) {
  blocks_compressed += nblocks;
  compress_blocks_(state_.data(), data, nblocks);
}

void Sha256::update(const void* data, std::size_t len) {
  if (len == 0) return;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  total_len_ += len;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, kBlockSize - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, bytes, take);
    buffer_len_ += take;
    bytes += take;
    len -= take;
    if (buffer_len_ < kBlockSize) return;
    compress(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Whole blocks straight from the caller's buffer; only the tail is copied.
  const std::size_t whole = len / kBlockSize;
  if (whole > 0) {
    compress(bytes, whole);
    bytes += whole * kBlockSize;
    len -= whole * kBlockSize;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), bytes, len);
    buffer_len_ = len;
  }
}

Sha256::Digest Sha256::digest() {
  // 0x80, zeros, then the 64-bit big-endian bit length ending a block.
  const std::size_t padded =
      buffer_len_ + 9 <= kBlockSize ? kBlockSize : 2 * kBlockSize;
  buffer_[buffer_len_] = 0x80;
  std::memset(buffer_.data() + buffer_len_ + 1, 0,
              padded - 8 - (buffer_len_ + 1));
  const std::uint64_t bit_len = total_len_ * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[padded - 8 + i] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress(buffer_.data(), padded / kBlockSize);
  buffer_len_ = 0;

  Digest out;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint32_t word = state_[i];
    out[4 * i + 0] = static_cast<std::uint8_t>(word >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(word >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(word >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(word);
  }
  return out;
}

Sha256::Digest Sha256::hash(const void* data, std::size_t len) {
  Sha256 ctx;
  ctx.update(data, len);
  return ctx.digest();
}

}  // namespace valcon::crypto
