#include "crypto/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "crypto/sha256_kernels.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GPBFT_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace gpbft::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                                        0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t big_sigma0(std::uint32_t x) {
  return std::rotr(x, 2) ^ std::rotr(x, 13) ^ std::rotr(x, 22);
}
inline std::uint32_t big_sigma1(std::uint32_t x) {
  return std::rotr(x, 6) ^ std::rotr(x, 11) ^ std::rotr(x, 25);
}
inline std::uint32_t small_sigma0(std::uint32_t x) {
  return std::rotr(x, 7) ^ std::rotr(x, 18) ^ (x >> 3);
}
inline std::uint32_t small_sigma1(std::uint32_t x) {
  return std::rotr(x, 17) ^ std::rotr(x, 19) ^ (x >> 10);
}
inline std::uint32_t choose(std::uint32_t e, std::uint32_t f, std::uint32_t g) {
  return (e & f) ^ (~e & g);
}
inline std::uint32_t majority(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  return (a & b) ^ (a & c) ^ (b & c);
}

constexpr char kHexDigits[] = "0123456789abcdef";

#ifdef GPBFT_SHA256_X86

// The SHA extensions keep the eight working variables as two vectors, ABEF
// and CDGH; sha256rnds2 runs two rounds, sha256msg1/msg2 run the message
// schedule four words at a time. The helpers inline into the kernel, which
// is the only function compiled for these instructions, so the rest of the
// binary still runs on any x86-64.
#define GPBFT_SHA_TARGET __attribute__((target("sha,sse4.1,ssse3")))

/// Four message words from 16 bytes, big-endian.
GPBFT_SHA_TARGET inline __attribute__((always_inline)) __m128i sha_load4(const std::uint8_t* p) {
  const __m128i big_endian = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), big_endian);
}

/// Four rounds: W[4q..4q+3] + K[4q..4q+3] folded into the state.
GPBFT_SHA_TARGET inline __attribute__((always_inline)) void sha_rounds4(__m128i& abef,
                                                                          __m128i& cdgh,
                                                                          __m128i w, int q) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[4 * q])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

/// The next four schedule words from the previous sixteen, oldest first.
GPBFT_SHA_TARGET inline __attribute__((always_inline)) __m128i sha_schedule4(__m128i w16,
                                                                               __m128i w12,
                                                                               __m128i w8,
                                                                               __m128i w4) {
  const __m128i partial = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12),
                                        _mm_alignr_epi8(w4, w8, 4));
  return _mm_sha256msg2_epu32(partial, w4);
}

GPBFT_SHA_TARGET void compress_x86_sha(std::uint32_t* state, const std::uint8_t* data,
                                       std::size_t nblocks) {
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = sha_load4(data);
    __m128i w1 = sha_load4(data + 16);
    __m128i w2 = sha_load4(data + 32);
    __m128i w3 = sha_load4(data + 48);
    sha_rounds4(abef, cdgh, w0, 0);
    sha_rounds4(abef, cdgh, w1, 1);
    sha_rounds4(abef, cdgh, w2, 2);
    sha_rounds4(abef, cdgh, w3, 3);
    for (int q = 4; q < 16; q += 4) {
      w0 = sha_schedule4(w0, w1, w2, w3);
      sha_rounds4(abef, cdgh, w0, q);
      w1 = sha_schedule4(w1, w2, w3, w0);
      sha_rounds4(abef, cdgh, w1, q + 1);
      w2 = sha_schedule4(w2, w3, w0, w1);
      sha_rounds4(abef, cdgh, w2, q + 2);
      w3 = sha_schedule4(w3, w0, w1, w2);
      sha_rounds4(abef, cdgh, w3, q + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

#undef GPBFT_SHA_TARGET

/// CPUID leaf 7 EBX bit 29 (SHA), leaf 1 ECX bits 19 (SSE4.1) and 9 (SSSE3).
bool cpu_has_sha_extensions() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return sha && sse41 && ssse3;
}

#endif  // GPBFT_SHA256_X86

/// The kernel this process uses, chosen once, on first use.
detail::Sha256Compress active_kernel() {
  static const detail::Sha256Compress kernel = [] {
    const detail::Sha256Compress hardware = detail::sha256_compress_x86_sha();
    return hardware != nullptr ? hardware : &detail::sha256_compress_portable;
  }();
  return kernel;
}

}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 64) {
    std::array<std::uint32_t, 64> w;
    for (std::size_t i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
             (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    for (std::size_t i = 16; i < 64; ++i) {
      w[i] = small_sigma1(w[i - 2]) + w[i - 7] + small_sigma0(w[i - 15]) + w[i - 16];
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t t1 = h + big_sigma1(e) + choose(e, f, g) + kRoundConstants[i] + w[i];
      const std::uint32_t t2 = big_sigma0(a) + majority(a, b, c);
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
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

Sha256Compress sha256_compress_x86_sha() {
#ifdef GPBFT_SHA256_X86
  return cpu_has_sha_extensions() ? &compress_x86_sha : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace detail

const char* sha256_kernel() {
  return active_kernel() == &detail::sha256_compress_portable ? "portable" : "x86-sha";
}

std::string Hash256::hex() const {
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : bytes) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

std::string Hash256::short_hex() const { return hex().substr(0, 8); }

bool Hash256::is_zero() const {
  for (std::uint8_t b : bytes) {
    if (b != 0) return false;
  }
  return true;
}

Sha256::Sha256() : state_(kInitialState), buffer_{} {}

void Sha256::update(BytesView data) {
  if (data.empty()) return;
  total_len_ += data.size();
  const std::uint8_t* in = data.data();
  std::size_t left = data.size();
  const detail::Sha256Compress compress = active_kernel();

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(left, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, in, take);
    buffer_len_ += take;
    in += take;
    left -= take;
    if (buffer_len_ < buffer_.size()) return;
    compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }

  // Every whole block goes to the kernel in one call, straight from the
  // caller's bytes.
  const std::size_t whole = left / 64;
  if (whole > 0) {
    compress(state_.data(), in, whole);
    in += whole * 64;
    left -= whole * 64;
  }

  if (left > 0) {
    std::memcpy(buffer_.data(), in, left);
    buffer_len_ = left;
  }
}

void Sha256::update(std::string_view data) {
  update(BytesView(reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Hash256 Sha256::finalize() {
  // Padding (FIPS 180-4 §5.1.1): the buffered tail, 0x80, zeros, and the
  // 64-bit big-endian message length in bits in the last 8 bytes. The tail
  // spills into a second block when fewer than 9 bytes of its block remain.
  std::array<std::uint8_t, 128> last{};
  const std::size_t last_len = buffer_len_ < 56 ? 64 : 128;
  std::memcpy(last.data(), buffer_.data(), buffer_len_);
  last[buffer_len_] = 0x80;
  const std::uint64_t bit_len = total_len_ * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    last[last_len - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  active_kernel()(state_.data(), last.data(), last_len / 64);

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t word = state_[static_cast<std::size_t>(i)];
    out.bytes[static_cast<std::size_t>(i * 4)] = static_cast<std::uint8_t>(word >> 24);
    out.bytes[static_cast<std::size_t>(i * 4 + 1)] = static_cast<std::uint8_t>(word >> 16);
    out.bytes[static_cast<std::size_t>(i * 4 + 2)] = static_cast<std::uint8_t>(word >> 8);
    out.bytes[static_cast<std::size_t>(i * 4 + 3)] = static_cast<std::uint8_t>(word);
  }
  return out;
}

Hash256 sha256(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finalize();
}

Hash256 sha256(std::string_view data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finalize();
}

Hash256 sha256d(BytesView data) {
  const Hash256 first = sha256(data);
  return sha256(first.view());
}

}  // namespace gpbft::crypto
