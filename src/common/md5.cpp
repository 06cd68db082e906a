#include "common/md5.hpp"

#include <cstring>

namespace rcmp {
namespace {

constexpr std::uint32_t kInitState[4] = {0x67452301u, 0xefcdab89u,
                                          0x98badcfeu, 0x10325476u};

// Lane types of the compression template. std::uint32_t is one message
// at a time; Lanes8 carries 8 independent messages, one per 32-bit lane,
// so their dependency chains overlap. A Lanes8 is two vectors of four
// lanes, each one SSE2 register on x86-64 (baseline, so no target flag),
// and every operation is one instruction per register, so the two
// halves' chains interleave. Where the target has no vector unit, the
// compiler lowers the vector operations lane by lane.
constexpr std::uint32_t rotl(std::uint32_t x, int c) {
  return (x << c) | (x >> (32 - c));
}

typedef std::uint32_t U32x4 __attribute__((vector_size(16)));

struct Lanes8 {
  U32x4 lo, hi;

  static Lanes8 splat(std::uint32_t v) {
    const U32x4 x = {v, v, v, v};
    return {x, x};
  }
  static Lanes8 load(const std::uint32_t* p) {
    Lanes8 r;
    std::memcpy(&r, p, sizeof(r));
    return r;
  }
  void store(std::uint32_t* p) const { std::memcpy(p, this, sizeof(*this)); }
};

inline Lanes8 operator+(Lanes8 a, Lanes8 b) {
  return {a.lo + b.lo, a.hi + b.hi};
}
inline Lanes8 operator^(Lanes8 a, Lanes8 b) {
  return {a.lo ^ b.lo, a.hi ^ b.hi};
}
inline Lanes8 operator&(Lanes8 a, Lanes8 b) {
  return {a.lo & b.lo, a.hi & b.hi};
}
inline Lanes8 operator|(Lanes8 a, Lanes8 b) {
  return {a.lo | b.lo, a.hi | b.hi};
}
inline Lanes8 operator~(Lanes8 a) { return {~a.lo, ~a.hi}; }
inline Lanes8 rotl(Lanes8 x, int c) {
  return {(x.lo << c) | (x.lo >> (32 - c)), (x.hi << c) | (x.hi >> (32 - c))};
}

// A constant operand (sine constant, padding word) is the same in every
// lane.
inline Lanes8 operator+(Lanes8 a, std::uint32_t k) {
  return a + Lanes8::splat(k);
}

// One step of each round: a = b + rotl(a + fn(b, c, d) + m + k, s).
// b is the previous step's result, so each step adds a + m + k first
// and takes as few operations after b as it can: F and I two, H one
// (c ^ d is ready early), and G one, because (b & d) | (c & ~d) is the
// sum of two disjoint terms and c & ~d does not need b. `m + k` comes
// first so that a constant message word folds into the constant.
template <class T, class W>
inline void ff(T& a, T b, T c, T d, W m, std::uint32_t k, int s) {
  a = b + rotl((d ^ (b & (c ^ d))) + (a + (m + k)), s);
}
template <class T, class W>
inline void gg(T& a, T b, T c, T d, W m, std::uint32_t k, int s) {
  a = b + rotl((b & d) + ((a + (m + k)) + (c & ~d)), s);
}
template <class T, class W>
inline void hh(T& a, T b, T c, T d, W m, std::uint32_t k, int s) {
  a = b + rotl((b ^ (c ^ d)) + (a + (m + k)), s);
}
template <class T, class W>
inline void ii(T& a, T b, T c, T d, W m, std::uint32_t k, int s) {
  a = b + rotl((c ^ (b | ~d)) + (a + (m + k)), s);
}

// The MD5 compression function over one block of 16 little-endian
// words, fully unrolled: every step's shift, sine constant
// (floor(2^32 * abs(sin(i + 1)))) and message-word index is a literal.
// The one implementation for every lane type T; message words W are T
// or, for the constant padding block, std::uint32_t. Inlined into each
// caller, so the hash64 entries fold the padding block's words into
// their steps.
template <class T, class W>
[[gnu::always_inline]] inline void compress(T st[4], const W m[16]) {
  T a = st[0], b = st[1], c = st[2], d = st[3];

  ff(a, b, c, d, m[0], 0xd76aa478, 7);
  ff(d, a, b, c, m[1], 0xe8c7b756, 12);
  ff(c, d, a, b, m[2], 0x242070db, 17);
  ff(b, c, d, a, m[3], 0xc1bdceee, 22);
  ff(a, b, c, d, m[4], 0xf57c0faf, 7);
  ff(d, a, b, c, m[5], 0x4787c62a, 12);
  ff(c, d, a, b, m[6], 0xa8304613, 17);
  ff(b, c, d, a, m[7], 0xfd469501, 22);
  ff(a, b, c, d, m[8], 0x698098d8, 7);
  ff(d, a, b, c, m[9], 0x8b44f7af, 12);
  ff(c, d, a, b, m[10], 0xffff5bb1, 17);
  ff(b, c, d, a, m[11], 0x895cd7be, 22);
  ff(a, b, c, d, m[12], 0x6b901122, 7);
  ff(d, a, b, c, m[13], 0xfd987193, 12);
  ff(c, d, a, b, m[14], 0xa679438e, 17);
  ff(b, c, d, a, m[15], 0x49b40821, 22);

  gg(a, b, c, d, m[1], 0xf61e2562, 5);
  gg(d, a, b, c, m[6], 0xc040b340, 9);
  gg(c, d, a, b, m[11], 0x265e5a51, 14);
  gg(b, c, d, a, m[0], 0xe9b6c7aa, 20);
  gg(a, b, c, d, m[5], 0xd62f105d, 5);
  gg(d, a, b, c, m[10], 0x02441453, 9);
  gg(c, d, a, b, m[15], 0xd8a1e681, 14);
  gg(b, c, d, a, m[4], 0xe7d3fbc8, 20);
  gg(a, b, c, d, m[9], 0x21e1cde6, 5);
  gg(d, a, b, c, m[14], 0xc33707d6, 9);
  gg(c, d, a, b, m[3], 0xf4d50d87, 14);
  gg(b, c, d, a, m[8], 0x455a14ed, 20);
  gg(a, b, c, d, m[13], 0xa9e3e905, 5);
  gg(d, a, b, c, m[2], 0xfcefa3f8, 9);
  gg(c, d, a, b, m[7], 0x676f02d9, 14);
  gg(b, c, d, a, m[12], 0x8d2a4c8a, 20);

  hh(a, b, c, d, m[5], 0xfffa3942, 4);
  hh(d, a, b, c, m[8], 0x8771f681, 11);
  hh(c, d, a, b, m[11], 0x6d9d6122, 16);
  hh(b, c, d, a, m[14], 0xfde5380c, 23);
  hh(a, b, c, d, m[1], 0xa4beea44, 4);
  hh(d, a, b, c, m[4], 0x4bdecfa9, 11);
  hh(c, d, a, b, m[7], 0xf6bb4b60, 16);
  hh(b, c, d, a, m[10], 0xbebfbc70, 23);
  hh(a, b, c, d, m[13], 0x289b7ec6, 4);
  hh(d, a, b, c, m[0], 0xeaa127fa, 11);
  hh(c, d, a, b, m[3], 0xd4ef3085, 16);
  hh(b, c, d, a, m[6], 0x04881d05, 23);
  hh(a, b, c, d, m[9], 0xd9d4d039, 4);
  hh(d, a, b, c, m[12], 0xe6db99e5, 11);
  hh(c, d, a, b, m[15], 0x1fa27cf8, 16);
  hh(b, c, d, a, m[2], 0xc4ac5665, 23);

  ii(a, b, c, d, m[0], 0xf4292244, 6);
  ii(d, a, b, c, m[7], 0x432aff97, 10);
  ii(c, d, a, b, m[14], 0xab9423a7, 15);
  ii(b, c, d, a, m[5], 0xfc93a039, 21);
  ii(a, b, c, d, m[12], 0x655b59c3, 6);
  ii(d, a, b, c, m[3], 0x8f0ccc92, 10);
  ii(c, d, a, b, m[10], 0xffeff47d, 15);
  ii(b, c, d, a, m[1], 0x85845dd1, 21);
  ii(a, b, c, d, m[8], 0x6fa87e4f, 6);
  ii(d, a, b, c, m[15], 0xfe2ce6e0, 10);
  ii(c, d, a, b, m[6], 0xa3014314, 15);
  ii(b, c, d, a, m[13], 0x4e0811a1, 21);
  ii(a, b, c, d, m[4], 0xf7537e82, 6);
  ii(d, a, b, c, m[11], 0xbd3af235, 10);
  ii(c, d, a, b, m[2], 0x2ad7d2bb, 15);
  ii(b, c, d, a, m[9], 0xeb86d391, 21);

  st[0] = st[0] + a;
  st[1] = st[1] + b;
  st[2] = st[2] + c;
  st[3] = st[3] + d;
}

// The padding block of a 64-byte message: 0x80, zeros, then the bit
// length 512 as a little-endian u64.
constexpr std::uint32_t kPadBlock64[16] = {
    0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 512, 0};

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

}  // namespace

void Md5::reset() {
  std::memcpy(state_, kInitState, sizeof(state_));
  total_len_ = 0;
  buffer_len_ = 0;
}

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) m[i] = load_le32(block + 4 * i);
  compress(state_, m);
}

void Md5::update(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_len_ += len;

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      process_block(buffer_);
      buffer_len_ = 0;
    }
  }
  while (len >= 64) {
    process_block(p);
    p += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Md5::Digest Md5::finalize() {
  // Append 0x80, pad with zeros to 56 mod 64, then the bit length. When
  // the 8-byte length no longer fits behind the 0x80, the padding spills
  // into one extra block.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    process_block(buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i)
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  process_block(buffer_);
  buffer_len_ = 0;

  Digest out;
  for (int i = 0; i < 4; ++i) store_le32(out.data() + 4 * i, state_[i]);
  return out;
}

std::uint64_t Md5::hash64(const void* data, std::size_t len) {
  const Digest d = hash(data, len);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | d[static_cast<std::size_t>(i)];
  return v;
}

std::uint64_t Md5::hash64_words(const std::uint32_t m[16]) {
  std::uint32_t st[4] = {kInitState[0], kInitState[1], kInitState[2],
                         kInitState[3]};
  compress(st, m);
  compress(st, kPadBlock64);
  // Digest bytes 0..7 are a and b, little-endian.
  return static_cast<std::uint64_t>(st[0]) |
         (static_cast<std::uint64_t>(st[1]) << 32);
}

void Md5::hash64_words_x8(const std::uint32_t m[16][8],
                          std::uint64_t out[8]) {
  Lanes8 w[16];
  for (int i = 0; i < 16; ++i) w[i] = Lanes8::load(m[i]);
  Lanes8 st[4] = {Lanes8::splat(kInitState[0]), Lanes8::splat(kInitState[1]),
                  Lanes8::splat(kInitState[2]), Lanes8::splat(kInitState[3])};
  compress(st, w);
  compress(st, kPadBlock64);
  std::uint32_t a[8], b[8];
  st[0].store(a);
  st[1].store(b);
  for (int lane = 0; lane < 8; ++lane) {
    out[lane] = static_cast<std::uint64_t>(a[lane]) |
                (static_cast<std::uint64_t>(b[lane]) << 32);
  }
}

std::string Md5::to_hex(const Digest& d) {
  static const char* k = "0123456789abcdef";
  std::string s;
  s.reserve(32);
  for (std::uint8_t b : d) {
    s.push_back(k[b >> 4]);
    s.push_back(k[b & 0xf]);
  }
  return s;
}

}  // namespace rcmp
