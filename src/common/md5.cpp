#include "common/md5.hpp"

namespace rcmp {
namespace {

constexpr std::uint32_t kInitA = 0x67452301u;
constexpr std::uint32_t kInitB = 0xefcdab89u;
constexpr std::uint32_t kInitC = 0x98badcfeu;
constexpr std::uint32_t kInitD = 0x10325476u;

// Per-round left-rotate amounts.
constexpr int kShift[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

// K[i] = floor(2^32 * abs(sin(i+1))).
constexpr std::uint32_t kSine[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

constexpr std::uint32_t rotl32(std::uint32_t x, int c) {
  return (x << c) | (x >> (32 - c));
}

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
  a_ = kInitA;
  b_ = kInitB;
  c_ = kInitC;
  d_ = kInitD;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) m[i] = load_le32(block + 4 * i);

  std::uint32_t a = a_, b = b_, c = c_, d = d_;
  for (int i = 0; i < 64; ++i) {
    std::uint32_t f;
    int g;
    if (i < 16) {
      f = (b & c) | (~b & d);
      g = i;
    } else if (i < 32) {
      f = (d & b) | (~d & c);
      g = (5 * i + 1) % 16;
    } else if (i < 48) {
      f = b ^ c ^ d;
      g = (3 * i + 5) % 16;
    } else {
      f = c ^ (b | ~d);
      g = (7 * i) % 16;
    }
    const std::uint32_t tmp = d;
    d = c;
    c = b;
    b = b + rotl32(a + f + kSine[i] + m[g], kShift[i]);
    a = tmp;
  }
  a_ += a;
  b_ += b;
  c_ += c;
  d_ += d;
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
  store_le32(out.data() + 0, a_);
  store_le32(out.data() + 4, b_);
  store_le32(out.data() + 8, c_);
  store_le32(out.data() + 12, d_);
  return out;
}

std::uint64_t Md5::hash64(const void* data, std::size_t len) {
  const Digest d = hash(data, len);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | d[static_cast<std::size_t>(i)];
  return v;
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
