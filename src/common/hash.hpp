// 64-bit mixing / hashing helpers.
//
// These hashes drive (a) the deterministic per-record key randomization
// performed by the paper's workload mappers, (b) reducer partitioning,
// (c) the split-partitioning of recomputed reducers, and (d) the
// read-path integrity digest of stored records. Determinism is
// load-bearing: a recomputed mapper must route every record to the same
// reducer partition it chose in the initial run.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace rcmp {

/// Finalizer from MurmurHash3 — a strong 64->64 bit mixer.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Combine two 64-bit values into one (order-sensitive).
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// FNV-1a over arbitrary bytes: a general-purpose byte hash. No record
/// path uses it — the workload checks records with MD5 and byte sums
/// (mapred::Checksum), the read path with mapred::BlockDigest.
inline std::uint64_t fnv1a(const void* data, std::size_t len,
                           std::uint64_t seed = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::uint64_t fnv1a(std::string_view s) {
  return fnv1a(s.data(), s.size());
}

/// Hash-partition a key into one of `n` buckets, with a salt so that a
/// *split* partition function (different salt) differs from the initial
/// one — this is exactly the hazard of paper Fig. 5.
constexpr std::uint32_t partition_of(std::uint64_t key, std::uint32_t n,
                                     std::uint64_t salt = 0) {
  return static_cast<std::uint32_t>(mix64(key ^ salt) % n);
}

}  // namespace rcmp
