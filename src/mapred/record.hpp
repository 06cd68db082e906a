// Records, UDF interfaces and verification checksums for the functional
// (payload-backed) execution mode.
//
// The simulator always tracks *logical* byte volumes; when a dataset is
// payload-backed, tasks additionally execute real user-defined functions
// over real records. This is how the reproduction demonstrates that
// RCMP's recomputation is *correct*, not just fast: after any failure
// schedule, the final output must contain exactly the same key multiset
// and checksum aggregate as a failure-free run (the paper's per-record
// MD5 and byte-sum checks serve the same purpose).
//
// Records are (u64 key, u64 value); the value deterministically expands
// to a synthetic payload for MD5 purposes, keeping memory proportional
// to record count rather than data volume.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "common/md5.hpp"
#include "common/rng.hpp"

namespace rcmp::mapred {

struct Record {
  std::uint64_t key = 0;
  std::uint64_t value = 0;

  /// Key, then value: the order a reducer's sort-merge consumes.
  auto operator<=>(const Record&) const = default;
};

/// Expand a record's value into its synthetic payload bytes: the
/// little-endian bytes of 8 successive splitmix64 words. The byte-level
/// reference for record_checks, which never materializes the bytes.
inline void expand_payload(std::uint64_t value, std::uint8_t out[64]) {
  std::uint64_t s = value;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t w = splitmix64(s);
    for (int b = 0; b < 8; ++b)
      out[i * 8 + b] = static_cast<std::uint8_t>(w >> (8 * b));
  }
}

/// The paper's two per-record checks over a record's payload.
struct RecordChecks {
  std::uint64_t md5 = 0;  // first 8 bytes of MD5(payload), little-endian
  std::uint64_t sum = 0;  // sum of all 64 payload bytes
};

/// Expands `value` into its 8 payload words, hands MD5's 16
/// little-endian message words to `word(i, w)`, and returns the
/// payload's byte sum. The sum adds each word's bytes as four 16-bit
/// lanes (even bytes, odd bytes): a lane gains at most 2 * 255 per
/// word, 4080 over 8 words, so no lane carries into the next and the
/// sum is exact.
template <class WordSink>
inline std::uint64_t expand_words(std::uint64_t value, WordSink&& word) {
  constexpr std::uint64_t kEvenBytes = 0x00FF00FF00FF00FFULL;
  std::uint64_t lanes = 0;
  std::uint64_t s = value;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t w = splitmix64(s);
    word(2 * i, static_cast<std::uint32_t>(w));
    word(2 * i + 1, static_cast<std::uint32_t>(w >> 32));
    lanes += (w & kEvenBytes) + ((w >> 8) & kEvenBytes);
  }
  // Multiplying by 1 in every lane adds all four lanes into the top
  // one; the total (at most 64 * 255) fits in 16 bits.
  return (lanes * 0x0001000100010001ULL) >> 48;
}

/// Both checks of one record from one expansion of its value. The words
/// go straight into MD5's one-block entry.
inline RecordChecks record_checks(const Record& r) {
  std::uint32_t m[16];
  const std::uint64_t sum =
      expand_words(r.value, [&](int i, std::uint32_t w) { m[i] = w; });
  return {Md5::hash64_words(m), sum};
}

/// Records per call of the multi-record check kernel, Md5's 8-lane
/// compression.
inline constexpr std::size_t kCheckLanes = 8;

/// Shortest run worth the multi-record kernel: an idle lane costs as
/// much as a busy one, so one or two records go through record_checks.
inline constexpr std::size_t kMinLaneRecords = 3;

/// record_checks of `n` <= kCheckLanes values in one call of the
/// multi-record kernel; lanes beyond `n` idle.
void record_checks_lanes(const std::uint64_t* values, std::size_t n,
                         RecordChecks* out);

/// Calls `f(i, record_checks of a record with value value_at(i))` for
/// i = 0..n-1, in order, kCheckLanes values per kernel call. The checks
/// depend on the value only.
template <class ValueAt, class F>
inline void for_each_record_checks(std::size_t n, ValueAt&& value_at,
                                   F&& f) {
  std::uint64_t values[kCheckLanes];
  RecordChecks checks[kCheckLanes];
  for (std::size_t i = 0; i < n;) {
    const std::size_t k = std::min(n - i, kCheckLanes);
    if (k < kMinLaneRecords) {
      f(i, record_checks(Record{0, value_at(i)}));
      ++i;
      continue;
    }
    for (std::size_t j = 0; j < k; ++j) values[j] = value_at(i + j);
    record_checks_lanes(values, k, checks);
    for (std::size_t j = 0; j < k; ++j) f(i + j, checks[j]);
    i += k;
  }
}

/// Order-independent aggregate over a record multiset. Two datasets have
/// equal Checksum iff (with overwhelming probability) they hold the same
/// records with the same multiplicities — the property RCMP must
/// preserve across recomputations (paper Fig. 5: keys must neither
/// disappear nor appear twice).
struct Checksum {
  std::uint64_t md5_acc = 0;   // sum of per-record MD5 checks
  std::uint64_t sum_acc = 0;   // sum of per-record byte sums
  std::uint64_t key_acc = 0;   // sum of mix64(key) — detects key changes
  std::uint64_t count = 0;

  void add(const Record& r) { add(r, record_checks(r)); }
  /// add() of every record, with the checks batched.
  void add_all(std::span<const Record> records) {
    for_each_record_checks(
        records.size(), [&](std::size_t i) { return records[i].value; },
        [&](std::size_t i, const RecordChecks& c) { add(records[i], c); });
  }
  void merge(const Checksum& o) {
    md5_acc += o.md5_acc;
    sum_acc += o.sum_acc;
    key_acc += o.key_acc;
    count += o.count;
  }
  bool operator==(const Checksum&) const = default;

 private:
  void add(const Record& r, const RecordChecks& c) {
    md5_acc += c.md5;
    sum_acc += c.sum;
    key_acc += mix64(r.key);
    ++count;
  }
};

Checksum checksum_of(std::span<const Record> records);

/// Read-path integrity digest of a stored block or shuffle bucket,
/// captured when the data is written and recomputed when it is read.
/// MD5-free: mix64 is a bijection, so changing any single record's key
/// or value always changes `acc`. The workload's own MD5 and byte-sum
/// checks (record_checks) live in Checksum.
struct BlockDigest {
  std::uint64_t acc = 0;
  std::uint64_t count = 0;

  static BlockDigest of(std::span<const Record> records) {
    BlockDigest d;
    for (const Record& r : records) d.acc += mix64(r.key ^ mix64(r.value));
    d.count = records.size();
    return d;
  }
  bool operator==(const BlockDigest&) const = default;
};

/// Work done by read-path integrity checks: how many checks digested a
/// payload-backed block or bucket, and how many records they digested.
struct IntegrityCounters {
  std::uint64_t checks = 0;
  std::uint64_t records = 0;

  void count(std::size_t n) {
    ++checks;
    records += n;
  }
};

/// Collects a UDF's emitted records.
class Emitter {
 public:
  void emit(std::uint64_t key, std::uint64_t value) {
    out_.push_back(Record{key, value});
  }
  void emit(const Record& r) { out_.push_back(r); }
  std::vector<Record>& records() { return out_; }
  const std::vector<Record>& records() const { return out_; }

 private:
  std::vector<Record> out_;
};

/// Map UDF. `job_salt` identifies the logical job so that per-record
/// "randomization" (as in the paper's workload) is deterministic across
/// recomputations: a recomputed mapper must reproduce its initial output
/// bit-for-bit, or persisted downstream state would be inconsistent.
class MapUdf {
 public:
  virtual ~MapUdf() = default;
  virtual void map(const Record& in, std::uint64_t job_salt,
                   Emitter& out) const = 0;
  /// Maps `in` in order; the output must equal one map() call per
  /// record. Every engine and auditor path maps through here, so a UDF
  /// can share work across records by overriding it.
  virtual void map_batch(std::span<const Record> in, std::uint64_t job_salt,
                         Emitter& out) const {
    for (const Record& r : in) map(r, job_salt, out);
  }
};

/// Reduce UDF: one key with all its values (the engine guarantees all
/// values of a key reach exactly one reduce call, including under
/// reducer splitting — each split owns whole keys, §IV-B1).
class ReduceUdf {
 public:
  virtual ~ReduceUdf() = default;
  virtual void reduce(std::uint64_t key,
                      std::span<const std::uint64_t> values,
                      std::uint64_t job_salt, Emitter& out) const = 0;
  /// Sort-merge over `sorted` (ascending Record order, holding whole
  /// keys): one reduce() call per key, in key order, with the key's
  /// values ascending. Every engine and auditor path reduces through
  /// here, so a UDF can share work across keys by overriding it; the
  /// output must equal this body's.
  virtual void reduce_sorted(std::span<const Record> sorted,
                             std::uint64_t job_salt, Emitter& out) const {
    std::vector<std::uint64_t> values;
    for (std::size_t i = 0; i < sorted.size();) {
      const std::uint64_t key = sorted[i].key;
      values.clear();
      for (; i < sorted.size() && sorted[i].key == key; ++i) {
        values.push_back(sorted[i].value);
      }
      reduce(key, values, job_salt, out);
    }
  }
};

}  // namespace rcmp::mapred
