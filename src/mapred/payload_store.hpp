// Record payload storage for the functional execution mode.
//
// Maps (DFS file, partition) to the real records stored there, plus the
// per-block record ranges that mirror the NameNode's block layout. The
// engine slices a map task's input records by block index — which is
// precisely why the Fig. 5 hazard exists: when a recomputed partition is
// re-written by reducer *splits*, its record-to-block layout changes, so
// persisted downstream map outputs (computed over the old layout) become
// unusable even though the partition's record *set* is identical.
//
// Payloads are pure data-plane state: availability decisions always come
// from NameNode metadata. The store never deletes records on node
// failure — the engine simply refuses to read partitions whose metadata
// says they are unavailable (tests assert this discipline holds).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "dfs/namenode.hpp"
#include "mapred/record.hpp"

namespace rcmp::mapred {

class PayloadStore {
 public:
  /// True if the file has any payload-backed partition (i.e. the job
  /// producing/consuming it should run real UDFs).
  bool file_has_payload(dfs::FileId f) const;
  bool has(dfs::FileId f, dfs::PartitionIndex p) const;

  /// Append records to a partition, recording that they span
  /// `block_count` new blocks (must match the blocks committed to the
  /// NameNode in the same operation). Records are distributed over the
  /// new blocks as evenly as the NameNode's byte layout: all blocks get
  /// ceil/floor shares in order.
  void append(dfs::FileId f, dfs::PartitionIndex p,
              std::vector<Record> records, std::uint32_t block_count);

  void clear(dfs::FileId f, dfs::PartitionIndex p);

  /// All records of a partition (reducer-output order).
  std::span<const Record> partition_records(dfs::FileId f,
                                            dfs::PartitionIndex p) const;

  /// Records belonging to the partition's `block_index`-th block.
  std::span<const Record> block_records(dfs::FileId f, dfs::PartitionIndex p,
                                        std::uint32_t block_index) const;

  std::uint32_t block_count(dfs::FileId f, dfs::PartitionIndex p) const;

  /// Order-independent checksum over every record in the file.
  Checksum file_checksum(dfs::FileId f, std::uint32_t num_partitions) const;

  /// Recompute the block's digest and compare against the one recorded
  /// at append time — the read-path integrity check. True = intact.
  bool verify_block(dfs::FileId f, dfs::PartitionIndex p,
                    std::uint32_t block_index) const;

  /// Chaos support: silently flip bits in one stored record of the
  /// partition (the block digest recorded at append time no longer
  /// matches). Returns false if the partition holds no records.
  bool corrupt_record(dfs::FileId f, dfs::PartitionIndex p);

  /// Blocks verify_block digested, and their records.
  const IntegrityCounters& integrity() const { return integrity_; }

 private:
  struct PartitionPayload {
    std::vector<Record> records;
    /// records index where each block starts; blocks are
    /// [starts[i], starts[i+1]) with a final sentinel = records.size().
    std::vector<std::size_t> block_starts;
    /// Digest of each block's records, captured at append time.
    std::vector<BlockDigest> block_sums;
  };
  using Key = std::uint64_t;
  static Key key(dfs::FileId f, dfs::PartitionIndex p) {
    return (static_cast<std::uint64_t>(f) << 32) | p;
  }
  std::unordered_map<Key, PartitionPayload> parts_;
  mutable IntegrityCounters integrity_;
};

}  // namespace rcmp::mapred
