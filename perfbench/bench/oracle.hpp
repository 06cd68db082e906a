// Benchmark-side correctness oracle: an eager, single-process
// map -> group -> reduce replay of the paper's chain workload.
#pragma once

#include <cstdint>
#include <vector>

#include "dfs/namenode.hpp"
#include "mapred/payload_store.hpp"
#include "mapred/record.hpp"

namespace perfbench {

/// Every record of `file`, partition by partition.
std::vector<rcmp::mapred::Record> gather_records(
    const rcmp::mapred::PayloadStore& payloads, rcmp::dfs::NameNode& dfs,
    rcmp::dfs::FileId file);

/// Fault-free replay of `chain_length` ChainMapper/ChainReducer jobs over
/// `records` with the per-job salts the engine hands out; returns the
/// order-independent checksum of the final output. Grouping is global by
/// key, so the result is independent of reducer count, splits and
/// placement.
rcmp::mapred::Checksum oracle_checksum(
    std::vector<rcmp::mapred::Record> records, std::uint32_t chain_length);

}  // namespace perfbench
