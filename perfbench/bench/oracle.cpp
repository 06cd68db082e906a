#include "oracle.hpp"

#include <algorithm>
#include <unordered_map>

#include "mapred/job.hpp"
#include "workloads/udfs.hpp"

namespace perfbench {

using rcmp::mapred::Record;

std::vector<Record> gather_records(const rcmp::mapred::PayloadStore& payloads,
                                   rcmp::dfs::NameNode& dfs,
                                   rcmp::dfs::FileId file) {
  std::vector<Record> all;
  for (rcmp::dfs::PartitionIndex p = 0; p < dfs.num_partitions(file); ++p) {
    const auto recs = payloads.partition_records(file, p);
    all.insert(all.end(), recs.begin(), recs.end());
  }
  return all;
}

rcmp::mapred::Checksum oracle_checksum(std::vector<Record> records,
                                       std::uint32_t chain_length) {
  const rcmp::workloads::ChainMapper mapper;
  const rcmp::workloads::ChainReducer reducer;
  for (std::uint32_t j = 0; j < chain_length; ++j) {
    rcmp::mapred::JobSpec spec;
    spec.logical_id = j;
    const std::uint64_t salt = spec.udf_salt();

    rcmp::mapred::Emitter mapped;
    for (const Record& rec : records) mapper.map(rec, salt, mapped);

    // Group by key; the chain reducer is value-wise, so sorting each
    // group only pins iteration order.
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> groups;
    groups.reserve(mapped.records().size());
    for (const Record& r : mapped.records()) groups[r.key].push_back(r.value);
    rcmp::mapred::Emitter reduced;
    for (auto& [key, values] : groups) {
      std::sort(values.begin(), values.end());
      reducer.reduce(key, values, salt, reduced);
    }
    records = std::move(reduced.records());
  }
  return rcmp::mapred::checksum_of(records);
}

}  // namespace perfbench
