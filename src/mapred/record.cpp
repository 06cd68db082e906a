#include "mapred/record.hpp"

#include <cstring>

namespace rcmp::mapred {

void record_checks_lanes(const std::uint64_t* values, std::size_t n,
                         RecordChecks* out) {
  // Lane-major message words: m[w] holds word w of all 8 messages.
  alignas(16) std::uint32_t m[16][kCheckLanes];
  if (n < kCheckLanes) std::memset(m, 0, sizeof(m));  // idle lanes hash 0s
  for (std::size_t lane = 0; lane < n; ++lane) {
    out[lane].sum = expand_words(
        values[lane], [&](int i, std::uint32_t w) { m[i][lane] = w; });
  }
  std::uint64_t md5[kCheckLanes];
  Md5::hash64_words_x8(m, md5);
  for (std::size_t lane = 0; lane < n; ++lane) out[lane].md5 = md5[lane];
}

Checksum checksum_of(std::span<const Record> records) {
  Checksum c;
  c.add_all(records);
  return c;
}

}  // namespace rcmp::mapred
