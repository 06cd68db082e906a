// Unit tests for mapred data-plane pieces: records/checksums, payload
// store, map-output store, and the workload UDFs.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "mapred/map_output_store.hpp"
#include "mapred/payload_store.hpp"
#include "mapred/record.hpp"
#include "workloads/udfs.hpp"

namespace rcmp::mapred {
namespace {

TEST(Record, PayloadExpansionDeterministic) {
  std::uint8_t a[64], b[64];
  expand_payload(123, a);
  expand_payload(123, b);
  EXPECT_EQ(std::memcmp(a, b, 64), 0);
  expand_payload(124, b);
  EXPECT_NE(std::memcmp(a, b, 64), 0);
}

TEST(Record, ChecksDeterministicAndValueSensitive) {
  const Record r1{1, 100}, r2{1, 101};
  EXPECT_EQ(record_checks(r1).md5, record_checks(r1).md5);
  EXPECT_NE(record_checks(r1).md5, record_checks(r2).md5);
  EXPECT_EQ(record_checks(r1).sum, record_checks(r1).sum);
  // Byte sum of 64 bytes is bounded.
  EXPECT_LE(record_checks(r1).sum, 64u * 255u);
}

// record_checks never materializes the payload bytes; it must agree
// with the streaming MD5 and a plain byte loop over expand_payload.
TEST(Record, ChecksMatchByteLevelReference) {
  Rng rng(15);
  for (int i = 0; i < 100000; ++i) {
    const Record r{static_cast<std::uint64_t>(i), rng()};
    std::uint8_t payload[64];
    expand_payload(r.value, payload);
    std::uint64_t sum = 0;
    for (std::uint8_t b : payload) sum += b;
    const RecordChecks c = record_checks(r);
    ASSERT_EQ(c.md5, Md5::hash64(payload, sizeof(payload)))
        << "value=" << r.value;
    ASSERT_EQ(c.sum, sum) << "value=" << r.value;
  }
}

// The multi-record kernel agrees with the one-record kernel on every
// value, through full batches of kCheckLanes records.
TEST(Record, BatchChecksMatchOneRecordKernel) {
  Rng rng(17);
  std::vector<std::uint64_t> values(100000);
  for (std::uint64_t& v : values) v = rng();
  std::size_t calls = 0;
  for_each_record_checks(
      values.size(), [&](std::size_t i) { return values[i]; },
      [&](std::size_t i, const RecordChecks& c) {
        ASSERT_EQ(i, calls++);
        const RecordChecks want = record_checks(Record{0, values[i]});
        ASSERT_EQ(c.md5, want.md5) << "value=" << values[i];
        ASSERT_EQ(c.sum, want.sum) << "value=" << values[i];
      });
  EXPECT_EQ(calls, values.size());
}

// Every batch length from empty through two full batches plus a tail,
// read from a span that starts one record into its vector.
TEST(Record, BatchChecksEveryLengthAndOddOffset) {
  Rng rng(18);
  std::vector<Record> backing(2 * kCheckLanes + 2);
  for (Record& r : backing) r = {rng(), rng()};
  for (std::size_t len = 0; len <= 2 * kCheckLanes + 1; ++len) {
    const std::span<const Record> recs =
        std::span<const Record>(backing).subspan(1, len);
    std::vector<std::size_t> order;
    for_each_record_checks(
        recs.size(), [&](std::size_t i) { return recs[i].value; },
        [&](std::size_t i, const RecordChecks& c) {
          order.push_back(i);
          const RecordChecks want = record_checks(recs[i]);
          EXPECT_EQ(c.md5, want.md5) << "len=" << len << " i=" << i;
          EXPECT_EQ(c.sum, want.sum) << "len=" << len << " i=" << i;
        });
    ASSERT_EQ(order.size(), len);
    for (std::size_t i = 0; i < len; ++i) EXPECT_EQ(order[i], i);
    Checksum one_by_one;
    for (const Record& r : recs) one_by_one.add(r);
    EXPECT_EQ(checksum_of(recs), one_by_one) << "len=" << len;
  }
}

// The 8 values of Md5.RecordCheckKnownAnswers, pinned again here for
// the byte-sum check and the chain UDFs.
constexpr std::uint64_t kPinValues[] = {0,
                                        1,
                                        2,
                                        100,
                                        0xdeadbeefULL,
                                        0x8000000000000000ULL,
                                        0x0123456789abcdefULL,
                                        ~0ULL};

TEST(Record, ByteSumKnownAnswers) {
  const std::uint64_t want[] = {7793, 8641, 8918, 8872,
                                7528, 8109, 7052, 8425};
  for (std::size_t i = 0; i < std::size(kPinValues); ++i) {
    EXPECT_EQ(record_checks(Record{7, kPinValues[i]}).sum, want[i])
        << "value=" << kPinValues[i];
  }
}

TEST(Checksum, KnownAnswerOverSeededRecords) {
  Rng rng(20261018);
  std::vector<Record> recs(1000);
  for (Record& r : recs) {
    r.key = rng();
    r.value = rng();
  }
  const Checksum c = checksum_of(recs);
  EXPECT_EQ(c.md5_acc, 0xd343684110693606ULL);
  EXPECT_EQ(c.sum_acc, 8151809u);
  EXPECT_EQ(c.key_acc, 0x9826076ad6225650ULL);
  EXPECT_EQ(c.count, 1000u);
}

TEST(Checksum, OrderIndependent) {
  std::vector<Record> recs{{1, 10}, {2, 20}, {3, 30}, {4, 40}};
  const Checksum fwd = checksum_of(recs);
  std::reverse(recs.begin(), recs.end());
  EXPECT_EQ(checksum_of(recs), fwd);
}

TEST(Checksum, DetectsMissingAndDuplicate) {
  const std::vector<Record> base{{1, 10}, {2, 20}, {3, 30}};
  std::vector<Record> missing{{1, 10}, {2, 20}};
  std::vector<Record> dup{{1, 10}, {2, 20}, {3, 30}, {3, 30}};
  EXPECT_NE(checksum_of(missing), checksum_of(base));
  EXPECT_NE(checksum_of(dup), checksum_of(base));
}

TEST(Checksum, DetectsKeyChangeEvenWithSameValues) {
  const std::vector<Record> a{{1, 10}}, b{{2, 10}};
  EXPECT_NE(checksum_of(a), checksum_of(b));
}

TEST(Checksum, MergeEqualsConcatenation) {
  const std::vector<Record> a{{1, 10}, {2, 20}}, b{{3, 30}};
  Checksum merged = checksum_of(a);
  merged.merge(checksum_of(b));
  std::vector<Record> all = a;
  all.insert(all.end(), b.begin(), b.end());
  EXPECT_EQ(merged, checksum_of(all));
}

TEST(PayloadStore, AppendAndReadBack) {
  PayloadStore store;
  EXPECT_FALSE(store.has(0, 0));
  store.append(0, 0, {{1, 10}, {2, 20}, {3, 30}}, 1);
  ASSERT_TRUE(store.has(0, 0));
  EXPECT_EQ(store.partition_records(0, 0).size(), 3u);
  EXPECT_EQ(store.block_count(0, 0), 1u);
}

TEST(PayloadStore, BlockSlicingEven) {
  PayloadStore store;
  std::vector<Record> recs;
  for (std::uint64_t i = 0; i < 10; ++i) recs.push_back({i, i});
  store.append(0, 0, recs, 4);  // 3,3,2,2
  EXPECT_EQ(store.block_records(0, 0, 0).size(), 3u);
  EXPECT_EQ(store.block_records(0, 0, 1).size(), 3u);
  EXPECT_EQ(store.block_records(0, 0, 2).size(), 2u);
  EXPECT_EQ(store.block_records(0, 0, 3).size(), 2u);
  // Blocks tile the partition in order.
  EXPECT_EQ(store.block_records(0, 0, 0)[0].key, 0u);
  EXPECT_EQ(store.block_records(0, 0, 3)[1].key, 9u);
}

TEST(PayloadStore, MultipleAppendsAccumulateExtents) {
  PayloadStore store;
  store.append(7, 2, {{1, 1}, {2, 2}}, 1);
  store.append(7, 2, {{3, 3}}, 1);
  EXPECT_EQ(store.partition_records(7, 2).size(), 3u);
  EXPECT_EQ(store.block_count(7, 2), 2u);
  EXPECT_EQ(store.block_records(7, 2, 1).size(), 1u);
  EXPECT_EQ(store.block_records(7, 2, 1)[0].key, 3u);
}

TEST(PayloadStore, ClearRemoves) {
  PayloadStore store;
  store.append(0, 0, {{1, 1}}, 1);
  store.clear(0, 0);
  EXPECT_FALSE(store.has(0, 0));
  EXPECT_EQ(store.block_count(0, 0), 0u);
}

TEST(PayloadStore, FileChecksumSpansPartitions) {
  PayloadStore store;
  store.append(3, 0, {{1, 10}}, 1);
  store.append(3, 1, {{2, 20}}, 1);
  const Checksum c = store.file_checksum(3, 2);
  EXPECT_EQ(c.count, 2u);
  Checksum manual;
  manual.add({1, 10});
  manual.add({2, 20});
  EXPECT_EQ(c, manual);
}

// Flips one of a record's 128 key (bits 0..63) and value (64..127)
// bits in place. The stores hand out const views of records they own
// as non-const objects, so writing through const_cast is well defined.
void flip_bit(const Record& r, int bit) {
  Record& m = const_cast<Record&>(r);
  (bit < 64 ? m.key : m.value) ^= 1ULL << (bit % 64);
}

std::vector<Record> sample_records(std::uint64_t n) {
  std::vector<Record> recs;
  for (std::uint64_t i = 0; i < n; ++i) recs.push_back({mix64(i), i * 31});
  return recs;
}

TEST(BlockDigest, CountsRecordsAndIgnoresOrder) {
  std::vector<Record> recs = sample_records(5);
  const BlockDigest d = BlockDigest::of(recs);
  EXPECT_EQ(d.count, 5u);
  std::reverse(recs.begin(), recs.end());
  EXPECT_EQ(BlockDigest::of(recs), d);
  recs.pop_back();
  EXPECT_NE(BlockDigest::of(recs), d);
  EXPECT_EQ(BlockDigest::of({}), BlockDigest{});
}

TEST(PayloadStore, VerifyBlockFlagsEverySingleBitFlip) {
  PayloadStore store;
  store.append(4, 1, sample_records(15), 3);  // blocks of 5
  const auto block = store.block_records(4, 1, 1);
  ASSERT_EQ(block.size(), 5u);
  for (std::size_t i : {std::size_t{0}, block.size() / 2, block.size() - 1}) {
    for (int bit = 0; bit < 128; ++bit) {
      flip_bit(block[i], bit);
      EXPECT_FALSE(store.verify_block(4, 1, 1)) << "record " << i
                                                << " bit " << bit;
      EXPECT_TRUE(store.verify_block(4, 1, 0));
      flip_bit(block[i], bit);
      EXPECT_TRUE(store.verify_block(4, 1, 1));
    }
  }
}

TEST(PayloadStore, CorruptRecordIsDetectedInItsBlockOnly) {
  PayloadStore store;
  store.append(2, 0, sample_records(9), 3);
  ASSERT_TRUE(store.corrupt_record(2, 0));
  // The middle record (index 4) sits in the middle block.
  EXPECT_TRUE(store.verify_block(2, 0, 0));
  EXPECT_FALSE(store.verify_block(2, 0, 1));
  EXPECT_TRUE(store.verify_block(2, 0, 2));
  EXPECT_FALSE(store.corrupt_record(2, 5));  // nothing stored there
}

TEST(PayloadStore, EmptyBlockAndUnknownPartitionReadAsIntact) {
  PayloadStore store;
  store.append(1, 0, {}, 1);
  EXPECT_TRUE(store.verify_block(1, 0, 0));
  EXPECT_TRUE(store.verify_block(1, 7, 0));
}

TEST(PayloadStore, IntegrityCountersCountDigestedBlocksAndRecords) {
  PayloadStore store;
  store.append(3, 0, sample_records(10), 4);  // 3,3,2,2
  EXPECT_EQ(store.integrity().checks, 0u);  // capture is not a check
  EXPECT_TRUE(store.verify_block(3, 0, 0));
  EXPECT_TRUE(store.verify_block(3, 0, 3));
  EXPECT_TRUE(store.verify_block(3, 9, 0));  // nothing digested
  EXPECT_EQ(store.integrity().checks, 2u);
  EXPECT_EQ(store.integrity().records, 5u);
}

TEST(PayloadStore, FileHasPayloadPerFile) {
  PayloadStore store;
  store.append(5, 0, {{1, 1}}, 1);
  EXPECT_TRUE(store.file_has_payload(5));
  EXPECT_FALSE(store.file_has_payload(6));
}

struct StoreFixture {
  StoreFixture() : net(sim), cluster(sim, net, make_spec()) {}
  static cluster::ClusterSpec make_spec() {
    cluster::ClusterSpec s;
    s.nodes = 4;
    s.disk_bw = 1e8;
    s.nic_bw = 1e9;
    return s;
  }
  sim::Simulation sim;
  res::FlowNetwork net;
  cluster::Cluster cluster;
  MapOutputStore store;
};

MapOutput make_output(cluster::NodeId node, std::uint64_t layout = 0) {
  MapOutput out;
  out.node = node;
  out.input_layout_version = layout;
  out.total_bytes = 1000.0;
  out.per_reducer_bytes = {500.0, 500.0};
  return out;
}

TEST(MapOutputStore, PutFindDrop) {
  StoreFixture f;
  const MapOutputKey key{1, 2, 3};
  EXPECT_FALSE(f.store.contains(key));
  f.store.put(key, make_output(0));
  ASSERT_TRUE(f.store.contains(key));
  EXPECT_EQ(f.store.find(key)->node, 0u);
  f.store.drop(key);
  EXPECT_FALSE(f.store.contains(key));
}

TEST(MapOutputStore, UsableRequiresAliveNodeAndLayout) {
  StoreFixture f;
  const MapOutputKey key{1, 0, 0};
  f.store.put(key, make_output(2, 5));
  EXPECT_TRUE(f.store.usable(key, 5, f.cluster));
  EXPECT_FALSE(f.store.usable(key, 6, f.cluster));  // layout changed
  f.cluster.kill(2);
  EXPECT_FALSE(f.store.usable(key, 5, f.cluster));  // node dead
}

TEST(MapOutputStore, NodeFailureMarksLost) {
  StoreFixture f;
  f.store.put({1, 0, 0}, make_output(1));
  f.store.put({1, 0, 1}, make_output(2));
  f.store.on_node_failure(1);
  EXPECT_TRUE(f.store.find({1, 0, 0})->lost);
  EXPECT_FALSE(f.store.find({1, 0, 1})->lost);
  EXPECT_FALSE(f.store.usable({1, 0, 0}, 0, f.cluster));
}

TEST(MapOutputStore, DropJobRemovesAllItsOutputs) {
  StoreFixture f;
  f.store.put({1, 0, 0}, make_output(0));
  f.store.put({1, 5, 2}, make_output(1));
  f.store.put({2, 0, 0}, make_output(2));
  f.store.drop_job(1);
  EXPECT_EQ(f.store.size(), 1u);
  EXPECT_TRUE(f.store.contains({2, 0, 0}));
}

TEST(MapOutputStore, UsedSpaceSkipsLost) {
  StoreFixture f;
  f.store.put({1, 0, 0}, make_output(1));
  f.store.put({1, 0, 1}, make_output(2));
  EXPECT_EQ(f.store.total_used(), 2000u);
  EXPECT_EQ(f.store.used_on_node(1), 1000u);
  f.store.on_node_failure(1);
  EXPECT_EQ(f.store.total_used(), 1000u);
  EXPECT_EQ(f.store.used_on_node(1), 0u);
}

MapOutput payload_output(std::vector<std::vector<Record>> buckets) {
  MapOutput out = make_output(0);
  out.per_reducer_bytes.assign(buckets.size(), 100.0);
  out.buckets = std::move(buckets);
  return out;
}

TEST(MapOutputStore, BucketStateFlagsEverySingleBitFlip) {
  StoreFixture f;
  const MapOutputKey key{1, 0, 0};
  f.store.put(key, payload_output({sample_records(3), sample_records(5)}));
  const std::vector<Record>& bucket = f.store.find(key)->buckets[1];
  for (std::size_t i : {std::size_t{0}, bucket.size() / 2, bucket.size() - 1}) {
    for (int bit = 0; bit < 128; ++bit) {
      flip_bit(bucket[i], bit);
      EXPECT_EQ(f.store.bucket_state(key, 1), BucketState::kCorrupt)
          << "record " << i << " bit " << bit;
      EXPECT_EQ(f.store.bucket_state(key, 0), BucketState::kIntact);
      flip_bit(bucket[i], bit);
      EXPECT_EQ(f.store.bucket_state(key, 1), BucketState::kIntact);
    }
  }
}

TEST(MapOutputStore, CorruptOneIsDetectedInExactlyOneBucket) {
  StoreFixture f;
  const MapOutputKey key{1, 0, 0};
  f.store.put(key, payload_output({sample_records(4), {}, sample_records(6)}));
  Rng rng(7);
  ASSERT_TRUE(f.store.corrupt_one(rng));
  int corrupt = 0;
  for (std::uint32_t b = 0; b < 3; ++b) {
    if (f.store.bucket_state(key, b) == BucketState::kCorrupt) ++corrupt;
  }
  EXPECT_EQ(corrupt, 1);
  // The empty bucket cannot be the victim.
  EXPECT_EQ(f.store.bucket_state(key, 1), BucketState::kIntact);
}

TEST(MapOutputStore, EmptyBucketsReadAsIntact) {
  StoreFixture f;
  const MapOutputKey key{1, 0, 0};
  f.store.put(key, payload_output({{}, {}}));
  EXPECT_EQ(f.store.bucket_state(key, 0), BucketState::kIntact);
  EXPECT_EQ(f.store.bucket_state(key, 1), BucketState::kIntact);
  EXPECT_EQ(f.store.integrity().checks, 2u);
  EXPECT_EQ(f.store.integrity().records, 0u);
}

TEST(MapOutputStore, IntegrityCountersSkipUndigestedReads) {
  StoreFixture f;
  f.store.put({1, 0, 0}, payload_output({sample_records(4)}));
  f.store.put({1, 0, 1}, make_output(1));  // virtual size: no payload
  EXPECT_EQ(f.store.bucket_state({1, 0, 0}, 0), BucketState::kIntact);
  EXPECT_EQ(f.store.bucket_state({1, 0, 1}, 0), BucketState::kIntact);
  EXPECT_EQ(f.store.bucket_state({1, 0, 0}, 3), BucketState::kMissingSum);
  EXPECT_EQ(f.store.bucket_state({9, 0, 0}, 0), BucketState::kIntact);
  EXPECT_EQ(f.store.integrity().checks, 1u);
  EXPECT_EQ(f.store.integrity().records, 4u);
}

TEST(MapOutputKey, PackedIsInjectiveOnSmallCoords) {
  std::set<std::uint64_t> seen;
  for (std::uint32_t j = 0; j < 8; ++j)
    for (std::uint32_t p = 0; p < 8; ++p)
      for (std::uint32_t b = 0; b < 8; ++b)
        seen.insert(MapOutputKey{j, p, b}.packed());
  EXPECT_EQ(seen.size(), 8u * 8 * 8);
}

TEST(ChainUdfs, MapperEmitsOneRecordPerInput) {
  workloads::ChainMapper mapper;
  Emitter em;
  mapper.map({1, 2}, 42, em);
  EXPECT_EQ(em.records().size(), 1u);
}

TEST(ChainUdfs, MapperDeterministicPerJobSalt) {
  workloads::ChainMapper mapper;
  Emitter a, b, c;
  mapper.map({1, 2}, 42, a);
  mapper.map({1, 2}, 42, b);
  mapper.map({1, 2}, 43, c);
  EXPECT_EQ(a.records(), b.records());
  EXPECT_NE(a.records()[0].key, c.records()[0].key);  // randomized key
}

TEST(ChainUdfs, MapperRandomizesKeysForBalance) {
  workloads::ChainMapper mapper;
  std::vector<int> counts(8, 0);
  Emitter em;
  for (std::uint64_t i = 0; i < 8000; ++i) {
    em.records().clear();
    mapper.map({i, i * 3 + 1}, 42, em);
    ++counts[partition_of(em.records()[0].key, 8)];
  }
  for (int c : counts) EXPECT_NEAR(c, 1000, 200);
}

TEST(ChainUdfs, ReducerPreservesRecordCount) {
  workloads::ChainReducer reducer;
  Emitter em;
  const std::vector<std::uint64_t> values{10, 20, 30};
  reducer.reduce(7, values, 42, em);
  EXPECT_EQ(em.records().size(), 3u);
  for (const auto& r : em.records()) EXPECT_EQ(r.key, 7u);
}

// ChainMapper's output for input {i * 1000003, kPinValues[i]} and
// ChainReducer's output value for kPinValues[i] under key 42, both with
// kChainPinSalt.
constexpr std::uint64_t kChainPinSalt = 0x5a17'0000'0042ULL;
constexpr Record kWantMap[] = {
    {0x8c98013a303f1148ULL, 0xc67fb00287c0aa51ULL},
    {0x9d6de2f0782ffe4fULL, 0x7aba8d4f061a88d1ULL},
    {0x8c352cc971ddaa1fULL, 0xf1c61ad5437de22cULL},
    {0x135362a8b3d79eb4ULL, 0x66daeda4b5dd8889ULL},
    {0x3911a370fe551f43ULL, 0xe918b9666f005ab1ULL},
    {0xe5a7856a659bd211ULL, 0x3e130ef82e14ba05ULL},
    {0x5ef1f2ee13b3b230ULL, 0x633c710b603bfe4eULL},
    {0x32f38351c021210aULL, 0x300b70bebece3c3aULL}};
constexpr std::uint64_t kWantReduce[] = {
    0x04526f66a3804bd9ULL, 0xe39513b761faa381ULL, 0xdaadf19f3f1855ceULL,
    0x22d0ad5a45bdf887ULL, 0x05600adc1475eabdULL, 0xf94ef44091ce6b2fULL,
    0xce2c11faaacdac16ULL, 0x0412b8da368846fdULL};

TEST(ChainUdfs, KnownAnswersForFixedRecords) {
  workloads::ChainMapper mapper;
  Emitter mapped;
  for (std::size_t i = 0; i < std::size(kPinValues); ++i) {
    mapper.map({i * 1000003ULL, kPinValues[i]}, kChainPinSalt, mapped);
  }
  ASSERT_EQ(mapped.records().size(), std::size(kWantMap));
  for (std::size_t i = 0; i < std::size(kWantMap); ++i) {
    EXPECT_EQ(mapped.records()[i], kWantMap[i]) << "record " << i;
  }

  workloads::ChainReducer reducer;
  Emitter reduced;
  reducer.reduce(42, kPinValues, kChainPinSalt, reduced);
  ASSERT_EQ(reduced.records().size(), std::size(kWantReduce));
  for (std::size_t i = 0; i < std::size(kWantReduce); ++i) {
    EXPECT_EQ(reduced.records()[i], (Record{42, kWantReduce[i]}))
        << "value " << i;
  }
}

// The batch entry points give the pinned per-record outputs.
TEST(ChainUdfs, BatchEntryPointsMatchPinnedRecords) {
  std::vector<Record> in;
  for (std::size_t i = 0; i < std::size(kPinValues); ++i) {
    in.push_back({i * 1000003ULL, kPinValues[i]});
  }
  workloads::ChainMapper mapper;
  Emitter mapped;
  mapper.map_batch(in, kChainPinSalt, mapped);
  ASSERT_EQ(mapped.records().size(), std::size(kWantMap));
  for (std::size_t i = 0; i < std::size(kWantMap); ++i) {
    EXPECT_EQ(mapped.records()[i], kWantMap[i]) << "record " << i;
  }

  // One key holding all 8 values, sorted as the engine hands it over.
  std::vector<Record> one_key;
  for (std::uint64_t v : kPinValues) one_key.push_back({42, v});
  std::sort(one_key.begin(), one_key.end());
  workloads::ChainReducer reducer;
  Emitter reduced;
  reducer.reduce_sorted(one_key, kChainPinSalt, reduced);
  ASSERT_EQ(reduced.records().size(), one_key.size());
  for (std::size_t i = 0; i < one_key.size(); ++i) {
    const std::size_t pin =
        std::find(std::begin(kPinValues), std::end(kPinValues),
                  one_key[i].value) -
        std::begin(kPinValues);
    EXPECT_EQ(reduced.records()[i], (Record{42, kWantReduce[pin]}))
        << "value " << one_key[i].value;
  }

  // Eight keys: the batch reduce equals one reduce() call per key.
  std::vector<Record> keyed(std::begin(kWantMap), std::end(kWantMap));
  keyed.push_back(keyed[3]);  // a key with two equal values
  keyed.push_back({keyed[5].key, 7});
  std::sort(keyed.begin(), keyed.end());
  Emitter batch, per_key;
  reducer.reduce_sorted(keyed, kChainPinSalt, batch);
  for (std::size_t i = 0; i < keyed.size();) {
    std::vector<std::uint64_t> values;
    const std::uint64_t key = keyed[i].key;
    for (; i < keyed.size() && keyed[i].key == key; ++i) {
      values.push_back(keyed[i].value);
    }
    reducer.reduce(key, values, kChainPinSalt, per_key);
  }
  EXPECT_EQ(batch.records(), per_key.records());
}

// UDFs that override only map()/reduce() get the default batch bodies:
// one call per record, one per key, in order, with each key's values.
class LoggingMapper final : public MapUdf {
 public:
  mutable std::vector<Record> calls;
  void map(const Record& in, std::uint64_t job_salt,
           Emitter& out) const override {
    calls.push_back(in);
    out.emit(in.key, in.value ^ job_salt);
  }
};

class LoggingReducer final : public ReduceUdf {
 public:
  mutable std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>>
      calls;
  void reduce(std::uint64_t key, std::span<const std::uint64_t> values,
              std::uint64_t, Emitter& out) const override {
    calls.emplace_back(key, std::vector<std::uint64_t>(values.begin(),
                                                       values.end()));
    out.emit(key, values.size());
  }
};

TEST(UdfBatch, DefaultsCallPerRecordOverridesOnceInOrder) {
  const std::vector<Record> in{{5, 1}, {3, 2}, {5, 0}, {9, 4}, {3, 2}};
  LoggingMapper mapper;
  Emitter mapped;
  mapper.map_batch(in, 0xF0, mapped);
  EXPECT_EQ(mapper.calls, in);
  ASSERT_EQ(mapped.records().size(), in.size());
  EXPECT_EQ(mapped.records()[2], (Record{5, 0xF0}));
  mapper.calls.clear();
  mapper.map_batch({}, 0xF0, mapped);
  EXPECT_TRUE(mapper.calls.empty());

  std::vector<Record> sorted = in;
  std::sort(sorted.begin(), sorted.end());
  LoggingReducer reducer;
  Emitter reduced;
  reducer.reduce_sorted(sorted, 0, reduced);
  using Call = std::pair<std::uint64_t, std::vector<std::uint64_t>>;
  const std::vector<Call> want{{3, {2, 2}}, {5, {0, 1}}, {9, {4}}};
  EXPECT_EQ(reducer.calls, want);
  EXPECT_EQ(reduced.records(),
            (std::vector<Record>{{3, 2}, {5, 2}, {9, 1}}));
  reducer.calls.clear();
  reducer.reduce_sorted({}, 0, reduced);
  EXPECT_TRUE(reducer.calls.empty());
}

TEST(ChainUdfs, IdentityUdfsRoundTrip) {
  workloads::IdentityMapper m;
  workloads::IdentityReducer r;
  Emitter em;
  m.map({5, 6}, 0, em);
  ASSERT_EQ(em.records().size(), 1u);
  EXPECT_EQ(em.records()[0], (Record{5, 6}));
  Emitter er;
  const std::vector<std::uint64_t> vals{6};
  r.reduce(5, vals, 0, er);
  EXPECT_EQ(er.records()[0], (Record{5, 6}));
}

}  // namespace
}  // namespace rcmp::mapred
