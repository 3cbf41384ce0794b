// Tests for the functional PIM layer: bit counter fidelity, array
// addressing, WRITE/READ/AND semantics and the physical placement
// constraints of multi-row activation.
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "pim/bit_counter.h"
#include "pim/computational_array.h"
#include "util/rng.h"

namespace tcim::pim {
namespace {

nvsim::ArrayConfig SmallConfig() {
  nvsim::ArrayConfig c;
  c.capacity_bytes = 1ULL << 20;  // 1 MB: 32 subarrays of 512x512
  return c;
}

TEST(BitCounter, MatchesPopcountExhaustively16Bit) {
  BitCounter counter;
  for (std::uint64_t v = 0; v < 65536; ++v) {
    ASSERT_EQ(counter.Feed(v), static_cast<std::uint32_t>(std::popcount(v)));
  }
}

TEST(BitCounter, MatchesPopcountOnRandom64Bit) {
  BitCounter counter;
  util::Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng();
    ASSERT_EQ(counter.Feed(v), static_cast<std::uint32_t>(std::popcount(v)));
  }
}

TEST(BitCounter, AccumulatesTotals) {
  BitCounter counter;
  counter.Feed(0b1011);          // 3
  counter.Feed(0xFF);            // 8
  const std::vector<std::uint64_t> slice = {0b1, 0b11};
  counter.FeedWords(slice);      // 1 + 2
  EXPECT_EQ(counter.total(), 14u);
  EXPECT_EQ(counter.words_processed(), 4u);
}

TEST(BitCounter, EnergyAndLatencyScaleWithWords) {
  BitCounter counter;
  for (int i = 0; i < 100; ++i) counter.Feed(~0ULL);
  EXPECT_DOUBLE_EQ(counter.DynamicEnergy(),
                   100 * counter.params().energy_per_word);
  EXPECT_DOUBLE_EQ(counter.SerialLatency(),
                   100 * counter.params().latency_per_word);
}

TEST(BitCounter, ResetClearsState) {
  BitCounter counter;
  counter.Feed(0xFFFF);
  counter.Reset();
  EXPECT_EQ(counter.total(), 0u);
  EXPECT_EQ(counter.words_processed(), 0u);
}

TEST(BitCounter, RejectsNonByteWidths) {
  BitCounterParams p;
  p.word_bits = 60;  // not a multiple of the 8-bit LUT granularity
  EXPECT_THROW(BitCounter{p}, std::invalid_argument);
}

TEST(ComputationalArray, GeometryFromConfig) {
  const ComputationalArray array(SmallConfig());
  EXPECT_EQ(array.num_subarrays(), 32u);
  EXPECT_EQ(array.slices_per_row(), 8u);
  EXPECT_EQ(array.total_slots(), 32ULL * 512 * 8);
  EXPECT_EQ(array.words_per_slice(), 1u);
}

TEST(ComputationalArray, AddrRoundTrip) {
  const ComputationalArray array(SmallConfig());
  util::Xoshiro256 rng(2);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t flat = rng.UniformBelow(array.total_slots());
    const SliceAddr addr = array.AddrOf(flat);
    EXPECT_EQ(array.FlatIndex(addr), flat);
  }
  EXPECT_THROW((void)array.AddrOf(array.total_slots()), std::out_of_range);
}

TEST(ComputationalArray, WriteThenReadRoundTrip) {
  ComputationalArray array(SmallConfig());
  const SliceAddr addr{.subarray = 3, .row = 100, .col_group = 5};
  const std::vector<std::uint64_t> data = {0xDEADBEEFCAFEF00DULL};
  array.WriteSlice(addr, data);
  const auto read = array.ReadSlice(addr);
  ASSERT_EQ(read.size(), 1u);
  EXPECT_EQ(read[0], data[0]);
  EXPECT_EQ(array.counts().writes, 1u);
  EXPECT_EQ(array.counts().reads, 1u);
}

TEST(ComputationalArray, FreshSlotsReadZero) {
  ComputationalArray array(SmallConfig());
  const auto read = array.ReadSlice({.subarray = 0, .row = 0, .col_group = 0});
  EXPECT_EQ(read[0], 0u);
}

TEST(ComputationalArray, InvalidConfigsThrowBeforeAnyDivision) {
  // Both fields are divisors of the geometry (slices per row, subarray
  // bits): the config must be rejected before they are used.
  nvsim::ArrayConfig zero_width = SmallConfig();
  zero_width.access_width_bits = 0;
  EXPECT_THROW(ComputationalArray{zero_width}, std::invalid_argument);
  nvsim::ArrayConfig zero_rows = SmallConfig();
  zero_rows.subarray_rows = 0;
  EXPECT_THROW(ComputationalArray{zero_rows}, std::invalid_argument);
}

TEST(ComputationalArray, UnwrittenRowsAroundAWrittenRowReadZero) {
  ComputationalArray array(SmallConfig());
  const auto at = [](std::uint32_t row) {
    return SliceAddr{.subarray = 4, .row = row, .col_group = 3};
  };
  array.WriteSlice(at(5), std::vector<std::uint64_t>{0xABCDULL});
  for (std::uint32_t row = 0; row < 5; ++row) {
    EXPECT_EQ(array.ReadSlice(at(row))[0], 0u) << "row " << row;
  }
  EXPECT_EQ(array.ReadSlice(at(6))[0], 0u);
  EXPECT_EQ(array.ReadSlice(at(511))[0], 0u);
  // Growing the block past row 5 keeps it and zero-fills the gap.
  array.WriteSlice(at(40), std::vector<std::uint64_t>{0x1234ULL});
  EXPECT_EQ(array.ReadSlice(at(5))[0], 0xABCDULL);
  EXPECT_EQ(array.ReadSlice(at(39))[0], 0u);
  EXPECT_EQ(array.ReadSlice(at(40))[0], 0x1234ULL);
  EXPECT_EQ(array.ReadSlice(at(41))[0], 0u);
  // A rewrite below the highest row overwrites in place.
  array.WriteSlice(at(5), std::vector<std::uint64_t>{0x77ULL});
  EXPECT_EQ(array.ReadSlice(at(5))[0], 0x77ULL);
  EXPECT_EQ(array.ReadSlice(at(40))[0], 0x1234ULL);
}

TEST(ComputationalArray, AndWithANeverWrittenOperandCountsAndReturnsZero) {
  nvsim::ArrayConfig c = SmallConfig();
  c.access_width_bits = 128;  // two bit-counter words per AND
  ComputationalArray array(c);
  const SliceAddr written{.subarray = 2, .row = 0, .col_group = 1};
  const SliceAddr unwritten{.subarray = 2, .row = 300, .col_group = 1};
  array.WriteSlice(written, std::vector<std::uint64_t>{~0ULL, ~0ULL});
  EXPECT_EQ(array.AndPopcount(written, unwritten), 0u);
  EXPECT_EQ(array.AndPopcount(unwritten, written), 0u);
  // Both operands unwritten: the block was never allocated.
  const SliceAddr empty_a{.subarray = 9, .row = 1, .col_group = 0};
  const SliceAddr empty_b{.subarray = 9, .row = 2, .col_group = 0};
  EXPECT_EQ(array.AndPopcount(empty_a, empty_b), 0u);
  EXPECT_EQ(array.counts().ands, 3u);
  EXPECT_EQ(array.counts().bitcount_words, 6u);
  EXPECT_EQ(array.bit_counter().words_processed(), 6u);
  EXPECT_EQ(array.accumulated_count(), 0u);
}

TEST(ComputationalArray, WritesStayInTheirColumnGroupAndSubarray) {
  ComputationalArray array(SmallConfig());
  const SliceAddr target{.subarray = 7, .row = 12, .col_group = 4};
  array.WriteSlice(target, std::vector<std::uint64_t>{~0ULL});
  for (std::uint32_t sub = 0; sub < 32; ++sub) {
    for (std::uint32_t col = 0; col < 8; ++col) {
      for (const std::uint32_t row : {0u, 11u, 12u, 13u}) {
        const SliceAddr addr{.subarray = sub, .row = row, .col_group = col};
        EXPECT_EQ(array.ReadSlice(addr)[0], addr == target ? ~0ULL : 0ULL)
            << sub << "/" << row << "/" << col;
      }
    }
  }
}

TEST(ComputationalArray, HeapHoldsWhatWasWrittenNotTheCapacity) {
  nvsim::ArrayConfig paper;  // 16 MiB: 512 subarrays x 8 column groups
  ComputationalArray array(paper);
  ASSERT_EQ(array.total_slots() * array.words_per_slice() * 8,
            paper.capacity_bytes);
  const std::uint64_t fresh = array.HeapBytes();
  EXPECT_LT(fresh, 1ULL << 20);
  // Cache-like fills: the staging row and a few ways of many sets.
  util::Xoshiro256 rng(4);
  for (std::uint32_t w = 0; w < 400; ++w) {
    const SliceAddr addr{.subarray = w % 512, .row = w / 64,
                         .col_group = w % 8};
    array.WriteSlice(addr, std::vector<std::uint64_t>{rng()});
  }
  EXPECT_GT(array.HeapBytes(), fresh);
  EXPECT_LT(array.HeapBytes(), 1ULL << 20);
}

TEST(ComputationalArray, AndPopcountComputesIntersection) {
  ComputationalArray array(SmallConfig());
  const SliceAddr a{.subarray = 1, .row = 0, .col_group = 2};
  const SliceAddr b{.subarray = 1, .row = 7, .col_group = 2};
  array.WriteSlice(a, std::vector<std::uint64_t>{0b110110ULL});
  array.WriteSlice(b, std::vector<std::uint64_t>{0b011100ULL});
  EXPECT_EQ(array.AndPopcount(a, b), 2u);  // bits 2 and 4
  EXPECT_EQ(array.accumulated_count(), 2u);
  EXPECT_EQ(array.counts().ands, 1u);
  EXPECT_EQ(array.counts().bitcount_words, 1u);
}

TEST(ComputationalArray, AndSlicesReturnsRawResult) {
  ComputationalArray array(SmallConfig());
  const SliceAddr a{.subarray = 0, .row = 1, .col_group = 0};
  const SliceAddr b{.subarray = 0, .row = 2, .col_group = 0};
  array.WriteSlice(a, std::vector<std::uint64_t>{0xF0F0ULL});
  array.WriteSlice(b, std::vector<std::uint64_t>{0xFF00ULL});
  const auto result = array.AndSlices(a, b);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], 0xF000ULL);
}

TEST(ComputationalArray, AndMatchesSoftwareOnRandomData) {
  ComputationalArray array(SmallConfig());
  util::Xoshiro256 rng(3);
  for (int trial = 0; trial < 500; ++trial) {
    const auto sub = static_cast<std::uint32_t>(rng.UniformBelow(32));
    const auto col = static_cast<std::uint32_t>(rng.UniformBelow(8));
    const SliceAddr a{.subarray = sub, .row = 10, .col_group = col};
    const SliceAddr b{.subarray = sub, .row = 20, .col_group = col};
    const std::uint64_t wa = rng();
    const std::uint64_t wb = rng();
    array.WriteSlice(a, std::vector<std::uint64_t>{wa});
    array.WriteSlice(b, std::vector<std::uint64_t>{wb});
    ASSERT_EQ(array.AndPopcount(a, b),
              static_cast<std::uint64_t>(std::popcount(wa & wb)));
  }
}

TEST(ComputationalArray, AndRejectsCrossSubarray) {
  ComputationalArray array(SmallConfig());
  const SliceAddr a{.subarray = 0, .row = 0, .col_group = 0};
  const SliceAddr b{.subarray = 1, .row = 1, .col_group = 0};
  EXPECT_THROW((void)array.AndPopcount(a, b), std::invalid_argument);
}

TEST(ComputationalArray, AndRejectsMisalignedColumns) {
  ComputationalArray array(SmallConfig());
  const SliceAddr a{.subarray = 0, .row = 0, .col_group = 0};
  const SliceAddr b{.subarray = 0, .row = 1, .col_group = 1};
  EXPECT_THROW((void)array.AndPopcount(a, b), std::invalid_argument);
}

TEST(ComputationalArray, AndRejectsSameRow) {
  ComputationalArray array(SmallConfig());
  const SliceAddr a{.subarray = 0, .row = 5, .col_group = 0};
  EXPECT_THROW((void)array.AndPopcount(a, a), std::invalid_argument);
}

TEST(ComputationalArray, WriteRejectsWrongWordCount) {
  ComputationalArray array(SmallConfig());
  const SliceAddr addr{.subarray = 0, .row = 0, .col_group = 0};
  EXPECT_THROW(
      array.WriteSlice(addr, std::vector<std::uint64_t>{1, 2}),
      std::invalid_argument);
}

TEST(ComputationalArray, WriteRejectsDataBeyondAccessWidth) {
  nvsim::ArrayConfig c = SmallConfig();
  c.access_width_bits = 32;
  ComputationalArray array(c);
  const SliceAddr addr{.subarray = 0, .row = 0, .col_group = 0};
  EXPECT_THROW(
      array.WriteSlice(addr, std::vector<std::uint64_t>{1ULL << 40}),
      std::invalid_argument);
  EXPECT_NO_THROW(
      array.WriteSlice(addr, std::vector<std::uint64_t>{0xFFFFFFFFULL}));
}

TEST(ComputationalArray, OutOfRangeAddressesThrow) {
  ComputationalArray array(SmallConfig());
  EXPECT_THROW(
      (void)array.ReadSlice({.subarray = 32, .row = 0, .col_group = 0}),
      std::out_of_range);
  EXPECT_THROW(
      (void)array.ReadSlice({.subarray = 0, .row = 512, .col_group = 0}),
      std::out_of_range);
  EXPECT_THROW(
      (void)array.ReadSlice({.subarray = 0, .row = 0, .col_group = 8}),
      std::out_of_range);
}

TEST(ComputationalArray, MultiWordSlices) {
  nvsim::ArrayConfig c = SmallConfig();
  c.access_width_bits = 128;
  c.subarray_cols = 512;
  ComputationalArray array(c);
  EXPECT_EQ(array.words_per_slice(), 2u);
  const SliceAddr a{.subarray = 0, .row = 0, .col_group = 0};
  const SliceAddr b{.subarray = 0, .row = 1, .col_group = 0};
  array.WriteSlice(a, std::vector<std::uint64_t>{~0ULL, 0xF0ULL});
  array.WriteSlice(b, std::vector<std::uint64_t>{0xFFULL, 0xFFULL});
  EXPECT_EQ(array.AndPopcount(a, b), 8u + 4u);
}

TEST(ComputationalArray, TraceRecordsCommandSequence) {
  ComputationalArray array(SmallConfig());
  array.EnableTrace(16);
  const SliceAddr a{.subarray = 2, .row = 0, .col_group = 1};
  const SliceAddr b{.subarray = 2, .row = 9, .col_group = 1};
  array.WriteSlice(a, std::vector<std::uint64_t>{1ULL});
  array.WriteSlice(b, std::vector<std::uint64_t>{3ULL});
  (void)array.AndPopcount(a, b);
  (void)array.ReadSlice(b);
  const auto& trace = array.trace();
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[0], (TraceEntry{TraceEntry::Op::kWrite, a, {}}));
  EXPECT_EQ(trace[1], (TraceEntry{TraceEntry::Op::kWrite, b, {}}));
  EXPECT_EQ(trace[2], (TraceEntry{TraceEntry::Op::kAnd, a, b}));
  EXPECT_EQ(trace[3], (TraceEntry{TraceEntry::Op::kRead, b, {}}));
  EXPECT_FALSE(array.trace_truncated());
}

TEST(ComputationalArray, TraceTruncatesAtCapacity) {
  ComputationalArray array(SmallConfig());
  array.EnableTrace(2);
  const SliceAddr a{.subarray = 0, .row = 0, .col_group = 0};
  for (int i = 0; i < 5; ++i) {
    array.WriteSlice(a, std::vector<std::uint64_t>{7ULL});
  }
  EXPECT_EQ(array.trace().size(), 2u);
  EXPECT_TRUE(array.trace_truncated());
  // Commands beyond the trace cap still executed.
  EXPECT_EQ(array.counts().writes, 5u);
}

TEST(ComputationalArray, DisableTraceStopsRecording) {
  ComputationalArray array(SmallConfig());
  array.EnableTrace(16);
  const SliceAddr a{.subarray = 0, .row = 0, .col_group = 0};
  array.WriteSlice(a, std::vector<std::uint64_t>{1ULL});
  array.DisableTrace();
  array.WriteSlice(a, std::vector<std::uint64_t>{2ULL});
  EXPECT_EQ(array.trace().size(), 1u);
}

TEST(ComputationalArray, ResetCountersClearsAccounting) {
  ComputationalArray array(SmallConfig());
  const SliceAddr a{.subarray = 0, .row = 0, .col_group = 0};
  const SliceAddr b{.subarray = 0, .row = 1, .col_group = 0};
  array.WriteSlice(a, std::vector<std::uint64_t>{3ULL});
  array.WriteSlice(b, std::vector<std::uint64_t>{1ULL});
  (void)array.AndPopcount(a, b);
  array.ResetCounters();
  EXPECT_EQ(array.counts().writes, 0u);
  EXPECT_EQ(array.counts().ands, 0u);
  EXPECT_EQ(array.accumulated_count(), 0u);
  // Contents survive a counter reset (it is accounting-only).
  EXPECT_EQ(array.ReadSlice(a)[0], 3ULL);
}

}  // namespace
}  // namespace tcim::pim
