#include "hw/cachesim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../test_support.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace eroof::hw {
namespace {

TEST(Cache, FirstAccessMissesSecondHits) {
  Cache c({1024, 64, 2});
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(63));  // same line
  EXPECT_FALSE(c.access(64)); // next line
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  // 2-way, line 64 B, 2 sets (256 B total): addresses 0, 128, 256 map to
  // set 0. Touch 0, 128, then re-touch 0, then 256 must evict 128.
  Cache c({256, 64, 2});
  EXPECT_FALSE(c.access(0));
  EXPECT_FALSE(c.access(128));
  EXPECT_TRUE(c.access(0));
  EXPECT_FALSE(c.access(256));  // evicts 128 (LRU)
  EXPECT_TRUE(c.access(0));     // still resident
  EXPECT_FALSE(c.access(128));  // was evicted
}

TEST(Cache, WorkingSetWithinCapacityAlwaysHitsAfterWarmup) {
  Cache c({4096, 64, 4});
  for (std::uint64_t a = 0; a < 4096; a += 64) c.access(a);
  const std::uint64_t misses_after_warmup = c.misses();
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t a = 0; a < 4096; a += 64) EXPECT_TRUE(c.access(a));
  EXPECT_EQ(c.misses(), misses_after_warmup);
}

TEST(Cache, StreamingNeverHits) {
  Cache c({4096, 64, 4});
  for (std::uint64_t a = 0; a < 1 << 20; a += 64) c.access(a);
  EXPECT_EQ(c.hits(), 0u);
}

TEST(Cache, ResetClearsContentsAndStats) {
  Cache c({1024, 64, 2});
  c.access(0);
  c.access(0);
  c.reset();
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_FALSE(c.access(0));  // cold again
}

TEST(Cache, InvalidGeometryThrows) {
  EXPECT_THROW(Cache({1000, 48, 2}), util::ContractError);  // non-pow2 line
  EXPECT_THROW(Cache({1024, 64, 0}), util::ContractError);  // zero ways
  EXPECT_THROW(Cache({1000, 64, 2}), util::ContractError);  // size mismatch
}

TEST(Hierarchy, ColdReadGoesToDram) {
  MemoryHierarchy h;
  h.access(0, 128, false);
  EXPECT_DOUBLE_EQ(h.traffic().l1_words, 0.0);
  EXPECT_DOUBLE_EQ(h.traffic().l2_words, 0.0);
  EXPECT_DOUBLE_EQ(h.traffic().dram_words, 32.0);  // 128 B = 32 words
  EXPECT_EQ(h.dram_read_sectors(), 4u);
}

TEST(Hierarchy, RepeatedReadHitsL1) {
  MemoryHierarchy h;
  h.access(0, 128, false);
  h.access(0, 128, false);
  EXPECT_DOUBLE_EQ(h.traffic().l1_words, 32.0);
  EXPECT_EQ(h.l1_hit_lines(), 1u);
}

TEST(Hierarchy, L1CapacityOverflowServedByL2) {
  MemoryHierarchy h;  // L1 16 KiB, L2 128 KiB
  const std::uint64_t ws = 64 * 1024;  // 64 KiB: fits L2, not L1
  for (std::uint64_t a = 0; a < ws; a += 128) h.access(a, 128, false);
  const double cold_dram = h.traffic().dram_words;
  for (std::uint64_t a = 0; a < ws; a += 128) h.access(a, 128, false);
  // Second pass: mostly L2 hits, no new DRAM traffic.
  EXPECT_DOUBLE_EQ(h.traffic().dram_words, cold_dram);
  EXPECT_GT(h.traffic().l2_words, 0.8 * 64 * 1024 / 4.0);
}

TEST(Hierarchy, SingleStreamingAccessDoesNotSelfHitL1) {
  // One long contiguous read is one coalesced transaction per line; its own
  // sectors must not count as L1 hits.
  MemoryHierarchy h;
  h.access(0, 4096, false);
  EXPECT_DOUBLE_EQ(h.traffic().l1_words, 0.0);
}

TEST(Hierarchy, WritesCountedSeparately) {
  MemoryHierarchy h;
  h.access(0, 128, true);
  EXPECT_EQ(h.dram_write_sectors(), 4u);
  EXPECT_EQ(h.dram_read_sectors(), 0u);
  EXPECT_EQ(h.l2_write_sector_queries(), 4u);
}

TEST(Hierarchy, PartialLineCountsOnlyTouchedSectors) {
  MemoryHierarchy h;
  h.access(0, 32, false);  // one sector
  EXPECT_DOUBLE_EQ(h.traffic().dram_words, 8.0);
}

TEST(Hierarchy, UnalignedAccessTouchesBothSectors) {
  MemoryHierarchy h;
  h.access(30, 4, false);  // straddles sectors 0 and 1
  EXPECT_DOUBLE_EQ(h.traffic().dram_words, 16.0);
}

TEST(Hierarchy, ResetRestoresColdState) {
  MemoryHierarchy h;
  h.access(0, 128, false);
  h.access(0, 128, false);
  h.reset();
  EXPECT_DOUBLE_EQ(h.traffic().l1_words, 0.0);
  h.access(0, 128, false);
  EXPECT_DOUBLE_EQ(h.traffic().dram_words, 32.0);
}

TEST(Hierarchy, TrafficAccumulates) {
  LevelTraffic t;
  t.l1_words = 1;
  LevelTraffic u;
  u.l1_words = 2;
  u.dram_words = 3;
  t += u;
  EXPECT_DOUBLE_EQ(t.l1_words, 3.0);
  EXPECT_DOUBLE_EQ(t.dram_words, 3.0);
}

/// The hierarchy's contract spelled out over two plain Caches, one access
/// at a time: a lookup per touched L1 line; on a miss, a sector-granular
/// L2 lookup per touched 32 B sector.
struct ReferenceHierarchy {
  Cache l1;
  Cache l2;
  std::uint64_t l1_hit_lines = 0;
  std::uint64_t l1_hit_sectors = 0;
  std::uint64_t l2_read = 0;
  std::uint64_t l2_write = 0;
  std::uint64_t dram_read = 0;
  std::uint64_t dram_write = 0;

  void access(const Access& a) {
    const std::uint64_t line_bytes = l1.config().line_bytes;
    for (std::uint64_t line = a.addr / line_bytes;
         line <= (a.addr + a.bytes - 1) / line_bytes; ++line) {
      const std::uint64_t lo = std::max(a.addr, line * line_bytes);
      const std::uint64_t hi = std::min(a.addr + a.bytes, (line + 1) * line_bytes);
      if (l1.access(line * line_bytes)) {
        ++l1_hit_lines;
        l1_hit_sectors += (hi - 1) / 32 - lo / 32 + 1;
        continue;
      }
      for (std::uint64_t sector = lo / 32; sector <= (hi - 1) / 32; ++sector) {
        ++(a.write ? l2_write : l2_read);
        if (!l2.access(sector * 32)) ++(a.write ? dram_write : dram_read);
      }
    }
  }
};

::testing::AssertionResult same_tallies(const MemoryHierarchy& h,
                                        const ReferenceHierarchy& r) {
  const std::uint64_t dram = r.dram_read + r.dram_write;
  const auto words = [](std::uint64_t sectors) {
    return 8.0 * static_cast<double>(sectors);
  };
  const LevelTraffic t = h.traffic();
  if (h.l1_hit_lines() == r.l1_hit_lines &&
      h.l2_read_sector_queries() == r.l2_read &&
      h.l2_write_sector_queries() == r.l2_write &&
      h.dram_read_sectors() == r.dram_read &&
      h.dram_write_sectors() == r.dram_write &&
      t.l1_words == words(r.l1_hit_sectors) &&
      t.l2_words == words(r.l2_read + r.l2_write - dram) &&
      t.dram_words == words(dram))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "l1 lines " << h.l1_hit_lines() << " vs " << r.l1_hit_lines
         << ", l2 r/w " << h.l2_read_sector_queries() << "/"
         << h.l2_write_sector_queries() << " vs " << r.l2_read << "/"
         << r.l2_write << ", dram r/w " << h.dram_read_sectors() << "/"
         << h.dram_write_sectors() << " vs " << r.dram_read << "/"
         << r.dram_write;
}

/// Mixed stream: sizes from one byte to several L1 lines, aligned and
/// unaligned, reads and writes, over a region a few times the L2 so both
/// levels hit and miss.
std::vector<Access> mixed_stream(std::size_t n, util::RngStream stream) {
  static constexpr std::uint64_t kSizes[] = {1,   4,   16,   32,   100,
                                             128, 224, 512, 4096, 25088};
  util::Rng rng = stream.rng();
  std::vector<Access> log(n);
  for (Access& a : log) {
    a.bytes = kSizes[rng.below(std::size(kSizes))];
    a.addr = rng.below(1u << 19);
    if (rng.below(2) == 0) a.addr &= ~std::uint64_t{127};
    a.write = rng.below(4) == 0;
  }
  return log;
}

struct ReplayGeometry {
  std::string name;
  CacheConfig l1;
  CacheConfig l2;
  std::uint64_t partitions;
};

void PrintTo(const ReplayGeometry& g, std::ostream* os) { *os << g.name; }

class HierarchyReplay : public ::testing::TestWithParam<ReplayGeometry> {};

TEST_P(HierarchyReplay, MatchesOneAccessAtATimeAtAnyThreadCount) {
  const ReplayGeometry& g = GetParam();
  EXPECT_EQ(MemoryHierarchy(g.l1, g.l2).partitions(), g.partitions);
  // Streams shorter and longer than the 4096-access chunks the GPU profile
  // replays; the long one is fed chunk by chunk so cache state carries over.
  constexpr std::size_t kChunk = 4096;
  for (const std::size_t n : {std::size_t{1}, std::size_t{777},
                              std::size_t{3 * kChunk + 123}}) {
    const auto log = mixed_stream(n, util::RngStream(2016).fork(g.name).fork(n));
    ReferenceHierarchy ref{Cache(g.l1), Cache(g.l2)};
    MemoryHierarchy serial(g.l1, g.l2);
    for (const Access& a : log) {
      ref.access(a);
      serial.access(a.addr, a.bytes, a.write);
    }
    EXPECT_TRUE(same_tallies(serial, ref)) << "access() n=" << n;
    for (const int threads : {1, 2, 4}) {
      with_threads(threads, [&] {
        MemoryHierarchy h(g.l1, g.l2);
        for (std::size_t c = 0; c < log.size(); c += kChunk)
          h.replay(std::span<const Access>(log).subspan(
              c, std::min(kChunk, log.size() - c)));
        EXPECT_TRUE(same_tallies(h, ref))
            << "replay() n=" << n << " threads=" << threads;
      });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, HierarchyReplay,
    ::testing::Values(
        // Tegra K1: bits 7-11 index both levels' sets.
        ReplayGeometry{"tk1_default", {16 * 1024, 128, 4},
                       {128 * 1024, 32, 8}, 32},
        // A 4-set L2 indexes bits 5-6 only: one partition, the serial loop.
        ReplayGeometry{"no_shared_bits", {16 * 1024, 128, 4},
                       {4 * 1024, 32, 32}, 1},
        // 256 B L2 lines: the L2 index starts above the L1 line (bits 8-11
        // shared), so runs of two L1 lines share a key.
        ReplayGeometry{"l2_line_wider_than_l1", {16 * 1024, 128, 4},
                       {128 * 1024, 256, 8}, 16}),
    [](const auto& pinfo) { return pinfo.param.name; });

TEST(Hierarchy, ReplayRejectsEmptyAccesses) {
  MemoryHierarchy h;
  const std::vector<Access> log{{0, 128, false}, {256, 0, false}};
  EXPECT_THROW(h.replay(log), util::ContractError);
}

}  // namespace
}  // namespace eroof::hw
