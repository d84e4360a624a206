#include "hw/cachesim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
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

TEST(Cache, CommonOrderRoundTripsPastTheLastSet) {
  Cache c({128 * 1024, 32, 8});  // 512 sets of 8 ways
  EXPECT_EQ(c.common_order(0, 512),
            std::vector<std::uint64_t>(8, Cache::kEmpty));
  // Six lines, then two empty ways, in sets 500..511 and 0..27: set
  // 500 + i holds line key + i, one tag higher past set 511.
  std::vector<std::uint64_t> keys(8, Cache::kEmpty);
  for (std::uint64_t w = 0; w < 6; ++w) keys[w] = 500 + 512 * (7 * w + 3);
  c.assign_order(500, 40, keys);
  EXPECT_EQ(c.common_order(500, 40), keys);
  EXPECT_EQ(c.common_order(510, 30), [&] {
    auto shifted = keys;
    for (std::uint64_t w = 0; w < 6; ++w) shifted[w] += 10;
    return shifted;
  }());
  EXPECT_FALSE(c.common_order(499, 41).has_value());  // set 499 is empty
  for (std::uint64_t i = 0; i < 40; ++i)
    for (std::uint64_t w = 0; w < 6; ++w)
      EXPECT_TRUE(c.lookup((keys[w] + i) * 32)) << "i=" << i << " w=" << w;
  EXPECT_FALSE(c.lookup((keys[0] + 512) * 32));
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
  bool block_path;  ///< replay_blocks() can use its per-class lists
};

void PrintTo(const ReplayGeometry& g, std::ostream* os) { *os << g.name; }

const auto kReplayGeometries = ::testing::Values(
    // Tegra K1: bits 7-11 index both levels' sets.
    ReplayGeometry{"tk1_default", {16 * 1024, 128, 4}, {128 * 1024, 32, 8}, 32,
                   true},
    // A 4-set L2 indexes bits 5-6 only: one partition, the serial loop. A
    // 4 KiB block covers each L2 set 32 times, so block replay falls back.
    ReplayGeometry{"no_shared_bits", {16 * 1024, 128, 4}, {4 * 1024, 32, 32},
                   1, false},
    // 256 B L2 lines: the L2 index starts above the L1 line (bits 8-11
    // shared), so runs of two L1 lines share a key.
    ReplayGeometry{"l2_line_wider_than_l1", {16 * 1024, 128, 4},
                   {128 * 1024, 256, 8}, 16, true});

const auto kGeometryName = [](const auto& pinfo) { return pinfo.param.name; };

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

INSTANTIATE_TEST_SUITE_P(Geometries, HierarchyReplay, kReplayGeometries,
                         kGeometryName);

/// `count` (at most 64) distinct 4 KiB blocks at 8 KiB slots of the first
/// 512 KiB, each shifted by 256 B times one of `shifts`. The shifts set how
/// many L2 set classes the blocks cut (2 per distinct shift and slot parity
/// at most); parity and shift cycle with the index, so each such group
/// holds its share of the blocks.
std::vector<std::uint64_t> block_pool(std::size_t count,
                                      std::span<const std::uint64_t> shifts,
                                      util::Rng& rng) {
  std::vector<std::uint64_t> pairs(32);  // slot pairs {2h, 2h + 1}
  std::iota(pairs.begin(), pairs.end(), 0);
  for (std::size_t i = pairs.size() - 1; i > 0; --i)
    std::swap(pairs[i], pairs[rng.below(i + 1)]);
  std::vector<std::uint64_t> pool;
  for (std::size_t i = 0; i < count; ++i)
    pool.push_back(8192 * (2 * pairs[i / 2] + i % 2) +
                   256 * shifts[(i / 2) % shifts.size()]);
  return pool;
}

/// `n` entries of `pool`, half of them from its first three blocks.
std::vector<std::uint64_t> block_stream(std::span<const std::uint64_t> pool,
                                        std::size_t n, util::Rng& rng) {
  std::vector<std::uint64_t> bases(n);
  for (std::uint64_t& b : bases)
    b = pool[rng.below(2) == 0 ? rng.below(std::min<std::size_t>(3, pool.size()))
                               : rng.below(pool.size())];
  return bases;
}

struct BlockCase {
  std::string name;
  std::vector<std::uint64_t> pool;  ///< every base, probed after the suffix
  std::vector<std::uint64_t> bases;
  std::uint64_t bytes = 4096;
  bool block_path = true;  ///< the per-class lists must take part
};

std::vector<BlockCase> block_cases(const ReplayGeometry& g) {
  util::Rng rng = util::RngStream(2016).fork(g.name).fork("blocks").rng();
  std::vector<BlockCase> cases;
  const auto add = [&](std::string name, std::vector<std::uint64_t> pool,
                       std::size_t n, bool block_path) {
    auto bases = block_stream(pool, n, rng);
    cases.push_back({std::move(name), std::move(pool), std::move(bases), 4096,
                     block_path && g.block_path});
  };
  // 4, 8 and 12 L2 classes on tk1_default; many bases, heavy reuse. With
  // no block at set 0, one class of two_shifts wraps past the last set.
  const std::uint64_t one[] = {0};
  const std::uint64_t two[] = {3, 9};
  const std::uint64_t three[] = {0, 3, 9};
  for (const std::size_t n : {std::size_t{600}, std::size_t{5000}}) {
    const std::string len = "_" + std::to_string(n);
    add("one_shift" + len, block_pool(40, one, rng), n, true);
    add("two_shifts" + len, block_pool(48, two, rng), n, true);
    add("three_shifts" + len, block_pool(56, three, rng), n, true);
  }
  // Must fall back: overlapping bases, an unaligned base, too many classes,
  // a block that is not the L1 way span, and a stream whose L1 list never
  // fills (three blocks).
  auto pool = block_pool(40, two, rng);
  pool.push_back(pool.front() + 128);
  add("overlapping", pool, 2000, false);
  pool = block_pool(40, two, rng);
  pool.push_back(pool.front() + 4);
  add("unaligned", pool, 2000, false);
  std::vector<std::uint64_t> all_shifts(16);
  std::iota(all_shifts.begin(), all_shifts.end(), 0);
  add("many_classes", block_pool(48, all_shifts, rng), 2000, false);
  for (const std::uint64_t bytes : {2048, 8000}) {
    add("bytes_" + std::to_string(bytes), block_pool(40, one, rng), 2000, false);
    cases.back().bytes = bytes;
  }
  add("three_blocks", block_pool(3, one, rng), 2000, false);
  // Six blocks of one shift: a class list never fills, so at most the
  // trailing L1 hits may run on the lists; only the tallies are checked.
  add("six_blocks", block_pool(6, one, rng), 2000, false);
  return cases;
}

class HierarchyBlockReplay : public ::testing::TestWithParam<ReplayGeometry> {};

/// How a case's blocks reach replay_blocks().
enum class Feed {
  kScrambled,  ///< one call after a mixed prefix
  kFresh,      ///< one call on an empty hierarchy
  kChunked,    ///< calls of 1 to 700 entries after the prefix
};

TEST_P(HierarchyBlockReplay, MatchesOneAccessPerBlockAtAnyThreadCount) {
  const ReplayGeometry& g = GetParam();
  for (const BlockCase& c : block_cases(g)) {
    // A start, the blocks, then one probe of every block, a suffix and
    // the probes again, which read back the per-set state the blocks left.
    const auto stream = util::RngStream(2016).fork(g.name).fork(c.name);
    const auto suffix = mixed_stream(300, stream.fork("suffix"));
    std::vector<std::size_t> chunks;
    util::Rng chunk_rng = stream.fork("chunks").rng();
    for (std::size_t k = 0; k < c.bases.size(); k += chunks.back())
      chunks.push_back(std::min<std::size_t>(1 + chunk_rng.below(700),
                                             c.bases.size() - k));
    // On an empty hierarchy every L2 class starts with a common (empty)
    // order, so the lists take over once the L1 list is full.
    std::size_t l1_full = 0;
    for (std::vector<std::uint64_t> seen;
         seen.size() < g.l1.associativity && l1_full < c.bases.size();
         ++l1_full)
      if (std::find(seen.begin(), seen.end(), c.bases[l1_full]) == seen.end())
        seen.push_back(c.bases[l1_full]);
    std::size_t one_call = 0;  // entries listed in the scrambled feed
    for (const Feed feed : {Feed::kScrambled, Feed::kFresh, Feed::kChunked}) {
      const auto prefix = feed == Feed::kFresh
                              ? std::vector<Access>{}
                              : mixed_stream(300, stream.fork("prefix"));
      for (const bool write : {false, true}) {
        ReferenceHierarchy ref{Cache(g.l1), Cache(g.l2)};
        for (const Access& a : prefix) ref.access(a);
        for (const std::uint64_t b : c.bases) ref.access({b, c.bytes, write});
        ReferenceHierarchy after = ref;
        for (const std::uint64_t b : c.pool) after.access({b, c.bytes, false});
        for (const Access& a : suffix) after.access(a);
        for (const std::uint64_t b : c.pool) after.access({b, c.bytes, false});
        for (const int threads : {1, 2, 4}) {
          with_threads(threads, [&] {
            MemoryHierarchy h(g.l1, g.l2);
            h.replay(prefix);
            std::size_t listed = 0;
            const std::span<const std::uint64_t> bases(c.bases);
            if (feed == Feed::kChunked) {
              for (std::size_t k = 0, i = 0; i < chunks.size(); k += chunks[i++])
                listed += h.replay_blocks(bases.subspan(k, chunks[i]), c.bytes,
                                          write);
            } else {
              listed = h.replay_blocks(bases, c.bytes, write);
            }
            const std::string where =
                c.name + " feed=" + std::to_string(static_cast<int>(feed)) +
                (write ? " write" : " read") +
                " threads=" + std::to_string(threads);
            EXPECT_TRUE(same_tallies(h, ref)) << where;
            if (c.block_path && feed == Feed::kFresh) {
              EXPECT_EQ(listed, c.bases.size() - l1_full) << where;
            } else if (c.block_path && feed == Feed::kScrambled) {
              EXPECT_GT(listed, 0u) << where;
              one_call = listed;
            } else if (c.block_path) {
              // Later calls find the classes' common orders the earlier
              // ones wrote back, so chunking costs few entries.
              EXPECT_GE(listed, one_call * 9 / 10) << where;
            } else if (c.name != "six_blocks" && feed != Feed::kChunked) {
              EXPECT_EQ(listed, 0u) << where;
            }
            for (const std::uint64_t b : c.pool) h.access(b, c.bytes, false);
            h.replay(suffix);
            for (const std::uint64_t b : c.pool) h.access(b, c.bytes, false);
            EXPECT_TRUE(same_tallies(h, after)) << where << " after suffix";
          });
        }
      }
    }
  }
}

TEST(Hierarchy, BlockReplayOfNothingIsANoOpAndEmptyBlocksThrow) {
  MemoryHierarchy h;
  EXPECT_EQ(h.replay_blocks({}, 4096, false), 0u);
  EXPECT_EQ(h.l2_read_sector_queries(), 0u);
  const std::vector<std::uint64_t> bases{0, 4096};
  EXPECT_THROW(h.replay_blocks(bases, 0, false), util::ContractError);
}

INSTANTIATE_TEST_SUITE_P(Geometries, HierarchyBlockReplay, kReplayGeometries,
                         kGeometryName);

TEST(Hierarchy, ReplayRejectsEmptyAccesses) {
  MemoryHierarchy h;
  const std::vector<Access> log{{0, 128, false}, {256, 0, false}};
  EXPECT_THROW(h.replay(log), util::ContractError);
}

}  // namespace
}  // namespace eroof::hw
