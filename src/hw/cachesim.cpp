#include "hw/cachesim.hpp"

#include <algorithm>
#include <bit>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "util/require.hpp"

namespace eroof::hw {
namespace {

constexpr std::uint64_t kSectorBytes = 32;
constexpr unsigned kSectorShift = 5;
constexpr double kWordsPerSector = kSectorBytes / 4.0;

}  // namespace

Cache::Cache(CacheConfig cfg) : cfg_(cfg) {
  EROOF_REQUIRE(cfg_.line_bytes > 0 && std::has_single_bit(cfg_.line_bytes));
  EROOF_REQUIRE(cfg_.associativity > 0);
  EROOF_REQUIRE(cfg_.size_bytes % (cfg_.line_bytes * cfg_.associativity) == 0);
  num_sets_ = cfg_.size_bytes / (cfg_.line_bytes * cfg_.associativity);
  EROOF_REQUIRE(std::has_single_bit(num_sets_));
  EROOF_REQUIRE(cfg_.line_bytes * num_sets_ >= 2);
  line_shift_ = static_cast<unsigned>(std::countr_zero(cfg_.line_bytes));
  set_bits_ = static_cast<unsigned>(std::countr_zero(num_sets_));
  constexpr std::size_t kSlotsPerHostLine = 64 / sizeof(std::uint64_t);
  stride_ = (cfg_.associativity + kSlotsPerHostLine - 1) / kSlotsPerHostLine *
            kSlotsPerHostLine;
  tags_.assign(num_sets_ * stride_, kEmpty);
}

bool Cache::access(std::uint64_t addr) {
  const bool hit = lookup(addr);
  ++(hit ? hits_ : misses_);
  return hit;
}

bool Cache::lookup(std::uint64_t addr) {
  const std::uint64_t line = addr >> line_shift_;
  const std::uint64_t tag = line >> set_bits_;
  std::uint64_t* set = tags_.data() + (line & (num_sets_ - 1)) * stride_;
  // One pass moves the line to the front: each way takes its predecessor's
  // tag until the tag itself turns up (a hit). A miss shifts every way and
  // drops the last one -- an empty way while the set is not yet full, else
  // the least recently used line.
  std::uint64_t carry = tag;
  for (std::uint32_t w = 0; w < cfg_.associativity; ++w) {
    const std::uint64_t cur = set[w];
    set[w] = carry;
    if (cur == tag) return true;
    carry = cur;
  }
  return false;
}

void Cache::reset() {
  std::fill(tags_.begin(), tags_.end(), kEmpty);
  hits_ = misses_ = 0;
}

MemoryHierarchy::Tally& MemoryHierarchy::Tally::operator+=(const Tally& o) {
  l1_hit_lines += o.l1_hit_lines;
  l1_hit_sectors += o.l1_hit_sectors;
  l2_read += o.l2_read;
  l2_write += o.l2_write;
  dram_read += o.dram_read;
  dram_write += o.dram_write;
  return *this;
}

MemoryHierarchy::MemoryHierarchy()
    : MemoryHierarchy(CacheConfig{16 * 1024, 128, 4},
                      CacheConfig{128 * 1024, 32, 8}) {}

MemoryHierarchy::MemoryHierarchy(CacheConfig l1, CacheConfig l2)
    : l1_(l1), l2_(l2), l1_line_shift_(l1_.set_shift()) {
  // The partition key: address bits inside both set indices, at or above
  // the sector (an L1 line's L2 sector lookups share its bits from there
  // up, so they land in sets of the line's own partition).
  // Without shared bits there is one partition of runs of one line.
  const unsigned lo = std::max({l1_.set_shift(), l2_.set_shift(), kSectorShift});
  const unsigned hi = std::min(l1_.set_shift() + l1_.set_bits(),
                               l2_.set_shift() + l2_.set_bits());
  key_shift_ = hi > lo ? lo : l1_line_shift_;
  key_bits_ = hi > lo ? hi - lo : 0;
}

void MemoryHierarchy::touch_line(Tally& t, std::uint64_t line,
                                 std::uint64_t addr, std::uint64_t bytes,
                                 bool write) {
  // One lookup per touched L1 line: a coalesced warp access is a single
  // 128 B transaction, so sectors of one streaming access must not count as
  // L1 "hits" against each other. On an L1 miss, the touched sectors are
  // requested from L2 individually (the L2 is sector-granular).
  const std::uint64_t line_addr = line << l1_line_shift_;
  const std::uint64_t lo = std::max(addr, line_addr);
  const std::uint64_t hi =
      std::min(addr + bytes, line_addr + (std::uint64_t{1} << l1_line_shift_));
  const std::uint64_t first_sector = lo / kSectorBytes;
  const std::uint64_t last_sector = (hi - 1) / kSectorBytes;

  if (l1_.lookup(line_addr)) {
    t.l1_hit_sectors += last_sector - first_sector + 1;
    ++t.l1_hit_lines;
    return;
  }
  for (std::uint64_t sector = first_sector; sector <= last_sector; ++sector) {
    ++(write ? t.l2_write : t.l2_read);
    if (!l2_.lookup(sector * kSectorBytes))
      ++(write ? t.dram_write : t.dram_read);
  }
}

MemoryHierarchy::Tally MemoryHierarchy::replay_window(
    std::span<const Access> log, std::uint64_t lo_off, std::uint64_t hi_off) {
  const std::uint64_t period = run_lines() * partitions();
  Tally t;  // a local, so the counts can live in registers
  for (const Access& a : log) {
    const std::uint64_t first = a.addr >> l1_line_shift_;
    const std::uint64_t last = (a.addr + a.bytes - 1) >> l1_line_shift_;
    for (std::uint64_t base = first & ~(period - 1); base <= last;
         base += period) {
      const std::uint64_t hi = std::min(last + 1, base + hi_off);
      for (std::uint64_t line = std::max(first, base + lo_off); line < hi;
           ++line)
        touch_line(t, line, a.addr, a.bytes, a.write);
    }
  }
  return t;
}

void MemoryHierarchy::access(std::uint64_t addr, std::uint64_t bytes,
                             bool write) {
  EROOF_REQUIRE(bytes > 0);
  const Access a{addr, bytes, write};
  tally_ += replay_window(std::span<const Access>(&a, 1), 0,
                          run_lines() * partitions());
}

void MemoryHierarchy::replay(std::span<const Access> log) {
  for (const Access& a : log) EROOF_REQUIRE(a.bytes > 0);
  const std::uint64_t parts = partitions();
  const std::uint64_t run = run_lines();
#ifdef _OPENMP
  const auto threads = static_cast<int>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(omp_get_max_threads()), parts));
  if (threads > 1) {
    // Thread t of the team replays key range [parts t / team,
    // parts (t + 1) / team): the same line window of every period.
    std::vector<Tally> partial(static_cast<std::size_t>(threads));
#pragma omp parallel num_threads(threads)
    {
      const auto team = static_cast<std::uint64_t>(omp_get_num_threads());
      const auto t = static_cast<std::uint64_t>(omp_get_thread_num());
      partial[t] = replay_window(log, run * (parts * t / team),
                                 run * (parts * (t + 1) / team));
    }
    for (const Tally& p : partial) tally_ += p;
    return;
  }
#endif
  tally_ += replay_window(log, 0, run * parts);
}

LevelTraffic MemoryHierarchy::traffic() const {
  const std::uint64_t dram = tally_.dram_read + tally_.dram_write;
  const std::uint64_t l2_hits = tally_.l2_read + tally_.l2_write - dram;
  LevelTraffic t;
  t.l1_words = kWordsPerSector * static_cast<double>(tally_.l1_hit_sectors);
  t.l2_words = kWordsPerSector * static_cast<double>(l2_hits);
  t.dram_words = kWordsPerSector * static_cast<double>(dram);
  return t;
}

void MemoryHierarchy::reset() {
  l1_.reset();
  l2_.reset();
  tally_ = {};
}

}  // namespace eroof::hw
