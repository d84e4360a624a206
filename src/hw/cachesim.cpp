#include "hw/cachesim.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "util/require.hpp"

namespace eroof::hw {
namespace {

constexpr std::uint64_t kSectorBytes = 32;
constexpr unsigned kSectorShift = 5;
constexpr double kWordsPerSector = kSectorBytes / 4.0;

/// Most classes of L2 sets replay_blocks() gives a list each. Every
/// distinct block offset adds at most two class boundaries.
constexpr std::size_t kMaxBlockClasses = 16;

/// L1 lines a log must touch for replay() to split it across threads.
/// Below this, a parallel region costs more than the lookups it shares
/// out, and far more when other processes hold the cores (the per-line
/// prefix of a block replay is often a handful of blocks).
constexpr std::uint64_t kMinParallelLines = 1024;

/// Accesses replay_each() hands to replay() at a time: a fixed footprint
/// however long the stream.
constexpr std::size_t kEachChunk = 4096;

/// The recency order, most recent first, that every set of one class of
/// cache sets holds, keyed by block: read from the sets when they share
/// one, else started empty, when it is the sets' true order once it is
/// full (by then it has seen one distinct block per way).
class BlockLru {
 public:
  explicit BlockLru(std::size_t ways) : order_(ways, Cache::kEmpty) {}
  explicit BlockLru(std::vector<std::uint64_t> order)
      : order_(std::move(order)) {}

  /// Cache::lookup() over keys: moves `key` to the front, dropping the
  /// last one on a miss. Returns true on a hit.
  bool touch(std::uint64_t key) {
    std::uint64_t carry = key;
    for (std::uint64_t& way : order_) {
      const std::uint64_t cur = way;
      way = carry;
      if (cur == key) return true;
      carry = cur;
    }
    return false;
  }

  bool full() const { return order_.back() != Cache::kEmpty; }
  const std::vector<std::uint64_t>& order() const { return order_; }

 private:
  std::vector<std::uint64_t> order_;
};

/// The line of the block at `base` that falls in set `set` of `cache`
/// (the block spans that set).
std::uint64_t line_in_set(const Cache& cache, std::uint64_t set,
                          std::uint64_t base) {
  const std::uint64_t first = base >> cache.set_shift();
  return first + ((set - first) & (cache.num_sets() - 1));
}

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

std::optional<std::vector<std::uint64_t>> Cache::common_order(
    std::uint64_t first, std::uint64_t count) const {
  EROOF_REQUIRE(first < num_sets_ && count <= num_sets_);
  const std::uint64_t* head = tags_.data() + first * stride_;
  std::vector<std::uint64_t> keys(cfg_.associativity);
  for (std::uint32_t w = 0; w < cfg_.associativity; ++w)
    keys[w] = head[w] == kEmpty ? kEmpty : head[w] << set_bits_ | first;
  for (std::uint64_t i = 1; i < count; ++i) {
    const std::uint64_t* set =
        tags_.data() + ((first + i) & (num_sets_ - 1)) * stride_;
    for (std::uint32_t w = 0; w < cfg_.associativity; ++w)
      if (set[w] != (keys[w] == kEmpty ? kEmpty : (keys[w] + i) >> set_bits_))
        return std::nullopt;
  }
  return keys;
}

void Cache::assign_order(std::uint64_t first, std::uint64_t count,
                         std::span<const std::uint64_t> keys) {
  EROOF_REQUIRE(first < num_sets_ && count <= num_sets_ &&
                keys.size() == cfg_.associativity);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t* set =
        tags_.data() + ((first + i) & (num_sets_ - 1)) * stride_;
    for (std::uint32_t w = 0; w < cfg_.associativity; ++w)
      set[w] = keys[w] == kEmpty ? kEmpty : (keys[w] + i) >> set_bits_;
  }
}

void Cache::reset() {
  std::fill(tags_.begin(), tags_.end(), kEmpty);
  hits_ = misses_ = 0;
}

MemoryHierarchy::Tally& MemoryHierarchy::Tally::operator-=(const Tally& o) {
  l1_hit_lines -= o.l1_hit_lines;
  l1_hit_sectors -= o.l1_hit_sectors;
  l2_read -= o.l2_read;
  l2_write -= o.l2_write;
  dram_read -= o.dram_read;
  dram_write -= o.dram_write;
  return *this;
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
  std::uint64_t lines = 0;
  for (const Access& a : log) {
    EROOF_REQUIRE(a.bytes > 0);
    lines += ((a.addr + a.bytes - 1) >> l1_line_shift_) -
             (a.addr >> l1_line_shift_) + 1;
  }
  const std::uint64_t parts = partitions();
  const std::uint64_t run = run_lines();
#ifdef _OPENMP
  const auto threads = static_cast<int>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(omp_get_max_threads()), parts));
  if (threads > 1 && lines >= kMinParallelLines) {
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

void MemoryHierarchy::replay_each(std::span<const std::uint64_t> bases,
                                  std::uint64_t bytes, bool write) {
  std::vector<Access> log;
  log.reserve(std::min(bases.size(), kEachChunk));
  for (std::size_t c = 0; c < bases.size(); c += kEachChunk) {
    log.clear();
    for (const std::uint64_t base :
         bases.subspan(c, std::min(kEachChunk, bases.size() - c)))
      log.push_back(Access{base, bytes, write});
    replay(log);
  }
}

std::size_t MemoryHierarchy::replay_blocks(
    std::span<const std::uint64_t> bases, std::uint64_t bytes, bool write) {
  EROOF_REQUIRE(bytes > 0);
  const std::size_t n = bases.size();
  const CacheConfig& c1 = l1_.config();
  const CacheConfig& c2 = l2_.config();
  const std::uint64_t l1_sets = l1_.num_sets();
  const std::uint64_t l2_sets = l2_.num_sets();
  const std::uint64_t align = std::max(c1.line_bytes, c2.line_bytes);
  const unsigned align_shift = std::max(l1_.set_shift(), l2_.set_shift());
  const std::uint64_t span = bytes / c2.line_bytes;  // L2 lines per block
  // The L2 set of a block's first line.
  const auto first_set = [&](std::uint64_t base) {
    return (base >> l2_.set_shift()) & (l2_sets - 1);
  };
  // Replays the entries from `k` on per line.
  const auto per_line_from = [&](std::size_t k) {
    replay_each(bases.subspan(k), bytes, write);
    return std::size_t{0};
  };

  // The shape: a block is one whole line of every L1 set and whole L2
  // lines (of whole sectors) in distinct L2 sets, and distinct blocks share
  // no line. Then every set of a class sees the blocks that cover the
  // class, each as its own line, at the same offset from the class's first
  // set: if the sets hold one common order, an LRU list of blocks is it.
  if (n == 0 || bytes != c1.line_bytes * l1_sets ||
      c1.line_bytes % kSectorBytes != 0 || c2.line_bytes % kSectorBytes != 0 ||
      bytes % align != 0 || span > l2_sets)
    return per_line_from(0);
  // The bitmap below may take as many words as the stream or one chunk of
  // replay_each()'s log.
  const auto [lo, hi] = std::minmax_element(bases.begin(), bases.end());
  const std::uint64_t slots = ((*hi - *lo) >> align_shift) + 1;
  if (slots / 64 > std::max<std::size_t>(n, kEachChunk) ||
      std::any_of(bases.begin(), bases.end(),
                  [align](std::uint64_t b) { return (b & (align - 1)) != 0; }))
    return per_line_from(0);
  // The distinct blocks as a bitmap of aligned slots: neighbours closer
  // than a block overlap.
  std::vector<std::uint64_t> seen((slots + 63) / 64, 0);
  for (const std::uint64_t b : bases) {
    const std::uint64_t slot = (b - *lo) >> align_shift;
    seen[slot / 64] |= std::uint64_t{1} << (slot % 64);
  }
  std::vector<std::uint64_t> cuts;  // class boundaries among the L2 sets
  std::uint64_t prev = 0;
  for (std::size_t w = 0; w < seen.size(); ++w) {
    for (std::uint64_t bits = seen[w]; bits != 0; bits &= bits - 1) {
      const std::uint64_t b =
          *lo + align * (64 * w + static_cast<unsigned>(std::countr_zero(bits)));
      if (b != *lo && b - prev < bytes) return per_line_from(0);
      prev = b;
      const std::uint64_t first = first_set(b);
      for (const std::uint64_t cut : {first, (first + span) & (l2_sets - 1)})
        if (std::find(cuts.begin(), cuts.end(), cut) == cuts.end()) {
          if (cuts.size() == kMaxBlockClasses) return per_line_from(0);
          cuts.push_back(cut);
        }
    }
  }
  std::sort(cuts.begin(), cuts.end());

  // Class j holds the L2 sets [cuts[j], cuts[j + 1]) (cyclically); a block
  // whose first line is in class j covers the covers[j] classes from j on.
  const std::size_t classes = cuts.size();
  std::vector<std::uint64_t> class_sets(classes);
  std::vector<std::uint8_t> class_of(l2_sets);
  std::vector<std::size_t> covers(classes, 0);
  for (std::size_t j = 0; j < classes; ++j) {
    const std::uint64_t width =
        (cuts[(j + 1) % classes] - cuts[j]) & (l2_sets - 1);
    class_sets[j] = width == 0 ? l2_sets : width;
    for (std::uint64_t s = 0; s < class_sets[j]; ++s)
      class_of[(cuts[j] + s) & (l2_sets - 1)] = static_cast<std::uint8_t>(j);
  }
  for (std::size_t j = 0; j < classes; ++j)
    for (std::uint64_t covered = 0, k = j; covered < span;
         k = (k + 1) % classes, ++covers[j])
      covered += class_sets[k];

  // Every L1 set sees every block (one list, keyed by base). A list
  // started empty is the sets' order once it has seen one block per way,
  // at entry l1_from; the entries before run per line. From there a block
  // hits or misses in every L1 set, and each miss looks up every line of
  // the block in L2.
  BlockLru l1_order(c1.associativity);
  std::size_t l1_from = 0;
  while (l1_from < n && !l1_order.full()) l1_order.touch(bases[l1_from++]);
  if (!l1_order.full()) return per_line_from(0);
  replay_each(bases.first(l1_from), bytes, write);
  // Each L2 class's list, keyed by line in the class's first set, starts
  // at l1_from: exact at once if the class's sets share an order then,
  // else once full, by entry until[j]; a class whose list never fills must
  // have seen its last lookup by until[j]. The cut-over waits for the last
  // of them. `run` tallies the lists from l1_from on, and run_at[j] is
  // `run` at until[j], so the lists' exact part is `run` less `run` at the
  // cut-over.
  std::vector<BlockLru> l2_order;
  std::vector<bool> exact(classes);
  for (std::size_t j = 0; j < classes; ++j) {
    auto keys = l2_.common_order(cuts[j], class_sets[j]);
    exact[j] = keys.has_value();
    if (keys)
      l2_order.emplace_back(std::move(*keys));
    else
      l2_order.emplace_back(c2.associativity);
  }
  const std::uint64_t sectors = bytes / kSectorBytes;
  std::vector<std::size_t> until(classes, 0);
  std::vector<Tally> run_at(classes);
  Tally run;
  for (std::size_t k = l1_from; k < n; ++k) {
    const std::uint64_t base = bases[k];
    if (l1_order.touch(base)) {
      run.l1_hit_lines += l1_sets;
      run.l1_hit_sectors += sectors;
      continue;
    }
    (write ? run.l2_write : run.l2_read) += sectors;
    std::uint32_t warming = 0;  // classes whose lists were not yet exact
    std::size_t j = class_of[first_set(base)];
    for (std::size_t c = covers[j]; c > 0;
         --c, j = j + 1 == classes ? 0 : j + 1) {
      BlockLru& order = l2_order[j];
      if (!order.touch(line_in_set(l2_, cuts[j], base)))
        (write ? run.dram_write : run.dram_read) += class_sets[j];
      if (!exact[j]) {
        warming |= std::uint32_t{1} << j;
        exact[j] = order.full();
      }
    }
    for (; warming != 0; warming &= warming - 1) {
      const auto w = static_cast<std::size_t>(std::countr_zero(warming));
      until[w] = k + 1;
      run_at[w] = run;
    }
  }
  std::size_t cut = l1_from;
  Tally at_cut;
  for (std::size_t j = 0; j < classes; ++j)
    if (until[j] > cut) {
      cut = until[j];
      at_cut = run_at[j];
    }
  if (cut >= n) return per_line_from(l1_from);

  replay_each(bases.subspan(l1_from, cut - l1_from), bytes, write);
  tally_ += run;
  tally_ -= at_cut;
  std::vector<std::uint64_t> lines(c1.associativity);
  for (std::uint64_t set = 0; set < l1_sets; ++set) {
    std::transform(l1_order.order().begin(), l1_order.order().end(),
                   lines.begin(), [&](std::uint64_t base) {
                     return line_in_set(l1_, set, base);
                   });
    l1_.assign_order(set, 1, lines);
  }
  for (std::size_t j = 0; j < classes; ++j)
    if (exact[j]) l2_.assign_order(cuts[j], class_sets[j], l2_order[j].order());
  return n - cut;
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
