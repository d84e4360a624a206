// Set-associative cache-hierarchy simulator.
//
// Substitutes for the memory-system performance counters of the paper's GPU:
// the instrumented FMM feeds its global-memory access stream (virtual
// addresses) through an L1 + L2 hierarchy; the words served at each level
// become the l1/l2/fb_* counter events of Table III. Sector-granular
// (32 B) like the modeled hardware, LRU replacement, write-allocate.
//
// A logged access stream can be replayed on the caller's OpenMP threads,
// split by the address bits the L1 and L2 set indices share: no two
// partitions touch a common set, so each set sees exactly its serial
// access sequence and every tally is bitwise the serial one (DESIGN.md §7).
//
// A stream of equal, disjoint blocks that each span the L1 way (one line in
// every L1 set) can instead be replayed on one LRU list of blocks per class
// of sets that see the same blocks, from the point where the sets of each
// class share one recency order; the lists are then written back as tags
// (DESIGN.md §7).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <span>
#include <vector>

namespace eroof::hw {

/// Allocates on 64-byte host cache-line boundaries, so sets replayed by
/// different threads never share a host cache line.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  CacheLineAllocator() = default;
  template <typename U>
  explicit CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t /*n*/) { ::operator delete(p, kAlign); }
  friend bool operator==(const CacheLineAllocator&, const CacheLineAllocator&) {
    return true;
  }
};

/// Geometry of one cache level.
struct CacheConfig {
  std::uint64_t size_bytes = 0;
  std::uint64_t line_bytes = 0;
  std::uint32_t associativity = 0;
};

/// One set-associative, LRU, line-granular cache level.
class Cache {
 public:
  explicit Cache(CacheConfig cfg);

  /// Looks up (and on miss, fills) the line containing `addr`.
  /// Returns true on hit.
  bool access(std::uint64_t addr);

  /// access() without the hit/miss statistics. It touches only the set
  /// `addr` maps to (recency is the order of the set's own tags), so
  /// concurrent lookups of addresses in distinct sets do not race.
  bool lookup(std::uint64_t addr);

  /// Address bits [set_shift(), set_shift() + set_bits()) select the set.
  unsigned set_shift() const { return line_shift_; }
  unsigned set_bits() const { return set_bits_; }
  std::uint64_t num_sets() const { return num_sets_; }

  /// Marks an unfilled way. No real tag reaches it: the constructor
  /// requires line_bytes * num_sets >= 2, so tags have at most 63 bits.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// The recency order the `count` sets from `first` on (cyclically) have
  /// in common, if any: way by way, either every set's way is empty, or
  /// the i-th set holds line key + i. Returns the keys (the lines in set
  /// `first`; kEmpty for an empty way), most recently used first.
  std::optional<std::vector<std::uint64_t>> common_order(
      std::uint64_t first, std::uint64_t count) const;

  /// Gives the `count` sets from `first` on the order `keys`, as
  /// common_order() reads it.
  void assign_order(std::uint64_t first, std::uint64_t count,
                    std::span<const std::uint64_t> keys);

  /// Invalidates all lines and zeroes statistics.
  void reset();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  const CacheConfig& config() const { return cfg_; }

 private:
  CacheConfig cfg_;
  std::uint64_t num_sets_;
  unsigned line_shift_;
  unsigned set_bits_;
  std::size_t stride_;  ///< tag slots per set: ways rounded up to 64 B
  /// Per set, its tags from most to least recently used (kEmpty last).
  /// LRU order per set picks the same victims a global access clock would.
  std::vector<std::uint64_t, CacheLineAllocator<std::uint64_t>> tags_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Words of traffic served by each level during simulation.
struct LevelTraffic {
  double l1_words = 0;
  double l2_words = 0;
  double dram_words = 0;

  LevelTraffic& operator+=(const LevelTraffic& o) {
    l1_words += o.l1_words;
    l2_words += o.l2_words;
    dram_words += o.dram_words;
    return *this;
  }
};

/// One global-memory access of a logged stream.
struct Access {
  std::uint64_t addr = 0;
  std::uint64_t bytes = 0;
  bool write = false;
};

/// Two-level hierarchy (L1 -> L2 -> DRAM) over a flat virtual address space.
///
/// Defaults follow the Tegra K1 GPU: 16 KiB L1 with 128 B lines, 128 KiB L2
/// with 32 B sectors. Accesses are expanded to the 32 B sectors they touch;
/// a sector that hits in L1 counts as L1 words, else it is looked up
/// (sector-granular) in L2, counting as L2 or DRAM words.
class MemoryHierarchy {
 public:
  MemoryHierarchy();
  MemoryHierarchy(CacheConfig l1, CacheConfig l2);

  /// Simulates a read or write of `bytes` bytes at virtual address `addr`.
  void access(std::uint64_t addr, std::uint64_t bytes, bool write);

  /// Simulates `log` in order, exactly as one access() per entry would.
  /// The L1 lines are split into partitions() classes by the shared
  /// set-index bits, and the caller's OpenMP threads each replay a
  /// contiguous range of classes, jumping straight to their own lines.
  /// With one thread, one partition or a log of under 1024 lines, this
  /// is the serial loop.
  void replay(std::span<const Access> log);

  /// Simulates one access(base, bytes, write) per entry of `bases`, in
  /// order: every tally and every set ends as those calls leave them.
  /// When `bytes` is the L1 way span, the bases are line-aligned and
  /// disjoint, and the blocks split the L2 sets into few classes, each
  /// class runs on one LRU list of blocks from the entry where its sets'
  /// common order is known (at once, if they already share one); the
  /// entries before the last such point run per line, as in replay().
  /// Otherwise all of it runs as replay(). Returns the number of entries
  /// the per-class lists simulated (0 when none did).
  std::size_t replay_blocks(std::span<const std::uint64_t> bases,
                            std::uint64_t bytes, bool write);

  /// Number of disjoint set partitions replay() can use: 2^(number of
  /// address bits in both set indices); 1 if the indices share none.
  std::uint64_t partitions() const { return std::uint64_t{1} << key_bits_; }

  /// Traffic tallied since construction / last reset.
  LevelTraffic traffic() const;

  /// Sector-level counts (for emitting Table III events).
  std::uint64_t l1_hit_lines() const { return tally_.l1_hit_lines; }
  std::uint64_t l2_read_sector_queries() const { return tally_.l2_read; }
  std::uint64_t l2_write_sector_queries() const { return tally_.l2_write; }
  std::uint64_t dram_read_sectors() const { return tally_.dram_read; }
  std::uint64_t dram_write_sectors() const { return tally_.dram_write; }

  void reset();

 private:
  /// Integer event counts. Traffic words are 8 per sector, so the double
  /// totals derive exactly from these and per-thread partial tallies add
  /// up to the serial ones bit for bit.
  struct Tally {
    std::uint64_t l1_hit_lines = 0;
    std::uint64_t l1_hit_sectors = 0;
    std::uint64_t l2_read = 0;
    std::uint64_t l2_write = 0;
    std::uint64_t dram_read = 0;
    std::uint64_t dram_write = 0;

    Tally& operator+=(const Tally& o);
    Tally& operator-=(const Tally& o);
  };

  /// L1 lines of one partition key come in runs of run_lines() consecutive
  /// lines, one run per run_lines() * partitions() lines (the key period).
  std::uint64_t run_lines() const {
    return std::uint64_t{1} << (key_shift_ - l1_line_shift_);
  }

  /// Replays the lines of `log` whose offset within their key period lies
  /// in [lo_off, hi_off), in log order, and returns their counts. A
  /// contiguous key range [k0, k1) is the window [k0, k1) * run_lines().
  Tally replay_window(std::span<const Access> log, std::uint64_t lo_off,
                      std::uint64_t hi_off);

  /// replay() of one access(base, bytes, write) per entry of `bases`, a
  /// chunk at a time.
  void replay_each(std::span<const std::uint64_t> bases, std::uint64_t bytes,
                   bool write);

  /// The part of access(addr, bytes, write) that falls in L1 line `line`.
  void touch_line(Tally& t, std::uint64_t line, std::uint64_t addr,
                  std::uint64_t bytes, bool write);

  Cache l1_;
  Cache l2_;
  Tally tally_;
  unsigned l1_line_shift_;
  unsigned key_shift_;  ///< lowest address bit of the partition key
  unsigned key_bits_;   ///< partition key width (0: one partition)
};

}  // namespace eroof::hw
