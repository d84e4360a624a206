// Host-executable bodies of the intensity microbenchmarks.
//
// The energy campaign itself runs on the simulated SoC (where "execution" is
// the timing/power physics of hw::Soc applied to the kernels' operation
// counts), but the kernels are real: these bodies perform exactly the
// per-word operation mix that suite.cpp's descriptors count, so the suite
// can also be timed on the host CPU (bench/perf_platform) and the count
// descriptors can be validated against actual code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace eroof::ub {

/// Streams `data`, performing `intensity` fused multiply-adds per element.
/// Returns a checksum so the work cannot be optimized away.
float sp_fma_stream(std::span<const float> data, int intensity);

/// Double-precision variant.
double dp_fma_stream(std::span<const double> data, int intensity);

/// Integer variant: `intensity` add/xor/shift ops per element.
std::uint64_t int_ops_stream(std::span<const std::uint64_t> data,
                             int intensity);

/// Scratchpad-reuse kernel (the shared-memory analogue): stages fixed-size
/// tiles of `data` into a small buffer and sweeps each tile `reuse` times.
float scratch_reuse_stream(std::span<const float> data, int reuse,
                           std::size_t tile_elems = 1024);

/// Cache-resident kernel (the L2 analogue): sweeps a working set of
/// `ws_elems` floats `passes` times.
float cache_resident_stream(std::span<const float> data, std::size_t ws_elems,
                            int passes);

}  // namespace eroof::ub
