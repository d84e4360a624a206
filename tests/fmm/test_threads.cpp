// Thread-count invariance of the phase sweeps: the potentials of every
// kernel, problem size and leaf capacity are bitwise identical at 1, 2 and
// 4 OpenMP threads, for both the FFT and the dense M2L path. A separate
// binary so the Clang TSan CI job can race-check the sweeps' OpenMP loops.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "fmm/evaluator.hpp"
#include "fmm/pointgen.hpp"
#include "util/rng.hpp"

namespace eroof::fmm {
namespace {

template <typename Fn>
void with_threads(int num_threads, Fn&& fn) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(num_threads);
  fn();
  omp_set_num_threads(saved);
#else
  (void)num_threads;
  fn();
#endif
}

::testing::AssertionResult bitwise_equal(const std::vector<double>& got,
                                         const std::vector<double>& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0)
      return ::testing::AssertionFailure()
             << "bit mismatch at [" << i << "]: " << got[i] << " vs "
             << want[i] << " (delta " << got[i] - want[i] << ")";
  }
  return ::testing::AssertionSuccess();
}

struct KernelCase {
  std::string name;
  const Kernel& kernel() const {
    static const LaplaceKernel laplace;
    static const YukawaKernel yukawa{2.5};
    static const GaussianKernel gaussian{0.35};
    if (name == "laplace") return laplace;
    if (name == "yukawa") return yukawa;
    return gaussian;
  }
};

// Without this gtest prints the raw object bytes, whose leading std::string
// pointer is a heap address: the listed test names would change per process.
void PrintTo(const KernelCase& c, std::ostream* os) { *os << c.name; }

class Differential : public ::testing::TestWithParam<KernelCase> {};

TEST_P(Differential, ThreadCountsMatchOneThreadBitwiseAcrossSizes) {
  const Kernel& kernel = GetParam().kernel();
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{513},
                              std::size_t{16384}}) {
    for (const std::uint32_t q : {16u, 64u}) {
      util::Rng rng(900 + n + q);
      const auto pts = uniform_cube(n, rng);
      const auto dens = random_densities(n, rng);
      // Keep the largest case cheap: accuracy is not under test, only
      // bitwise agreement across thread counts.
      const int p = n >= 16384 ? 3 : 4;
      FmmEvaluator ev(kernel, pts, {.max_points_per_box = q},
                      FmmConfig{.p = p});

      std::vector<double> ref;
      with_threads(1, [&] { ref = ev.evaluate(dens); });

      for (const int threads : {1, 2, 4}) {
        with_threads(threads, [&] {
          EXPECT_TRUE(bitwise_equal(ev.evaluate(dens), ref))
              << "n=" << n << " q=" << q << " threads=" << threads;
        });
      }
    }
  }
}

TEST_P(Differential, DenseM2lFallbackAgreesToo) {
  // The non-FFT V path runs dense per-pair M2L applications instead of the
  // per-level spectrum banks.
  const Kernel& kernel = GetParam().kernel();
  util::Rng rng(941);
  const auto pts = uniform_cube(1024, rng);
  const auto dens = random_densities(1024, rng);
  FmmEvaluator ev(kernel, pts, {.max_points_per_box = 16},
                  FmmConfig{.p = 3, .use_fft_m2l = false});
  std::vector<double> ref;
  with_threads(1, [&] { ref = ev.evaluate(dens); });
  for (const int threads : {1, 4}) {
    with_threads(threads, [&] {
      EXPECT_TRUE(bitwise_equal(ev.evaluate(dens), ref))
          << "threads=" << threads;
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, Differential,
                         ::testing::Values(KernelCase{"laplace"},
                                           KernelCase{"yukawa"},
                                           KernelCase{"gaussian"}),
                         [](const auto& test_info) {
                           return test_info.param.name;
                         });

}  // namespace
}  // namespace eroof::fmm
