#!/usr/bin/env bash
# Builds everything, runs the full test suite, and regenerates every table
# and figure of the paper (plus ablations/extensions), collecting outputs
# under ./reproduction/.
set -euo pipefail
cd "$(dirname "$0")/.."

# --lint: run the static-analysis gate first, so the reproduction is
# attested invariant-clean (determinism + hot-path allocation rules) before
# any figure is regenerated.
RUN_LINT=0
for arg in "$@"; do
  case "$arg" in
    --lint) RUN_LINT=1 ;;
    *) echo "usage: $0 [--lint]" >&2; exit 2 ;;
  esac
done

JOBS=$( (command -v nproc >/dev/null && nproc) || sysctl -n hw.ncpu 2>/dev/null || echo 2)

# Prefer Ninja when available, but fall back to CMake's default generator
# (the ROADMAP tier-1 command) -- and never fight an already-configured
# build tree that used a different generator.
if [ ! -f build/CMakeCache.txt ]; then
  if command -v ninja >/dev/null 2>&1; then
    cmake -B build -G Ninja
  else
    cmake -B build
  fi
fi
cmake --build build -j "${JOBS}"

mkdir -p reproduction

if [ "${RUN_LINT}" = 1 ]; then
  echo "== static analysis (eroof_lint) =="
  ./scripts/lint.sh --no-tidy
  cp -f lint-report.txt reproduction/ 2>/dev/null || true
fi
ctest --test-dir build -j "${JOBS}" 2>&1 | tee reproduction/test_output.txt

for b in build/bench/*; do
  [ -x "$b" ] || continue
  name=$(basename "$b")
  echo "== $name =="
  "$b" 2>&1 | tee "reproduction/${name}.txt"
done

# Time-stepping dynamics demo: incremental refit vs rebuild decisions and
# amortized schedule re-tuning over a Langevin trajectory.
echo "== fmm_dynamics =="
./build/examples/fmm_dynamics 2>&1 | tee reproduction/fmm_dynamics.txt

# Closed-loop model refresh demo: the dynamics engine refitting the energy
# model in service as the die leakage ramps (DESIGN.md §14).
echo "== fmm_refresh =="
./build/examples/fmm_refresh 2>&1 | tee reproduction/fmm_refresh.txt

# CSV series are written to the current directory: fig*.csv by paper_fmm,
# the rest by the ablation/extension benches.
mv -f fig*.csv ablation_q_sweep.csv ext_energy_roofline.csv reproduction/ \
  2>/dev/null || true

# The committed perf_fmm trajectory references; end-to-end numbers come
# from perfbench/ (python3 perfbench/run.py).
cp -f bench/results/*.json reproduction/ 2>/dev/null || true

echo "All outputs collected under ./reproduction/"
