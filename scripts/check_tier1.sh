#!/usr/bin/env bash
# The pre-commit loop: configure, build, and run the tier-1 test suite
# plus the documentation lint (check_docs.sh, ctest label `docs`), the
# perf smoke (`bench_perf --smoke`, label `perf`: the batched estimator
# against the singles loop, with its 1e-10 match and zero-allocation
# gates), the fleet determinism layer (label `fleet`: multi-UE engine
# pinned against the single-UE simulator and across thread counts), and
# the golden-trace corpus replay (label `golden`, about 1 s: catches byte
# drift from a hot-path refactor) — the fast checks every change must
# keep green (ROADMAP.md).
#
#   scripts/check_tier1.sh              # tier1 + docs + perf + fleet +
#                                       # golden
#   scripts/check_tier1.sh --all        # every ctest label (slow/chaos
#                                       # included) plus the golden
#                                       # byte check (update_goldens.sh
#                                       # --check) and the benchmark's
#                                       # self-test (perfbench/run.py
#                                       # --self-test), so a src/ API
#                                       # change that breaks the
#                                       # benchmark fails here
#   scripts/check_tier1.sh --full       # --all plus the sanitizer chaos
#                                       # soak (scripts/check_soak.sh)
#   scripts/check_tier1.sh --scenarios  # also smoke-compile every
#                                       # scenarios/*.json and run the
#                                       # shortest end to end under the
#                                       # invariant checker
#                                       # (bench_fleet --validate)
#
# Any further arguments are forwarded to ctest. Uses the default build/
# tree; pass a different one via BUILD_DIR.
set -euo pipefail

cd "$(dirname "$0")/.."
build="${BUILD_DIR:-build}"

ctest_args=(-L 'tier1|docs|perf|fleet|golden')
all_checks=0
soak=0
scenarios=0
if [ "${1:-}" = "--all" ]; then
  ctest_args=()
  all_checks=1
  shift
elif [ "${1:-}" = "--full" ]; then
  ctest_args=()
  all_checks=1
  soak=1
  shift
elif [ "${1:-}" = "--scenarios" ]; then
  scenarios=1
  shift
fi
ctest_args+=("$@")

cmake -B "${build}" -S . >/dev/null
cmake --build "${build}" -j"$(nproc)"
ctest --test-dir "${build}" --output-on-failure -j"$(nproc)" \
      "${ctest_args[@]+"${ctest_args[@]}"}"

if [ "${all_checks}" = 1 ]; then
  scripts/update_goldens.sh --check "${build}"
  python3 perfbench/run.py --self-test
fi

if [ "${soak}" = 1 ]; then
  scripts/check_soak.sh
fi

if [ "${scenarios}" = 1 ]; then
  # Compile every library scenario at its authored parameters and run the
  # shortest one end to end (invariant checkers attached, gates enforced).
  "${build}/bench/bench_fleet" --validate
fi
