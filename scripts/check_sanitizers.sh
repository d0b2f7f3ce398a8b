#!/usr/bin/env bash
# Build and run the full ctest suite under ASan+UBSan and under TSan —
# including test_dsp_batch and the bench_perf --smoke perf label (the
# estimate_batch match and zero-allocation gates), so the batched SoA
# kernels (sfft_batch/svd_batch/estimate_batch and their arena) run
# instrumented on every sanitizer pass.
#
#   scripts/check_sanitizers.sh            # both presets
#   scripts/check_sanitizers.sh asan-ubsan # just address,undefined
#   scripts/check_sanitizers.sh tsan       # just thread
#
# Build trees land in build-<preset>/ next to the normal build/ so the
# instrumented configurations never pollute the default one.
set -euo pipefail

cd "$(dirname "$0")/.."

run_preset() {
  local preset="$1" sanitize="$2"
  local dir="build-${preset}"
  echo "== ${preset}: REM_SANITIZE=${sanitize} =="
  cmake -B "${dir}" -S . -DREM_SANITIZE="${sanitize}" >/dev/null
  cmake --build "${dir}" -j"$(nproc)"
  ctest --test-dir "${dir}" --output-on-failure -j"$(nproc)"
}

presets="${1:-all}"
case "${presets}" in
  asan-ubsan) run_preset asan-ubsan "address,undefined" ;;
  tsan)       run_preset tsan thread ;;
  all)
    run_preset asan-ubsan "address,undefined"
    run_preset tsan thread
    ;;
  *)
    echo "usage: $0 [all|asan-ubsan|tsan]" >&2
    exit 2
    ;;
esac
echo "sanitizer presets clean: ${presets}"
