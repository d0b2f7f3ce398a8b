#!/usr/bin/env bash
# Regenerate the golden-trace regression corpus under tests/golden/.
#
# Run this after an *intentional* behavior change, then review the diff of
# tests/golden/*.json — it documents exactly which statistics moved — and
# commit it together with the change. test_golden_traces fails until the
# committed digests match the code again.
#
# --check regenerates into a temporary directory instead and fails on any
# byte difference from the committed corpus. test_golden_traces compares
# field by field, so a reordered or reformatted digest passes it but
# would rewrite every file on the next regeneration; --check catches that.
#
#   scripts/update_goldens.sh [build_dir]           # default: build/
#   scripts/update_goldens.sh --check [build_dir]
set -euo pipefail

cd "$(dirname "$0")/.."
check=0
if [ "${1:-}" = "--check" ]; then
  check=1
  shift
fi
build="${1:-build}"

cmake -B "${build}" -S . >/dev/null
cmake --build "${build}" --target golden_gen -j"$(nproc)"

if [ "${check}" = 1 ]; then
  out="$(mktemp -d)"
  trap 'rm -rf "${out}"' EXIT
  "${build}/tests/golden_gen" "${out}" >/dev/null
  if ! diff -r tests/golden "${out}"; then
    echo "golden check FAILED: regenerated digests differ from tests/golden" >&2
    exit 1
  fi
  echo "golden check: ok (regenerated corpus is byte-identical)"
  exit 0
fi

"${build}/tests/golden_gen" tests/golden

echo "golden corpus refreshed; review 'git diff tests/golden/' before committing"
