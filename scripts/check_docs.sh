#!/usr/bin/env bash
# Documentation lint, wired into ctest under the `docs` label:
#   1. every intra-repo markdown link (relative path, not http/mailto/#)
#      in the top-level *.md files must point at an existing file;
#   2. every public header in src/obs must carry a file-top comment and a
#      doc comment on each top-level class/struct, so the observability
#      API cannot drift undocumented;
#   3. the scenario catalogue, the DESIGN.md fault-kind table and the
#      OBSERVABILITY.md counter table must match the code (sections 2-4);
#   4. every `bench::` symbol the top-level *.md files name must be
#      declared in bench/*.hpp (section 6);
#   5. every sim::kStatsTable row must be named in EXPERIMENTS.md's
#      per-manager sweep field table (section 7);
#   6. every bench binary the docs name must be a bench/CMakeLists.txt
#      target, and every target must have a how-to-run row (section 8).
# Exits non-zero listing every violation; prints nothing on success
# beyond a one-line summary.
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root" || exit 1

fail=0

# --- 1. intra-repo markdown links ------------------------------------------
for md in ./*.md; do
  # Extract (target) parts of [text](target) links, one per line. Inline
  # code spans are not parsed; our docs only use plain links.
  targets=$(grep -o ']([^)]*)' "$md" | sed 's/^](//; s/)$//')
  while IFS= read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"           # strip any #anchor
    [ -z "$path" ] && continue
    if [ ! -e "$repo_root/$path" ]; then
      echo "BROKEN LINK: $md -> $target"
      fail=1
    fi
  done <<EOF
$targets
EOF
done

# --- 2. SCENARIOS.md <-> scenarios/*.json consistency ----------------------
# The catalogue and the library must agree in both directions: every
# shipped scenario file has a `### <name>` entry in SCENARIOS.md, and
# every catalogue entry points at a file that exists. A scenario added
# without docs (or docs for a deleted scenario) fails the docs label.
if [ -d scenarios ] && [ -f SCENARIOS.md ]; then
  for f in scenarios/*.json; do
    name="$(basename "$f" .json)"
    if ! grep -q "^### ${name}\$" SCENARIOS.md; then
      echo "UNDOCUMENTED SCENARIO: $f has no '### ${name}' entry in SCENARIOS.md"
      fail=1
    fi
  done
  while IFS= read -r name; do
    if [ ! -f "scenarios/${name}.json" ]; then
      echo "STALE CATALOGUE ENTRY: SCENARIOS.md '### ${name}' has no scenarios/${name}.json"
      fail=1
    fi
  done <<EOF
$(grep '^### [a-z0-9_]*$' SCENARIOS.md | sed 's/^### //')
EOF
fi

# --- 3. DESIGN.md fault-kind table <-> fault_kind_name() -------------------
# The §6 fault table and the registered FaultKinds must agree in both
# directions: every wire name returned by fault_kind_name() appears as a
# `` `name` `` table row in DESIGN.md, and every fault-kind-looking row in
# the table names a registered kind. A kind added without docs (or docs
# for a deleted kind) fails the docs label.
if [ -f DESIGN.md ] && [ -f src/sim/fault_injector.cpp ]; then
  code_kinds=$(sed -n 's/.*case FaultKind::[A-Za-z]*: return "\([a-z0-9_]*\)";.*/\1/p' \
    src/sim/fault_injector.cpp | sort -u)
  if [ -z "$code_kinds" ]; then
    echo "FAULT KIND LINT BROKEN: no names parsed from fault_kind_name()"
    fail=1
  fi
  # Table rows look like `| `name` | ... |`; restrict to the documented
  # wire-name alphabet so prose rows never false-positive.
  doc_kinds=$(grep -o '^| `[a-z0-9_]*`' DESIGN.md | sed 's/^| `//; s/`$//' | sort -u)
  for kind in $code_kinds; do
    if ! printf '%s\n' "$doc_kinds" | grep -qx "$kind"; then
      echo "UNDOCUMENTED FAULT KIND: fault_kind_name() returns '$kind' but DESIGN.md has no \`$kind\` table row"
      fail=1
    fi
  done
  for kind in $doc_kinds; do
    case "$kind" in
      # Non-fault tables in DESIGN.md also use `| `slug` |` rows; only
      # lint rows whose slug collides with the fault-kind namespace.
      signaling_*|pilot_*|processing_*|coverage_*|command_*|backhaul_*|bs_*|region_*|cascade_*)
        if ! printf '%s\n' "$code_kinds" | grep -qx "$kind"; then
          echo "STALE FAULT KIND ROW: DESIGN.md documents \`$kind\` but fault_kind_name() never returns it"
          fail=1
        fi
        ;;
    esac
  done
fi

# --- 4. OBSERVABILITY.md counter rows <-> sim::kEventTable ------------------
# Every `sim.*` counter named in the event table (src/sim/schema.hpp, the
# counter column the span tracer publishes) must have a `| `name` |` row
# in OBSERVABILITY.md. A counter added without docs fails the docs label.
if [ -f OBSERVABILITY.md ] && [ -f src/sim/schema.hpp ]; then
  table_counters=$(sed -n '/kEventTable\[\] = {/,/^};/p' src/sim/schema.hpp |
    grep -o '"sim\.[a-z0-9_.]*"' | tr -d '"' | sort -u)
  if [ -z "$table_counters" ]; then
    echo "EVENT COUNTER LINT BROKEN: no sim.* names parsed from kEventTable in src/sim/schema.hpp"
    fail=1
  fi
  for name in $table_counters; do
    if ! grep -qF "| \`${name}\` |" OBSERVABILITY.md; then
      echo "UNDOCUMENTED COUNTER: kEventTable publishes '$name' but OBSERVABILITY.md has no \`$name\` table row"
      fail=1
    fi
  done
fi

# --- 5. doc comments on src/obs public headers -----------------------------
for hdr in src/obs/*.hpp; do
  if ! head -n 1 "$hdr" | grep -q '^//'; then
    echo "MISSING FILE COMMENT: $hdr must open with a // comment block"
    fail=1
  fi
  # Every top-level class/struct must be preceded by a comment line.
  violations=$(awk '
    /^(class|struct) [A-Za-z_]+/ {
      if (prev !~ /^\/\// && prev !~ /\*\//)
        print FILENAME ":" FNR ": undocumented: " $0
    }
    { prev = $0 }
  ' "$hdr")
  if [ -n "$violations" ]; then
    echo "$violations"
    fail=1
  fi
done

# --- 6. bench:: symbols in the docs <-> bench/*.hpp -------------------------
# The runner API lives in bench/*.hpp. Every `bench::name` (or
# `rem::bench::name`) a top-level *.md file mentions must be a struct,
# class, enum or function declared there, so docs cannot keep naming a
# runner symbol that was renamed or deleted. Only the first name after
# `bench::` is checked (`bench::RunOptions::context` checks RunOptions).
bench_declared=$( {
  sed -n 's/^\(struct\|class\|enum class\) \([A-Za-z_][A-Za-z0-9_]*\).*/\2/p' bench/*.hpp
  # Functions: a column-0 declaration line ending its name with "(".
  grep -hoE '^[A-Za-z][^(;=/]*[ *&][A-Za-z_][A-Za-z0-9_]*\(' bench/*.hpp |
    sed -E 's/.*[ *&]([A-Za-z_][A-Za-z0-9_]*)\($/\1/'
} | sort -u)
if [ -z "$bench_declared" ]; then
  echo "BENCH SYMBOL LINT BROKEN: no names parsed from bench/*.hpp"
  fail=1
fi
for md in ./*.md; do
  for name in $(grep -oE '(rem::)?bench::[A-Za-z_][A-Za-z0-9_]*' "$md" |
                sed 's/.*bench:://' | sort -u); do
    if ! printf '%s\n' "$bench_declared" | grep -qx "$name"; then
      echo "STALE BENCH SYMBOL: $md names bench::$name, which bench/*.hpp does not declare"
      fail=1
    fi
  done
done

# --- 7. EXPERIMENTS.md sweep field table <-> sim::kStatsTable ---------------
# Both sweeps (bench_chaos, bench_fleet) write every kStatsTable row into
# each manager block, so every row (src/sim/schema.hpp) must have a
# `` `name` `` mention in the table rows of EXPERIMENTS.md's "Per-manager
# blocks of the sweeps" section. A counter added without docs fails the
# docs label.
if [ -f EXPERIMENTS.md ] && [ -f src/sim/schema.hpp ]; then
  stats_rows=$(sed -n '/kStatsTable\[\] = {/,/^};/p' src/sim/schema.hpp |
    sed -n 's/.*REM_STATS_ROW(\([a-z0-9_]*\),.*/\1/p')
  if [ -z "$stats_rows" ]; then
    echo "SWEEP FIELD LINT BROKEN: no rows parsed from kStatsTable in src/sim/schema.hpp"
    fail=1
  fi
  sweep_table=$(awk '
    /^### / { inside = ($0 ~ /^### Per-manager blocks of the sweeps/) }
    inside && /^\|/ { print }
  ' EXPERIMENTS.md)
  if [ -z "$sweep_table" ]; then
    echo "SWEEP FIELD LINT BROKEN: no table rows under '### Per-manager blocks of the sweeps' in EXPERIMENTS.md"
    fail=1
  fi
  for name in $stats_rows; do
    if ! printf '%s\n' "$sweep_table" | grep -qF "\`${name}\`"; then
      echo "UNDOCUMENTED SWEEP FIELD: kStatsTable row '$name' has no \`$name\` entry in EXPERIMENTS.md's per-manager sweep field table"
      fail=1
    fi
  done
fi

# --- 8. bench binaries in the docs <-> bench/CMakeLists.txt ----------------
# Every `bench/<name>` or `build/bench/<name>` (bare or `.cpp`; headers and
# other files are skipped) that README, EXPERIMENTS, DESIGN, OBSERVABILITY
# or SCENARIOS names must be a target declared in bench/CMakeLists.txt, so
# docs cannot keep pointing at a deleted binary. Every target must in turn
# have a `build/bench/<name>` row in EXPERIMENTS.md's "Reproducing figure
# by figure" table.
bench_targets=$(sed -nE 's/^(rem_add_bench|add_executable)\(([A-Za-z0-9_]+).*/\2/p' \
  bench/CMakeLists.txt | sort -u)
if [ -z "$bench_targets" ]; then
  echo "BENCH TARGET LINT BROKEN: no targets parsed from bench/CMakeLists.txt"
  fail=1
fi
for md in README.md EXPERIMENTS.md DESIGN.md OBSERVABILITY.md SCENARIOS.md; do
  [ -f "$md" ] || continue
  for name in $(grep -oE '(^|[^A-Za-z0-9_-])(build/)?bench/[A-Za-z0-9_]+(\.[A-Za-z0-9]+)?' "$md" |
                sed -nE 's@.*bench/([A-Za-z0-9_]+)(\.cpp)?$@\1@p' | sort -u); do
    if ! printf '%s\n' "$bench_targets" | grep -qx "$name"; then
      echo "STALE BENCH BINARY: $md names bench/$name, which bench/CMakeLists.txt does not declare"
      fail=1
    fi
  done
done
if [ -f EXPERIMENTS.md ]; then
  run_table=$(awk '
    /^## / { inside = ($0 ~ /^## Reproducing figure by figure/) }
    inside && /^\|/ { print }
  ' EXPERIMENTS.md)
  for name in $bench_targets; do
    if ! printf '%s\n' "$run_table" | grep -qF "\`build/bench/${name}\`"; then
      echo "UNLISTED BENCH TARGET: bench/CMakeLists.txt declares '$name' but EXPERIMENTS.md's how-to-run table has no \`build/bench/${name}\` row"
      fail=1
    fi
  done
fi

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: ok (markdown links + scenario catalogue + fault-kind table + event counter table + src/obs header docs + bench:: symbols + sweep field table + bench targets)"
