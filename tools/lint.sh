#!/usr/bin/env bash
# Repo-specific lint gate — the checks clang-tidy cannot express.
# Run from anywhere; exits non-zero with an explanation per violation.
#
#  1. No naked assert() anywhere (src/tests/bench/tools/examples/fuzz):
#     contracts go through common/check.h (PMCORR_ASSERT /
#     PMCORR_DASSERT / PMCORR_AUDIT) so failures carry formatted
#     messages and a testable handler. static_assert stays.
#  2. Every AVX-512 translation unit (a target("avx512...") attribute, a
#     `#pragma GCC target` naming avx512, or an _mm512_ intrinsic)
#     compiles with -ffp-contract=off or is explicitly allowlisted here
#     with the reason it needs no flag.
#     Rationale: the x86-64 baseline has no FMA so contraction never
#     materializes, but avx512f function clones DO embed FMA and a
#     silently fused e*f + w*p changes the bitwise results the golden
#     traces and differential tests pin (docs/kernels.md).
#  3. BENCH_*.json stay flat {"bench": <name>, <metric>: <number|string>,
#     ...} objects — the shape BenchJson (bench/bench_util.h) writes and
#     the perf-tracking scripts diff across PRs. No nesting, no nulls.
#  4. Fuzz corpora stay present and minimized.
#  5. clang-format drift (only when clang-format is installed — the CI
#     lint job always has it; GCC-only dev boxes skip with a notice).
#  6. Project static checks (tools/static_checks/run_checks.sh): no raw
#     std lock/thread types outside the annotated wrappers, no
#     hash-order FP folds, no allocation in the per-sample hot path —
#     each gated by its own fixture self-test.
set -u
cd "$(dirname "$0")/.."
failures=0

fail() {
  echo "lint: $1" >&2
  failures=$((failures + 1))
}

# --- 1: naked assert() ------------------------------------------------
# `assert[[:space:]]*\(` also catches `assert (value)`; the scan covers
# every C++ tree, not just src/. Allowlist entries are `path:line`
# prefixes with a trailing reason; the list is currently empty — add to
# it only for third-party-shaped code we cannot route through check.h.
assert_allowlist=''
naked_asserts=$(grep -rnE '(^|[^_[:alnum:]])assert[[:space:]]*\(' \
                  src tests bench tools examples fuzz \
                  --include='*.cpp' --include='*.h' 2>/dev/null \
                | grep -v 'static_assert' \
                | grep -vE ':[0-9]+: *(//|\*)' || true)
if [ -n "$assert_allowlist" ]; then
  naked_asserts=$(echo "$naked_asserts" \
                  | grep -vF "$assert_allowlist" || true)
fi
if [ -n "$naked_asserts" ]; then
  fail "naked assert() — use PMCORR_DASSERT (common/check.h):
$naked_asserts"
fi

# --- 2: -ffp-contract=off on AVX-512 TUs ------------------------------
# TUs whose avx512 clones provably cannot contract (no FMA in the
# target set) are allowlisted; everything else must carry the flag in
# its directory's CMakeLists. A TU is AVX-512 when it clones a function
# for an avx512 target, switches a region to one with a pragma, or calls
# the 512-bit intrinsics (a hand-written kernel: GCC contracts a
# _mm512_mul_pd feeding a _mm512_add_pd like any other multiply-add).
avx512_pattern='target\("avx512|^[[:space:]]*#[[:space:]]*pragma[[:space:]]+GCC[[:space:]]+target.*avx512|_mm512_'
ffp_allowlist='src/common/stats.cpp'  # avx512f-only targets: no FMA emitted
# A stale allowlist entry is itself a failure: if the TU was deleted or
# no longer defines AVX-512 clones, the entry silently shields whatever
# file inherits its name later. Keep the list exactly as large as the
# exception set.
for entry in $ffp_allowlist; do
  if [ ! -e "$entry" ]; then
    fail "ffp_allowlist entry $entry does not exist — drop it from tools/lint.sh"
  elif ! grep -qE "$avx512_pattern" "$entry"; then
    fail "ffp_allowlist entry $entry no longer defines AVX-512 kernels — drop it from tools/lint.sh"
  fi
done
while IFS= read -r tu; do
  case " $ffp_allowlist " in *" $tu "*) continue ;; esac
  dir=$(dirname "$tu")
  base=$(basename "$tu")
  cml="$dir/CMakeLists.txt"
  if ! grep -q "ffp-contract=off" "$cml" 2>/dev/null ||
     ! grep -q "$base" "$cml" 2>/dev/null; then
    fail "$tu defines AVX-512 kernels but $cml does not set\
 -ffp-contract=off for it (or allowlist it in tools/lint.sh with a reason)"
  fi
done < <(grep -rlE "$avx512_pattern" src --include='*.cpp' || true)

# --- 3: bench JSON schema ---------------------------------------------
if command -v python3 >/dev/null 2>&1; then
  for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    if ! python3 - "$f" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as fh:
    doc = json.load(fh)
ok = (isinstance(doc, dict)
      and isinstance(doc.get("bench"), str)
      and doc["bench"]
      and all(isinstance(v, (int, float, str)) and not isinstance(v, bool)
              for v in doc.values()))
sys.exit(0 if ok else 1)
EOF
    then
      fail "$f violates the bench schema (flat object: \"bench\" string + number/string metrics)"
    fi
  done
else
  echo "lint: python3 not found, skipping bench JSON schema check" >&2
fi

# --- 4: fuzz corpora stay present and minimized -----------------------
# Every fuzz harness keeps a seed corpus under fuzz/corpus/<name>/ with
# at least two seeds (one happy path, one boundary shape), and every
# seed stays small: corpora are for edge-shape coverage, not bulk data —
# a fat seed slows each libFuzzer iteration and bloats the repo.
max_seed_bytes=32768
for harness in fuzz/fuzz_*.cpp; do
  [ -e "$harness" ] || continue
  name=$(basename "$harness" .cpp)
  dir="fuzz/corpus/${name#fuzz_}"
  if [ ! -d "$dir" ]; then
    fail "$harness has no seed corpus at $dir"
    continue
  fi
  count=$(find "$dir" -type f | wc -l)
  if [ "$count" -lt 2 ]; then
    fail "$dir has $count seed(s); keep at least 2 (happy path + boundary)"
  fi
  while IFS= read -r seed; do
    size=$(wc -c < "$seed")
    if [ "$size" -gt "$max_seed_bytes" ]; then
      fail "$seed is ${size} bytes (> ${max_seed_bytes}); minimize the seed"
    fi
  done < <(find "$dir" -type f)
done

# --- 5: formatting drift ----------------------------------------------
if command -v clang-format >/dev/null 2>&1; then
  unformatted=$(find src tests bench tools examples fuzz \
                  -name '*.cpp' -o -name '*.h' 2>/dev/null \
                | xargs clang-format --dry-run -Werror 2>&1 | head -40)
  if [ -n "$unformatted" ]; then
    fail "clang-format drift (clang-format -i to fix):
$unformatted"
  fi
else
  echo "lint: clang-format not found, skipping format check" >&2
fi

# --- 6: project static checks (concurrency + determinism AST rules) ---
if command -v python3 >/dev/null 2>&1; then
  if ! bash tools/static_checks/run_checks.sh; then
    fail "tools/static_checks found violations (details above)"
  fi
else
  echo "lint: python3 not found, skipping static_checks" >&2
fi

if [ "$failures" -gt 0 ]; then
  echo "lint: $failures check(s) failed" >&2
  exit 1
fi
echo "lint: all checks passed"
