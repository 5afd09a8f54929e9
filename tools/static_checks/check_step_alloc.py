#!/usr/bin/env python3
"""No allocation tokens in the steady-state Step/Run hot path.

The out-param SystemMonitor::Step calls (one row, and multi-row at
every width up to the serve tenant's batch cap) are proven malloc-free
after warmup, on clean and on guard-suppressed rows, with a counting
allocator
(tests/test_alloc_audit.cpp). That proof is dynamic — it only sees the
paths the audit trace exercises. This check is the static backstop: the
function bodies on the per-sample hot path (Step, the engine core
Advance that every Step and Run goes through, its guard pre-pass
FilterRows, its row assembly AssembleRow, and the kernels they call,
the row kernel and the sparse matrix's first-write
and count-insert kernels included) must not contain a token that
*unconditionally* allocates. Capacity-
reusing calls (assign/clear/push_back into a warmed buffer) are fine and
not flagged; what is flagged:

  * operator new / std::make_unique / std::make_shared / malloc family;
  * construction of a local owning container or string (a reference or
    pointer binding to an existing buffer is not flagged).

Token-level, one function body at a time: a callee that allocates on a
cold branch (grid extension) is invisible here and stays covered by the
dynamic audit. Escape hatch for a sanctioned cold branch inside a listed
body: `// alloc-ok: <reason>` on the offending line.

A listed function that no longer exists fails the check (stale config),
so renames cannot silently drop coverage.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import pmcorr_ast

# file -> hot functions whose every definition (all overloads) is
# scanned. Keep this the *steady-state per-sample* path: the Learn/
# calibration/setup paths allocate by design.
HOT_FUNCTIONS = {
    "src/engine/monitor.cpp": [
        # All three overloads: the value-returning and out-param one-row
        # calls and the multi-row call a serve tenant steps its batches
        # through.
        "SystemMonitor::Step",
        "SystemMonitor::Advance",
        "SystemMonitor::FilterRows",
        # Every Step assembles its rows through it. DiffSnapshots is not
        # listed: it runs after the engine, only where a delta stream
        # is written, and its delta vectors grow.
        "SystemMonitor::AssembleRow",
        "SystemMonitor::ComputeAggregates",
    ],
    "src/core/model.cpp": [
        "PairModel::Step",
    ],
    "src/core/transition_matrix.cpp": [
        "TransitionMatrix::ScoreTransition",
        "TransitionMatrix::ScoreAndObserve",
        # The row kernel: its two entry points, the dispatch and both
        # bodies (ScalarBody::WalkRow and Avx512Body::WalkRow).
        "RowWalkScalar",
        "RowWalkAvx512",
        "DispatchWalk",
        "WalkRow",
        "TransitionMatrix::ObserveTransition",
        "TransitionMatrix::UpdateRowEvidence",
        "TransitionMatrix::RankInRow",
        "TransitionMatrix::WritableRow",
        "TransitionMatrix::BumpCount",
    ],
    # The serve tenant's per-batch path up to the engine call: the
    # transpose of queued rows into column scratch, and the bind-and-step.
    # The per-batch publish (Publish: a make_shared and a snapshot copy)
    # is not on this list.
    "src/serve/tenant.cpp": [
        "TenantRuntime::TakeBatchLocked",
        "TenantRuntime::StepBatch",
    ],
}

ALLOC = re.compile(
    r"(?:^|[^\w.])new\b(?!\s*\()"  # `new X`, not a member named new
    r"|\bstd\s*::\s*make_unique\b"
    r"|\bstd\s*::\s*make_shared\b"
    r"|\b(?:malloc|calloc|realloc)\s*\("
    # Local owning container/string construction: `std::vector<T> x...`
    # with no & / * between the type and the name.
    r"|\bstd\s*::\s*(?:vector|deque|string|map|set|unordered_\w+|list|"
    r"function)\s*(?:<[^;&*]*>)?\s+[A-Za-z_]\w*\s*[({=]"
)
ESCAPE = "alloc-ok"


def scan_file(path: Path, rel: str, names, violations: list) -> None:
    raw_lines = path.read_text().splitlines()
    stripped = pmcorr_ast.strip_code(path.read_text())
    for name in names:
        found = False
        for start_line, body in pmcorr_ast.find_functions(stripped, name):
            found = True
            for i, line in enumerate(body.splitlines()):
                m = ALLOC.search(line)
                if not m:
                    continue
                lineno = start_line + i
                if lineno - 1 < len(raw_lines) and \
                        ESCAPE in raw_lines[lineno - 1]:
                    continue
                violations.append(
                    f"{rel}:{lineno}: allocation token in hot function "
                    f"{name} — the steady-state Step path is contractually "
                    f"malloc-free (tests/test_alloc_audit.cpp); reuse a "
                    f"member buffer, or mark a sanctioned cold branch with "
                    f"`// {ESCAPE}: <reason>`"
                )
        if not found:
            violations.append(
                f"{rel}: hot function {name} not found — stale entry in "
                f"check_step_alloc.py HOT_FUNCTIONS (update it so coverage "
                f"cannot silently rot)"
            )


def run(root: Path, files=None):
    violations: list[str] = []
    if files is not None:
        # Self-test mode: every listed fixture declares its own hot set
        # via a `// hot: Name` header line.
        for f in files:
            path = Path(f)
            names = re.findall(r"^//\s*hot:\s*(\S+)", path.read_text(),
                               re.MULTILINE)
            scan_file(path, str(f), names, violations)
        return violations
    for rel, names in HOT_FUNCTIONS.items():
        path = root / rel
        if not path.is_file():
            violations.append(
                f"{rel}: file missing — stale entry in check_step_alloc.py "
                f"HOT_FUNCTIONS"
            )
            continue
        scan_file(path, rel, names, violations)
    return violations


def main() -> int:
    args = sys.argv[1:]
    if args and args[0] == "--files":
        violations = run(Path("."), files=args[1:])
    else:
        root = Path(args[args.index("--root") + 1]) if "--root" in args \
            else Path(__file__).resolve().parents[2]
        violations = run(root)
    for v in violations:
        print(v)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
