#!/usr/bin/env python3
"""No raw std threading primitives outside their sanctioned owners.

Three rules, each with a reasoned allowlist (a stale entry — one that no
longer matches anything — fails the check, so the lists cannot rot):

 1. std::mutex / std::lock_guard / std::unique_lock / std::scoped_lock /
    std::condition_variable (and friends) appear ONLY in the annotated
    wrapper header src/common/mutex.h. Everything else must use
    pmcorr::Mutex / MutexLock / CondVar so clang's -Wthread-safety
    analysis can see every lock in the engine (docs/analysis.md,
    "Concurrency contracts").

 2. std::thread / std::jthread / std::async appear only in the three
    sanctioned thread owners — ThreadPool, RetrainPool and the serve
    daemon's TenantRuntime — plus explicitly allowlisted test harnesses
    that need pool-*external* threads (you cannot stress the pool with
    itself).

 3. .detach() is banned outright: every thread in the engine is joined
    by an owner with a shutdown protocol; a detached thread outlives
    scrutiny (TSan, the fault matrix, the alloc audit).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import pmcorr_ast
import re

SCAN_DIRS = ["src", "tests", "bench", "tools", "examples", "fuzz"]
SCAN_EXTS = {".h", ".cpp"}
SKIP_PARTS = {"static_checks", "compile_fail"}

RAW_LOCK = re.compile(
    r"\bstd\s*::\s*(?:mutex|timed_mutex|recursive_mutex|"
    r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable|"
    r"condition_variable_any)\b"
)
RAW_THREAD = re.compile(r"\bstd\s*::\s*(?:thread|jthread|async)\b")
DETACH = re.compile(r"\.\s*detach\s*\(")

# path -> reason. Rule 1: the one TU allowed to name the std types.
LOCK_ALLOWLIST = {
    "src/common/mutex.h": "the annotated wrapper itself (docs/analysis.md)",
}

# Rule 2: sanctioned thread owners and pool-external test drivers.
THREAD_ALLOWLIST = {
    "src/engine/thread_pool.h": "ThreadPool owns its workers",
    "src/engine/thread_pool.cpp": "ThreadPool owns its workers",
    "src/engine/retrain_pool.h": "RetrainPool owns its workers",
    "src/engine/retrain_pool.cpp": "RetrainPool owns its workers",
    "src/serve/tenant.h":
        "TenantRuntime owns its per-tenant worker and checkpoint writer",
    "src/serve/tenant.cpp":
        "TenantRuntime owns its per-tenant worker and checkpoint writer",
    "tests/test_thread_pool.cpp":
        "stress callers must be pool-external threads",
}


def scan_file(path: Path, rel: str, violations: list, hits: set) -> None:
    stripped = pmcorr_ast.strip_code(path.read_text())
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        if RAW_LOCK.search(line):
            hits.add(("lock", rel))
            if rel not in LOCK_ALLOWLIST:
                violations.append(
                    f"{rel}:{lineno}: raw std lock/condvar type — use "
                    f"pmcorr::Mutex/MutexLock/CondVar (common/mutex.h) so "
                    f"-Wthread-safety sees it"
                )
        if RAW_THREAD.search(line):
            hits.add(("thread", rel))
            if rel not in THREAD_ALLOWLIST:
                violations.append(
                    f"{rel}:{lineno}: raw std::thread outside "
                    f"ThreadPool/RetrainPool/TenantRuntime — route work "
                    f"through a pool, or allowlist with a reason in "
                    f"check_raw_threading.py"
                )
        if DETACH.search(line):
            violations.append(
                f"{rel}:{lineno}: detached thread — every engine thread "
                f"must be joined by an owner with a shutdown protocol"
            )


def run(root: Path, files=None):
    violations: list[str] = []
    hits: set = set()
    if files is not None:
        for f in files:
            scan_file(Path(f), str(f), violations, hits)
        return violations
    for d in SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SCAN_EXTS:
                continue
            if SKIP_PARTS & set(path.parts):
                continue
            scan_file(path, path.relative_to(root).as_posix(),
                      violations, hits)
    for kind, allowlist in (("lock", LOCK_ALLOWLIST),
                            ("thread", THREAD_ALLOWLIST)):
        for entry in allowlist:
            if (kind, entry) not in hits:
                violations.append(
                    f"{entry}: stale {kind} allowlist entry in "
                    f"check_raw_threading.py (no match there any more) — "
                    f"remove it so the list cannot rot"
                )
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
