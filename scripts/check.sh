#!/usr/bin/env bash
# Tier-1 verification: the full test suite (which holds every smoke that
# used to run from benchmarks/bench_*.py), then the gates around it.
#
# Usage: scripts/check.sh  (from the repository root)
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: test suite =="
python -m pytest -x -q

echo
echo "== dynlock witness: full suite with the lock-order graph armed =="
# REPRO_DYNLOCK=1 swaps every dynlock.rlock() site for an instrumented
# lock; any lock-order inversion witnessed anywhere in the suite raises
# LockOrderError at the offending acquire (see repro.analysis.dynlock).
REPRO_DYNLOCK=1 python -m pytest -x -q -p no:cacheprovider

echo
echo "== end-to-end benchmark smoke (every name benchmarks/e2e imports) =="
# Outside tier-1 testpaths: a refactor that breaks a name the pipeline's
# benchmark imports must fail here, before the pipeline runs it.
python -m pytest -q -p no:cacheprovider benchmarks/e2e/test_smoke.py

echo
echo "== repro-lint (stdlib AST checker, always on) =="
python -m repro.analysis src

echo
echo "== repro-lint: concurrency & durability family (MOD007-MOD010) =="
# Redundant with the full run above, but kept as an explicit gate so a
# future rule-selection change can never silently drop the family.
python -m repro.analysis --select MOD007,MOD008,MOD009,MOD010 src

echo
echo "== crash-matrix smoke (every registered failpoint, fixed seed) =="
python -m repro crash-matrix --seed 2000

echo
echo "== chaos-matrix smoke (live faults: drops, stalls, kills, dups) =="
python -m repro chaos-matrix --quick --seed 2026

echo
echo "== lint (ruff, skipped when not installed) =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests benchmarks
else
    echo "ruff not installed; skipping lint"
fi

echo
echo "== types (mypy --strict on the gated packages, skipped when not installed) =="
if command -v mypy >/dev/null 2>&1; then
    mypy --strict -p repro.temporal -p repro.ranges -p repro.geometry -p repro.vector
else
    echo "mypy not installed; skipping type check"
fi

echo
echo "check.sh: all green"
