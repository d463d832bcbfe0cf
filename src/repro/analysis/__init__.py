"""``repro-lint``: AST-based invariant checker for the sliced representation.

Run as ``python -m repro.analysis [paths...]`` (default: ``src``) or via
the ``repro-lint`` console script.  See :mod:`repro.analysis.rules` for
the rule catalogue (MOD001–MOD010) and :mod:`repro.analysis.core` for
the suppression policy.  :mod:`repro.analysis.dynlock` is the runtime
half of the concurrency rules: a lock-order witness armed by
``REPRO_DYNLOCK=1`` that fails the test suite on lock-order inversions.

The linter's names resolve on first access, so the runtime modules that
import :mod:`~repro.analysis.dynlock` do not load the rule catalogue.
"""

from __future__ import annotations

import importlib

#: Where each lazily resolved public name lives.
_LAZY = {
    "Violation": "core",
    "collect_files": "core",
    "lint_paths": "core",
    "render_report": "core",
    "KNOWN_CODES": "rules",
    "RULES": "rules",
}

__all__ = [
    "KNOWN_CODES",
    "RULES",
    "Violation",
    "collect_files",
    "lint_paths",
    "main",
    "render_report",
]


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code (1 on findings)."""
    import argparse
    from pathlib import Path

    from repro.analysis.core import lint_paths, render_report
    from repro.analysis.rules import RULES

    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="paper-specific invariant checker (stdlib ast only)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            doc = (rule.__doc__ or "").strip().splitlines()[0]
            print(f"{rule.code}  {rule.name:18s} {doc}")
        return 0

    select = (
        [c.strip() for c in args.select.split(",") if c.strip()]
        if args.select
        else None
    )
    violations = lint_paths([Path(p) for p in args.paths], select=select)
    print(render_report(violations))
    return 1 if violations else 0


def __getattr__(name: str):
    # PEP 562: the linter loads when one of its names is first asked for.
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
