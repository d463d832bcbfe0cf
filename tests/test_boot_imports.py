"""What ``repro serve`` loads before it answers.

A SNAPSHOT or INGEST needs the fleet, its columns and the wire; the road
network generator (networkx), the SQL engine (``repro.db``) and the
linter (``repro.analysis.core`` / ``.rules``) load on first use.  The
imports are read out of ``cmd_serve`` itself and run in a fresh
interpreter, so the test follows what the command imports.  The storage
layer, which the columns build on, loads neither numpy nor the columns.
"""

import ast
import inspect
import os
import subprocess
import sys
import textwrap

import repro
from repro import cli

#: Modules a serve boot must not load.
NOT_AT_BOOT = ("networkx", "repro.db", "repro.analysis.core", "repro.analysis.rules")


def _serve_imports():
    """``import repro.cli`` plus every import statement in ``cmd_serve``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cli.cmd_serve)))
    stmts = [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert any("FleetExecutor" in s for s in stmts)
    return ["import repro.cli", *stmts]


CHECK = """
import sys
{imports}
print("loaded", [m for m in {not_at_boot!r} if m in sys.modules])

import repro.analysis
import repro.workloads
from repro.server.executor import FleetExecutor
assert repro.workloads.RoadNetwork.__name__ == "RoadNetwork"
assert callable(repro.analysis.lint_paths)
ex = FleetExecutor()
assert "repro.db" not in sys.modules
results = ex.query_sql(
    "CREATE TABLE boot (id string); INSERT INTO boot VALUES ('a'); "
    "SELECT id FROM boot;"
)
assert [row["id"].value for row in results[-1].rows] == ["a"]
assert ex.db is ex.db
assert ex.db.relation("boot") is not None
print("lazy ok")
"""


def _fresh(code):
    """Run ``code`` in a fresh interpreter on this source tree."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_serve_boot_loads_only_what_serves():
    code = CHECK.format(
        imports="\n".join(_serve_imports()), not_at_boot=NOT_AT_BOOT
    )
    assert _fresh(code) == ["loaded []", "lazy ok"]


STORAGE_CHECK = """
import sys
import repro.storage
print("loaded", [m for m in ("numpy", "repro.vector") if m in sys.modules])
import repro.vector.columns, repro.db
print("vector ok")
"""


def test_storage_does_not_load_vector():
    """The tuple store's codecs declare the unit records the column
    kinds read, so ``vector`` depends on ``storage`` and never the other
    way: the storage layer loads neither numpy nor ``repro.vector``."""
    assert _fresh(STORAGE_CHECK) == ["loaded []", "vector ok"]
