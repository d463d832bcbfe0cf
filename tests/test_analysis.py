"""Tests for ``repro-lint`` (:mod:`repro.analysis`).

Each rule gets three fixture snippets: one violating, one clean, and one
using the ``# modlint: disable=CODE <why>`` escape hatch.  The fixtures
are written into a miniature ``src/repro`` tree under ``tmp_path`` so
path-scoped rules see realistic relative paths.  A final test runs the
linter over the real ``src/`` tree and requires it to be clean — that is
the acceptance gate the CI step enforces.
"""

import textwrap
from pathlib import Path

from repro.analysis import lint_paths, main

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_snippets(tmp_path, files, select=None):
    """Write ``{relpath: source}`` under tmp_path and lint its src tree."""
    (tmp_path / "src" / "repro").mkdir(parents=True, exist_ok=True)
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(text), encoding="utf-8")
    return lint_paths([tmp_path / "src"], select=select)


def codes(violations):
    return [v.code for v in violations]


class TestMOD001EpsDiscipline:
    def test_raw_float_comparison_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/ops/snippet.py": """
                def f(x, y):
                    return x == y
            """,
        }, select={"MOD001"})
        assert codes(out) == ["MOD001"]
        assert "feq" in out[0].message

    def test_mediated_comparison_clean(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/ops/snippet.py": """
                EPSILON = 1e-9

                def f(x, y):
                    return abs(x - y) <= EPSILON
            """,
        }, select={"MOD001"})
        assert out == []

    def test_helper_call_clean(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/ops/snippet.py": """
                from repro.config import feq

                def f(x, y):
                    return feq(x, y)
            """,
        }, select={"MOD001"})
        assert out == []

    def test_justified_disable_suppresses(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/ops/snippet.py": """
                def f(x, y):
                    return x == y  # modlint: disable=MOD001 canonical ordering, not a tolerance
            """,
        }, select={"MOD001"})
        assert out == []

    def test_unjustified_disable_is_mod000(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/ops/snippet.py": """
                def f(x, y):
                    return x == y  # modlint: disable=MOD001
            """,
        }, select={"MOD001"})
        assert codes(out) == ["MOD000"]

    def test_out_of_scope_module_ignored(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/workloads/snippet.py": """
                def f(x, y):
                    return x == y
            """,
        }, select={"MOD001"})
        assert out == []

    def test_standalone_comment_covers_next_line(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/ops/snippet.py": """
                def f(x, y):
                    # modlint: disable=MOD001 exact sentinel membership
                    return x == y
            """,
        }, select={"MOD001"})
        assert out == []


class TestMOD002UnitHygiene:
    def test_validate_false_outside_owner_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/db/snippet.py": """
                from repro.temporal.mapping import MovingPoint

                def f(units):
                    return MovingPoint(units, validate=False)
            """,
        }, select={"MOD002"})
        assert codes(out) == ["MOD002"]
        assert "validate=False" in out[0].message

    def test_validate_false_inside_owner_clean(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/temporal/snippet.py": """
                from repro.temporal.mapping import MovingPoint

                def f(units):
                    return MovingPoint(units, validate=False)
            """,
        }, select={"MOD002"})
        assert out == []

    def test_private_unit_state_access_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/ops/snippet.py": """
                def f(m):
                    return m._units
            """,
        }, select={"MOD002"})
        assert codes(out) == ["MOD002"]

    def test_justified_disable_suppresses(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/db/snippet.py": """
                from repro.temporal.mapping import MovingPoint

                def f(units):
                    return MovingPoint(units, validate=False)  # modlint: disable=MOD002 units pre-sorted by construction
            """,
        }, select={"MOD002"})
        assert out == []


PARITY_OK = """
    KERNEL_PARITY = {
        "my_kernel": KernelParity(
            scalar="repro.temporal.mapping.Mapping.unit_at",
            test="test_my_kernel_matches_scalar",
        ),
    }

    def KernelParity(scalar, test):
        return (scalar, test)
"""

KERNELS_ONE = """
    def my_kernel(col, t):
        return None
"""


class TestMOD003VectorParity:
    def test_unregistered_kernel_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/vector/kernels.py": KERNELS_ONE,
            "src/repro/vector/parity.py": "KERNEL_PARITY = {}\n",
        }, select={"MOD003"})
        assert codes(out) == ["MOD003"]
        assert "my_kernel" in out[0].message

    def test_registered_kernel_with_test_clean(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/vector/kernels.py": KERNELS_ONE,
            "src/repro/vector/parity.py": PARITY_OK,
            "tests/test_vector_properties.py": """
                def test_my_kernel_matches_scalar():
                    pass
            """,
        }, select={"MOD003"})
        assert out == []

    def test_missing_parity_test_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/vector/kernels.py": KERNELS_ONE,
            "src/repro/vector/parity.py": PARITY_OK,
            "tests/test_vector_properties.py": """
                def test_something_else():
                    pass
            """,
        }, select={"MOD003"})
        assert codes(out) == ["MOD003"]
        assert "test_my_kernel_matches_scalar" in out[0].message

    def test_stale_registry_entry_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/vector/kernels.py": "x = 1\n",
            "src/repro/vector/parity.py": PARITY_OK,
            "tests/test_vector_properties.py": """
                def test_my_kernel_matches_scalar():
                    pass
            """,
        }, select={"MOD003"})
        assert codes(out) == ["MOD003"]
        assert "does not match any public kernel" in out[0].message

    def test_disable_on_kernel_def_suppresses(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/vector/kernels.py": """
                def my_kernel(col, t):  # modlint: disable=MOD003 experimental, parity test pending
                    return None
            """,
            "src/repro/vector/parity.py": "KERNEL_PARITY = {}\n",
        }, select={"MOD003"})
        assert out == []


OBS_REGISTRY = """
    COUNTER_NAMES = frozenset({"mapping.probes"})
    TIMER_NAMES = frozenset({"inside"})
    GAUGE_NAMES = frozenset()
"""


class TestMOD004ObsDiscipline:
    def test_unregistered_counter_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/obs.py": OBS_REGISTRY,
            "src/repro/ops/snippet.py": """
                from repro import obs

                def f():
                    obs.counters.add("mystery.counter")
            """,
        }, select={"MOD004"})
        assert codes(out) == ["MOD004"]
        assert "mystery.counter" in out[0].message

    def test_registered_counter_clean(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/obs.py": OBS_REGISTRY,
            "src/repro/ops/snippet.py": """
                from repro import obs

                def f():
                    obs.counters.add("mapping.probes")
            """,
        }, select={"MOD004"})
        assert out == []

    def test_non_literal_name_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/obs.py": OBS_REGISTRY,
            "src/repro/ops/snippet.py": """
                from repro import obs

                def f(name):
                    obs.counters.add(f"mapping.{name}")
            """,
        }, select={"MOD004"})
        assert codes(out) == ["MOD004"]
        assert "literal" in out[0].message

    def test_scope_derived_counter_name_checked(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/obs.py": OBS_REGISTRY,
            "src/repro/ops/snippet.py": """
                from repro import obs

                def f():
                    with obs.scope("inside") as s:
                        s.add("unit_pairs")
            """,
        }, select={"MOD004"})
        assert codes(out) == ["MOD004"]
        assert "inside.unit_pairs" in out[0].message

    def test_registered_but_never_written_flagged_on_full_run(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/obs.py": OBS_REGISTRY,
            "src/repro/temporal/mapping.py": """
                from repro import obs

                def f():
                    obs.counters.add("mapping.probes")
            """,
            "src/repro/vector/kernels.py": "x = 1\n",
        }, select={"MOD004"})
        assert codes(out) == ["MOD004"]
        assert "`inside` is never" in out[0].message

    def test_justified_disable_suppresses(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/obs.py": OBS_REGISTRY,
            "src/repro/ops/snippet.py": """
                from repro import obs

                def f():
                    obs.counters.add("mystery.counter")  # modlint: disable=MOD004 migration shim, registry lands next PR
            """,
        }, select={"MOD004"})
        assert out == []

    def test_count_fallback_call_site_expands_per_stage_family(self, tmp_path):
        # count_fallback(stage, reason) is the one backend-fallback
        # counter: each call site implies its stage's family counter
        # plus the per-reason one, wherever it is called from.
        out = lint_snippets(tmp_path, {
            "src/repro/obs.py": OBS_REGISTRY,
            "src/repro/ops/snippet.py": """
                def f():
                    backends.count_fallback("parallel", "workers")
            """,
        }, select={"MOD004"})
        flagged = " ".join(v.message for v in out)
        assert codes(out) == ["MOD004", "MOD004"]
        assert "parallel.fallback`" in flagged
        assert "parallel.fallback.workers" in flagged

    def test_count_fallback_reason_must_be_literal_outside_table(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/obs.py": OBS_REGISTRY,
            "src/repro/ops/snippet.py": """
                def f(reason):
                    count_fallback("vector", reason)
            """,
        }, select={"MOD004"})
        assert codes(out) == ["MOD004"]
        assert "literal" in out[0].message

    def test_table_rows_cover_the_derived_column_reasons(self, tmp_path):
        # Inside the table the column-failure reason is derived from
        # the row; the linter reads the literal Operation(kind=...)
        # rows instead of the call site.
        out = lint_snippets(tmp_path, {
            "src/repro/obs.py": """
                COUNTER_NAMES = frozenset({
                    "vector.fallback_to_scalar",
                    "vector.fallback_to_scalar.upoint_column",
                })
                TIMER_NAMES = frozenset()
                GAUGE_NAMES = frozenset()
            """,
            "src/repro/vector/backends.py": """
                ROW = Operation("atinstant", kind="upoint")

                def evaluate(entry):
                    count_fallback("vector", f"{entry.kind}_column")
            """,
        }, select={"MOD004"})
        assert out == []


class TestMOD005BackendDispatch:
    TABLE = "src/repro/vector/backends.py"

    def test_backend_compare_outside_table_flagged(self, tmp_path):
        # Even a *resolved* compare: the literal may only be compared in
        # the operator table; everything else passes names through.
        out = lint_snippets(tmp_path, {
            "src/repro/ops/snippet.py": """
                def f(fleet, backend=None):
                    if resolve(backend) == "parallel":
                        return 1
                    return 2
            """,
        }, select={"MOD005"})
        assert codes(out) == ["MOD005"]
        assert "outside the operator table" in out[0].message

    def test_backend_membership_outside_table_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/snippet.py": """
                def f(args):
                    return args.backend not in ("vector", "parallel")
            """,
        }, select={"MOD005"})
        assert codes(out) == ["MOD005"]

    def test_passing_backend_names_through_clean(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/db/snippet.py": """
                class Scan:
                    backend = "parallel"

                def f(col, cls):
                    if cls.backend == get_backend():
                        return on_column("present", col, (), "parallel")
                    return evaluate("present", col, (), backend="scalar")
            """,
        }, select={"MOD005"})
        assert out == []

    def test_raw_backend_compare_in_table_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            self.TABLE: """
                def f(fleet, backend=None):
                    if backend == "vector":
                        return 1
                    return 2
            """,
        }, select={"MOD005"})
        assert codes(out) == ["MOD005"]
        assert "resolve()" in out[0].message

    def test_missing_scalar_arm_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            self.TABLE: """
                def f(fleet, backend=None):
                    if resolve(backend) == "vector":
                        return 1
            """,
        }, select={"MOD005"})
        assert codes(out) == ["MOD005"]
        assert "no scalar arm" in out[0].message

    def test_predicate_arm_needs_scalar_arm_too(self, tmp_path):
        out = lint_snippets(tmp_path, {
            self.TABLE: """
                def f(fleet, backend=None):
                    if columnar(backend):
                        return 1
            """,
        }, select={"MOD005"})
        assert codes(out) == ["MOD005"]
        assert "no scalar arm" in out[0].message

    def test_unguarded_column_construction_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            self.TABLE: """
                def f(fleet, backend=None):
                    if resolve(backend) == "vector":
                        col = UPointColumn.from_mappings(fleet)
                        return col
                    return 2
            """,
        }, select={"MOD005"})
        assert codes(out) == ["MOD005"]
        assert "from_mappings" in out[0].message

    def test_handler_without_fallback_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            self.TABLE: """
                def f(fleet, backend=None):
                    if columnar(backend):
                        try:
                            col = UPointColumn.from_mappings(fleet)
                        except InvalidValue:
                            pass
                        else:
                            return col
                    return 2
            """,
        }, select={"MOD005"})
        assert codes(out) == ["MOD005"]
        assert "count_fallback" in out[0].message

    def test_counted_fallback_dispatch_clean(self, tmp_path):
        out = lint_snippets(tmp_path, {
            self.TABLE: """
                def f(fleet, backend=None):
                    if columnar(backend):
                        try:
                            col = UPointColumn.from_mappings(fleet)
                        except InvalidValue:
                            count_fallback("vector", "upoint_column")
                        else:
                            return col
                    return 2
            """,
        }, select={"MOD005"})
        assert out == []

    def test_justified_disable_suppresses(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/vector/snippet.py": """
                def f(fleet, backend=None):
                    if backend == "vector":  # modlint: disable=MOD005 CLI entry point, backend pre-resolved upstream
                        return 1
                    return 2
            """,
        }, select={"MOD005"})
        assert out == []


class TestMOD006FailpointDiscipline:
    REGISTRY = """
        FAILPOINT_NAMES = frozenset({
            "pagefile.write_crash",
        })
    """

    def test_unregistered_name_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/faults.py": self.REGISTRY,
            "src/repro/storage/snippet.py": """
                from repro import faults

                def f():
                    faults.fail("pagefile.wrtie_crash")
            """,
        }, select={"MOD006"})
        assert codes(out) == ["MOD006"]
        assert "pagefile.wrtie_crash" in out[0].message

    def test_non_literal_name_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/faults.py": self.REGISTRY,
            "src/repro/storage/snippet.py": """
                from repro import faults

                def f(name):
                    faults.should_fire(name)
            """,
        }, select={"MOD006"})
        assert codes(out) == ["MOD006"]
        assert "literal" in out[0].message

    def test_registered_and_placed_clean(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/faults.py": self.REGISTRY,
            "src/repro/storage/snippet.py": """
                from repro import faults

                def f():
                    faults.fail("pagefile.write_crash")
            """,
        }, select={"MOD006"})
        assert out == []

    def test_never_placed_flagged_on_full_run(self, tmp_path):
        # The never-placed direction only fires when the storage
        # package (anchored by pages.py) is in scope.
        out = lint_snippets(tmp_path, {
            "src/repro/faults.py": self.REGISTRY,
            "src/repro/storage/pages.py": """
                def read_page(n):
                    return b""
            """,
        }, select={"MOD006"})
        assert codes(out) == ["MOD006"]
        assert "never placed" in out[0].message

    def test_partial_run_skips_never_placed(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/faults.py": self.REGISTRY,
        }, select={"MOD006"})
        assert out == []

    def test_justified_disable_suppresses(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/faults.py": self.REGISTRY,
            "src/repro/storage/snippet.py": """
                from repro import faults

                def f():
                    faults.fail("experimental.site")  # modlint: disable=MOD006 staged for the next registry batch
            """,
        }, select={"MOD006"})
        assert out == []


class TestMOD007LockDiscipline:
    def test_unlocked_access_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/server/executor.py": """
                import threading

                class FleetExecutor:
                    def __init__(self):
                        self._lock = threading.RLock()
                        self._fleets = {}

                    def fleet_names(self):
                        return sorted(self._fleets)
            """,
        }, select={"MOD007"})
        assert codes(out) == ["MOD007"]
        assert "with self._lock" in out[0].message

    def test_locked_access_clean(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/server/executor.py": """
                import threading

                class FleetExecutor:
                    def __init__(self):
                        self._lock = threading.RLock()
                        self._fleets = {}

                    def fleet_names(self):
                        with self._lock:
                            return sorted(self._fleets)
            """,
        }, select={"MOD007"})
        assert out == []

    def test_registered_owner_clean(self, tmp_path):
        # _fleet documents "caller holds the lock" and is registered.
        out = lint_snippets(tmp_path, {
            "src/repro/server/executor.py": """
                import threading

                class FleetExecutor:
                    def __init__(self):
                        self._lock = threading.RLock()
                        self._fleets = {}

                    def _fleet(self, name):
                        return self._fleets[name]
            """,
        }, select={"MOD007"})
        assert out == []

    def test_loop_confined_sync_method_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/server/ingest.py": """
                class GroupCommitter:
                    def __init__(self):
                        self._task = None

                    def cancel(self):
                        self._task = None
            """,
        }, select={"MOD007"})
        assert codes(out) == ["MOD007"]
        assert "event-loop confined" in out[0].message

    def test_loop_confined_coroutine_clean(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/server/ingest.py": """
                class GroupCommitter:
                    def __init__(self):
                        self._task = None

                    async def stop(self):
                        self._task = None
            """,
        }, select={"MOD007"})
        assert out == []

    def test_cross_module_reach_in_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/db/snippet.py": """
                def peek(executor):
                    return executor._fleets
            """,
        }, select={"MOD007"})
        assert codes(out) == ["MOD007"]
        assert "another module" in out[0].message

    def test_kept_state_reached_from_its_owner_flagged(self, tmp_path):
        # A relation's kept scan state belongs to repro.vector.cache,
        # even read through the relation that holds it.
        out = lint_snippets(tmp_path, {
            "src/repro/db/relation.py": """
                class Relation:
                    def forget(self):
                        self._kept = None
            """,
            "src/repro/vector/cache.py": """
                def lookup(owner, slot):
                    return owner._kept
            """,
        }, select={"MOD007"})
        assert codes(out) == ["MOD007"]
        assert out[0].path.endswith("db/relation.py")

    def test_suppression_with_reason_accepted(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/server/executor.py": """
                import threading

                class FleetExecutor:
                    def __init__(self):
                        self._lock = threading.RLock()
                        self._fleets = {}

                    def debug_dump(self):
                        return dict(self._fleets)  # modlint: disable=MOD007 racy-read debug hook, documented unsafe
            """,
        }, select={"MOD007"})
        assert out == []


class TestMOD008AsyncioHygiene:
    def test_blocking_calls_in_coroutine_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/server/snippet.py": """
                import time

                async def handler(executor, wal, path):
                    time.sleep(0.1)
                    wal.sync()
                    open(path)
                    return executor.stats()
            """,
        }, select={"MOD008"})
        assert codes(out) == ["MOD008"] * 4
        assert any("fsync barrier" in v.message for v in out)
        assert any("executor lock" in v.message for v in out)

    def test_offloaded_and_sync_context_clean(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/server/snippet.py": """
                import asyncio

                async def handler(executor, wal):
                    # By-reference offload: the blocking call happens on
                    # a worker thread, not the loop.
                    stats = await asyncio.to_thread(executor.stats)
                    await asyncio.to_thread(wal.sync)
                    await asyncio.sleep(0.01)
                    return stats

                def sync_helper(wal):
                    wal.sync()
            """,
        }, select={"MOD008"})
        assert out == []

    def test_row_framing_in_coroutine_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/server/snippet.py": """
                from repro.server import protocol

                async def dispatch(snap, rows):
                    lines = [
                        protocol.row_line(obj=i, x=repr(x), y=repr(y))
                        for i, x, y in rows
                    ]
                    blocks = protocol.frame_snapshot(
                        snap.version, len(snap), rows.ids, rows.xs, rows.ys
                    )
                    return lines, blocks
            """,
        }, select={"MOD008"})
        assert codes(out) == ["MOD008"] * 2
        assert all("formats reply rows" in v.message for v in out)

    def test_row_framing_in_worker_function_clean(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/server/snippet.py": """
                import asyncio

                from repro.server import protocol

                def snapshot_reply(executor, request, deadline):
                    snap, rows = executor.snapshot_rows(request.fleet, request.t)
                    return protocol.frame_snapshot(
                        snap.version, len(snap), rows.ids, rows.xs, rows.ys
                    )

                def query_reply(rows):
                    return protocol.frame_lines(
                        [protocol.row_line(**row) for row in rows]
                    )

                async def dispatch(executor, request, deadline):
                    # By reference: rendered on the worker thread.  The
                    # fixed one-line replies may be framed on the loop.
                    await asyncio.to_thread(
                        snapshot_reply, executor, request, deadline
                    )
                    return protocol.frame_lines([protocol.ok_line(), protocol.END])
            """,
        }, select={"MOD008"})
        assert out == []

    def test_outside_server_package_not_in_scope(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/db/snippet.py": """
                import time

                async def handler():
                    time.sleep(0.1)
            """,
        }, select={"MOD008"})
        assert out == []

    def test_suppression_with_reason_accepted(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/server/snippet.py": """
                import time

                async def handler():
                    time.sleep(0.0)  # modlint: disable=MOD008 zero-sleep yield shim for a legacy test hook
            """,
        }, select={"MOD008"})
        assert out == []


class TestMOD009AtomicPersistence:
    def test_in_place_write_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/storage/snippet.py": """
                def save(path, data):
                    with open(path, "wb") as fh:
                        fh.write(data)
            """,
        }, select={"MOD009"})
        assert codes(out) == ["MOD009"]
        assert "os.replace" in out[0].message

    def test_computed_mode_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/storage/snippet.py": """
                def touch(path, mode):
                    with open(path, mode) as fh:
                        return fh
            """,
        }, select={"MOD009"})
        assert codes(out) == ["MOD009"]

    def test_tmp_rename_clean(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/storage/snippet.py": """
                import os

                def save(path, data):
                    tmp = path + ".tmp"
                    with open(tmp, "wb") as fh:
                        fh.write(data)
                        os.fsync(fh.fileno())
                    os.replace(tmp, path)

                def load(path):
                    with open(path, "rb") as fh:
                        return fh.read()
            """,
        }, select={"MOD009"})
        assert out == []

    def test_journal_owner_clean(self, tmp_path):
        # The WAL constructor's writable open *is* the journal.
        out = lint_snippets(tmp_path, {
            "src/repro/storage/wal.py": """
                import os

                class Wal:
                    def __init__(self, path):
                        mode = "r+b" if os.path.exists(path) else "w+b"
                        self._fh = open(path, mode)
            """,
        }, select={"MOD009"})
        assert out == []

    def test_suppression_with_reason_accepted(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/storage/snippet.py": """
                def append(path, data):
                    # modlint: disable=MOD009 append-only tail write gated by a framed header
                    with open(path, "ab") as fh:
                        fh.write(data)
            """,
        }, select={"MOD009"})
        assert out == []


class TestMOD010ShmForkLifecycle:
    def test_create_without_unlink_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/parallel/snippet.py": """
                from multiprocessing import shared_memory

                def pack(n):
                    return shared_memory.SharedMemory(create=True, size=n)
            """,
        }, select={"MOD010"})
        assert codes(out) == ["MOD010"]
        assert "unlink" in out[0].message

    def test_create_with_unlink_on_error_path_clean(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/storage/snippet.py": """
                from multiprocessing import shared_memory

                def pack(n, fill):
                    shm = shared_memory.SharedMemory(create=True, size=n)
                    try:
                        fill(shm)
                    except BaseException:
                        shm.close()
                        shm.unlink()
                        raise
                    return shm
            """,
        }, select={"MOD010"})
        assert out == []

    def test_create_with_finalizer_clean(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/storage/snippet.py": """
                import weakref
                from multiprocessing import shared_memory

                def pack(n, owner, release):
                    shm = shared_memory.SharedMemory(create=True, size=n)
                    weakref.finalize(owner, release, shm)
                    return shm
            """,
        }, select={"MOD010"})
        assert out == []

    def test_lock_in_parallel_package_flagged(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/parallel/snippet.py": """
                import threading

                LOCK = threading.Lock()
            """,
        }, select={"MOD010"})
        assert codes(out) == ["MOD010"]
        assert "fork" in out[0].message

    def test_lock_outside_parallel_package_clean(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/server/snippet.py": """
                import threading

                LOCK = threading.Lock()
            """,
        }, select={"MOD010"})
        assert out == []

    def test_suppression_with_reason_accepted(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/parallel/snippet.py": """
                import threading

                # modlint: disable=MOD010 parent-side control lock, never held by worker code
                LOCK = threading.Lock()
            """,
        }, select={"MOD010"})
        assert out == []


class TestDynlock:
    """The runtime half: the lock-order witness catches real cycles."""

    def setup_method(self):
        from repro.analysis import dynlock

        dynlock.enable()
        dynlock.reset()

    def teardown_method(self):
        from repro.analysis import dynlock

        dynlock.reset()
        dynlock.disable()

    def test_factory_returns_plain_lock_when_inactive(self, monkeypatch):
        import threading

        from repro.analysis import dynlock

        monkeypatch.delenv("REPRO_DYNLOCK", raising=False)
        dynlock.disable()
        lk = dynlock.rlock("x")
        assert not isinstance(lk, dynlock.TrackedRLock)
        assert isinstance(lk, type(threading.RLock()))

    def test_factory_returns_tracked_lock_when_enabled(self):
        from repro.analysis import dynlock

        assert isinstance(dynlock.rlock("x"), dynlock.TrackedRLock)

    def test_nesting_records_an_edge(self):
        from repro.analysis import dynlock

        a, b = dynlock.rlock("A"), dynlock.rlock("B")
        with a:
            with b:
                pass
        assert ("A", "B") in dynlock.edges()

    def test_reentrancy_is_not_an_edge(self):
        from repro.analysis import dynlock

        a = dynlock.rlock("A")
        with a:
            with a:
                pass
        assert dynlock.edges() == frozenset()

    def test_seeded_inversion_raises_without_deadlock(self):
        import pytest

        from repro.analysis import dynlock

        a, b = dynlock.rlock("A"), dynlock.rlock("B")
        with a:
            with b:
                pass
        with pytest.raises(dynlock.LockOrderError, match="inversion"):
            with b:
                with a:
                    pass
        # The offending acquire never took the lock: A is free again.
        with a:
            pass

    def test_transitive_cycle_detected(self):
        import pytest

        from repro.analysis import dynlock

        a, b, c = dynlock.rlock("A"), dynlock.rlock("B"), dynlock.rlock("C")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with pytest.raises(dynlock.LockOrderError):
            with c:
                with a:
                    pass

    def test_acquisitions_counted(self):
        from repro import obs
        from repro.analysis import dynlock

        a = dynlock.rlock("A")
        with obs.capture() as counters:
            with a:
                pass
        assert counters.get("dynlock.acquisitions") == 1

    def test_real_server_locks_witness_their_order(self):
        # Integration: a read on a real executor takes the executor lock
        # alone, and an ingest apply publishes under the executor lock
        # while it holds the writer lock — the witness must see that
        # edge, no inverse, and nothing nested under a read.
        from repro.analysis import dynlock
        from repro.server.executor import FleetExecutor
        from repro.server.ingest import IngestRequest
        from repro.temporal.mapping import MovingPoint
        from repro.temporal.upoint import UPoint

        ex = FleetExecutor()
        ex.register_fleet("f", [
            MovingPoint([UPoint.between(0.0, (0.0, 0.0), 1.0, (1.0, 1.0))])
        ])
        dynlock.reset()
        ex.snapshot_rows("f", 0.5)
        assert dynlock.edges() == frozenset()
        ex.apply_units([IngestRequest("f", 0, (2.0, 1.0, 1.0, 3.0, 5.0, 2.0))])
        ex.snapshot_rows("f", 2.5)
        recorded = dynlock.edges()
        assert ("server.executor.writer", "server.executor") in recorded
        assert ("server.executor", "server.executor.writer") not in recorded


class TestSuppressionPolicy:
    def test_unknown_code_is_mod000(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/ops/snippet.py": """
                def f(x, y):
                    return x == y  # modlint: disable=MOD999 not a real rule
            """,
        })
        assert "MOD000" in codes(out)
        assert any("unknown rule" in v.message for v in out)

    def test_mod000_cannot_be_silenced(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/ops/snippet.py": """
                def f(x, y):
                    return x == y  # modlint: disable=MOD001,MOD000
            """,
        })
        assert "MOD000" in codes(out)

    def test_syntax_error_reported_not_crashed(self, tmp_path):
        out = lint_snippets(tmp_path, {
            "src/repro/ops/snippet.py": "def f(:\n",
        })
        assert codes(out) == ["MOD000"]
        assert "does not parse" in out[0].message


class TestRealTree:
    def test_full_src_tree_is_clean(self):
        out = lint_paths([REPO_ROOT / "src"])
        assert out == [], "\n".join(v.format() for v in out)

    def test_cli_exit_codes(self, tmp_path, capsys):
        assert main([str(REPO_ROOT / "src")]) == 0
        assert "repro-lint: clean" in capsys.readouterr().out
        (tmp_path / "src" / "repro" / "ops").mkdir(parents=True)
        bad = tmp_path / "src" / "repro" / "ops" / "snippet.py"
        bad.write_text("def f(x, y):\n    return x == y\n", encoding="utf-8")
        assert main([str(tmp_path / "src")]) == 1
        assert "MOD001" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        listing = capsys.readouterr().out
        for code in (
            "MOD001", "MOD002", "MOD003", "MOD004", "MOD005", "MOD006",
            "MOD007", "MOD008", "MOD009", "MOD010",
        ):
            assert code in listing
