"""The paper-specific lint rules (MOD001–MOD010).

Each rule enforces one *representation invariant* of the discrete model
(see DESIGN.md, "Static analysis"): these are properties the sliced
representation must hold structurally for the algebra's closure
arguments to go through, not style preferences.  MOD007–MOD010 extend
the family to the concurrency and durability invariants the query
service leans on: the snapshot-isolation story only works if guarded
state really is guarded, the event loop really never blocks, and
durable files really are replaced atomically.

=======  ==========================================================
code     invariant
=======  ==========================================================
MOD001   eps discipline: float comparisons on coordinates, instants
         and radicands go through ``repro.config``'s eps helpers
MOD002   unit/interval hygiene: no ``validate=False`` construction
         or private unit-array mutation outside the owning modules
MOD003   scalar↔vector parity: every batched kernel names its scalar
         twin in ``repro.vector.parity`` and has an equivalence
         property test
MOD004   obs-counter discipline: counter/timer/gauge names are
         literal and declared in the ``repro.obs`` registry
MOD005   backend-dispatch locality: backend names are compared only in
         the operator table (``repro.vector.backends``), whose arms
         have a scalar side and count every fallback
MOD006   failpoint discipline: fault-injection site names are
         literal and declared in the ``repro.faults`` registry, and
         every registered failpoint is placed somewhere
MOD007   lock discipline: attributes in the ``GUARDED_BY`` registry
         are only touched under their declared lock, by a registered
         owner method, or (for loop-confined state) from a coroutine
MOD008   asyncio hygiene: coroutine bodies in ``repro/server/`` never
         call blocking primitives (sleeps, sync file I/O, fsync
         barriers, lock-taking executor methods) directly
MOD009   atomic persistence: writable ``open()`` under the storage
         and column-store paths goes tmp+rename; in-place writes are
         reserved for the registered journal owners
MOD010   shm/fork lifecycle: every ``SharedMemory(create=True)``
         pairs with an unlink/finalize, and ``repro.parallel`` stays
         lock/thread-free below the fork boundary
=======  ==========================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Project, SourceModule, Violation

KNOWN_CODES = frozenset(
    {
        "MOD001", "MOD002", "MOD003", "MOD004", "MOD005", "MOD006",
        "MOD007", "MOD008", "MOD009", "MOD010",
    }
)


class Rule:
    """Base class: per-module and whole-project check hooks."""

    code: str = ""
    name: str = ""

    def check(
        self, mod: SourceModule, project: Project
    ) -> Iterator[Violation]:
        return iter(())

    def check_project(self, project: Project) -> Iterator[Violation]:
        return iter(())


def _call_name(node: ast.Call) -> str:
    """The trailing identifier of a call's function expression."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _dotted(node: ast.AST) -> str:
    """``obs.counters.add`` → ``"obs.counters.add"`` (best effort)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _str_const(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


# ---------------------------------------------------------------------------
# MOD001 — eps discipline
# ---------------------------------------------------------------------------

#: Identifiers that mark a comparison as already eps-mediated.
_MEDIATORS = {
    "eps", "EPS", "epsilon", "EPSILON", "tol", "tolerance", "param_tol",
    "atol", "rtol", "delta",
}

#: Local names that (in the geometric kernels) denote coordinates,
#: instants, interpolation parameters, or radicands.
_COORD_NAMES = {
    "x", "y", "t", "tt", "a", "b",
    "x0", "x1", "y0", "y1", "t0", "t1", "ta", "tb",
    "px", "py", "qx", "qy", "vx", "vy", "ax", "ay", "bx", "by",
    "cx", "cy", "dx", "dy", "ux", "uy", "c0", "c1",
    "lam", "lam_v", "lam_slope", "lam_icept", "mid_lam",
    "rad", "radicand", "param", "prev_param", "dist", "d2",
}

#: Attribute names that denote coordinates or interval end points.
_COORD_ATTRS = {
    "x", "y", "s", "e", "x0", "x1", "y0", "y1",
    "xmin", "xmax", "ymin", "ymax", "tmin", "tmax",
}

#: Calls whose result is a continuous quantity.
_CONTINUOUS_FUNCS = {
    "sqrt", "hypot", "atan2", "fabs", "dist", "dist_sq", "norm",
    "cross", "dot", "eval_quad", "lam", "project_param", "at",
}

_CMP_OPS = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _is_continuous(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Name):
        return node.id in _COORD_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _COORD_ATTRS
    if isinstance(node, ast.BinOp):
        return _is_continuous(node.left) or _is_continuous(node.right)
    if isinstance(node, ast.UnaryOp):
        return _is_continuous(node.operand)
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if name == "abs":
            return any(_is_continuous(a) for a in node.args)
        return name in _CONTINUOUS_FUNCS
    return False


def _is_mediator(name: str) -> bool:
    return (
        name in _MEDIATORS
        or name.startswith(("tol", "eps"))
        or name.endswith("_tol")
    )


def _mentions_mediator(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and _is_mediator(sub.id):
            return True
        if isinstance(sub, ast.Attribute) and _is_mediator(sub.attr):
            return True
    return False


class EpsDiscipline(Rule):
    """MOD001: raw float comparisons on continuous quantities.

    Scope: the geometric kernels (``repro.ops``, ``repro.geometry``),
    where every coordinate/instant comparison must either go through the
    sanctioned helpers of :mod:`repro.config` (``feq``/``fle``/…) or
    mention an explicit tolerance.  ``repro.geometry.primitives``
    *defines* the sanctioned vocabulary and is exempt.
    """

    code = "MOD001"
    name = "eps-discipline"

    _SCOPE = ("repro/ops/", "repro/geometry/")
    _EXEMPT = ("repro/geometry/primitives.py",)

    def check(
        self, mod: SourceModule, project: Project
    ) -> Iterator[Violation]:
        if not any(p in mod.relpath for p in self._SCOPE):
            return
        if any(mod.relpath.endswith(e) for e in self._EXEMPT):
            return
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not all(isinstance(op, _CMP_OPS) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(isinstance(o, (ast.Tuple, ast.List)) for o in operands):
                continue
            if not any(_is_continuous(o) for o in operands):
                continue
            if _mentions_mediator(node):
                continue
            snippet = ast.unparse(node)
            if len(snippet) > 60:
                snippet = snippet[:57] + "..."
            yield mod.violation(
                node,
                self.code,
                f"raw float comparison `{snippet}` on a continuous "
                "quantity; route it through the eps helpers of "
                "repro.config (feq/fle/flt/fge/fgt/fzero) or name an "
                "explicit tolerance",
            )


# ---------------------------------------------------------------------------
# MOD002 — unit/interval hygiene
# ---------------------------------------------------------------------------


class UnitHygiene(Rule):
    """MOD002: validation bypass and private unit-state mutation.

    ``validate=False`` construction of sortedness-checked values and
    direct access to ``Mapping``'s private unit arrays are only legal in
    the modules that own the invariant (temporal/spatial constructors
    and the storage deserializers, which re-validate by construction).
    """

    code = "MOD002"
    name = "unit-hygiene"

    _VALIDATED_TYPES = {
        "Line", "Region", "Cycle", "Face", "Mapping", "MovingPoint",
        "MovingReal", "MovingBool", "MovingRegion", "MovingString",
        "ULine", "UPoints", "URegion",
    }
    _OWNERS = ("repro/temporal/", "repro/spatial/", "repro/storage/")
    _PRIVATE_ATTRS = {"_units", "_starts"}
    _PRIVATE_OWNER = "repro/temporal/mapping.py"

    def check(
        self, mod: SourceModule, project: Project
    ) -> Iterator[Violation]:
        if "repro/analysis/" in mod.relpath:
            return
        owner = any(p in mod.relpath for p in self._OWNERS)
        private_owner = mod.relpath.endswith(self._PRIVATE_OWNER)
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Call) and not owner:
                ctor = _call_name(node)
                is_type_self = (
                    isinstance(node.func, ast.Call)
                    and _call_name(node.func) == "type"
                )
                if ctor in self._VALIDATED_TYPES or is_type_self:
                    for kw in node.keywords:
                        if (
                            kw.arg == "validate"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is False
                        ):
                            # Anchor at the call so a suppression on the
                            # constructor line covers multi-line calls.
                            yield mod.violation(
                                node,
                                self.code,
                                f"`{ctor or 'type(...)'}(..., "
                                "validate=False)` bypasses the sorted/"
                                "disjoint unit invariant outside its "
                                "owning module; construct validated or "
                                "move the construction into repro."
                                "temporal/repro.spatial",
                            )
            if isinstance(node, ast.Attribute) and not private_owner:
                if node.attr in self._PRIVATE_ATTRS:
                    yield mod.violation(
                        node,
                        self.code,
                        f"direct access to Mapping private state "
                        f"`.{node.attr}` outside repro.temporal.mapping; "
                        "use the public `.units` view",
                    )
            if isinstance(node, ast.Call) and not private_owner:
                if _dotted(node.func) == "object.__setattr__" and any(
                    _str_const(a) in self._PRIVATE_ATTRS for a in node.args
                ):
                    yield mod.violation(
                        node,
                        self.code,
                        "object.__setattr__ on Mapping private unit state "
                        "outside repro.temporal.mapping bypasses "
                        "_check_invariants",
                    )


# ---------------------------------------------------------------------------
# MOD003 — scalar↔vector parity
# ---------------------------------------------------------------------------


class VectorParity(Rule):
    """MOD003: every batched kernel has a registered scalar twin + test.

    The parity registry is ``KERNEL_PARITY`` in
    :mod:`repro.vector.parity`; each public function of
    :mod:`repro.vector.kernels` must appear in it, naming the scalar
    algorithm it transcribes and an equivalence property test defined in
    ``tests/test_vector_properties.py``.
    """

    code = "MOD003"
    name = "vector-parity"

    _KERNELS = "repro/vector/kernels.py"
    _REGISTRY = "repro/vector/parity.py"
    _TESTS = "tests/test_vector_properties.py"

    def _registry_entries(
        self, mod: SourceModule
    ) -> Tuple[Dict[str, Tuple[str, str]], List[Violation]]:
        entries: Dict[str, Tuple[str, str]] = {}
        problems: List[Violation] = []
        for node in ast.walk(mod.tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "KERNEL_PARITY"
                for t in targets
            ):
                continue
            if not isinstance(value, ast.Dict):
                problems.append(mod.violation(
                    value, self.code,
                    "KERNEL_PARITY must be a literal dict so the parity "
                    "checker can read it statically",
                ))
                continue
            for key, val in zip(value.keys, value.values):
                kname = _str_const(key) if key is not None else None
                if kname is None:
                    problems.append(mod.violation(
                        key or value, self.code,
                        "KERNEL_PARITY keys must be literal kernel names",
                    ))
                    continue
                scalar = test = None
                if isinstance(val, ast.Call):
                    for kw in val.keywords:
                        if kw.arg == "scalar":
                            scalar = _str_const(kw.value)
                        elif kw.arg == "test":
                            test = _str_const(kw.value)
                if not scalar or not test:
                    problems.append(mod.violation(
                        val, self.code,
                        f"parity entry for `{kname}` must name literal "
                        "`scalar=` and `test=` strings",
                    ))
                    continue
                entries[kname] = (scalar, test)
        return entries, problems

    def check_project(self, project: Project) -> Iterator[Violation]:
        kernels_mod = project.module(self._KERNELS)
        if kernels_mod is None:
            return
        kernels = [
            stmt for stmt in kernels_mod.tree.body
            if isinstance(stmt, ast.FunctionDef)
            and not stmt.name.startswith("_")
        ]
        registry_mod = project.module(self._REGISTRY)
        if registry_mod is None:
            yield kernels_mod.violation(
                kernels_mod.tree, self.code,
                "repro.vector.parity (the KERNEL_PARITY registry) is "
                "missing; every batched kernel must name its scalar twin",
            )
            return
        entries, problems = self._registry_entries(registry_mod)
        for p in problems:
            yield p

        test_names: Optional[Set[str]] = None
        test_path = project.companion(self._TESTS)
        if test_path is not None:
            try:
                test_tree = ast.parse(
                    test_path.read_text(encoding="utf-8")
                )
            except SyntaxError:
                test_tree = None
            if test_tree is not None:
                test_names = {
                    n.name
                    for n in ast.walk(test_tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                }

        kernel_names = {k.name for k in kernels}
        for k in kernels:
            if k.name not in entries:
                yield kernels_mod.violation(
                    k, self.code,
                    f"batched kernel `{k.name}` has no entry in "
                    "repro.vector.parity.KERNEL_PARITY; register its "
                    "scalar twin and equivalence test",
                )
                continue
            _scalar, test = entries[k.name]
            if test_names is not None and test not in test_names:
                yield kernels_mod.violation(
                    k, self.code,
                    f"parity test `{test}` for kernel `{k.name}` is not "
                    f"defined in {self._TESTS}",
                )
        for name in sorted(set(entries) - kernel_names):
            yield registry_mod.violation(
                registry_mod.tree, self.code,
                f"KERNEL_PARITY entry `{name}` does not match any public "
                "kernel in repro.vector.kernels",
            )


# ---------------------------------------------------------------------------
# MOD004 — obs-counter discipline
# ---------------------------------------------------------------------------


class ObsDiscipline(Rule):
    """MOD004: every counter/timer/gauge name is literal and registered.

    The registries are ``COUNTER_NAMES`` / ``TIMER_NAMES`` /
    ``GAUGE_NAMES`` in :mod:`repro.obs`.  A few wrapper functions are
    allowed to build names dynamically (their call sites are resolved
    instead): ``_record_rows`` in the vector kernels, ``count_fallback``
    in the operator table (the one counter of every backend rung —
    inside the table module its reason may be derived from a literal
    ``Operation(kind=...)`` row, which is read instead), and
    ``_merge_counters`` in the pool layer (which folds worker-captured
    snapshots whose names were validated when the workers wrote them).
    """

    code = "MOD004"
    name = "obs-discipline"

    _OBS = "repro/obs.py"
    _TABLE = "repro/vector/backends.py"
    _WRAPPER_BODIES = {
        ("repro/vector/kernels.py", "_record_rows"),
        (_TABLE, "count_fallback"),
        ("repro/parallel/pool.py", "_merge_counters"),
    }
    #: ``count_fallback(stage, reason)`` → counter family per stage.
    _FALLBACK_FAMILY = {
        "sharded": "shard.fallback",
        "parallel": "parallel.fallback",
        "vector": "vector.fallback_to_scalar",
    }

    def _registry(
        self, mod: SourceModule
    ) -> Optional[Dict[str, Set[str]]]:
        out: Dict[str, Set[str]] = {}
        for node in ast.walk(mod.tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            for t in targets:
                if not isinstance(t, ast.Name):
                    continue
                if t.id not in ("COUNTER_NAMES", "TIMER_NAMES", "GAUGE_NAMES"):
                    continue
                names: Set[str] = set()
                for sub in ast.walk(value):
                    s = _str_const(sub)
                    if s is not None:
                        names.add(s)
                out[t.id] = names
        if len(out) < 3:
            return None
        return out

    def _scope_prefixes(self, tree: ast.AST) -> Dict[ast.With, Dict[str, str]]:
        """Per-With mapping of as-variable → scope name prefix."""
        table: Dict[ast.With, Dict[str, str]] = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.With):
                continue
            for item in node.items:
                ctx = item.context_expr
                if not (isinstance(ctx, ast.Call) and _call_name(ctx) == "scope"):
                    continue
                if not (
                    isinstance(ctx.func, ast.Attribute)
                    or isinstance(ctx.func, ast.Name)
                ):
                    continue
                if isinstance(item.optional_vars, ast.Name):
                    name = _str_const(ctx.args[0]) if ctx.args else None
                    if name is not None:
                        table.setdefault(node, {})[
                            item.optional_vars.id
                        ] = name
        return table

    def check_project(self, project: Project) -> Iterator[Violation]:
        obs_mod = project.module(self._OBS)
        if obs_mod is None:
            return
        registry = self._registry(obs_mod)
        if registry is None:
            yield obs_mod.violation(
                obs_mod.tree, self.code,
                "repro.obs must declare COUNTER_NAMES, TIMER_NAMES and "
                "GAUGE_NAMES literal registries",
            )
            return
        counters, timers, gauges = (
            registry["COUNTER_NAMES"],
            registry["TIMER_NAMES"],
            registry["GAUGE_NAMES"],
        )

        written: Dict[str, Set[str]] = {
            "counter": set(), "timer": set(), "gauge": set(),
        }

        def record(
            mod: SourceModule, node: ast.AST, kind: str, name: Optional[str]
        ) -> Optional[Violation]:
            registry_for = {
                "counter": counters, "timer": timers, "gauge": gauges,
            }[kind]
            if name is None:
                return mod.violation(
                    node, self.code,
                    f"obs {kind} name must be a literal string (or go "
                    "through a registered wrapper) so the registry check "
                    "can see it",
                )
            written[kind].add(name)
            if name not in registry_for:
                return mod.violation(
                    node, self.code,
                    f"obs {kind} `{name}` is not declared in the "
                    f"repro.obs {kind.upper()}_NAMES registry",
                )
            return None

        src_mods = [
            m for m in project.modules
            if "repro/" in m.relpath
            and not m.relpath.endswith(self._OBS)
            and (
                "repro/analysis/" not in m.relpath
                # dynlock is production-adjacent instrumentation: its
                # counters are registered, so its write sites must be
                # visible to the never-written half of this check.
                or m.relpath.endswith("repro/analysis/dynlock.py")
            )
        ]
        for mod in src_mods:
            wrapper_bodies = {
                fn for (suffix, fn) in self._WRAPPER_BODIES
                if mod.relpath.endswith(suffix)
            }
            in_table = mod.relpath.endswith(self._TABLE)
            scope_table = self._scope_prefixes(mod.tree)
            scope_vars: Dict[str, str] = {}
            for per_with in scope_table.values():
                scope_vars.update(per_with)

            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.Call):
                    continue
                fn = mod.enclosing(
                    node, ast.FunctionDef, ast.AsyncFunctionDef
                )
                in_wrapper = (
                    fn is not None and fn.name in wrapper_bodies
                )
                dotted = _dotted(node.func)
                arg0 = _str_const(node.args[0]) if node.args else None

                # Wrapper call sites expand to their derived names.
                derived: Optional[List[Tuple[str, Optional[str]]]] = None
                wrapper = _call_name(node)
                if wrapper == "_record_rows" and arg0 is not None:
                    derived = [
                        ("counter", f"vector.{arg0}.calls"),
                        ("counter", f"vector.{arg0}.rows"),
                        ("gauge", "vector.rows_per_call"),
                    ]
                elif wrapper == "count_fallback":
                    family = self._FALLBACK_FAMILY.get(arg0 or "")
                    reason = (
                        _str_const(node.args[1]) if len(node.args) > 1
                        else None
                    )
                    if family is not None and reason is not None:
                        derived = [
                            ("counter", family),
                            ("counter", f"{family}.{reason}"),
                        ]
                    elif family is not None and in_table:
                        # Reason derived from the table row: the
                        # Operation(kind=...) literals below cover it.
                        derived = [("counter", family)]
                elif wrapper == "Operation" and in_table:
                    kinds = [
                        _str_const(kw.value) for kw in node.keywords
                        if kw.arg == "kind"
                    ]
                    derived = [
                        ("counter", f"vector.fallback_to_scalar.{k}_column")
                        for k in kinds
                    ]
                if wrapper in (
                    "_record_rows", "count_fallback",
                ) and derived is None:
                    derived = [("counter", None)]
                if derived is not None:
                    for kind, name in derived:
                        v = record(mod, node, kind, name)
                        if v:
                            yield v
                    continue

                if in_wrapper:
                    continue  # dynamic names allowed inside the wrappers

                if dotted in ("obs.add", "obs.counters.add"):
                    v = record(mod, node, "counter", arg0)
                    if v:
                        yield v
                elif dotted in ("obs.high_water", "obs.counters.high_water"):
                    v = record(mod, node, "gauge", arg0)
                    if v:
                        yield v
                elif dotted in ("obs.add_time", "obs.counters.add_time"):
                    v = record(mod, node, "timer", arg0)
                    if v:
                        yield v
                elif _call_name(node) == "scope" and isinstance(
                    node.func, ast.Attribute
                ) and _dotted(node.func) == "obs.scope":
                    v = record(mod, node, "timer", arg0)
                    if v:
                        yield v
                elif (
                    isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in scope_vars
                    and node.func.attr in ("add", "high_water")
                ):
                    prefix = scope_vars[node.func.value.id]
                    kind = (
                        "counter" if node.func.attr == "add" else "gauge"
                    )
                    full = f"{prefix}.{arg0}" if arg0 is not None else None
                    v = record(mod, node, kind, full)
                    if v:
                        yield v

        # Registered-but-never-written names: only meaningful on a
        # full-source run (the write sites span the whole package).
        full_run = (
            project.module("repro/temporal/mapping.py") is not None
            and project.module("repro/vector/kernels.py") is not None
        )
        if full_run:
            for kind, declared in (
                ("counter", counters), ("timer", timers), ("gauge", gauges),
            ):
                for name in sorted(declared - written[kind]):
                    yield obs_mod.violation(
                        obs_mod.tree, self.code,
                        f"registered obs {kind} `{name}` is never "
                        "written anywhere in repro; delete it from the "
                        "registry or wire it up",
                    )


# ---------------------------------------------------------------------------
# MOD005 — backend-dispatch completeness
# ---------------------------------------------------------------------------


class BackendDispatch(Rule):
    """MOD005: one module compares backend names; there, dispatch is
    resolved, two-armed, and falls back counted.

    * the backend literals ``"vector"`` / ``"parallel"`` may be
      *compared* (``==``, ``!=``, ``in``) only inside the operator
      table, :mod:`repro.vector.backends`; every other module passes
      names through and lets the table decide;
    * inside the table, comparisons go through ``resolve``/
      ``get_backend`` — directly, or via a local variable assigned from
      a resolver in the same function (never a raw parameter — a raw
      compare silently treats ``None`` as scalar);
    * inside the table, a batched arm — an ``if`` on a batched backend
      literal or on one of the table's predicates (``columnar`` /
      ``pooled``) — must leave a scalar arm (an ``else`` or
      fall-through code), its exception handlers must count the event
      via ``count_fallback``, and column construction
      (``*.from_mappings``) inside it must be guarded by try/except — it
      raises ``InvalidValue`` on inputs only the scalar path can
      evaluate.
    """

    code = "MOD005"
    name = "backend-dispatch"

    _TABLE = "repro/vector/backends.py"
    _BATCH_LITERALS = {"vector", "parallel"}
    #: Table predicates whose if-arms are batched paths too.
    _PREDICATES = {"columnar", "pooled"}
    _LITERALS = _BATCH_LITERALS | {"scalar"}
    _RESOLVERS = {"resolve", "get_backend"}

    @staticmethod
    def _compared(node: ast.Compare) -> Set[Optional[str]]:
        """String constants a Compare tests against, looking inside
        literal containers too (``x in ("a", "b")``)."""
        out: Set[Optional[str]] = set()
        for operand in [node.left, *node.comparators]:
            elts = [operand]
            if isinstance(operand, (ast.Tuple, ast.List, ast.Set)):
                elts = list(operand.elts)
            out.update(_str_const(e) for e in elts)
        return out

    def _resolved(self, mod: SourceModule, node: ast.Compare) -> bool:
        """Whether ``node`` compares a resolver's result: a resolver
        call, a name assigned from one in the same function, or any
        compare in a resolver's own body."""
        scope = mod.enclosing(
            node, ast.FunctionDef, ast.AsyncFunctionDef
        ) or mod.tree
        if isinstance(scope, ast.FunctionDef) and scope.name in self._RESOLVERS:
            return True
        local = {
            t.id
            for sub in ast.walk(scope)
            if isinstance(sub, ast.Assign)
            and isinstance(sub.value, ast.Call)
            and _call_name(sub.value) in self._RESOLVERS
            for t in sub.targets
            if isinstance(t, ast.Name)
        }
        return any(
            (isinstance(o, ast.Call) and _call_name(o) in self._RESOLVERS)
            or (isinstance(o, ast.Name) and o.id in local)
            for o in [node.left, *node.comparators]
        )

    def check(
        self, mod: SourceModule, project: Project
    ) -> Iterator[Violation]:
        if "repro/analysis/" in mod.relpath:
            return
        in_table = mod.relpath.endswith(self._TABLE)
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Compare):
                compared = self._compared(node)
                if not in_table and compared & self._BATCH_LITERALS:
                    yield mod.violation(
                        node, self.code,
                        "backend name compared outside the operator "
                        "table; pass the name through and let "
                        "repro.vector.backends decide what runs",
                    )
                elif (
                    in_table
                    and compared & self._LITERALS
                    and all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                    and not self._resolved(mod, node)
                ):
                    yield mod.violation(
                        node, self.code,
                        "backend literal compared without going through "
                        "resolve()/get_backend(); a raw parameter compare "
                        "misreads backend=None",
                    )
            elif in_table and isinstance(node, ast.If) and any(
                (isinstance(c, ast.Call) and _call_name(c) in self._PREDICATES)
                or (
                    isinstance(c, ast.Compare)
                    and self._compared(c) & self._BATCH_LITERALS
                )
                for c in ast.walk(node.test)
            ):
                yield from self._check_batched_arm(mod, node)

    def _check_batched_arm(
        self, mod: SourceModule, if_node: ast.If
    ) -> Iterator[Violation]:
        # A scalar arm must exist: an else branch or fall-through code.
        if not if_node.orelse:
            parent = mod.parents().get(if_node)
            trailing = False
            for attr in ("body", "orelse", "finalbody"):
                stmts = getattr(parent, attr, None)
                if isinstance(stmts, list) and if_node in stmts:
                    trailing = stmts.index(if_node) < len(stmts) - 1
                    break
            if not trailing:
                yield mod.violation(
                    if_node, self.code,
                    "vector-backend branch has no scalar arm (no else "
                    "and nothing after the if); every dispatch must "
                    "handle both backends",
                )

        for sub in ast.walk(if_node):
            if isinstance(sub, ast.ExceptHandler):
                counted = any(
                    isinstance(c, ast.Call)
                    and _call_name(c) == "count_fallback"
                    for c in ast.walk(sub)
                )
                if not counted:
                    yield mod.violation(
                        sub, self.code,
                        "exception handler inside a batched-backend arm "
                        "must count the event via count_fallback(stage, "
                        "reason) before falling back to scalar",
                    )
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "from_mappings"
            ):
                guarded = mod.enclosing(sub, ast.Try) is not None
                if not guarded:
                    yield mod.violation(
                        sub, self.code,
                        "column construction inside a batched-backend "
                        "arm must be try/except-guarded with a counted "
                        "count_fallback — from_mappings raises "
                        "InvalidValue on inputs only the scalar path "
                        "can handle",
                    )


# ---------------------------------------------------------------------------
# MOD006 — failpoint discipline
# ---------------------------------------------------------------------------


class FailpointDiscipline(Rule):
    """MOD006: every failpoint name is literal and registered, both ways.

    The registry is ``FAILPOINT_NAMES`` in :mod:`repro.faults`.  An
    injection site (``faults.fail(...)`` / ``faults.should_fire(...)``)
    using a name outside the registry is a typo that can never be armed;
    a registered name with no site is dead weight that the crash matrix
    would still demand a scenario for.  Mirror of the MOD004 obs-name
    rule.
    """

    code = "MOD006"
    name = "failpoint-discipline"

    _FAULTS = "repro/faults.py"
    #: Module whose presence marks a full-source run (the injection
    #: sites span the storage package, so the never-placed direction is
    #: only meaningful when it is in scope).
    _SITES_ANCHOR = "repro/storage/pages.py"
    _SITE_CALLS = ("faults.fail", "faults.should_fire")

    def _registry(self, mod: SourceModule) -> Optional[Set[str]]:
        for node in ast.walk(mod.tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "FAILPOINT_NAMES"
                for t in targets
            ):
                continue
            names: Set[str] = set()
            for sub in ast.walk(value):
                s = _str_const(sub)
                if s is not None:
                    names.add(s)
            return names
        return None

    def check_project(self, project: Project) -> Iterator[Violation]:
        faults_mod = project.module(self._FAULTS)
        if faults_mod is None:
            return
        registry = self._registry(faults_mod)
        if registry is None:
            yield faults_mod.violation(
                faults_mod.tree, self.code,
                "repro.faults must declare the FAILPOINT_NAMES literal "
                "registry so the failpoint check can read it statically",
            )
            return

        placed: Set[str] = set()
        src_mods = [
            m for m in project.modules
            if "repro/" in m.relpath
            and not m.relpath.endswith(self._FAULTS)
            and "repro/analysis/" not in m.relpath
        ]
        for mod in src_mods:
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.Call):
                    continue
                if _dotted(node.func) not in self._SITE_CALLS:
                    continue
                name = _str_const(node.args[0]) if node.args else None
                if name is None:
                    yield mod.violation(
                        node, self.code,
                        "failpoint name must be a literal string so the "
                        "registry check can see it",
                    )
                    continue
                placed.add(name)
                if name not in registry:
                    yield mod.violation(
                        node, self.code,
                        f"failpoint `{name}` is not declared in the "
                        "repro.faults FAILPOINT_NAMES registry; arming "
                        "it would raise, so the site is dead",
                    )

        if project.module(self._SITES_ANCHOR) is not None:
            for name in sorted(registry - placed):
                yield faults_mod.violation(
                    faults_mod.tree, self.code,
                    f"registered failpoint `{name}` is never placed at "
                    "any fail()/should_fire() site in repro; delete it "
                    "from the registry or wire it up",
                )


# ---------------------------------------------------------------------------
# MOD007 — lock discipline (the GUARDED_BY registry)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Guard:
    """One guarded-state declaration: which lock covers which attrs.

    ``lock`` names the ``self.<lock>`` attribute that must be held
    (via ``with self.<lock>:``) around every access.  ``lock=None``
    declares the attributes *event-loop confined* — legal only from
    coroutine methods (which all run on the owning loop) or from the
    listed owners.  ``owners`` are methods allowed to touch the
    attributes bare: the constructor, and helpers whose documented
    contract is "caller holds the lock".
    """

    lock: Optional[str]
    attrs: Tuple[str, ...]
    owners: Tuple[str, ...]


#: The lock-discipline registry: ``(module suffix, class)`` → guards.
#: This is the source of truth MOD007 checks the tree against; adding
#: concurrent state without registering it here is itself the bug the
#: rule exists to catch, so keep the registry next to the rule.
GUARDED_BY: Dict[Tuple[str, str], Tuple[Guard, ...]] = {
    ("repro/server/executor.py", "FleetExecutor"): (
        Guard(
            lock="_lock",
            attrs=("_fleets", "_unit_counts", "_dedup"),
            owners=(
                # _fleet/_apply_one/_append_unit/_pinned_column document
                # "caller holds the lock" and are only reached from
                # public methods that take it.
                "__init__", "_fleet", "_apply_one", "_append_unit",
                "_pinned_column",
            ),
        ),
        Guard(lock="_lat_lock", attrs=("_latencies",), owners=("__init__",)),
    ),
    ("repro/vector/cache.py", "ColumnCache"): (
        Guard(
            lock="_lock",
            # The repro.residency table (entries, byte total, CLOCK
            # state), which takes no lock of its own; _reap, _entry_of
            # and _store_entry are the "caller holds the lock" evict,
            # fetch and put+fit helpers of the locked public methods.
            attrs=("_entries",),
            owners=("__init__", "_reap", "_entry_of", "_store_entry"),
        ),
    ),
    ("repro/shard/manager.py", "ShardManager"): (
        Guard(
            lock="_lock",
            attrs=("_resident",),  # the repro.residency table, as above
            # _charge (put+fit) documents "caller holds the lock".
            owners=("__init__", "_charge"),
        ),
    ),
    ("repro/server/ingest.py", "GroupCommitter"): (
        Guard(
            lock=None,
            attrs=("_task", "_queue"),
            # start() is sync so the server can call it before the
            # listener exists, but it only ever runs on the loop thread
            # (QueryServer.start / GroupCommitter.submit call it).
            # depth() is the admission controller's backlog read — sync,
            # but only reached from QueryServer._admit on the loop.
            owners=("__init__", "start", "depth"),
        ),
    ),
    ("repro/server/session.py", "QueryServer"): (
        Guard(
            lock=None,
            attrs=("_sessions", "_inflight", "_stopping"),
            # _admit is sync (raising Overloaded needs no await) but is
            # only reached from the _serve_line coroutine on the loop.
            owners=("__init__", "_admit"),
        ),
    ),
}

#: Guarded attribute names that are unambiguous across the whole tree:
#: an access through *any* receiver outside the owning module leaks
#: guarded state past its lock.  (Names like ``_entries`` or ``_lock``
#: recur in unrelated classes — the index package has its own
#: ``_entries`` — so those are only checked inside their own module.)
_CROSS_MODULE_ATTRS: Dict[str, str] = {
    "_fleets": "repro/server/executor.py",
    "_unit_counts": "repro/server/executor.py",
    "_latencies": "repro/server/executor.py",
    "_resident": "repro/shard/manager.py",
}


class LockDiscipline(Rule):
    """MOD007: guarded state is only touched under its declared lock.

    The check is deliberately syntactic: an access to a registered
    attribute counts as guarded only when it sits *lexically* inside a
    ``with self.<lock>:`` block of the same function, or the enclosing
    method is a registered owner.  That under-approximates dynamic
    reachability (a helper called under the lock must be registered,
    with its "caller holds the lock" contract written down), which is
    exactly the documentation the rule wants to force.
    """

    code = "MOD007"
    name = "lock-discipline"

    def check(
        self, mod: SourceModule, project: Project
    ) -> Iterator[Violation]:
        if "repro/analysis/" in mod.relpath:
            return
        yield from self._check_cross_module(mod)
        for (suffix, cls_name), guards in GUARDED_BY.items():
            if not mod.relpath.endswith(suffix):
                continue
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.ClassDef) and node.name == cls_name:
                    yield from self._check_class(mod, node, guards)

    def _check_cross_module(self, mod: SourceModule) -> Iterator[Violation]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Attribute):
                continue
            owner = _CROSS_MODULE_ATTRS.get(node.attr)
            if owner is None or mod.relpath.endswith(owner):
                continue
            yield mod.violation(
                node, self.code,
                f"`.{node.attr}` is guarded state of {owner} (see the "
                "GUARDED_BY registry); reaching it from another module "
                "bypasses its lock — go through the owning class's "
                "public methods",
            )

    def _check_class(
        self, mod: SourceModule, cls: ast.ClassDef, guards: Tuple[Guard, ...]
    ) -> Iterator[Violation]:
        guard_of: Dict[str, Guard] = {}
        for guard in guards:
            for attr in guard.attrs:
                guard_of[attr] = guard
        for node in ast.walk(cls):
            if not isinstance(node, ast.Attribute):
                continue
            if not (
                isinstance(node.value, ast.Name) and node.value.id == "self"
            ):
                continue
            guard = guard_of.get(node.attr)
            if guard is None:
                continue
            held, fn = self._held_locks(mod, node)
            method = fn.name if fn is not None else "<module>"
            if method in guard.owners:
                continue
            if guard.lock is not None:
                if guard.lock in held:
                    continue
                yield mod.violation(
                    node, self.code,
                    f"`self.{node.attr}` is guarded by `self.{guard.lock}` "
                    f"(GUARDED_BY) but `{method}` touches it outside a "
                    f"`with self.{guard.lock}:` block; hold the lock or "
                    "register the method as an owner with its contract "
                    "written down",
                )
            elif not isinstance(fn, ast.AsyncFunctionDef):
                yield mod.violation(
                    node, self.code,
                    f"`self.{node.attr}` is event-loop confined "
                    f"(GUARDED_BY) but `{method}` is a sync method; only "
                    "coroutines running on the owning loop (or registered "
                    "owners) may touch it",
                )

    @staticmethod
    def _held_locks(
        mod: SourceModule, node: ast.AST
    ) -> Tuple[Set[str], Optional[ast.AST]]:
        """(self-attr locks held via ``with`` at node, enclosing function).

        The climb stops at the nearest function boundary: a lock held
        by an *outer* function is not statically known to be held when
        a nested function body eventually runs.
        """
        held: Set[str] = set()
        parents = mod.parents()
        cur = parents.get(node)
        while cur is not None and not isinstance(
            cur, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            if isinstance(cur, ast.With):
                for item in cur.items:
                    ctx = item.context_expr
                    if (
                        isinstance(ctx, ast.Attribute)
                        and isinstance(ctx.value, ast.Name)
                        and ctx.value.id == "self"
                    ):
                        held.add(ctx.attr)
            cur = parents.get(cur)
        return held, cur


# ---------------------------------------------------------------------------
# MOD008 — asyncio hygiene
# ---------------------------------------------------------------------------


class AsyncioHygiene(Rule):
    """MOD008: coroutine bodies in ``repro/server/`` never block the loop.

    A blocking call in a coroutine stalls *every* session, not just the
    caller — the whole point of the group committer running ``commit``
    via ``asyncio.to_thread`` is that fsync never parks the loop.  The
    rule flags the blocking primitives this codebase actually has:
    sleeps, sync file I/O, fsync-class barriers (``wal.sync``), and the
    lock-taking ``FleetExecutor`` methods — and the per-row reply
    framing (``row_line``, ``frame_snapshot``), which parks every other
    session while one big reply renders.  Passing a function *by
    reference* to ``asyncio.to_thread(...)`` is naturally clean — only
    direct calls are flagged.
    """

    code = "MOD008"
    name = "asyncio-hygiene"

    _SCOPE = "repro/server/"
    #: Dotted calls that block: sleeps and file-barrier syscalls.
    _BLOCKING_DOTTED = {
        "time.sleep", "os.fsync", "os.fdatasync", "os.replace",
        "os.rename", "shutil.rmtree", "socket.create_connection",
    }
    #: FleetExecutor methods that take the executor lock / do real
    #: work; called directly from a coroutine they stall the loop
    #: behind whatever ingest apply already holds the lock.
    #: (``record_latency`` is exempt: O(1) append under a dedicated
    #: micro-lock that is never held across real work.)
    _EXECUTOR_METHODS = {
        "query_sql", "explain_sql", "snapshot_rows", "snapshot", "stats",
        "apply_units", "register_fleet", "fleet", "fleet_names",
    }
    #: ``repro.server.protocol`` functions that format one line per
    #: result row; replies are rendered in the worker thread.
    _ROW_FRAMING = {"row_line", "frame_snapshot"}

    def check(
        self, mod: SourceModule, project: Project
    ) -> Iterator[Violation]:
        if self._SCOPE not in mod.relpath:
            return
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = mod.enclosing(node, ast.FunctionDef, ast.AsyncFunctionDef)
            if not isinstance(fn, ast.AsyncFunctionDef):
                continue
            reason = self._blocking_reason(node)
            if reason is not None:
                yield mod.violation(
                    node, self.code,
                    reason + "; route it through asyncio.to_thread / "
                    "run_in_executor so the event loop stays responsive",
                )

    def _blocking_reason(self, node: ast.Call) -> Optional[str]:
        func = node.func
        dotted = _dotted(func)
        if dotted in self._BLOCKING_DOTTED:
            return f"`{dotted}` blocks the event loop"
        if dotted.rpartition(".")[2] in self._ROW_FRAMING:
            return f"`{dotted}` formats reply rows on the event loop"
        if isinstance(func, ast.Name):
            if func.id == "open":
                return "sync file I/O (`open`) blocks the event loop"
            if func.id == "sleep":
                return "bare `sleep` (time.sleep) blocks the event loop"
        if isinstance(func, ast.Attribute):
            recv = _dotted(func.value)
            if func.attr == "sync" and "wal" in recv.lower():
                return f"`{recv}.sync()` is an fsync barrier"
            if (
                func.attr in self._EXECUTOR_METHODS
                and "executor" in recv.lower()
            ):
                return (
                    f"`{recv}.{func.attr}()` runs under the executor lock"
                )
        return None


# ---------------------------------------------------------------------------
# MOD009 — atomic-persistence discipline
# ---------------------------------------------------------------------------


class AtomicPersistence(Rule):
    """MOD009: durable paths are written tmp+rename, never in place.

    A crash mid-``write`` on the real file tears it; writing a ``.tmp``
    sibling and ``os.replace()``-ing it into place makes every save
    all-or-nothing (and keeps pinned memmap views of the old bytes
    valid — POSIX rename leaves open maps alone).  The WAL and the page
    file are the deliberate exceptions: they *are* the journal — their
    durability comes from CRC record framing and page checksums, not
    from atomic replacement — so their constructors are registered as
    journal owners below.
    """

    code = "MOD009"
    name = "atomic-persistence"

    _SCOPE = ("repro/storage/", "repro/vector/store.py")
    #: ``(module suffix, function)`` whose writable ``open`` *is* the
    #: journal; tmp+rename does not apply to an append-framed log.
    _JOURNAL_OWNERS = {
        ("repro/storage/wal.py", "__init__"),
        ("repro/storage/pages.py", "__init__"),
    }

    def check(
        self, mod: SourceModule, project: Project
    ) -> Iterator[Violation]:
        if not any(s in mod.relpath for s in self._SCOPE):
            return
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            if not (
                isinstance(node.func, ast.Name) and node.func.id == "open"
            ):
                continue
            if not self._writable(node):
                continue
            fn = mod.enclosing(node, ast.FunctionDef, ast.AsyncFunctionDef)
            fn_name = fn.name if fn is not None else "<module>"
            if any(
                mod.relpath.endswith(suffix) and fn_name == owner
                for suffix, owner in self._JOURNAL_OWNERS
            ):
                continue
            if node.args and self._tmp_path(node.args[0]):
                continue
            yield mod.violation(
                node, self.code,
                "writable `open()` on a durable path writes in place — a "
                "crash mid-write tears the file; write a `.tmp` sibling "
                "and `os.replace()` it into place (see ColumnStore.save), "
                "register a journal owner, or justify the site",
            )

    @staticmethod
    def _writable(node: ast.Call) -> bool:
        mode: Optional[ast.AST] = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if mode is None:
            return False  # defaults to "r"
        literal = _str_const(mode)
        if literal is None:
            return True  # computed mode: assume the worst
        return any(ch in literal for ch in "wa+x")

    @staticmethod
    def _tmp_path(path: ast.AST) -> bool:
        for sub in ast.walk(path):
            if isinstance(sub, ast.Name) and "tmp" in sub.id.lower():
                return True
            s = _str_const(sub)
            if s is not None and "tmp" in s.lower():
                return True
        return False


# ---------------------------------------------------------------------------
# MOD010 — shm/fork lifecycle
# ---------------------------------------------------------------------------


class ShmForkLifecycle(Rule):
    """MOD010: shm creates pair with unlink; the fork path stays lock-free.

    Two hazards with the same root (the fork boundary): a
    ``SharedMemory(create=True)`` whose name never reaches ``unlink``
    outlives every process that knew it (POSIX shm has kernel
    lifetime), and a lock created on the parent side of ``fork()`` is
    inherited *in its instantaneous state* — forked while held, it
    stays held in the child forever.  The unlink check is per-function:
    the creating function must contain an ``.unlink()`` call or a
    ``weakref.finalize`` registration on some path.
    """

    code = "MOD010"
    name = "shm-fork-lifecycle"

    _PARALLEL = "repro/parallel/"
    _THREAD_FACTORIES = {
        "threading.Thread", "threading.Lock", "threading.RLock",
        "threading.Condition", "threading.Semaphore",
        "threading.BoundedSemaphore", "threading.Event",
        "threading.Timer", "threading.Barrier", "dynlock.rlock",
    }

    def check(
        self, mod: SourceModule, project: Project
    ) -> Iterator[Violation]:
        if "repro/analysis/" in mod.relpath:
            return
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            if self._is_shm_create(node):
                scope = mod.enclosing(
                    node, ast.FunctionDef, ast.AsyncFunctionDef
                ) or mod.tree
                if not self._has_reclaim(scope):
                    yield mod.violation(
                        node, self.code,
                        "SharedMemory(create=True) with no `.unlink()` or "
                        "`weakref.finalize` on any path in this function "
                        "leaks the segment past process exit; pair every "
                        "create with an unlink (see shmcol.pack)",
                    )
            if (
                self._PARALLEL in mod.relpath
                and _dotted(node.func) in self._THREAD_FACTORIES
            ):
                yield mod.violation(
                    node, self.code,
                    f"`{_dotted(node.func)}` in repro.parallel creates "
                    "lock/thread state on the parent side of fork(); a "
                    "child forked while a lock is held inherits it held "
                    "forever — keep the pack path lock-free or justify "
                    "the site",
                )

    @staticmethod
    def _is_shm_create(node: ast.Call) -> bool:
        if _call_name(node) != "SharedMemory":
            return False
        for kw in node.keywords:
            if kw.arg == "create":
                val = kw.value
                return isinstance(val, ast.Constant) and val.value is True
        return False

    @staticmethod
    def _has_reclaim(scope: ast.AST) -> bool:
        for sub in ast.walk(scope):
            if isinstance(sub, ast.Attribute) and sub.attr == "unlink":
                return True
            if (
                isinstance(sub, ast.Call)
                and _dotted(sub.func) == "weakref.finalize"
            ):
                return True
        return False


RULES: List[Rule] = [
    EpsDiscipline(),
    UnitHygiene(),
    VectorParity(),
    ObsDiscipline(),
    BackendDispatch(),
    FailpointDiscipline(),
    LockDiscipline(),
    AsyncioHygiene(),
    AtomicPersistence(),
    ShmForkLifecycle(),
]
