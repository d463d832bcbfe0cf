"""A SQL subset: SELECT–FROM–WHERE plus joins, grouping, and ordering.

Grammar (case-insensitive keywords)::

    query      := SELECT [DISTINCT] select_list
                  FROM table [alias] ((',' table [alias]) | join)*
                  [WHERE expr]
                  [GROUP BY expr (',' expr)*]
                  [ORDER BY order_key (',' order_key)*]
                  [LIMIT n]
    join       := JOIN table [alias] ON expr
    select_list:= '*' | item (',' item)*
    item       := expr [AS name]
    order_key  := expr [ASC | DESC]
    expr       := or_expr
    or_expr    := and_expr (OR and_expr)*
    and_expr   := not_expr (AND not_expr)*
    not_expr   := NOT not_expr | comparison
    comparison := primary [cmp_op primary]
    primary    := number | string | TRUE | FALSE | COUNT '(' '*' ')'
                | name '(' args ')' | name ['.' name] | '(' expr ')'

Aggregates (``count/min/max/sum/avg``) in SELECT items trigger grouped
execution; equality join conditions plan as hash joins.  Sufficient to
run both Section-2 example queries verbatim (including the paper's
``Lufthansa''-style quoting).  ``explain`` renders the physical plan.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.db.catalog import Database
from repro.db.executor import (
    CrossProduct,
    Limit,
    Operator,
    Project,
    SeqScan,
    Select,
    VectorScan,
)
from repro.db.expressions import (
    And,
    Call,
    Column,
    Compare,
    Expr,
    Literal,
    Not,
    Or,
    map_columns,
)
from repro.errors import QueryError

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<string>'(?:[^'])*'|"(?:[^"])*"|``(?:[^`])*''|`(?:[^`])*`)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|<>|!=|=|<|>)
  | (?P<punct>[(),.*])
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "from", "where", "as", "and", "or", "not", "limit",
    "true", "false", "group", "order", "by", "asc", "desc", "join", "on",
    "distinct",
}

#: Function names treated as aggregates when they appear in SELECT items.
_AGGREGATE_FUNCS = {"count", "min", "max", "sum", "avg"}


@dataclass
class _Token:
    kind: str
    text: str


def _tokenize(sql: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if m is None:
            raise QueryError(f"cannot tokenize query at: {sql[pos:pos+20]!r}")
        pos = m.end()
        kind = m.lastgroup
        assert kind is not None
        if kind == "ws":
            continue
        text = m.group()
        if kind == "name" and text.lower() in _KEYWORDS:
            kind = "keyword"
            text = text.lower()
        tokens.append(_Token(kind, text))
    tokens.append(_Token("eof", ""))
    return tokens


@dataclass
class SelectItem:
    expr: Expr
    alias: Optional[str]


@dataclass
class JoinClause:
    """An explicit ``JOIN table [alias] ON condition`` clause."""

    table: str
    alias: str
    condition: Expr


@dataclass
class ParsedQuery:
    items: Optional[List[SelectItem]]  # None means SELECT *
    distinct: bool
    tables: List[Tuple[str, str]]  # (relation, alias), comma-separated FROM
    joins: List[JoinClause]
    where: Optional[Expr]
    group_by: List[Expr]
    order_by: List[Tuple[Expr, bool]]  # (expression, descending)
    limit: Optional[int]


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers -----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise QueryError(
                f"expected {text or kind}, got {tok.text!r} at token {self.pos}"
            )
        return self.advance()

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    # -- grammar ----------------------------------------------------------------

    def parse(self) -> ParsedQuery:
        self.expect("keyword", "select")
        distinct = self.accept("keyword", "distinct") is not None
        items = self.select_list()
        self.expect("keyword", "from")
        tables = [self.table_ref()]
        joins: List[JoinClause] = []
        while True:
            if self.accept("punct", ","):
                tables.append(self.table_ref())
            elif self.accept("keyword", "join"):
                name, alias = self.table_ref()
                self.expect("keyword", "on")
                joins.append(JoinClause(name, alias, self.expr()))
            else:
                break
        where = None
        if self.accept("keyword", "where"):
            where = self.expr()
        group_by: List[Expr] = []
        if self.accept("keyword", "group"):
            self.expect("keyword", "by")
            group_by.append(self.expr())
            while self.accept("punct", ","):
                group_by.append(self.expr())
        order_by: List[Tuple[Expr, bool]] = []
        if self.accept("keyword", "order"):
            self.expect("keyword", "by")
            order_by.append(self.order_key())
            while self.accept("punct", ","):
                order_by.append(self.order_key())
        limit = None
        if self.accept("keyword", "limit"):
            limit = int(self.expect("number").text)
        self.expect("eof")
        return ParsedQuery(items, distinct, tables, joins, where, group_by, order_by, limit)

    def order_key(self) -> Tuple[Expr, bool]:
        expr = self.expr()
        descending = False
        if self.accept("keyword", "desc"):
            descending = True
        else:
            self.accept("keyword", "asc")
        return (expr, descending)

    def select_list(self) -> Optional[List[SelectItem]]:
        if self.accept("punct", "*"):
            return None
        items = [self.select_item()]
        while self.accept("punct", ","):
            items.append(self.select_item())
        return items

    def select_item(self) -> SelectItem:
        expr = self.expr()
        alias = None
        if self.accept("keyword", "as"):
            alias = self.expect("name").text
        return SelectItem(expr, alias)

    def table_ref(self) -> Tuple[str, str]:
        name = self.expect("name").text
        alias = name
        tok = self.peek()
        if tok.kind == "name":
            alias = self.advance().text
        return (name, alias)

    def expr(self) -> Expr:
        return self.or_expr()

    def or_expr(self) -> Expr:
        left = self.and_expr()
        while self.accept("keyword", "or"):
            left = Or(left, self.and_expr())
        return left

    def and_expr(self) -> Expr:
        left = self.not_expr()
        while self.accept("keyword", "and"):
            left = And(left, self.not_expr())
        return left

    def not_expr(self) -> Expr:
        if self.accept("keyword", "not"):
            return Not(self.not_expr())
        return self.comparison()

    def comparison(self) -> Expr:
        left = self.primary()
        tok = self.peek()
        if tok.kind == "op":
            op = self.advance().text
            right = self.primary()
            return Compare(op, left, right)
        return left

    def primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            text = tok.text
            exact = text.lstrip("-").isdigit()
            return Literal(int(text) if exact else float(text))
        if tok.kind == "string":
            self.advance()
            text = tok.text
            if text.startswith("``") and text.endswith("''"):
                return Literal(text[2:-2])
            return Literal(text[1:-1])
        if tok.kind == "keyword" and tok.text in ("true", "false"):
            self.advance()
            return Literal(tok.text == "true")
        if self.accept("punct", "("):
            inner = self.expr()
            self.expect("punct", ")")
            return inner
        if tok.kind == "name":
            self.advance()
            if self.accept("punct", "("):
                # COUNT(*) is the one place a bare * is an argument.
                if tok.text.lower() == "count" and self.accept("punct", "*"):
                    self.expect("punct", ")")
                    return Call(tok.text, ())
                args: List[Expr] = []
                if not self.accept("punct", ")"):
                    args.append(self.expr())
                    while self.accept("punct", ","):
                        args.append(self.expr())
                    self.expect("punct", ")")
                return Call(tok.text, tuple(args))
            if self.accept("punct", "."):
                attr = self.expect("name").text
                return Column(f"{tok.text}.{attr}")
            return Column(tok.text)
        raise QueryError(f"unexpected token {tok.text!r}")


def parse_query(sql: str) -> ParsedQuery:
    """Parse a SQL string into its components."""
    return _Parser(_tokenize(sql)).parse()


def _output_name(item: SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, Column):
        return item.expr.name
    if isinstance(item.expr, Call):
        return item.expr.func.lower()
    return f"col{index + 1}"


def _is_aggregate(expr: Expr) -> bool:
    return isinstance(expr, Call) and expr.func.lower() in _AGGREGATE_FUNCS


def _substitute_aliases(expr: Expr, aliases: dict) -> Expr:
    """Replace column references to select aliases by their expressions."""
    return map_columns(expr, lambda col: aliases.get(col.name, col))


def _make_scan(
    db: Database, name: str, alias: Optional[str], strict: bool = True
) -> Operator:
    """Build the scan for one relation, honouring the backend switch.

    On a columnar backend a relation with exactly one moving-point
    attribute is scanned by a :class:`~repro.db.executor.VectorScan`
    planned for that backend: it exposes the attribute as a column, so
    the conjuncts of a selection above it that compile to a batch kernel
    run relation-wide on the backend's operator-table column.
    Everything else stays a plain :class:`SeqScan` (VectorScan degrades
    to one when no batch path applies, so results never change).
    ``strict=False`` lets the scan quarantine corrupt tuples instead of
    aborting.
    """
    relation = db.relation(name)
    from repro.vector.backends import columnar, get_backend

    if columnar():
        from repro.storage.records import codec_for

        mpoint_attrs = [
            a.name
            for a in relation.schema
            if codec_for(a.type_name).type_name == "mpoint"
        ]
        if len(mpoint_attrs) == 1:
            return VectorScan(
                relation, alias, mpoint_attrs[0], strict, get_backend()
            )
    return SeqScan(relation, alias, strict=strict)


def _plan_join(
    plan: Operator, db: Database, join: JoinClause, strict: bool = True
) -> Operator:
    """Attach a JOIN clause: hash join for a simple column equality,
    otherwise a cross product plus a selection."""
    from repro.db.executor import HashJoin

    right = _make_scan(db, join.table, join.alias, strict=strict)
    cond = join.condition
    if (
        isinstance(cond, Compare)
        and cond.op == "="
        and isinstance(cond.left, Column)
        and isinstance(cond.right, Column)
    ):
        right_names = set(db.relation(join.table).schema.names)

        def belongs_right(col: Column) -> bool:
            if "." in col.name:
                return col.name.split(".", 1)[0] == join.alias
            return col.name in right_names

        left_key, right_key = cond.left, cond.right
        if belongs_right(left_key) and not belongs_right(right_key):
            left_key, right_key = right_key, left_key
        if belongs_right(right_key) and not belongs_right(left_key):
            return HashJoin(plan, right, left_key, right_key)
    return Select(CrossProduct(plan, right), cond)


def plan_query(
    db: Database, parsed: ParsedQuery, strict: bool = True
) -> Operator:
    """Build an executable plan for a parsed query.

    ``strict=False`` plans every scan in quarantine mode: tuples whose
    storage representation fails verification are skipped and counted
    (``storage.quarantined``) instead of aborting the query.
    """
    from repro.db.executor import Aggregate, Sort

    if not parsed.tables:
        raise QueryError("query needs at least one relation in FROM")
    plan: Operator = _make_scan(
        db, parsed.tables[0][0], parsed.tables[0][1], strict=strict
    )
    for name, alias in parsed.tables[1:]:
        plan = CrossProduct(plan, _make_scan(db, name, alias, strict=strict))
    for join in parsed.joins:
        plan = _plan_join(plan, db, join, strict=strict)
    if isinstance(plan, VectorScan) and parsed.items is not None:
        # Still the bare scan (one relation, no join) under an explicit
        # select list: its rows need to carry only what the operators
        # above name.  A WHERE evaluated row by row adds its own columns
        # (Select.rows); one compiled to a kernel reads the column.
        plan.columns = set()
        above = [item.expr for item in parsed.items] + parsed.group_by
        above += [expr for expr, _descending in parsed.order_by]
        for expr in above:
            plan.carry(expr.columns())
    if parsed.where is not None:
        plan = Select(plan, parsed.where)

    has_aggregates = parsed.items is not None and any(
        _is_aggregate(item.expr) for item in parsed.items
    )
    if has_aggregates or parsed.group_by:
        if parsed.items is None:
            raise QueryError("SELECT * cannot be combined with aggregation")
        groups: List[Tuple[str, Expr]] = []
        aggregates: List[Tuple[str, str, Optional[Expr]]] = []
        group_keys = {repr(g) for g in parsed.group_by}
        for i, item in enumerate(parsed.items):
            name = _output_name(item, i)
            if _is_aggregate(item.expr):
                call = item.expr
                assert isinstance(call, Call)
                arg = call.args[0] if call.args else None
                aggregates.append((name, call.func.lower(), arg))
            else:
                if parsed.group_by and repr(item.expr) not in group_keys:
                    raise QueryError(
                        f"non-aggregate output {name!r} must appear in GROUP BY"
                    )
                if not parsed.group_by:
                    raise QueryError(
                        f"non-aggregate output {name!r} in an aggregate query "
                        "without GROUP BY"
                    )
                groups.append((name, item.expr))
        # Group expressions not projected still partition the input.
        projected = {repr(g) for _n, g in groups}
        for g in parsed.group_by:
            if repr(g) not in projected:
                groups.append((f"_group{len(groups)}", g))
        plan = Aggregate(plan, groups, aggregates)
        # Aggregation replaces the row vocabulary: order over its output.
        if parsed.order_by:
            plan = Sort(plan, parsed.order_by)
    elif parsed.items is not None:
        # Order before projection so keys may use any base column; keys
        # naming a select alias are rewritten to the aliased expression.
        if parsed.order_by:
            aliases = {
                item.alias: item.expr
                for item in parsed.items
                if item.alias is not None
            }
            keys = [
                (_substitute_aliases(expr, aliases), desc)
                for expr, desc in parsed.order_by
            ]
            plan = Sort(plan, keys)
        outputs = [
            (_output_name(item, i), item.expr)
            for i, item in enumerate(parsed.items)
        ]
        plan = Project(plan, outputs)
    elif parsed.order_by:
        plan = Sort(plan, parsed.order_by)
    if parsed.distinct:
        from repro.db.executor import Distinct

        plan = Distinct(plan)
    if parsed.limit is not None:
        plan = Limit(plan, parsed.limit)
    return plan


def run_query(db: Database, sql: str, strict: bool = True) -> List[dict]:
    """Parse, plan, and execute a query; returns the result rows."""
    return plan_query(db, parse_query(sql), strict=strict).execute()


def explain(db: Database, sql: str) -> str:
    """Render the physical plan of a query as an indented tree, one
    :meth:`~repro.db.executor.Operator.describe` line per operator."""
    plan = plan_query(db, parse_query(sql))
    lines: List[str] = []

    def walk(node: Operator, depth: int) -> None:
        lines.append("  " * depth + node.describe())
        for attr in ("child", "left", "right"):
            sub = getattr(node, attr, None)
            if sub is not None:
                walk(sub, depth + 1)

    walk(plan, 0)
    return "\n".join(lines)
