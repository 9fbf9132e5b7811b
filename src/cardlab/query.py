"""Query intermediate representation, line-oriented text format, validation,
and the random workload generator.

A query is the triple (tables, joins, predicates). The text format is one
query per line, four `#`-separated fields::

    title t,movie_companies mc#mc.movie_id=t.id#t.production_year,>,2010#847

i.e. `tables#joins#predicates#cardinality` with tables as `name alias`,
joins as `a.col=b.col`, predicates as flat `col,op,val` triples, and an
optional trailing cardinality. Empty fields are allowed. Elements are
always emitted in canonical sorted order, so formatting is deterministic
and uniqueness can be defined on the canonical string.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import GenerationError, ParseError
from .storage import KIND_ATTR, Database

OPS = ("=", "<", ">")

#: Stop rule of the unique-workload generator: this many duplicate draws
#: in a row end it.
RETRY_FACTOR = 1000


@dataclass(frozen=True, order=True, slots=True)
class TableRef:
    table: str
    alias: str


@dataclass(frozen=True, order=True, slots=True)
class JoinEdge:
    """Equi-join between two alias-qualified columns, fk side first for
    generated queries (parsed queries keep their written orientation)."""

    left: tuple[str, str]  # (alias, column)
    right: tuple[str, str]

    def __str__(self):
        return f"{self.left[0]}.{self.left[1]}={self.right[0]}.{self.right[1]}"


@dataclass(frozen=True, order=True, slots=True)
class Predicate:
    alias: str
    column: str
    op: str
    literal: int

    def __str__(self):
        return f"{self.alias}.{self.column},{self.op},{self.literal}"


@dataclass(frozen=True, slots=True)
class QuerySpec:
    """Canonicalized (tables, joins, predicates) triple.

    Construction sorts and deduplicates each component, so two specs that
    are equal as sets compare (and format) equal. It also resolves, once,
    the alias of each table, and the predicates and the joins of each
    alias, in `tables` order, and the aliases' content order
    (`content_order`); they take no part in comparison or hashing.
    Structural soundness against a database is checked by
    :func:`validate`.

    The content order sorts the aliases by what the query says of them,
    not by their names: by table, and aliases of one table by their
    predicates (column, operator, literal), then by their joins (own
    column, other table, other column), then by name. The sampling
    estimators read it wherever an order could move their floats, so
    renaming aliases or flipping a join's orientation leaves their
    estimates alone. Where each table appears once it is the table
    order, which for the generator's aliases is also their name order.
    """

    tables: tuple[TableRef, ...]
    joins: tuple[JoinEdge, ...] = ()
    predicates: tuple[Predicate, ...] = ()
    aliases: tuple[str, ...] = field(init=False, repr=False, compare=False)
    content_order: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _alias_predicates: tuple[tuple[Predicate, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    _alias_joins: tuple[tuple[JoinEdge, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "tables", tuple(sorted(set(self.tables))))
        object.__setattr__(self, "joins", tuple(sorted(set(self.joins))))
        object.__setattr__(self, "predicates", tuple(sorted(set(self.predicates))))
        aliases = [t.alias for t in self.tables]
        if len(set(aliases)) != len(aliases):
            raise ParseError(f"duplicate alias in {aliases}")
        object.__setattr__(self, "aliases", tuple(aliases))
        object.__setattr__(
            self,
            "_alias_predicates",
            tuple([tuple([p for p in self.predicates if p.alias == a]) for a in aliases]),
        )
        alias_joins = [[j for j in self.joins if a in (j.left[0], j.right[0])] for a in aliases]
        table_of = {t.alias: t.table for t in self.tables}

        def content(i):
            ends = sorted((own, table_of.get(other, ""), other_col)
                          for other, own, other_col in
                          (_neighbour(j, aliases[i]) for j in alias_joins[i]))
            preds = [(p.column, p.op, p.literal) for p in self._alias_predicates[i]]
            return self.tables[i].table, preds, ends, aliases[i]

        order = [aliases[i] for i in sorted(range(len(aliases)), key=content)]
        object.__setattr__(self, "content_order", tuple(order))
        for i, a in enumerate(aliases):
            if len(alias_joins[i]) > 1:
                alias_joins[i].sort(key=lambda j: _placed(_neighbour(j, a), order))
            alias_joins[i] = tuple(alias_joins[i])
        object.__setattr__(self, "_alias_joins", tuple(alias_joins))

    def table_of(self, alias: str) -> str:
        try:
            return self.tables[self.aliases.index(alias)].table
        except ValueError:
            raise ParseError(f"alias {alias!r} not declared") from None

    def predicates_of(self, alias: str) -> tuple[Predicate, ...]:
        """The predicates on `alias`, also when it is not declared (which
        :func:`validate` reports)."""
        try:
            return self._alias_predicates[self.aliases.index(alias)]
        except ValueError:
            return tuple(p for p in self.predicates if p.alias == alias)

    def joins_of(self, alias: str) -> tuple[JoinEdge, ...]:
        """The joins at `alias`, a declared alias, sorted by the other
        alias's place in `content_order`, then own column, then other
        column. Aliases of one table that differ only beyond their own
        neighbours (in their neighbours' predicates, say) keep a name
        tie-break there."""
        return self._alias_joins[self.aliases.index(alias)]

    def walk(self, root: str) -> list[tuple[str, str, str, str]]:
        """The join edges reachable from `root`, breadth-first, each as
        (known alias, its column, new alias, its column): every edge
        attaches an alias not seen before, each alias's joins taken in
        `joins_of` order. An edge back to a seen alias is left out, so a
        join tree yields all of its edges, and `reversed` visits children
        before parents. Every alias reached must be declared."""
        edges, seen, frontier = [], {root}, [root]
        for alias in frontier:  # grows as the walk reaches new aliases
            for j in self._alias_joins[self.aliases.index(alias)]:
                other, own_col, other_col = _neighbour(j, alias)
                if other not in seen:
                    seen.add(other)
                    edges.append((alias, own_col, other, other_col))
                    frontier.append(other)
        return edges


def _neighbour(join: JoinEdge, alias: str) -> tuple[str, str, str]:
    """(other alias, own column, other column) of `join` at `alias`."""
    if join.left[0] == alias:
        return join.right[0], join.left[1], join.right[1]
    return join.left[0], join.right[1], join.left[1]


def _placed(end: tuple[str, str, str], order: list[str]) -> tuple:
    """`end`, a `_neighbour` triple, keyed by its alias's place in `order`;
    an undeclared alias, which `validate` reports, after every other."""
    return (order.index(end[0]) if end[0] in order else len(order)), end


@dataclass(eq=False)
class LabeledQuery:
    """QuerySpec plus ground truth and per-table sample bitmaps.

    `true_cardinality` is >= 1 for training/eval corpora (empty-result
    queries are dropped during labeling) and None for queries featurized at
    prediction time. `bitmaps` maps alias -> boolean vector over the
    table's materialized sample.
    """

    spec: QuerySpec
    true_cardinality: int | None
    bitmaps: dict[str, np.ndarray] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def format_query(spec: QuerySpec, label: int | None = None) -> str:
    tables = ",".join(f"{t.table} {t.alias}" for t in spec.tables)
    joins = ",".join(str(j) for j in spec.joins)
    preds = ",".join(str(p) for p in spec.predicates)
    return "#".join([tables, joins, preds, "" if label is None else str(label)])


def _split_qualified(token: str, what: str) -> tuple[str, str]:
    parts = token.split(".")
    if len(parts) != 2 or not all(parts):
        raise ParseError(f"malformed {what} {token!r} (expected alias.column)")
    return parts[0], parts[1]


def _structural_errors(spec: QuerySpec) -> list[str]:
    """Checks not requiring a database: alias resolution, join-tree shape."""
    errors = []
    declared = set(spec.aliases)
    for j in spec.joins:
        for side in (j.left, j.right):
            if side[0] not in declared:
                errors.append(f"join {j} uses undeclared alias {side[0]!r}")
    for p in spec.predicates:
        if p.alias not in declared:
            errors.append(f"predicate {p} uses undeclared alias {p.alias!r}")
        if p.op not in OPS:
            errors.append(f"predicate {p} has unknown operator {p.op!r}")
    if len(spec.joins) != len(spec.tables) - 1:
        errors.append(
            f"{len(spec.joins)} joins over {len(spec.tables)} tables is not a join tree"
        )
    elif spec.tables and not errors and len(spec.walk(spec.aliases[0])) < len(spec.joins):
        errors.append("join graph is disconnected")
    return errors


def parse_query(text: str) -> tuple[QuerySpec, int | None]:
    """Parse one workload line; returns the spec and its optional label."""
    line = text.rstrip("\n")
    fields = line.split("#")
    if len(fields) not in (3, 4):
        raise ParseError(f"expected 3 or 4 '#'-separated fields, got {len(fields)}")
    tables = []
    for token in fields[0].split(",") if fields[0] else []:
        parts = token.split()
        if len(parts) != 2:
            raise ParseError(f"malformed table reference {token!r} (expected 'name alias')")
        tables.append(TableRef(parts[0], parts[1]))
    if not tables:
        raise ParseError("query must reference at least one table")
    joins = []
    for token in fields[1].split(",") if fields[1] else []:
        sides = token.split("=")
        if len(sides) != 2:
            raise ParseError(f"malformed join {token!r}")
        joins.append(
            JoinEdge(_split_qualified(sides[0], "join side"), _split_qualified(sides[1], "join side"))
        )
    predicates = []
    if fields[2]:
        tokens = fields[2].split(",")
        if len(tokens) % 3:
            raise ParseError(f"predicate field has {len(tokens)} tokens, not a multiple of 3")
        for i in range(0, len(tokens), 3):
            col, op, val = tokens[i : i + 3]
            alias, column = _split_qualified(col, "predicate column")
            if op not in OPS:
                raise ParseError(f"unknown operator {op!r}")
            try:
                literal = int(val)
            except ValueError:
                raise ParseError(f"malformed literal {val!r}") from None
            predicates.append(Predicate(alias, column, op, literal))
    label: int | None = None
    if len(fields) == 4 and fields[3]:
        try:
            label = int(fields[3])
        except ValueError:
            raise ParseError(f"malformed cardinality {fields[3]!r}") from None
        if label < 0:
            raise ParseError(f"negative cardinality {label}")
    spec = QuerySpec(tuple(tables), tuple(joins), tuple(predicates))
    errors = _structural_errors(spec)
    if errors:
        raise ParseError("; ".join(errors))
    return spec, label


def validate(spec: QuerySpec, db: Database) -> list[str]:
    """All QuerySpec invariants against a concrete database; [] means ok:
    the structural checks `parse_query` runs, then `database_errors`."""
    return _structural_errors(spec) + database_errors(spec, db)


def database_errors(spec: QuerySpec, db: Database) -> list[str]:
    """The checks of `validate` that need the database: tables, columns,
    declared fk joins and attribute predicates. A spec that `parse_query`
    returned has passed the others."""
    errors = []
    alias_table = {}
    for t in spec.tables:
        if t.table not in db.tables:
            errors.append(f"unknown table {t.table!r}")
        else:
            alias_table[t.alias] = db.tables[t.table]
    for j in spec.joins:
        sides = []
        for alias, column in (j.left, j.right):
            if alias not in alias_table:
                continue
            table = alias_table[alias]
            if column not in table.columns_by_name:
                errors.append(f"unknown column {table.name}.{column} in join {j}")
            else:
                sides.append((table.name, column))
        if len(sides) == 2 and not db.is_fk_join(*sides):
            errors.append(f"join {j} does not follow a declared foreign key")
    for p in spec.predicates:
        if p.alias not in alias_table:
            continue
        table = alias_table[p.alias]
        column = table.columns_by_name.get(p.column)
        if column is None:
            errors.append(f"unknown column {table.name}.{p.column} in predicate {p}")
        elif column.kind != KIND_ATTR:
            errors.append(f"predicate {p} targets a key column")
    return errors


# ---------------------------------------------------------------------------
# Workload generation
# ---------------------------------------------------------------------------


def default_aliases(db: Database) -> dict[str, str]:
    """Short alias per table (first letters of underscore-separated parts)."""
    aliases: dict[str, str] = {}
    used: set[str] = set()
    for name in db.table_names():
        base = "".join(part[0] for part in name.split("_") if part)
        alias = base
        n = 2
        while alias in used:
            alias = f"{base}{n}"
            n += 1
        used.add(alias)
        aliases[name] = alias
    return aliases


class _GenerationPlan:
    """The schema facts the generator draws from, resolved once per
    database: the aliases and the seed candidates; per table its
    `TableRef` and its attribute `Column`s, which hold their value arrays;
    and each fk edge as a `JoinEdge`, fk side first. The fk frontier of a
    set of joined tables, the tables one fk edge away, sorted, each with
    its edges in `db.fk_edges` order, is memoised when a draw first
    reaches that set."""

    def __init__(self, db: Database):
        aliases = default_aliases(db)
        self.tables = db.table_names()
        self.referenced = db.referenced_tables()
        self._tables = {
            name: (
                TableRef(name, aliases[name]),
                tuple(c for c in db.table(name).columns if c.kind == KIND_ATTR),
            )
            for name in self.tables
        }
        self._edges = []
        for e in db.fk_edges:
            (child, child_col), (parent, parent_col) = e.child, e.parent
            edge = JoinEdge((aliases[child], child_col), (aliases[parent], parent_col))
            self._edges.append((child, parent, edge))
        self._frontiers: dict[frozenset, tuple[tuple, tuple]] = {}

    def frontier(self, current: list[str]) -> tuple[tuple, tuple]:
        """(the tables one fk edge from the tables `current`, sorted; the
        tuple of `JoinEdge`s to each)."""
        key = frozenset(current)
        found = self._frontiers.get(key)
        if found is None:
            options: dict[str, list[JoinEdge]] = {}
            for child, parent, edge in self._edges:
                if (child in key) != (parent in key):
                    options.setdefault(parent if child in key else child, []).append(edge)
            new_tables = tuple(sorted(options))
            found = new_tables, tuple(tuple(options[t]) for t in new_tables)
            self._frontiers[key] = found
        return found

    def draw(self, max_joins: int, rng: np.random.Generator) -> QuerySpec:
        """One random query: join count ~ U{0..max_joins}, join tree grown
        by uniform extension, per-table predicate count ~ U{0..#non-key
        columns}, uniform operator, literal drawn from actual column values.
        A 0-join query draws its table from every table, a joining one its
        seed table from those an fk edge references."""
        if max_joins < 0:
            raise ValueError("max_joins must be >= 0")
        num_joins = int(rng.integers(0, max_joins + 1))
        if num_joins == 0:
            candidates = self.tables
        else:
            candidates = self.referenced
            if not candidates:
                raise GenerationError("database declares no joinable tables")
        current = [candidates[rng.integers(len(candidates))]]
        edges: list[JoinEdge] = []
        for _ in range(num_joins):
            new_tables, options = self.frontier(current)
            if not new_tables:
                raise GenerationError(
                    f"cannot extend join tree beyond {len(current)} tables"
                )
            i = rng.integers(len(new_tables))
            edges.append(options[i][rng.integers(len(options[i]))])
            current.append(new_tables[i])
        predicates: list[Predicate] = []
        # By table name, which is `TableRef` order: `current` holds each table once.
        tables = [self._tables[t] for t in sorted(current)]
        for ref, attrs in tables:
            if not attrs:
                continue
            k = int(rng.integers(0, len(attrs) + 1))
            if not k:
                continue
            chosen = rng.choice(len(attrs), size=k, replace=False)
            for ci in chosen:
                column = attrs[int(ci)]
                op = OPS[int(rng.integers(len(OPS)))]
                literal = int(column.values[rng.integers(column.size)])
                predicates.append(Predicate(ref.alias, column.name, op, literal))
        return QuerySpec(tuple(ref for ref, _ in tables), tuple(edges), tuple(predicates))


def generate_workload(db: Database, n: int, max_joins: int, seed: int) -> list[QuerySpec]:
    """n pairwise-distinct queries (unique canonical strings), deterministic
    per seed, each drawn by `_GenerationPlan.draw` from one plan of `db`.
    Raises after RETRY_FACTOR duplicates in a row: the distinct queries the
    database allows are then most likely used up."""
    if n < 1:
        raise ValueError("n must be >= 1")
    plan = _GenerationPlan(db)
    rng = np.random.default_rng(seed)
    seen: set[str] = set()
    out: list[QuerySpec] = []
    duplicates = 0
    while len(out) < n:
        if duplicates >= RETRY_FACTOR:
            raise GenerationError(
                f"found only {len(out)} of {n} unique queries:"
                f" the last {duplicates} attempts were all duplicates"
            )
        spec = plan.draw(max_joins, rng)
        key = format_query(spec)
        if key in seen:
            duplicates += 1
        else:
            duplicates = 0
            seen.add(key)
            out.append(spec)
    return out


# ---------------------------------------------------------------------------
# Workload files
# ---------------------------------------------------------------------------


def read_workload(path: str | Path) -> list[tuple[int, QuerySpec, int | None]]:
    """(line number, spec, label) per query line, one query per line; blank
    lines and `--` comments are skipped."""
    out = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("--"):
            continue
        try:
            out.append((lineno, *parse_query(line)))
        except ParseError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    return out


def write_workload(
    path: str | Path, queries: list[QuerySpec] | list[tuple[QuerySpec, int | None]]
) -> None:
    lines = []
    for q in queries:
        spec, label = q if isinstance(q, tuple) else (q, None)
        lines.append(format_query(spec, label))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
