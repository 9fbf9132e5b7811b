"""Immutable in-memory columnar database.

Covers loading/synthesis of integer tables, per-column facts (bounds and
distinct count, kept on each `Column`), join key spaces (one per
referenced column, over it and all of its fk children, so every fk edge
into the column shares its codes, and each key column of a dense space
stored only as its codes), materialized uniform
samples, and rows grouped by key (`Groups`, a CSR grouping with
int32 row ids). One builder, `group_rows`, makes every grouping: the join
indexes (rows grouped by join-key code, one per coded column) for join
probing, and the value indexes (rows grouped by value) of attribute
columns for selective predicates. Each column's distinct count and index
cost one sort. A primary key whose values are a run of consecutive
integers in row order is held as that range, with no buffer. Each
non-identity join key also keeps its codes in the value-index row order
of every attribute column of its table (`JoinKey.grouped`), so the codes
of a predicate's rows are a slice. A table whose attribute columns
have no more value groups in all (the product of their key counts) than
it has rows keeps prefix-sum cubes over them (`Cube`; Ho et al., "Range
Queries in OLAP Data Cubes", SIGMOD 1997): one counting its rows
(`Database.cubes`), and, on a table with an identity key, one per key
joined to it, weighting each row by that key's fanout (`JoinKey.cube`).
So the rows, or the joined rows, of a box of value groups, one run per
column, are read with at most 2**k entries. Any other table keeps no
cube. Building a Database rewrites the storage of its tables'
dense-coded key columns as codes; after construction a Database (and its
samples/indexes) is never mutated, and nothing in it is computed lazily.
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaError, ValidationError

KIND_PK = "pk"
KIND_FK = "fk"
KIND_ATTR = "attr"
COLUMN_KINDS = (KIND_PK, KIND_FK, KIND_ATTR)

SCHEMA_FORMAT_VERSION = 1
SAMPLES_FORMAT_VERSION = 1

#: Number of latent classes driving the injected correlations.
LATENT_CLASSES = 8

#: Desk-scale default row counts (fact table plus five children).
DEFAULT_ROWS = {
    "title": 100_000,
    "movie_companies": 200_000,
    "movie_info": 200_000,
    "movie_info_idx": 200_000,
    "movie_keyword": 200_000,
    "cast_info": 200_000,
}

#: Desk-scale default materialized sample size per table.
DEFAULT_SAMPLE_SIZE = 100


@dataclass(frozen=True)
class ColumnSpec:
    """Declared column: name, kind, and (for foreign keys) the referenced column."""

    name: str
    kind: str
    ref: tuple[str, str] | None = None  # (table, column) for fk columns

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise SchemaError(f"unknown column kind {self.kind!r} for {self.name!r}")
        if self.kind == KIND_FK and self.ref is None:
            raise SchemaError(f"foreign key column {self.name!r} needs a ref")
        if self.kind != KIND_FK and self.ref is not None:
            raise SchemaError(f"non-fk column {self.name!r} must not carry a ref")


@dataclass(frozen=True)
class TableSchema:
    name: str
    columns: tuple[ColumnSpec, ...]


#: Storage types of attribute columns, narrowest first.
_ATTR_DTYPES = (np.int16, np.int32, np.int64)

#: Key spaces up to this size are grouped by numpy's stable sort of uint16
#: codes, a radix sort.
_RADIX_SPACE = 2**16

#: Rows per step when gathering grouped join codes and summing cubes.
_GATHER_CHUNK = 2**15

#: float64 bincount sums of non-negative integers are exact below this.
_FLOAT_EXACT_LIMIT = 2**53


@dataclass(frozen=True)
class Groups:
    """Rows grouped by code (CSR): the rows coded c are
    `rows[offsets[c]:offsets[c + 1]]`, in ascending row order. Row ids are
    int32, half the memory of int64."""

    rows: np.ndarray
    offsets: np.ndarray  # fanout cumsum, one more entry than the key space

    def probe(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every (probe position, row) pair whose codes are equal, as two
        parallel arrays: grouped by probe position in order, rows ascending
        within a group."""
        starts = self.offsets[codes]
        counts = self.offsets[codes + 1] - starts
        positions = np.repeat(np.arange(codes.size), counts)
        # A match's place in `rows`: its group's start plus its rank in the group.
        group_first = np.cumsum(counts) - counts
        at = np.arange(positions.size) + np.repeat(starts - group_first, counts)
        return positions, self.rows[at]


@dataclass(frozen=True)
class ValueIndex:
    """Rows of one attribute column grouped by value: the rows holding
    `keys[i]` are group i of `groups`. The keys are the column's code
    space, ascending; a key no row holds (inside a dense span, see
    `value_index`) has an empty group."""

    keys: np.ndarray  # int64
    groups: Groups
    lo: int | None = field(init=False)  # keys[0] and keys[-1] as Python ints
    hi: int | None = field(init=False)
    dense: bool = field(init=False)  # the keys are lo..hi, every integer between

    def __post_init__(self):
        size = self.keys.size
        object.__setattr__(self, "lo", int(self.keys[0]) if size else None)
        object.__setattr__(self, "hi", int(self.keys[-1]) if size else None)
        object.__setattr__(self, "dense", bool(size) and self.hi - self.lo == size - 1)

    def _below(self, literal: int, inclusive: bool) -> int:
        """Number of keys `< literal` (`<=` if inclusive). Python ints
        compare exactly at any size, so only a literal inside the column's
        range is counted: as its offset from `lo` when the keys are dense,
        else by `searchsorted`, as an int64."""
        if self.lo is None or literal < self.lo or (literal == self.lo and not inclusive):
            return 0
        if literal > self.hi or (literal == self.hi and inclusive):
            return self.keys.size
        if self.dense:
            return literal - self.lo + inclusive
        return int(self.keys.searchsorted(literal, "right" if inclusive else "left"))

    def group_span(self, op: str, literal: int) -> tuple[int, int]:
        """The groups [first, stop) whose key satisfies `key op literal`: one
        contiguous run of values, whose rows are at the positions
        [offsets[first], offsets[stop]) of `groups.rows`."""
        if op == "<":
            return 0, self._below(literal, False)
        if op == ">":
            return self._below(literal, True), self.keys.size
        return self._below(literal, False), self._below(literal, True)


def _is_range(values: np.ndarray, lo: int | None, hi: int | None) -> bool:
    """Whether `values`, two or more, are `lo..hi` in ascending row order."""
    return values.size > 1 and hi - lo == values.size - 1 and bool((np.diff(values) == 1).all())


def _dense_span(span: int, rows: int) -> bool:
    """Whether `span` consecutive values are few enough for `rows` rows to
    key every one of them: within a few times the row count."""
    return span <= 4 * rows + 1024


def value_index(values: np.ndarray, lo: int | None, hi: int | None) -> ValueIndex:
    """Value index of one column whose least and greatest values are `lo`
    and `hi` (None when it is empty). Values spanning at most 2**16, a span
    dense for the row count, are coded as their offset from the minimum,
    every value of the span a key, so `group_rows` groups them with a radix
    sort; other columns are coded by `np.unique`, its values the keys."""
    span = hi - lo + 1 if values.size else 0
    if values.size and span <= _RADIX_SPACE and _dense_span(span, values.size):
        keys = np.arange(lo, hi + 1, dtype=np.int64)
        # Offsets computed at the column's width wrap modulo 2**16, so
        # their low 16 bits are exact: every offset is below 2**16.
        codes = (values - lo).astype(np.uint16)
    else:
        keys, codes = np.unique(values, return_inverse=True)
        keys = keys.astype(np.int64)
    keys.flags.writeable = False
    return ValueIndex(keys, group_rows(codes, np.bincount(codes, minlength=keys.size)))


class Column:
    """One named integer column. Values must fit 64-bit signed integers.

    Key columns (pk, fk) are stored as int64: join-key coding does
    arithmetic on them. An attribute column is stored as the narrowest of
    int16 / int32 / int64 that holds its values, which makes predicate
    scans several times cheaper; it is only ever compared with Python-int
    literals, which numpy compares exactly at any width. An attribute
    column also carries its `ValueIndex`, built here once, so a selective
    predicate reads its rows instead of scanning the column.

    `data` is the one stored buffer. It holds the values, with two
    exceptions, whose values `values` and `take` derive where they are
    read, so the column is never stored twice:
    - a key column of a dense key space: from the `Database`'s
      construction on, it is held only as its int64 join-key codes in
      that space, and its values are `data + base`;
    - a primary key whose values are `lo..lo + size - 1` in row order (two
      rows or more) is held as that range: `data` is None and `base` is
      `lo`, until a dense key space holds it as codes.
    `base` stays None while `data` holds the values. On a held column
    `values` allocates a new array at every call: hot paths read the codes
    or `take` the rows they need.

    The column's facts are recorded here too: its row count (`size`), its
    least and greatest value (None when empty) and its distinct count,
    which is the number of nonempty groups of an attribute column's value
    index, the row count of a range, and one sort of any other key column
    (`Table` reads it to check a primary key).
    """

    def __init__(self, name: str, kind: str, values, ref: tuple[str, str] | None = None):
        self.name, self.kind, self.ref = name, kind, ref
        self.index: ValueIndex | None = None
        self.lo: int | None = None
        self.hi: int | None = None
        self.base: int | None = None
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 1:
            raise SchemaError(f"column {self.name!r} must be one-dimensional")
        self.size = values.size
        if values.size:
            self.lo, self.hi = int(values.min()), int(values.max())
        if self.kind == KIND_ATTR:
            if values.size:
                dtype = next(
                    d for d in _ATTR_DTYPES
                    if np.iinfo(d).min <= self.lo and self.hi <= np.iinfo(d).max
                )
                values = values.astype(dtype, copy=False)
            self.index = value_index(values, self.lo, self.hi)
            self.distinct_count = int(np.count_nonzero(np.diff(self.index.groups.offsets)))
        elif self.kind == KIND_PK and _is_range(values, self.lo, self.hi):
            self.distinct_count, self.base = values.size, self.lo
            values = None
        else:
            self.distinct_count = distinct_count(values)
        self.data: np.ndarray | None = values

    def __repr__(self):
        ref = f", ref={self.ref!r}" if self.ref else ""
        return f"Column({self.name!r}, {self.kind!r}, rows={self.size}{ref})"

    @property
    def values(self) -> np.ndarray:
        """The column's values: the stored buffer, or, on a held column, a
        new array derived from the codes or the range at every call."""
        if self.data is None:
            return np.arange(self.base, self.base + self.size, dtype=np.int64)
        return self.data if self.base is None else self.data + self.base

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The values at row ids `rows` (integers), derived at those rows only."""
        taken = np.array(rows, dtype=np.int64) if self.data is None else self.data.take(rows)
        if self.base is not None:
            taken += self.base
        return taken

    def _hold(self, key: JoinKey) -> JoinKey:
        """`key`, a join key coding this column, with the codes this column
        holds. A key column coded densely (`key.base` set) is held as
        `key.codes` from now on, a range too; a column already held as
        codes with the same base hands its buffer to `key`. Attribute
        columns, sparse codings and a second base (a column that is the
        child in one key space and the parent of another) keep the key as
        it is."""
        if key.base is None or self.kind == KIND_ATTR:
            return key
        if self.base is None or self.data is None:
            self.data, self.base = key.codes, key.base
        return replace(key, codes=self.data) if self.base == key.base else key


@dataclass
class Table:
    """Ordered set of equal-length, uniquely named columns with exactly one
    primary key."""

    name: str
    columns: list[Column]
    row_count: int = field(init=False)
    columns_by_name: dict[str, Column] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.columns_by_name = {c.name: c for c in self.columns}
        if len(self.columns_by_name) != len(self.columns):
            raise SchemaError(f"table {self.name!r} has duplicate column names")
        lengths = {c.size for c in self.columns}
        if len(lengths) > 1:
            raise SchemaError(f"table {self.name!r} has ragged columns")
        self.row_count = lengths.pop() if lengths else 0
        pks = [c for c in self.columns if c.kind == KIND_PK]
        if len(pks) != 1:
            raise SchemaError(
                f"table {self.name!r} must have exactly one primary key, found {len(pks)}"
            )
        pk = pks[0]
        if pk.distinct_count != self.row_count:
            raise SchemaError(f"primary key {self.name}.{pk.name} has duplicates")

    def column(self, name: str) -> Column:
        try:
            return self.columns_by_name[name]
        except KeyError:
            raise SchemaError(f"unknown column {self.name}.{name}") from None


@dataclass(frozen=True)
class FkEdge:
    """Declared join edge, child (fk) side first."""

    child: tuple[str, str]  # (table, column)
    parent: tuple[str, str]

    @property
    def key(self) -> str:
        return f"{self.child[0]}.{self.child[1]}={self.parent[0]}.{self.parent[1]}"


@dataclass(frozen=True)
class Cube:
    """A summed-area table over the value groups of all the attribute
    columns of one table (Ho et al., "Range Queries in OLAP Data Cubes",
    SIGMOD 1997): `sums[i_1, ..., i_k]` totals the weights of the rows whose
    value group on each column `columns[j]` is below `i_j`. It has one
    entry more per axis than the column has keys (`ValueIndex.keys`), the
    first all zeros; int64 and read-only."""

    columns: tuple[str, ...]
    sums: np.ndarray

    def count(self, spans: dict[str, tuple[int, int]]) -> int:
        """The total weight of the box of value groups [first, stop) that
        `spans` maps per column, a column it does not name spanning all
        its groups: at most 2**k reads, one per corner of the box that
        does not lie on the zero border. An empty span counts zero."""
        at, lows = [], []  # the corner at every stop; (axis, first) per low end
        for name in self.columns:
            span = spans.get(name)
            if span is None:
                at.append(-1)
                continue
            first, stop = span
            if first >= stop:
                return 0
            if first:
                lows.append((len(at), first))
            at.append(stop)
        item = self.sums.item
        total = item(*at)
        for subset in range(1, 1 << len(lows)):
            corner, sign = at.copy(), 1
            for bit, (axis, first) in enumerate(lows):
                if subset >> bit & 1:
                    corner[axis], sign = first, -sign
            total += sign * item(*corner)
        return total


def _cubes(table: Table, weights: list[JoinKey]) -> list[Cube | None]:
    """The cubes over all the attribute columns of `table`: first the one
    counting its rows, then one per key in `weights`, whose fanout weights
    row r by `fanout[r]` (the keys join `table`'s identity key). They are
    built when their cell count, the product of the columns' key counts,
    is at most the row count, so that a cube holds no more cells than the
    table has rows; otherwise, and on a table with no attribute column,
    each is None.

    The cubes are slices of one read-only array, summed up in one pass.
    Rows are summed into the cells `_GATHER_CHUNK` at a time, so no
    temporary spans a column, and a weighted chunk by `exact_sums`."""
    columns = [c for c in table.columns if c.index is not None]
    shape = tuple(c.index.keys.size for c in columns)
    if not columns or math.prod(shape) > table.row_count:
        return [None] * (1 + len(weights))
    sums = np.zeros((1 + len(weights), *(n + 1 for n in shape)), dtype=np.int64)
    cells = sums[(slice(None),) + (slice(1, None),) * len(shape)]
    for i in range(0, table.row_count, _GATHER_CHUNK):
        chunk = slice(i, i + _GATHER_CHUNK)
        cell = None
        for c in columns:
            code = _group_codes(c.index, c.data[chunk])
            cell = code if cell is None else cell * c.index.keys.size + code
        cells[0] += np.bincount(cell, minlength=math.prod(shape)).reshape(shape)
        for out, key in zip(cells[1:], weights):
            bound = _GATHER_CHUNK * key.max_fanout
            out += exact_sums(cell, key.fanout[chunk], out.size, bound).reshape(shape)
    for axis in range(1, sums.ndim):
        np.cumsum(cells, axis=axis, out=cells)
    sums.flags.writeable = False
    names = tuple(c.name for c in columns)
    return [Cube(names, one) for one in sums]


def exact_sums(codes: np.ndarray, weights: np.ndarray, size: int, bound: int) -> np.ndarray:
    """Per code in [0, size), the int64 sum of the non-negative integer
    `weights` of the entries coded `codes`, each sum below `bound`: a
    float64 `np.bincount` while `bound` is below 2**53, where it is exact,
    and an integer `np.add.at` otherwise."""
    if bound < _FLOAT_EXACT_LIMIT:
        return np.bincount(codes, weights=weights, minlength=size).astype(np.int64)
    sums = np.zeros(size, dtype=np.int64)
    np.add.at(sums, codes, weights)
    return sums


def _group_codes(index: ValueIndex, values: np.ndarray) -> np.ndarray:
    """The groups of `index` that `values`, each one of its keys, fall in,
    as int64: offsets from the least key when the keys are dense, and
    their ranks otherwise."""
    if index.dense:
        return np.subtract(values, index.lo, dtype=np.int64)
    return index.keys.searchsorted(values)


@dataclass(frozen=True)
class JoinKey:
    """One join column coded into a key space: that of the column it
    references, or, on a referenced column, its own, shared with all of
    its fk children. Rows of any column of a space with equal values carry
    equal codes. The keys on a referenced column's side of its edges share
    their arrays and differ only in `matches_once` and `cube`.

    `grouped` maps each attribute column of the key's table to the codes
    permuted into that column's value-index row order, int32 and
    read-only: `codes[index.groups.rows]`. The codes of a predicate's
    rows are then a slice of them. `Database` fills it for every key but
    identity keys, whose row ids are their codes, and keys whose space
    passes the int32 range.

    `cube`, when the other table of the key's edge has an identity key
    and a cube (`Database.cubes`), is the `Cube` over that table's
    attribute columns that weights each of its rows by this key's fanout
    there: the rows of this key's table that a box of value groups meets.
    None otherwise."""

    codes: np.ndarray  # per row, in [0, fanout.size)
    fanout: np.ndarray  # rows per code
    max_fanout: int
    matches_once: bool  # every row equals exactly one row of the edge's other column
    identity: bool  # codes are 0..n-1 in row order over a key space of size n
    base: int | None  # codes + base are the values (dense coding), None after np.unique
    grouped: dict[str, np.ndarray] = field(default_factory=dict)
    cube: Cube | None = None


def _code_space(
    values: Iterable[np.ndarray], bounds: list[tuple[int, int]], rows: int
) -> tuple[Iterator[np.ndarray], int, int | None]:
    """The codes of join columns in one key space, per column of `values`,
    and the space's size and base. `bounds` are the nonempty columns'
    (least, greatest) values, `rows` their row count. A span dense for the
    rows is coded as the values offset by its minimum, the base (in int64,
    so narrow columns code without wrapping), a column at a time as the
    codes are read; anything sparser by a joint `np.unique`, base None."""
    lo = min((b[0] for b in bounds), default=0)
    size = max((b[1] for b in bounds), default=lo - 1) - lo + 1
    if _dense_span(size, rows):
        # Unlike a generator expression, `map` keeps no reference to the
        # last column's values, so they can be freed once coded.
        return map(lambda v: v.astype(np.int64, copy=False) - lo, values), size, lo
    values = list(values)
    unique, inverse = np.unique(np.concatenate(values), return_inverse=True)
    return iter(np.split(inverse, np.cumsum([v.size for v in values[:-1]]))), unique.size, None


def _join_key(codes: np.ndarray, size: int, base: int | None) -> JoinKey:
    """The `JoinKey` of one column's codes in a key space of `size` codes,
    `matches_once` left to `_matched`. Codes and fanout are read-only:
    counting hands them on without a copy."""
    fanout = np.bincount(codes, minlength=size)
    for a in (codes, fanout):
        a.flags.writeable = False
    return JoinKey(
        codes,
        fanout,
        int(fanout.max()) if size else 0,
        False,
        # Strictly increasing codes, as many as the key space, in [0,
        # size), are exactly 0..size-1.
        codes.size == size and bool((codes[1:] > codes[:-1]).all()),
        base,
    )


def _matched(a: JoinKey, b: JoinKey) -> tuple[JoinKey, JoinKey]:
    """Two keys of one space, each with `matches_once` against the other."""
    return (
        replace(a, matches_once=bool((b.fanout == 1)[a.codes].all())),
        replace(b, matches_once=bool((a.fanout == 1)[b.codes].all())),
    )


class Database:
    """Named set of tables plus the declared fk-edge join universe.

    Referential integrity is verified on construction, and one join key
    space per referenced column, over it and all of its fk children, is
    precomputed (`_code_fk_edges`). The key columns of a dense space are
    held only as their codes (see `Column`), so each is stored once. Each
    non-identity key gets its grouped codes (see `JoinKey`), built here,
    int32. `cubes` maps each table to its unweighted cube (`Cube`, see
    `_cubes`), or None when it has none; each key joined to an identity
    key of a table with a cube gets the cube its fanout weights
    (`JoinKey.cube`), built here too, with the unweighted one in one pass
    over the identity key's table. These are the database's only prefix
    sums. No other column pair is coded: the declared edges are the join
    universe (`join_keys`). Per-column facts
    live on each `Column`. Construction rewrites the storage of those key
    columns in the given `Table` objects (`Column._hold`); a second
    Database built from the same tables finds them held already and codes
    the same keys.
    Nothing is computed lazily or cached later: the database is never
    mutated after construction, and its indexes live and die with it.
    """

    def __init__(self, tables: list[Table]):
        self.tables: dict[str, Table] = {}
        for t in tables:
            if t.name in self.tables:
                raise SchemaError(f"duplicate table {t.name!r}")
            self.tables[t.name] = t
        self.fk_edges: tuple[FkEdge, ...] = tuple(
            FkEdge(child=(t.name, c.name), parent=c.ref)
            for t in tables
            for c in t.columns
            if c.kind == KIND_FK
        )
        self._join_keys: dict[tuple, tuple[JoinKey, JoinKey]] = {}
        self.cubes: dict[str, Cube | None] = {}
        self._code_fk_edges()

    def _code_fk_edges(self):
        """Codes one key space per referenced column, over it and its fk
        children (`_code_space`, bounds from each `Column`), checking
        referential integrity: every child key must meet a parent row.
        Every edge into the column shares its key's codes, fanout and
        grouped codes; only `matches_once` is per edge. Each key column
        of a dense space is held as its codes (`Column._hold`). The keys
        get their cubes (`_add_cubes`) once every edge is coded."""
        children: dict[tuple[str, str], list[FkEdge]] = {}
        for e in self.fk_edges:
            pt, pc = e.parent
            if pt not in self.tables or pc not in self.tables[pt].columns_by_name:
                raise SchemaError(f"fk edge {e.key} references unknown column")
            children.setdefault(e.parent, []).append(e)
        coded = []
        for (pt, pc), edges in children.items():
            columns = [self.table(t).column(c) for t, c in [(pt, pc)] + [e.child for e in edges]]
            codes, size, base = _code_space(
                (c.values for c in columns),
                [(c.lo, c.hi) for c in columns if c.lo is not None],
                sum(c.size for c in columns),
            )
            parent = self._grouped(pt, columns[0]._hold(_join_key(next(codes), size, base)))
            for e, column, child in zip(edges, columns[1:], codes):
                child = _join_key(child, size, base)
                if not (parent.fanout > 0)[child.codes].all():
                    raise SchemaError(f"referential integrity violated on {e.key}")
                child = self._grouped(e.child[0], column._hold(child))
                coded.append((e, list(_matched(child, parent))))
        self._add_cubes(coded)
        for e, (child, parent) in coded:
            self._join_keys[(e.child, e.parent)] = (child, parent)
            self._join_keys[(e.parent, e.child)] = (parent, child)

    def _add_cubes(self, coded: list[tuple[FkEdge, list[JoinKey]]]):
        """Builds every table's cubes (`_cubes`) in one pass over its rows:
        the unweighted one into `cubes`, and, for each side of an edge in
        `coded` (its child and parent keys) whose key is an identity key,
        the one the other key's fanout weights, put on that key."""
        weighting = {name: [] for name in self.tables}  # (edge, side) per table
        for n, (e, keys) in enumerate(coded):
            for side, (table, _) in enumerate((e.child, e.parent)):
                if keys[side].identity:
                    weighting[table].append((n, 1 - side))
        for name, sides in weighting.items():
            unweighted, *weighted = _cubes(
                self.table(name), [coded[n][1][side] for n, side in sides]
            )
            self.cubes[name] = unweighted
            for (n, side), cube in zip(sides, weighted):
                keys = coded[n][1]
                keys[side] = replace(keys[side], cube=cube)

    def _grouped(self, table: str, key: JoinKey) -> JoinKey:
        """`key`, a join key of `table`, with its grouped codes (see
        `JoinKey`): none for an identity key. The codes are cast to int32
        once, so each column's gather makes its int32 result directly, and
        gathered in chunks, so `take`'s intp copy of the row ids stays
        small (gathering a whole column at once raised the label
        benchmark's set-up peak RSS by about 1.6 MB)."""
        columns = [c for c in self.table(table).columns if c.index is not None]
        if key.identity or not columns or key.fanout.size > np.iinfo(np.int32).max:
            return key
        codes = key.codes.astype(np.int32)
        grouped = {}
        for c in columns:
            rows = c.index.groups.rows
            out = grouped[c.name] = np.empty(rows.size, dtype=np.int32)
            for i in range(0, rows.size, _GATHER_CHUNK):
                np.take(codes, rows[i : i + _GATHER_CHUNK], out=out[i : i + _GATHER_CHUNK])
            out.flags.writeable = False
        return replace(key, grouped=grouped)

    def table(self, name: str) -> Table:
        if name not in self.tables:
            raise SchemaError(f"unknown table {name!r}")
        return self.tables[name]

    def column_values(self, table: str, column: str) -> np.ndarray:
        return self.table(table).column(column).values

    def join_keys(
        self, left: tuple[str, str], right: tuple[str, str]
    ) -> tuple[JoinKey, JoinKey]:
        """The precomputed keys of the declared fk edge joining the (table,
        column) pairs `left` and `right`, in that order. Raises
        ValidationError for any other pair."""
        keys = self._join_keys.get((left, right))
        if keys is None:
            raise ValidationError(
                f"join {left[0]}.{left[1]}={right[0]}.{right[1]} does not follow a declared "
                "foreign key"
            )
        return keys

    def is_fk_join(self, left: tuple[str, str], right: tuple[str, str]) -> bool:
        """Whether the (table, column) pair `left`, `right` is a declared fk
        edge, in either orientation."""
        return (left, right) in self._join_keys

    def attr_columns(self, table: str) -> tuple[str, ...]:
        return tuple(c.name for c in self.table(table).columns if c.kind == KIND_ATTR)

    def referenced_tables(self) -> tuple[str, ...]:
        return tuple(sorted({e.parent[0] for e in self.fk_edges}))

    def table_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.tables))


@dataclass
class MaterializedSample:
    """Uniform without-replacement sample of one table, kept in row order."""

    table: str
    size: int
    row_indices: np.ndarray
    rows: dict[str, np.ndarray]
    seed: int


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def distinct_count(values: np.ndarray) -> int:
    """Number of distinct values. Values whose span is dense for their row
    count (`_dense_span`, as an fk column's span of parent keys is) are
    counted as the nonzero bins of a `bincount` of their offsets from the
    least value; any other column by one sort and a count of value changes
    (numpy's `np.unique` hashes integers, which is several times slower)."""
    if not values.size:
        return 0
    lo, hi = int(values.min()), int(values.max())
    if _dense_span(hi - lo + 1, values.size):
        return int(np.count_nonzero(np.bincount(np.subtract(values, lo, dtype=np.int64))))
    s = np.sort(values)
    return int(np.count_nonzero(s[1:] != s[:-1])) + 1


def load_csv(path: str | Path, schema: TableSchema) -> Table:
    """Read a header+integer CSV file into a Table with columns in schema order."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: missing header line") from None
        declared = [c.name for c in schema.columns]
        if sorted(header) != sorted(declared):
            unknown = set(header) - set(declared)
            missing = set(declared) - set(header)
            raise SchemaError(
                f"{path}: header mismatch for table {schema.name!r}"
                f" (unknown: {sorted(unknown)}, missing: {sorted(missing)})"
            )
        positions = [header.index(name) for name in declared]
        raw: list[list[int]] = [[] for _ in declared]
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            for out, pos in zip(raw, positions):
                cell = row[pos]
                try:
                    out.append(int(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}:{lineno}: malformed integer {cell!r}"
                    ) from None
    columns = []
    for spec, vals in zip(schema.columns, raw):
        try:
            values = np.array(vals, dtype=np.int64)
        except OverflowError:
            i = next(i for i, v in enumerate(vals) if not -(2**63) <= v < 2**63)
            raise ParseError(
                f"{path}:{i + 2}: integer {vals[i]} outside the 64-bit range"
            ) from None
        columns.append(Column(spec.name, spec.kind, values, ref=spec.ref))
    return Table(schema.name, columns)


def draw_sample(table: Table, size: int, seed: int) -> MaterializedSample:
    """Uniform sample without replacement; deterministic per (table name, size, seed)."""
    if not 1 <= size <= table.row_count:
        raise ValueError(
            f"sample size {size} out of range [1, {table.row_count}] for {table.name!r}"
        )
    ss = np.random.SeedSequence([seed, size, zlib.crc32(table.name.encode())])
    rng = np.random.default_rng(ss)
    idx = np.sort(rng.choice(table.row_count, size=size, replace=False))
    rows = {c.name: c.take(idx) for c in table.columns}
    return MaterializedSample(table.name, size, idx, rows, seed)


def rows_by_code(codes: np.ndarray, key_space: int) -> np.ndarray:
    """Row positions ordered by code, rows ascending within a code: the
    stable argsort of `codes`, which lie in [0, key_space). Codes that fit
    16 bits take numpy's stable sort of uint16, a radix sort. Wider codes
    sort the unique keys `code * n + row` with numpy's default sort, several
    times faster than a stable sort of int64."""
    n = codes.size
    if key_space <= _RADIX_SPACE:
        return np.argsort(codes.astype(np.uint16, copy=False), kind="stable")
    # Join key spaces stay below 4 * rows + 1024 (`_code_space`) and
    # value codes below the row count, so this needs about 1.5e9 rows.
    assert key_space * n < 2**63, f"code * n + row leaves int64: {key_space} codes x {n} rows"
    return np.argsort(codes * n + np.arange(n))


def group_rows(codes: np.ndarray, fanout: np.ndarray) -> Groups:
    """Rows grouped by code, `fanout` rows per code: the rows ordered by
    code as int32 ids, and the fanout cumsum as offsets."""
    offsets = np.zeros(fanout.size + 1, dtype=np.int64)
    np.cumsum(fanout, out=offsets[1:])
    rows = rows_by_code(codes, fanout.size).astype(np.int32)
    for a in (rows, offsets):
        a.flags.writeable = False
    return Groups(rows, offsets)


def build_join_indexes(
    db: Database,
) -> dict[tuple[tuple[str, str], tuple[str, str]], Groups]:
    """A join index (the indexed column's rows grouped by join-key code) on
    both sides of every declared fk edge, keyed by (probing column, indexed
    column), each a (table, column) pair; probe it with the probing
    column's codes in the edge's key space."""
    indexes = {}
    # The edges into one column share its codes (`Database._code_fk_edges`),
    # and so one grouping. A column that is the child in one key space and
    # the parent of another has a coding in each, so groupings are found
    # by the codes array's identity, not by the column.
    by_codes: dict[int, Groups] = {}
    for e in db.fk_edges:
        for probing, indexed in ((e.child, e.parent), (e.parent, e.child)):
            key = db.join_keys(probing, indexed)[1]
            groups = by_codes.get(id(key.codes))
            if groups is None:
                groups = by_codes[id(key.codes)] = group_rows(key.codes, key.fanout)
            indexes[(probing, indexed)] = groups
    return indexes


def draw_all_samples(
    db: Database, size: int, seed: int
) -> dict[str, MaterializedSample]:
    return {name: draw_sample(db.table(name), size, seed) for name in db.table_names()}


# ---------------------------------------------------------------------------
# Synthetic database
# ---------------------------------------------------------------------------


@dataclass
class SynthConfig:
    """Row counts and correlation strength for the built-in star schema."""

    rows: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_ROWS))
    rho: float = 0.8

    def __post_init__(self):
        unknown = set(self.rows) - set(DEFAULT_ROWS)
        if unknown:
            raise ValueError(f"unknown synthetic tables: {sorted(unknown)}")
        merged = dict(DEFAULT_ROWS)
        merged.update(self.rows)
        self.rows = merged
        if any(n < 1 for n in self.rows.values()):
            raise ValueError("row counts must be >= 1")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")


# (table, column) -> inclusive value domain of the attribute.
_ATTR_DOMAINS: dict[tuple[str, str], tuple[int, int]] = {
    ("title", "kind_id"): (1, 7),
    ("title", "production_year"): (1880, 2020),
    ("movie_companies", "company_id"): (1, 200),
    ("movie_companies", "company_type_id"): (1, 4),
    ("movie_info", "info_type_id"): (1, 113),
    ("movie_info_idx", "info_type_id"): (1, 113),
    ("movie_keyword", "keyword_id"): (1, 500),
    ("cast_info", "person_id"): (1, 1000),
    ("cast_info", "role_id"): (1, 12),
}

_CHILD_TABLES = (
    "movie_companies",
    "movie_info",
    "movie_info_idx",
    "movie_keyword",
    "cast_info",
)

SYNTHETIC_SCHEMA: tuple[TableSchema, ...] = (
    TableSchema(
        "title",
        (
            ColumnSpec("id", KIND_PK),
            ColumnSpec("kind_id", KIND_ATTR),
            ColumnSpec("production_year", KIND_ATTR),
        ),
    ),
) + tuple(
    TableSchema(
        name,
        (ColumnSpec("id", KIND_PK), ColumnSpec("movie_id", KIND_FK, ("title", "id")))
        + tuple(
            ColumnSpec(col, KIND_ATTR)
            for (t, col) in _ATTR_DOMAINS
            if t == name
        ),
    )
    for name in _CHILD_TABLES
)


def _correlated_values(rng, rho, latent, lo, hi):
    """Blend latent-class-driven values with independent uniform draws."""
    domain = hi - lo + 1
    block = max(1, domain // LATENT_CLASSES)
    within = rng.integers(0, block, size=latent.size)
    # lo + (latent * block + within) % domain, in place; the sum is below
    # LATENT_CLASSES * block, so the modulo is the identity unless the
    # domain has fewer values than there are latent classes.
    correlated = latent * block
    correlated += within
    del within
    if LATENT_CLASSES * block > domain:
        correlated %= domain
    correlated += lo
    independent = rng.integers(lo, hi + 1, size=latent.size)
    take = rng.random(latent.size) < rho
    np.copyto(independent, correlated, where=take)
    return independent


def generate_synthetic_db(config: SynthConfig | None = None, seed: int = 0) -> Database:
    """Six-table star schema with a latent per-title variable injecting
    join-crossing correlations of strength rho.

    Child rows pick their parent with log-normal popularity weights (mildly
    tied to the latent class), so join fanouts are skewed and correlated
    across child tables the way real fact tables are; independence-based
    join estimates are systematically off on multi-child joins.
    """
    cfg = config if config is not None else SynthConfig()
    # The generator's arrays (latent classes, the popularity cdf and its
    # guide table, the last child's parent positions) are freed when
    # `_synthetic_tables` returns, before the join key spaces are coded.
    return Database(_synthetic_tables(cfg, seed))


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Guide table of a cdf that ends at 1 (Chen & Asau, 1974; Devroye,
    *Non-Uniform Random Variate Generation*, III.2.4): m = 2**k >= 2 *
    `cdf.size` buckets, bucket b holding the number of cdf entries <= b/m
    as int32. Since m is a power of two, `cdf * m` is exact, so an entry is
    <= b/m exactly when its `ceil(cdf * m)` is <= b: the counts are the
    cumsum of the bincount of those ceilings."""
    m = 1 << (2 * cdf.size - 1).bit_length()
    ceilings = np.ceil(cdf * m).astype(np.intp)
    counts = np.bincount(ceilings, minlength=m + 1)[:m]
    del ceilings
    return counts.cumsum(dtype=np.int32)


def _draw_positions(cdf: np.ndarray, starts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The positions `cdf.searchsorted(u, side="right")` of uniforms `u` in
    [0, 1), as int64, found through `starts`, the `_guide_table` of `cdf`.
    With `u = rng.random(n)` they are the draws of `rng.choice(cdf.size,
    size=n, p=p)`, `p` the probabilities whose normalized cumsum is `cdf`:
    `choice` draws those uniforms and searches them so, and leaves the
    stream where this leaves it.

    Each `u` starts past the entries below its bucket, at
    `starts[floor(u * m)]`, and steps forward while `cdf[pos] <= u`, which
    stops before the last entry, 1. A uniform reads at most 1 +
    `cdf.size` / m <= 1.5 cdf entries on average (Devroye, III.2.4), next
    to where its bucket points, so no sort is needed to keep the reads
    local."""
    pos = starts[(u * starts.size).astype(np.intp)].astype(np.int64)
    active = np.flatnonzero(cdf[pos] <= u)
    while active.size:
        pos[active] += 1
        active = active[cdf[pos[active]] <= u[active]]
    return pos


def _synthetic_tables(cfg: SynthConfig, seed: int) -> list[Table]:
    """The tables of `generate_synthetic_db`. Each temporary is dropped as
    soon as it is used, so the build's allocation peak stays low.

    A child's parent positions are the draws of `rng.choice(n_title,
    size=n, p=popularity)`, made by `_draw_positions` from `rng.random(n)`,
    the cdf `choice` computes and that cdf's guide table, the last two
    computed once per database: the same positions and the same stream of
    draws after them, so every column is as `choice` made it. The guide
    table replaces `choice`'s binary searches, which miss the cache at
    every step of a 100k-entry cdf, and needs no sort of the uniforms."""
    rng = np.random.default_rng(seed)
    n_title = cfg.rows["title"]
    latent = rng.integers(0, LATENT_CLASSES, size=n_title)
    centered = (latent - (LATENT_CLASSES - 1) / 2.0) / LATENT_CLASSES
    log_popularity = 0.8 * rng.standard_normal(n_title) + centered
    del centered
    popularity = np.exp(log_popularity)
    del log_popularity
    popularity /= popularity.sum()
    # The cdf `Generator.choice(p=popularity)` searches, computed as it does.
    cdf = popularity.cumsum()
    del popularity
    cdf /= cdf[-1]
    starts = _guide_table(cdf)

    tables: list[Table] = []
    for schema in SYNTHETIC_SCHEMA:
        n = cfg.rows[schema.name]
        keys = {"id": np.arange(1, n + 1, dtype=np.int64)}
        if schema.name == "title":
            parent_latent = latent
        else:
            parent_pos = _draw_positions(cdf, starts, rng.random(n))
            parent_latent = latent[parent_pos]
            parent_pos += 1  # a position is the title id minus one
            keys["movie_id"] = parent_pos
            del parent_pos
        columns = []
        for spec in schema.columns:
            if spec.name in keys:
                values = keys.pop(spec.name)
            else:
                lo, hi = _ATTR_DOMAINS[(schema.name, spec.name)]
                values = _correlated_values(rng, cfg.rho, parent_latent, lo, hi)
            columns.append(Column(spec.name, spec.kind, values, ref=spec.ref))
            del values
        tables.append(Table(schema.name, columns))
        del parent_latent, columns
    return tables


def load_synth_config(path: str | Path) -> tuple[SynthConfig, int | None]:
    """Key/value config file: `rows.<table>`, `rho`, `seed`. Returns (config, seed)."""
    rows: dict[str, int] = {}
    rho = SynthConfig().rho
    seed: int | None = None
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("--"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if key.startswith("rows."):
                rows[key[len("rows.") :]] = int(value)
            elif key == "rho":
                rho = float(value)
            elif key == "seed":
                seed = int(value)
            else:
                raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
        except ValueError:
            raise ParseError(f"{path}:{lineno}: malformed value {value!r}") from None
    return SynthConfig(rows=rows, rho=rho), seed


# ---------------------------------------------------------------------------
# On-disk database directory (schema.json + one CSV per table)
# ---------------------------------------------------------------------------


def save_database(db: Database, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    schema_doc = {
        "format_version": SCHEMA_FORMAT_VERSION,
        "tables": [
            {
                "name": t.name,
                "columns": [
                    {
                        "name": c.name,
                        "kind": c.kind,
                        **({"ref": f"{c.ref[0]}.{c.ref[1]}"} if c.ref else {}),
                    }
                    for c in t.columns
                ],
            }
            for t in db.tables.values()
        ],
    }
    (directory / "schema.json").write_text(
        json.dumps(schema_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for t in db.tables.values():
        with (directory / f"{t.name}.csv").open("w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow([c.name for c in t.columns])
            writer.writerows(zip(*(c.values.tolist() for c in t.columns)))


def _field(doc, key: str, where):
    """`doc[key]`, or SchemaError naming `where` when doc is no JSON object
    or lacks the key."""
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"{where}: missing {key!r}")
    return doc[key]


def _list(doc, key: str, where) -> list:
    """`doc[key]`, which must be a JSON array."""
    value = _field(doc, key, where)
    if not isinstance(value, list):
        raise SchemaError(f"{where}: {key!r} must be a list")
    return value


def _name(doc, where) -> str:
    """`doc["name"]`, a table or column name: a nonempty string."""
    name = _field(doc, "name", where)
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{where}: name {name!r} must be a nonempty string")
    return name


def is_int(value) -> bool:
    """Whether a parsed JSON value is an integer (booleans are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_database(directory: str | Path) -> Database:
    directory = Path(directory)
    schema_path = directory / "schema.json"
    if not schema_path.exists():
        raise SchemaError(f"{directory}: no schema.json found")
    doc = json.loads(schema_path.read_text(encoding="utf-8"))
    if _field(doc, "format_version", schema_path) != SCHEMA_FORMAT_VERSION:
        raise SchemaError(f"{schema_path}: unsupported format_version")
    tables = []
    for tdoc in _list(doc, "tables", schema_path):
        specs = []
        for cdoc in _list(tdoc, "columns", schema_path):
            name, kind = _name(cdoc, schema_path), _field(cdoc, "kind", schema_path)
            ref = None
            if "ref" in cdoc:
                rt, _, rc = str(cdoc["ref"]).partition(".")
                ref = (rt, rc)
            specs.append(ColumnSpec(name, kind, ref))
        table = _name(tdoc, schema_path)
        if table in (".", "..") or "/" in table or "\\" in table:
            raise SchemaError(f"{schema_path}: table name {table!r} is not a file name")
        schema = TableSchema(table, tuple(specs))
        tables.append(load_csv(directory / f"{schema.name}.csv", schema))
    return Database(tables)


def save_samples(samples: dict[str, MaterializedSample], path: str | Path) -> None:
    doc = {
        "format_version": SAMPLES_FORMAT_VERSION,
        "tables": {
            name: {
                "size": s.size,
                "seed": s.seed,
                "row_indices": s.row_indices.tolist(),
            }
            for name, s in sorted(samples.items())
        },
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def load_samples(path: str | Path, db: Database) -> dict[str, MaterializedSample]:
    """The samples saved at `path`: one per table of `db`, all of one size."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if _field(doc, "format_version", path) != SAMPLES_FORMAT_VERSION:
        raise SchemaError(f"{path}: unsupported samples format_version")
    tables = _field(doc, "tables", path)
    if not isinstance(tables, dict):
        raise SchemaError(f"{path}: 'tables' must map table names to samples")
    samples = {}
    for name, entry in tables.items():
        table = db.table(name)
        where = f"{path}: sample of {name!r}"
        indices = _field(entry, "row_indices", where)
        size, seed = _field(entry, "size", where), _field(entry, "seed", where)
        if not (is_int(size) and is_int(seed)):
            raise SchemaError(f"{where}: size and seed must be integers")
        if size < 1:
            raise SchemaError(f"{where}: size {size} is below 1 row")
        if not isinstance(indices, list) or not all(
            is_int(i) and 0 <= i < table.row_count for i in indices
        ):
            raise SchemaError(f"{where}: row_indices must be a flat list of rows in range")
        idx = np.array(indices, dtype=np.int64)
        if distinct_count(idx) != idx.size:
            raise SchemaError(f"{where}: duplicate row indices")
        if size != idx.size:
            raise SchemaError(f"{where}: size {size} but {idx.size} row indices")
        rows = {c.name: c.take(idx) for c in table.columns}
        samples[name] = MaterializedSample(name, size, idx, rows, seed)
    missing = sorted(set(db.tables) - set(samples))
    if missing:
        raise SchemaError(f"{path}: no sample of table(s) {missing}")
    if len({s.size for s in samples.values()}) > 1:
        sizes = {name: s.size for name, s in sorted(samples.items())}
        raise SchemaError(f"{path}: samples differ in size {sizes}")
    return samples
