"""Ground-truth engine: exact cardinalities for labeling, predicate
evaluation over materialized samples, and the labeled-corpus file formats.

Cardinalities are exact bag-semantics counts of the join+filter result.
Each alias's predicates first select its rows (`select`), every alias
before any count, so that a query with an alias that selects no row
counts 0 at once. Every attribute column carries a value index
(`storage.ValueIndex`: the sorted keys of its code space over a
`storage.Groups` of its rows grouped by key), so each predicate's range
of rows is known from offsets alone (sorted projections, as in
Stonebraker et al., "C-Store", VLDB 2005).
A table may also carry one prefix-sum cube over the value groups of all
its attribute columns (`storage.Cube`; Ho et al., "Range Queries in OLAP
Data Cubes", SIGMOD 1997). Counting serves the
queries `query.validate` accepts, joins along declared fk edges and
predicates on attribute columns, and raises ValidationError where it
meets any other. A selection takes one of three forms:
- a single predicate selects its value-index range (`IndexRange`): the
  kept rows, or, when they are more than half the table, the excluded
  rows around them, one range for `<` and `>` and two for `=`. Their row
  ids are slices of the index, and so are their codes on any join key:
  `storage.Database` keeps each non-identity key's codes permuted into
  each attribute column's value-index row order (`JoinKey.grouped`);
- several predicates on a table with a cube select a box of value
  groups (`Box`): one run per column, the runs of predicates on one
  column intersected. Its row count is read from the cube with at most
  2**k reads, and its rows are listed only when the alias sends sums or
  the root must gather, as below;
- on a table with no cube, they select such runs too, listed at once:
  the row ids of the narrowest run when it holds at most a quarter of
  the table, with the predicates on other columns checked at those rows
  only, and otherwise the boolean mask of a scan of every predicate.

Rather than materializing intermediates, the acyclic join tree is then
counted bottom-up, one weight vector per alias: over its selected rows,
or over every row, with a mask as a boolean weight. Each child subtree
contributes its per-key weight sums gathered through the row's join key.
This message passing (Yannakakis, VLDB 1981) gives the same count from
any root, and needs no recursion: one loop over the edges of
`QuerySpec.walk(root)` in reverse, which visits children before parents.
The root is the largest alias that has predicates; when none has, it is
the alias with the most joins, the largest among those.
- A leaf with an index range sends the `np.bincount` of its kept rows'
  codes, or its fanout less the bincount of its excluded rows' codes: a
  slice of the grouped codes either way, with no scan, `compress` or
  gather. An inner alias weights the kept rows of its range, or scans its
  predicate into a mask when it excludes. An alias that sends through an
  identity key scans its predicate into a mask, which is its sums there.
  An alias with a box lists its rows to send its sums.
- The root sends no sums and gathers its children's sums only at its
  selected rows (row ids, slices, or `np.compress` of its codes by its
  mask), so its other rows are neither gathered nor multiplied. A root
  with an index range or a box whose only factor is an unfiltered leaf's
  fanout, through the root's identity key, gathers nothing when its table
  has a cube: a run covers whole value groups, so its count is read from
  the cube that fanout weights (`JoinKey.cube`), kept or excluded alike.
  A root whose children send no sums counts its selected rows, a box's
  from its cube. Any other root that excludes sums over all of its rows and
  subtracts the excluded rows' share, where that all-rows sum needs no
  gather: the fanout-weighted sum of its one child's sums, or the
  product over every row through identity keys. Otherwise, or when that
  sum could reach 2**63, it counts its kept rows.
- An unfiltered alias sends only its precomputed fanout vector, or
  nothing when each of its rows meets exactly one row of its parent (as
  from the fk side).

Join columns are coded into the key spaces `storage.Database` precomputes,
one per referenced column. An identity key (codes 0..n-1 in row order
over a key space of size n, as every synthetic primary key) needs no
gather back, as row ids are their own codes, and weights on every row are
their own sums; selected rows scatter their weights to their row ids
(boolean sums without weights), cheaper than a bincount. On any other key,
selected rows and a boolean mask are counted by an integer `np.bincount`
of the codes they select, and integer weights by `storage.exact_sums`: a
float64 `np.bincount`, or `np.add.at` once the sums could pass 2**53.
Masks, row ids, fanouts and key codes are handed on without copies and
never written in place. Each weight vector carries an upper bound built
from cached fanout maxima, so a count that could leave the int64 range
raises instead of returning a wrapped value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .query import LabeledQuery, Predicate, QuerySpec, format_query, read_workload, write_workload
from .storage import Column, Database, JoinKey, MaterializedSample, Table, exact_sums

_OPS = {"=": np.equal, "<": np.less, ">": np.greater}

#: Join weights are int64; their bounds must stay below this.
_INT64_LIMIT = 2**63
#: A selection of several predicates is listed as row ids when its
#: narrowest run of value groups holds at most this share of the table's
#: rows, and as a boolean mask otherwise (a single predicate is an
#: `IndexRange`; the timings below took the narrowest predicate's run,
#: not intersected with others on its column). A gather by row id costs about 20 times a scanned row, but the rows of
#: a mask must still be compressed out for counting. Exact counts of the
#: generated 0-2-join queries on the reference database that hold an
#: alias with two or more predicates (about 1,470 of 3,000 per seed, each
#: timed once per pass, best of six passes, shares interleaved) took, at
#: shares 1/8, 1/4, 3/8, 1/2 and 3/4, 394, 375, 380, 404 and 450 ms (seed
#: 5), 370, 355, 367, 387 and 437 ms (seed 6) and 369, 351, 358, 375 and
#: 421 ms (seed 7). The codes of those row ids are gathered by
#: `codes.take(rows)`: narrowing the grouped codes' slice by the same
#: boolean (`np.compress`) was slower except for a 50k-row range that
#: keeps 90% (cast_info, 2k / 10k / 50k-row ranges keeping 10%, 50% or
#: 90%: 1.6-196 us against 5.0-133 us).
_ROW_ID_SHARE = 1 / 4


def predicate_mask(values_of, predicates) -> np.ndarray | None:
    """Boolean conjunction of `predicates`, reading each column through
    `values_of(column)`; None for an empty conjunction."""
    mask = None
    for p in predicates:
        m = _OPS[p.op](values_of(p.column), p.literal)
        mask = m if mask is None else (mask & m)
    return mask


@dataclass(slots=True)
class IndexRange:
    """A single predicate's selection, read from its column's value index:
    the rows at positions [start, stop) of `index.groups.rows`, one run of
    values, those of the groups [group_start, group_stop). When
    `excluded`, the selection is read as the rows around the run, which
    the predicate leaves out (`select` excludes when fewer are left out
    than kept). Those rows' ids, and their codes on any join
    key with grouped codes (`storage.JoinKey`), are slices: the run, or
    the one or two around it. Never modified (not frozen, which would
    cost a microsecond per selection)."""

    predicate: Predicate
    column: Column
    start: int
    stop: int
    excluded: bool
    group_start: int
    group_stop: int

    @property
    def size(self) -> int:
        """Number of selected rows."""
        return self.stop - self.start

    @property
    def spans(self) -> dict[str, tuple[int, int]]:
        """Its run of value groups, by column, as `storage.Cube.count`
        reads a box."""
        return {self.column.name: (self.group_start, self.group_stop)}

    def kept(self) -> IndexRange:
        """The same selection, as the selected rows."""
        if not self.excluded:
            return self
        return IndexRange(self.predicate, self.column, self.start, self.stop, False,
                          self.group_start, self.group_stop)

    def mask(self) -> np.ndarray:
        """The same selection, as the boolean mask of a scan."""
        return predicate_mask(lambda _: self.column.values, (self.predicate,))

    def slice(self, grouped: np.ndarray) -> np.ndarray:
        """`grouped`, one entry per row in value-index order, at the run's
        rows, or at the rows around it when excluded."""
        if not self.excluded:
            return grouped[self.start : self.stop]
        if not self.start or self.stop == grouped.size:
            return grouped[: self.start] if self.start else grouped[self.stop :]
        return np.concatenate((grouped[: self.start], grouped[self.stop :]))

    def codes(self, key: JoinKey) -> np.ndarray:
        """The codes of `key`, a join key of the column's table, at the rows
        `slice` reads: a slice of its grouped codes, or, on a key without
        them (`JoinKey.grouped`), the row ids themselves on an identity key
        and their codes gathered by row id on a key space past int32."""
        grouped = key.grouped.get(self.column.name)
        if grouped is not None:
            return self.slice(grouped)
        rows = self.slice(self.column.index.groups.rows)
        return rows if key.identity else key.codes.take(rows)


@dataclass(slots=True)
class Box:
    """Several predicates on a table with a cube (`Database.cubes`, over
    every attribute column): they select a box of value groups, one run
    [first, stop) per column (`spans`), the runs of predicates on one
    column intersected. `size`, its row count, is read from the cube, so
    no row is listed until a path must gather (`rows`). Never modified."""

    table: Table
    predicates: tuple[Predicate, ...]
    spans: dict[str, tuple[int, int]]
    size: int

    def rows(self) -> np.ndarray:
        """The same selection as row ids or a mask, as `_rows_in` lists
        it."""
        return _rows_in(self.table, self.predicates, self.spans)


def _codes(key: JoinKey, rows) -> np.ndarray:
    """The codes of `key` at `rows`: row ids or an `IndexRange`."""
    if isinstance(rows, IndexRange):
        return rows.codes(key)
    return rows if key.identity else key.codes.take(rows)


def key_sums(
    key: JoinKey, weights: np.ndarray | None, bound: int, rows=None
) -> tuple[np.ndarray, int]:
    """Per key code, the sum of `weights` (None: all ones) over the rows
    coded `key`, and an upper bound on those sums given `bound` on the
    weights. The weights belong to `rows` (row ids or an `IndexRange`), or
    to every row when `rows` is None. On an identity key, weights on every
    row are their own sums, and selected rows scatter their weights (True
    without weights) to their row ids. An excluded range, which carries no
    weights, counts as the fanout less the excluded rows' counts. Sums are
    exact while the returned bound stays below 2**63."""
    if isinstance(rows, IndexRange) and rows.excluded:
        assert weights is None, "only an unweighted selection is sent as its complement"
        sums = key.fanout - np.bincount(rows.codes(key), minlength=key.fanout.size)
        return sums, bound * key.max_fanout
    if rows is not None:
        codes = _codes(key, rows)
    elif weights is None:
        return key.fanout, key.max_fanout
    elif key.identity:
        return weights, bound
    elif weights.dtype == bool:
        codes, weights = np.compress(weights, key.codes), None
    else:
        codes = key.codes
    if key.identity:
        sums = np.zeros(key.fanout.size, dtype=bool if weights is None else weights.dtype)
        sums[codes] = True if weights is None else weights
        return sums, bound
    bound *= key.max_fanout
    if weights is None:
        return np.bincount(codes, minlength=key.fanout.size), bound
    return exact_sums(codes, weights, key.fanout.size, bound), bound


def _is_mask(sel) -> bool:
    return isinstance(sel, np.ndarray) and sel.dtype == bool


def _product(factors: list, sel, w: np.ndarray | None = None) -> np.ndarray | None:
    """`w` (None: all ones) times each factor, a child's per-key sums
    `(own key, sums)` gathered through the own key at the rows of `sel`:
    every row (None), the rows of a boolean mask, row ids or an
    `IndexRange`."""
    for own, sums in factors:
        if sel is None:
            matched = sums if own.identity else sums.take(own.codes)
        elif _is_mask(sel) and own.identity:
            matched = np.compress(sel, sums)
        elif _is_mask(sel):
            matched = sums.take(np.compress(sel, own.codes))
        else:
            matched = sums.take(_codes(own, sel))
        w = matched if w is None else w * matched
    return w


def _total(w: np.ndarray) -> int:
    return int(np.count_nonzero(w)) if w.dtype == bool else int(w.sum())


def _all_rows_total(factors: list) -> int | None:
    """The sum over every row of the root of its factors' product, when
    that needs no gather: the product over every row when each own key is
    an identity key, or the fanout-weighted sum of one factor's sums. None
    otherwise."""
    if all(own.identity for own, _ in factors):
        return _total(_product(factors, None))
    if len(factors) == 1:
        own, sums = factors[0]
        return int(np.dot(own.fanout, sums))
    return None


def _sums_up(
    rows, kids: list, bound: int, own: JoinKey, up: JoinKey
) -> tuple[np.ndarray, int] | None:
    """The result counts of an alias's subtree summed per code of `up`,
    its join key to its parent (`own` on the parent's side), and their
    bound (`key_sums`): its selection `rows` (see `select`) weighted by
    its children's factors `kids`, whose product `bound` caps. A box
    lists its rows here (`Box.rows`), as only an alias that sends sums
    must. Row ids and an index range stay the rows; a mask is a boolean
    weight on every row. An index range becomes a scanned mask when its
    excluded rows are weighted, and when it sends through an identity
    key: there, a mask on every row is its own sums, where the range's
    rows would be scattered (a scan of 100k int16 values takes about
    10 us, a scatter of 10k rows about 50 us). None when an unfiltered
    leaf meets exactly one row of each parent row. A function of its
    own, so that the weights die before the parent's product is formed."""
    if isinstance(rows, Box):
        rows = rows.rows()
    if isinstance(rows, IndexRange) and (up.identity or (kids and rows.excluded)):
        rows = rows.mask()
    if _is_mask(rows):
        rows, w = None, _product(kids, None, rows)
    else:
        w = _product(kids, rows)
    if rows is None and w is None and own.matches_once:
        return None
    return key_sums(up, w, bound, rows)


def _count_from(
    db: Database, spec: QuerySpec, sels: dict, root: str, selected: int
) -> int:
    """Exact count of the join tree rooted at `root`, of whose rows
    `selected` pass its predicates; the same from any root. `sels` maps
    every alias to its selection by `select`.

    The root sends no sums: it multiplies its children's sums gathered at
    its selected rows only. An index range or a box whose only factor is
    the fanout of an unfiltered leaf, joined through the root's identity
    key, counts as the box of value groups read from the cube that
    fanout weights (`JoinKey.cube`), if any, with no gather, kept or
    excluded.
    Any other box lists its rows (`Box.rows`) to gather. Any other
    excluded range counts as the total over every row less the excluded
    rows' share, when that total needs no gather (`_all_rows_total`) and
    cannot reach 2**63; otherwise as its kept rows.

    Every other alias sends its sums (`_sums_up`), children before
    parents: one loop over the reversed walk from the root.

    Raises ValidationError when the count could exceed the int64 range.
    """
    # alias -> its children's factors (own key, sums), and their bound
    factors = {a: [] for a in spec.aliases}
    bounds = dict.fromkeys(spec.aliases, 1)
    for parent, own_col, alias, up_col in reversed(spec.walk(root)):
        own, up = db.join_keys(
            (spec.table_of(parent), own_col), (spec.table_of(alias), up_col)
        )
        sent = _sums_up(sels[alias], factors.pop(alias), bounds.pop(alias), own, up)
        if sent is not None:
            factors[parent].append((own, sent[0]))
            bounds[parent] *= sent[1]
    factors, bound = factors[root], bounds[root]
    if not factors:
        return selected
    # Bounds only grow towards the root, so this also covers every product
    # formed on the way: none of them wrapped unless this raises.
    if bound * selected >= _INT64_LIMIT:
        raise ValidationError(
            f"join count of {format_query(spec)} may exceed the int64 range"
        )
    sel = sels[root]
    # `own` and `up` still key the walk's first edge, at the root, which the
    # loop visits last.
    if len(factors) == 1 and isinstance(sel, (IndexRange, Box)):
        (key, sums), = factors
        if up.cube is not None and key is own and sums is up.fanout:
            return up.cube.count(sel.spans)
    if isinstance(sel, Box):
        sel = sel.rows()
    if isinstance(sel, IndexRange) and sel.excluded:
        total = _all_rows_total(factors) if bound * sel.column.size < _INT64_LIMIT else None
        if total is not None:
            return total - _total(_product(factors, sel))
        sel = sel.kept()
    return _total(_product(factors, sel))


def select(db: Database, table: Table, predicates):
    """The rows of `table` passing the conjunction `predicates`, each on an
    attribute column: None for no predicate. A single predicate selects
    its value-index range as an `IndexRange`, excluded when it keeps more
    than half the rows. Several predicates select their runs of value
    groups, one per column (`_spans`): a `Box` when the table has a cube
    (`Database.cubes`), and otherwise the rows `_rows_in` lists. Raises
    ValidationError for a predicate on a key column."""
    if not predicates:
        return None
    if len(predicates) > 1:
        spans = _spans(table, predicates)
        cube = db.cubes[table.name]
        if cube is None:
            return _rows_in(table, predicates, spans)
        return Box(table, predicates, spans, cube.count(spans))
    (p,) = predicates
    first, last = _group_span(table, p)
    column = table.column(p.column)
    offsets = column.index.groups.offsets
    start, stop = int(offsets[first]), int(offsets[last])
    return IndexRange(p, column, start, stop, 2 * (stop - start) > table.row_count, first, last)


def _group_span(table: Table, p: Predicate) -> tuple[int, int]:
    """The run of value groups [first, stop) that `p` keeps on its column's
    value index. Raises ValidationError for a predicate on a key column,
    which carries no value index."""
    index = table.column(p.column).index
    if index is None:
        raise ValidationError(f"predicate {p} targets a key column")
    return index.group_span(p.op, p.literal)


def _spans(table: Table, predicates) -> dict[str, tuple[int, int]]:
    """Per column of `predicates`, the run of value groups [first, stop)
    its predicates keep, those of predicates on one column intersected
    (first >= stop when empty). Raises ValidationError for a predicate on
    a key column."""
    spans = {}
    for p in predicates:
        first, stop = _group_span(table, p)
        if p.column in spans:
            first, stop = max(first, spans[p.column][0]), min(stop, spans[p.column][1])
        spans[p.column] = first, stop
    return spans


def _rows_in(table: Table, predicates, spans: dict[str, tuple[int, int]]) -> np.ndarray:
    """The rows of `table` passing `predicates`, given their columns' runs
    of value groups `spans` (`_spans`): the row ids of the narrowest run
    when it holds at most `_ROW_ID_SHARE` of the rows, with the predicates
    on other columns checked at those rows only, and otherwise the
    boolean mask of a scan of every predicate."""
    narrowest = rows = None
    for name, (first, stop) in spans.items():
        groups = table.column(name).index.groups
        run = groups.rows[groups.offsets[first] : groups.offsets[stop]]  # empty if first >= stop
        if rows is None or run.size < rows.size:
            narrowest, rows = name, run
    if rows.size > _ROW_ID_SHARE * table.row_count:
        return predicate_mask(lambda c: table.column(c).values, predicates)
    for p in predicates:
        if p.column != narrowest:
            rows = np.compress(predicate_mask(lambda c: table.column(c).take(rows), (p,)), rows)
    return rows


def _selected(table: Table, sel) -> int:
    """Number of rows a `select` selection holds."""
    if sel is None:
        return table.row_count
    if isinstance(sel, (IndexRange, Box)):
        return sel.size
    return int(np.count_nonzero(sel)) if sel.dtype == bool else sel.size


def true_cardinality(db: Database, spec: QuerySpec) -> int:
    """Exact result count of the join tree under bag semantics (no dedup).

    Raises ValidationError when the count could exceed the int64 range,
    and at a join off the declared fk edges or a predicate on a key column
    (`query.validate` rejects both), also when an alias selects no row.
    """
    tables, sels, counts = {}, {}, {}
    for a in spec.aliases:
        tables[a] = table = db.table(spec.table_of(a))
        sels[a] = sel = select(db, table, spec.predicates_of(a))
        counts[a] = _selected(table, sel)
    if not all(counts.values()):
        # Selecting read every predicate's value index; every join key is
        # looked up too, so that a query `query.validate` rejects raises
        # rather than counting 0.
        for j in spec.joins:
            db.join_keys(*((spec.table_of(a), c) for a, c in (j.left, j.right)))
        return 0
    # Every alias but the root sends its per-key sums: a filtered alias
    # scatters or bincounts its selected rows (every row, under a mask)
    # into the key space. The largest filtered alias sends none and works
    # on its selected rows only; in a star it is a child, whose sums would
    # take a bincount over its parent's key space rather than a scatter.
    # With no filter, unfiltered leaves send only their fanouts, so the
    # alias with the most joins (the centre of a star) multiplies them with
    # no gather; ties go to the largest.
    filtered = [a for a in spec.aliases if spec.predicates_of(a)]
    if filtered:
        root = max(filtered, key=lambda a: tables[a].row_count)
    else:
        root = max(spec.aliases, key=lambda a: (len(spec.joins_of(a)), tables[a].row_count))
    if not spec.joins:
        return counts[root]
    return _count_from(db, spec, sels, root, counts[root])


def eval_predicates_on_sample(
    sample: MaterializedSample, predicates: tuple[Predicate, ...]
) -> np.ndarray:
    """Boolean bitmap over the sample rows; all ones for an empty conjunction."""
    mask = predicate_mask(lambda c: sample.rows[c], predicates)
    if mask is None:
        return np.ones(sample.size, dtype=bool)
    return mask


def query_bitmaps(
    spec: QuerySpec, samples: dict[str, MaterializedSample]
) -> dict[str, np.ndarray]:
    """One bitmap per referenced base table (joins never affect bitmaps)."""
    return {
        a: eval_predicates_on_sample(samples[spec.table_of(a)], spec.predicates_of(a))
        for a in spec.aliases
    }


def label_query(
    db: Database, spec: QuerySpec, samples: dict[str, MaterializedSample]
) -> LabeledQuery | None:
    """Labeled query, or None when the result is empty."""
    card = true_cardinality(db, spec)
    if card == 0:
        return None
    return LabeledQuery(spec, card, query_bitmaps(spec, samples))


def label_workload(
    db: Database,
    specs: list[QuerySpec],
    samples: dict[str, MaterializedSample],
) -> tuple[list[LabeledQuery], int]:
    """Label all queries, dropping empty results; returns (kept, dropped)."""
    results = [label_query(db, s, samples) for s in specs]
    kept = [r for r in results if r is not None]
    return kept, len(results) - len(kept)


# ---------------------------------------------------------------------------
# Labeled corpus files: workload lines with cardinalities, plus a bitmap
# sidecar with one line per query, `alias:hex` comma-separated (bit 0 =
# sample row 0, little-endian within bytes).
# ---------------------------------------------------------------------------


def bitmap_to_hex(bitmap: np.ndarray) -> str:
    return np.packbits(bitmap.astype(np.uint8), bitorder="little").tobytes().hex()


def hex_to_bitmap(text: str, size: int) -> np.ndarray:
    """The `size` bits that `bitmap_to_hex` wrote as `text`, `(size + 7)
    // 8` bytes with zero pad bits; ParseError for any other text."""
    try:
        raw = np.frombuffer(bytes.fromhex(text), dtype=np.uint8)
    except ValueError:
        raise ParseError(f"malformed hex bitmap {text!r}") from None
    if raw.size != (size + 7) // 8:
        raise ParseError(f"bitmap holds {8 * raw.size} bits, expected {size}")
    if size % 8 and raw[-1] >> size % 8:  # the pad bits, in the last byte
        raise ParseError(f"bitmap sets a pad bit, expected {size} bits")
    return np.unpackbits(raw, count=size, bitorder="little").astype(bool)


def write_labeled_corpus(
    labeled: list[LabeledQuery],
    corpus_path: str | Path,
    bitmaps_path: str | Path,
    sample_size: int,
) -> None:
    """The corpus as workload lines with cardinalities, and its sidecar."""
    write_workload(corpus_path, [(q.spec, q.true_cardinality) for q in labeled])
    rows = [f"-- sample_size={sample_size}"]
    for q in labeled:
        rows.append(
            ",".join(f"{a}:{bitmap_to_hex(q.bitmaps[a])}" for a in sorted(q.bitmaps))
        )
    Path(bitmaps_path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def read_labeled_corpus(
    corpus_path: str | Path, bitmaps_path: str | Path
) -> tuple[list[LabeledQuery], int]:
    """Returns (queries, sample_size), each query with its sidecar bitmaps.
    The corpus lines are parsed first; a missing sidecar then raises
    ValidationError."""
    queries: list[LabeledQuery] = []
    for lineno, spec, label in read_workload(corpus_path):
        if label is None:
            raise ParseError(f"{corpus_path}:{lineno}: missing cardinality label")
        queries.append(LabeledQuery(spec, label, {}))
    try:
        text = Path(bitmaps_path).read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        raise ValidationError(f"missing bitmap sidecar {bitmaps_path}") from None
    header = next((l for l in text if l.startswith("--")), None)
    m = re.match(r"--\s*sample_size=(\d+)", header or "")
    if not m:
        raise ParseError(f"{bitmaps_path}: missing '-- sample_size=N' header")
    size = int(m.group(1))
    data_lines = [
        (lineno, l) for lineno, l in enumerate(text, 1) if l.strip() and not l.startswith("--")
    ]
    if len(data_lines) != len(queries):
        raise ParseError(
            f"{bitmaps_path}: {len(data_lines)} bitmap lines for {len(queries)} queries"
        )
    for q, (lineno, line) in zip(queries, data_lines):
        where = f"{bitmaps_path}:{lineno}"
        bitmaps = {}
        for token in line.split(","):
            alias, _, hexpart = token.partition(":")
            if not hexpart:
                raise ParseError(f"{where}: malformed bitmap token {token!r}")
            try:
                bitmaps[alias] = hex_to_bitmap(hexpart, size)
            except ParseError as exc:
                raise ParseError(f"{where}: {exc}") from None
        if set(bitmaps) != set(q.spec.aliases):
            raise ParseError(f"{where}: bitmap aliases {sorted(bitmaps)} do not match query")
        q.bitmaps = bitmaps
    return queries, size
