"""Ground-truth engine: exact cardinalities for labeling, predicate
evaluation over materialized samples, and the labeled-corpus file formats.

Cardinalities are exact bag-semantics counts of the join+filter result.
Each alias's predicates first select its rows (`select_rows`). Every
attribute column carries a value index (`storage.ValueIndex`: the sorted
keys of its code space over a `storage.Groups` of its rows grouped by
key), so each predicate's range of rows is known from offsets alone.
When the narrowest range holds at most a quarter of the table, the
selection is that range's row ids, with the other predicates checked at
those rows only; otherwise it is the boolean mask of a scan of every
predicate (sorted projections, as in Stonebraker et al., "C-Store", VLDB
2005).

Rather than materializing intermediates, the acyclic join tree is then
counted bottom-up, one weight vector per alias: over its row ids, or over
every row, with a mask as a boolean weight. Each child subtree
contributes its per-key weight sums gathered through the row's join key.
This message passing (Yannakakis, VLDB 1981) gives the same count from
any root. The root is the largest alias that has predicates; when none
has, it is the alias with the most joins, the largest among those. The
root sends no sums and gathers its children's sums only at its selected
rows (row ids, or `np.compress` of its codes by its mask), so its other
rows are neither gathered nor multiplied. An unfiltered alias sends only
its precomputed fanout vector, or nothing when each of its rows meets
exactly one row of its parent (as from the fk side).

Join columns are coded into the shared key spaces `storage.Database`
precomputes per fk edge. An identity key (codes 0..n-1 in row order over
a key space of size n, as every synthetic primary key) needs neither a
scatter into per-key sums nor a gather back: the weights are their own
sums, and row ids are their own codes. Any other unique key scatters. On
a non-unique key, row ids and a boolean mask are counted by an integer
`np.bincount` of the codes they select, and integer weights by a float64
`np.bincount`, or `np.add.at` once the sums could pass 2**53. Masks, row
ids, fanouts and key codes are handed on without copies and never
written in place. Each weight vector carries an upper bound built from
cached fanout maxima, so a count that could leave the int64 range raises
instead of returning a wrapped value.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .query import LabeledQuery, Predicate, QuerySpec, format_query, read_workload
from .storage import Database, JoinKey, MaterializedSample, Table

_OPS = {"=": np.equal, "<": np.less, ">": np.greater}

#: Join weights are int64; their bounds must stay below this.
_INT64_LIMIT = 2**63
#: float64 bincount sums of non-negative integers are exact below this.
_FLOAT_EXACT_LIMIT = 2**53
#: A selection is kept as row ids when its narrowest predicate holds at
#: most this share of the table's rows, and as a boolean mask otherwise.
#: A gather by row id costs about 20 times a scanned row, but the rows of
#: a mask must still be compressed out for counting. Exact counts of 500
#: 0-2-join queries on the reference database (each query timed once per
#: pass, best of six or eight passes, summed over six query seeds) took
#: 932 ms at a share of 1/8 and 872 ms at 1/4, against 1084 ms counting
#: by masks alone, as before value indexes; on two more seeds 1/4 took
#: 417 ms, 3/8 427 ms and 1/2 426 ms.
_ROW_ID_SHARE = 1 / 4


def predicate_mask(values_of, predicates) -> np.ndarray | None:
    """Boolean conjunction of `predicates`, reading each column through
    `values_of(column)`; None for an empty conjunction."""
    mask = None
    for p in predicates:
        m = _OPS[p.op](values_of(p.column), p.literal)
        mask = m if mask is None else (mask & m)
    return mask


def key_sums(
    key: JoinKey, weights: np.ndarray | None, bound: int, rows: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Per key code, the sum of `weights` (None: all ones) over the rows
    coded `key`, and an upper bound on those sums given `bound` on the
    weights. The weights belong to `rows` (row ids), or to every row when
    `rows` is None. Boolean weights and row ids without weights on a unique
    key give boolean sums; on an identity key, weights on every row are
    their own sums. Sums are exact while the returned bound stays below
    2**63."""
    if rows is not None:
        codes = rows if key.identity else key.codes.take(rows)
    elif weights is None:
        return key.fanout, key.max_fanout
    elif key.identity:
        return weights, bound
    elif weights.dtype == bool:
        codes, weights = np.compress(weights, key.codes), None
    else:
        codes = key.codes
    if key.max_fanout <= 1:
        sums = np.zeros(key.fanout.size, dtype=bool if weights is None else weights.dtype)
        sums[codes] = True if weights is None else weights
        return sums, bound
    bound *= key.max_fanout
    if weights is None:
        return np.bincount(codes, minlength=key.fanout.size), bound
    if bound < _FLOAT_EXACT_LIMIT:
        sums = np.bincount(codes, weights=weights, minlength=key.fanout.size)
        return sums.astype(np.int64), bound
    sums = np.zeros(key.fanout.size, dtype=np.int64)
    np.add.at(sums, codes, weights)
    return sums, bound


def _take(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`values` at `rows`: the rows a boolean mask selects, or row ids.
    `take` copies int32 ids to intp first, as fancy indexing does, but it
    still gathers in about two thirds of fancy indexing's time."""
    return np.compress(rows, values) if rows.dtype == bool else values.take(rows)


def _subtree_weights(
    db: Database, spec: QuerySpec, sels: dict, adj: dict, alias: str, parent: str | None
) -> tuple[np.ndarray | None, np.ndarray | None, int]:
    """Result counts of the join subtree rooted at alias, per row of
    `rows`, the alias's selected rows (None: every row). Returns (rows,
    weights, bound): weights None are all ones, boolean ones zero or one,
    and `bound` caps them. Row ids stay the rows. A mask is a boolean
    weight on every row, except at the root of the tree (no parent), where
    it stays the rows, so that the root's other rows are neither gathered
    nor multiplied. A module-level function rather than a closure: a
    recursive closure is a reference cycle, which would keep the
    selections alive until the next garbage collection."""
    rows, w = sels[alias], None
    if parent is not None and rows is not None and rows.dtype == bool:
        rows, w = None, rows
    bound = 1
    for other, own_col, other_col in adj[alias]:
        if other == parent:
            continue
        own, theirs = db.join_keys(
            (spec.table_of(alias), own_col), (spec.table_of(other), other_col)
        )
        child_rows, child_w, child_bound = _subtree_weights(db, spec, sels, adj, other, alias)
        if child_rows is None and child_w is None and own.matches_once:
            continue  # every row meets exactly one row of `other`
        sums, sums_bound = key_sums(theirs, child_w, child_bound, child_rows)
        bound *= sums_bound
        if own.identity:
            matched = sums if rows is None else _take(sums, rows)
        else:
            matched = sums.take(own.codes if rows is None else _take(own.codes, rows))
        w = matched if w is None else w * matched
    return rows, w, bound


def _count_from(
    db: Database, spec: QuerySpec, sels: dict, root: str, selected: int
) -> int:
    """Exact count of the join tree rooted at `root`, of whose rows
    `selected` pass its predicates; the same from any root. `sels` maps
    each alias to its selection (see `select_rows`).

    Raises ValidationError when the count could exceed the int64 range.
    """
    # alias -> [(neighbor alias, own column, neighbor column)]
    adj: dict[str, list[tuple[str, str, str]]] = {a: [] for a in spec.aliases}
    for j in spec.joins:
        (la, lc), (ra, rc) = j.left, j.right
        adj[la].append((ra, lc, rc))
        adj[ra].append((la, rc, lc))
    _, w, bound = _subtree_weights(db, spec, sels, adj, root, None)
    if w is None:
        return selected
    # Bounds only grow towards the root, so this also covers every product
    # formed on the way: none of them wrapped unless this raises.
    if bound * selected >= _INT64_LIMIT:
        raise ValidationError(
            f"join count of {format_query(spec)} may exceed the int64 range"
        )
    return int(np.count_nonzero(w)) if w.dtype == bool else int(w.sum())


def select_rows(table: Table, predicates) -> np.ndarray | None:
    """The rows of `table` passing the conjunction `predicates`: None for no
    predicate, row ids when the narrowest predicate's value-index range
    holds at most `_ROW_ID_SHARE` of the rows (the other predicates are
    checked at those rows only), a boolean mask otherwise."""
    def mask():
        return predicate_mask(lambda c: table.column(c).values, predicates)

    narrowest = None
    for p in predicates:
        index = table.column(p.column).index
        if index is None:  # a key column carries no value index
            return mask()
        rows = index.rows_where(p.op, p.literal)
        if narrowest is None or rows.size < narrowest[1].size:
            narrowest = p, rows
    if narrowest is None:
        return None
    first, rows = narrowest
    if rows.size > _ROW_ID_SHARE * table.row_count:
        return mask()
    for p in predicates:
        if p is not first:
            values = table.column(p.column).take(rows)
            rows = np.compress(_OPS[p.op](values, p.literal), rows)
    return rows


def _selected(table: Table, sel: np.ndarray | None) -> int:
    """Number of rows a `select_rows` selection holds."""
    if sel is None:
        return table.row_count
    return int(np.count_nonzero(sel)) if sel.dtype == bool else sel.size


def true_cardinality(db: Database, spec: QuerySpec) -> int:
    """Exact result count of the join tree under bag semantics (no dedup).

    Raises ValidationError when the count could exceed the int64 range.
    """
    sels, counts = {}, {}
    for a in spec.aliases:
        table = db.table(spec.table_of(a))
        sels[a] = select_rows(table, spec.predicates_of(a))
        counts[a] = _selected(table, sels[a])
        if counts[a] == 0:
            return 0
    if not spec.joins:
        (only,) = spec.aliases
        return counts[only]
    # Every alias but the root sends its per-key sums: a filtered alias
    # scatters or bincounts its selected rows (every row, under a mask)
    # into the key space. The largest filtered alias sends none and works
    # on its selected rows only; in a star it is a child, whose sums would
    # take a bincount over its parent's key space rather than a scatter.
    # With no filter, unfiltered leaves send only their fanouts, so the
    # alias with the most joins (the centre of a star) multiplies them with
    # no gather; ties go to the largest.
    def size(a):
        return db.table(spec.table_of(a)).row_count

    filtered = [a for a in spec.aliases if sels[a] is not None]
    if filtered:
        root = max(filtered, key=size)
    else:
        ends = [j.left[0] for j in spec.joins] + [j.right[0] for j in spec.joins]
        root = max(spec.aliases, key=lambda a: (ends.count(a), size(a)))
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
    try:
        raw = np.frombuffer(bytes.fromhex(text), dtype=np.uint8)
    except ValueError:
        raise ParseError(f"malformed hex bitmap {text!r}") from None
    bits = np.unpackbits(raw, bitorder="little")
    if bits.size < size:
        raise ParseError(f"bitmap holds {bits.size} bits, expected {size}")
    return bits[:size].astype(bool)


def write_labeled_corpus(
    labeled: list[LabeledQuery],
    corpus_path: str | Path,
    bitmaps_path: str | Path | None = None,
    sample_size: int | None = None,
) -> None:
    lines = [format_query(q.spec, q.true_cardinality) for q in labeled]
    Path(corpus_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if bitmaps_path is None:
        return
    if sample_size is None:
        raise ValueError("sample_size is required when writing a bitmap sidecar")
    rows = [f"-- sample_size={sample_size}"]
    for q in labeled:
        rows.append(
            ",".join(f"{a}:{bitmap_to_hex(q.bitmaps[a])}" for a in sorted(q.bitmaps))
        )
    Path(bitmaps_path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def read_labeled_corpus(
    corpus_path: str | Path, bitmaps_path: str | Path | None = None
) -> tuple[list[LabeledQuery], int | None]:
    """Returns (queries, sample_size). Bitmaps are empty without a sidecar."""
    queries: list[LabeledQuery] = []
    for lineno, spec, label in read_workload(corpus_path):
        if label is None:
            raise ParseError(f"{corpus_path}:{lineno}: missing cardinality label")
        queries.append(LabeledQuery(spec, label, {}))
    if bitmaps_path is None:
        return queries, None
    text = Path(bitmaps_path).read_text(encoding="utf-8").splitlines()
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
