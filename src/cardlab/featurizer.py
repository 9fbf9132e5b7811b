"""Deterministic query featurization.

A query becomes three sets of fixed-width vectors: one element per table
(table one-hot, optionally followed by the sample-qualification feature),
one per join (join-edge one-hot), and one per predicate (column one-hot,
operator one-hot, normalized literal). An empty join or predicate set is
represented by a single all-zero placeholder element so the set average is
always defined. Labels are normalized as (ln c - ln c_min)/(ln c_max -
ln c_min) using the training-corpus extremes.

All dictionaries live in a frozen EncodingCatalog so training and serving
featurize byte-for-byte identically; the catalog serializes to a versioned
JSON document with sorted keys.

One function, `_encode`, turns a query into feature values: it writes the
query's element rows into zero arrays, one per set kind. `featurize` gives
it one query's own element matrices; `featurize_labeled` gives it arrays
shared by a chunk of queries, so a corpus costs no arrays per query. A
batch of queries is one type, `PackedCorpus`: per set kind, flat element
rows and, per query, the indices of its elements' rows. One packer writes
each row as `np.packbits` of all its columns plus the float64 entries of
its value columns, which may hold any number, where the other columns hold
0 or 1. `featurize_labeled` packs a labeled corpus a chunk at a time, with
the catalog's `value_cols` (the `count`-mode sample fraction and the
predicate literal) as its value columns: 1.06 MB where the padded float64
arrays of the 8,797-query reference corpus take 29.5 MB. `batch` packs
featurized queries with every column a value column, since their entries
may be any floats. Slicing selects query ids; reading a batch attribute
unpacks the selected queries into zero-padded arrays with 0/1 masks, each
set padded to the longest set of its kind in the whole batch, not in the
selection: a slice of the whole batch's padded arrays, the same bytes.
That shape sets how BLAS rounds the padded products of `mscn`'s backward
pass, so it keeps trained models the same bits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .query import OPS, LabeledQuery
from .storage import Database, is_int

CATALOG_FORMAT_VERSION = 1

SAMPLE_MODES = ("none", "count", "bitmap")

OP_INDEX = {op: i for i, op in enumerate(OPS)}


@dataclass
class EncodingCatalog:
    """Frozen one-hot dictionaries, column bounds, sample settings, and the
    log-label range; everything featurization needs."""

    table_index: dict[str, int]
    join_index: dict[str, int]
    column_index: dict[str, int]  # "table.column" over non-key attribute columns
    column_bounds: dict[str, tuple[int, int]]
    sample_size: int
    sample_mode: str
    label_log_min: float
    label_log_max: float
    # Out-of-range labels are clamped; this counts how often (not part of
    # the catalog identity and not serialized).
    clamp_warnings: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.sample_mode not in SAMPLE_MODES:
            raise ValueError(f"unknown sample mode {self.sample_mode!r}")
        if not self.label_log_min < self.label_log_max:
            raise ValueError("degenerate label range (min must be < max)")

    # The element layout of the three set kinds (tables, joins, predicates),
    # kept on first read: the catalog's fields do not change once built.
    @cached_property
    def widths(self) -> tuple[int, int, int]:
        sample_width = {"none": 0, "count": 1, "bitmap": self.sample_size}[self.sample_mode]
        return (
            len(self.table_index) + sample_width,
            len(self.join_index),
            len(self.column_index) + len(OP_INDEX) + 1,
        )

    @cached_property
    def value_cols(self) -> tuple[slice, slice, slice]:
        """The columns that may hold other values than 0 and 1: the sample
        fraction of `count` mode, in the table column after the one-hot, and
        the predicate literal, in the last column. A table's bitmap starts at
        `value_cols[0].start`."""
        n_tab = len(self.table_index)
        count = int(self.sample_mode == "count")
        return slice(n_tab, n_tab + count), slice(0), slice(self.widths[2] - 1, None)

    @property
    def label_log_range(self) -> float:
        return self.label_log_max - self.label_log_min

    def to_json(self) -> str:
        doc = {
            "format_version": CATALOG_FORMAT_VERSION,
            "table_index": self.table_index,
            "join_index": self.join_index,
            "column_index": self.column_index,
            "column_bounds": {k: list(v) for k, v in self.column_bounds.items()},
            "op_index": OP_INDEX,
            "sample_size": self.sample_size,
            "sample_mode": self.sample_mode,
            "label_log_min": self.label_log_min,
            "label_log_max": self.label_log_max,
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EncodingCatalog":
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("format_version") != CATALOG_FORMAT_VERSION:
            raise ValidationError("unsupported catalog format_version")
        missing = {*_CATALOG_CHECKS, "sample_mode"} - set(doc)
        if missing:
            raise ValidationError(f"catalog lacks {sorted(missing)}")
        bad = [key for key, ok in _CATALOG_CHECKS.items() if not ok(doc[key])]
        if bad:
            raise ValidationError(f"catalog has malformed {bad}")
        bounds = doc["column_bounds"]
        if bounds.keys() != doc["column_index"].keys():
            raise ValidationError("catalog column_bounds do not match its column_index")
        return cls(
            table_index=doc["table_index"],
            join_index=doc["join_index"],
            column_index=doc["column_index"],
            column_bounds={k: (v[0], v[1]) for k, v in bounds.items()},
            sample_size=doc["sample_size"],
            sample_mode=doc["sample_mode"],
            label_log_min=doc["label_log_min"],
            label_log_max=doc["label_log_max"],
        )


def _is_number(value) -> bool:
    """A finite JSON number."""
    return (is_int(value) or isinstance(value, float)) and math.isfinite(value)


def _is_index(value) -> bool:
    """A one-hot dictionary: its values number its keys 0..n-1."""
    return (
        isinstance(value, dict)
        and all(map(is_int, value.values()))
        and sorted(value.values()) == list(range(len(value)))
    )


#: The type and value checks of the serialized catalog fields besides
#: `sample_mode`, which `EncodingCatalog` checks itself. The operator order
#: is the package's, so a model that numbers the operators otherwise fails.
_CATALOG_CHECKS = {
    "op_index": lambda v: v == OP_INDEX,
    "table_index": _is_index,
    "join_index": _is_index,
    "column_index": _is_index,
    "column_bounds": lambda v: isinstance(v, dict) and all(
        isinstance(b, list) and len(b) == 2 and all(map(_is_number, b)) and b[0] <= b[1]
        for b in v.values()
    ),
    "sample_size": lambda v: is_int(v) and v >= 0,
    "label_log_min": _is_number,
    "label_log_max": _is_number,
}


@dataclass
class FeaturizedQuery:
    """The three per-set element matrices plus the normalized label and the
    true count it was normalized from."""

    table_elems: np.ndarray  # (n_tables, widths[0])
    join_elems: np.ndarray  # (max(n_joins, 1), widths[1])
    pred_elems: np.ndarray  # (max(n_preds, 1), widths[2])
    label_norm: float | None = None
    cardinality: int | None = None


def build_catalog(
    db: Database,
    training_labels,
    sample_size: int,
    sample_mode: str,
) -> EncodingCatalog:
    """Encoding dictionaries from the database schema plus label bounds from
    the training corpus (indices sorted by name, hence deterministic)."""
    labels = np.asarray(training_labels, dtype=np.float64)
    if labels.size == 0:
        raise ValueError("training labels must be nonempty")
    if (labels < 1).any():
        raise ValueError("training labels must all be >= 1")
    table_index = {name: i for i, name in enumerate(db.table_names())}
    join_index = {key: i for i, key in enumerate(sorted(e.key for e in db.fk_edges))}
    columns = sorted(
        f"{t}.{c}" for t in db.table_names() for c in db.attr_columns(t)
    )
    column_index = {qc: i for i, qc in enumerate(columns)}
    bounds = {}
    for qc in columns:
        t, _, c = qc.partition(".")
        column = db.table(t).column(c)
        if column.lo is None:
            raise ValueError(f"no bounds for empty column {qc}")
        bounds[qc] = (column.lo, column.hi)
    return EncodingCatalog(
        table_index=table_index,
        join_index=join_index,
        column_index=column_index,
        column_bounds=bounds,
        sample_size=sample_size,
        sample_mode=sample_mode,
        label_log_min=float(np.log(labels.min())),
        label_log_max=float(np.log(labels.max())),
    )


def normalize_label(cardinality: float, catalog: EncodingCatalog) -> float:
    """Map a cardinality into [0, 1]; out-of-range values are clamped."""
    if cardinality <= 0:
        raise ValueError(f"cardinality must be positive, got {cardinality}")
    y = (math.log(cardinality) - catalog.label_log_min) / catalog.label_log_range
    if y < 0.0 or y > 1.0:
        catalog.clamp_warnings += 1
        y = min(max(y, 0.0), 1.0)
    return y


def denormalize_label(y, catalog: EncodingCatalog):
    """Inverse of `normalize_label` (without its clamp), elementwise on an
    array, or on one float."""
    return np.exp(catalog.label_log_min + y * catalog.label_log_range)


def _set_sizes(spec) -> tuple[int, int, int]:
    """Element rows of the query's table, join and predicate sets."""
    return len(spec.tables), len(spec.joins) or 1, len(spec.predicates) or 1


def _encode(query: LabeledQuery, catalog: EncodingCatalog, elems, rows) -> None:
    """Write the query's element rows into the zero arrays `elems` (tables,
    joins, predicates), starting at row `rows[k]` of `elems[k]`: the only
    code that turns a query into feature values. Requires per-table bitmaps
    of the catalog's sample size when its sample mode is `count` or
    `bitmap`."""
    spec, mode = query.spec, catalog.sample_mode
    tables, joins, preds = elems
    samples, _, literal = catalog.value_cols
    for i, ref in enumerate(spec.tables, rows[0]):
        code = catalog.table_index.get(ref.table)
        if code is None:
            raise ValidationError(f"table {ref.table!r} not present in catalog")
        tables[i, code] = 1.0
        if mode == "none":
            continue
        bitmap = query.bitmaps.get(ref.alias)
        if bitmap is None:
            raise ValidationError(f"missing sample bitmap for alias {ref.alias!r}")
        if bitmap.size != catalog.sample_size:
            raise ValidationError(
                f"bitmap for {ref.alias!r} has {bitmap.size} bits,"
                f" catalog expects {catalog.sample_size}"
            )
        if mode == "count":
            tables[i, samples.start] = bitmap.sum() / catalog.sample_size
        else:
            tables[i, samples.start :] = bitmap
    for i, join in enumerate(spec.joins, rows[1]):
        # Either written orientation.
        (la, lc), (ra, rc) = join.left, join.right
        lt, rt = spec.table_of(la), spec.table_of(ra)
        code = catalog.join_index.get(f"{lt}.{lc}={rt}.{rc}")
        if code is None:
            code = catalog.join_index.get(f"{rt}.{rc}={lt}.{lc}")
        if code is None:
            raise ValidationError(f"join {join} not present in catalog")
        joins[i, code] = 1.0
    n_col = len(catalog.column_index)
    for i, p in enumerate(spec.predicates, rows[2]):
        qc = f"{spec.table_of(p.alias)}.{p.column}"
        code = catalog.column_index.get(qc)
        if code is None:
            raise ValidationError(f"column {qc!r} not present in catalog")
        # The literal normalized by the column's bounds and clamped into
        # [0, 1] (0.5 for a single-valued column).
        lo, hi = catalog.column_bounds[qc]
        norm = (p.literal - lo) / (hi - lo) if hi > lo else 0.5
        preds[i, code] = 1.0
        preds[i, n_col + OP_INDEX[p.op]] = 1.0
        preds[i, literal.start] = min(max(norm, 0.0), 1.0)


def featurize(query: LabeledQuery, catalog: EncodingCatalog) -> FeaturizedQuery:
    """Vector sets for one query, written by `_encode`."""
    elems = [np.zeros(shape) for shape in zip(_set_sizes(query.spec), catalog.widths)]
    _encode(query, catalog, elems, (0, 0, 0))
    label = None
    if query.true_cardinality is not None:
        label = normalize_label(query.true_cardinality, catalog)
    return FeaturizedQuery(*elems, label, query.true_cardinality)


@dataclass(eq=False)
class _PackedSet:
    """One set kind of a packed batch. Row r holds an element row of
    `width` columns as two parts: `np.packbits` of the columns, which must
    be 0 or 1 outside `value_cols`, and the float64 entries of
    `value_cols`, which unpacking writes over their bits. The last row is
    zero. `slots[q]` lists the rows of query q's elements, then, up to the
    longest set of the batch (module docstring), the zero row, which pads."""

    slots: np.ndarray  # (n_queries, longest set) int32
    bits: np.ndarray  # (rows + 1, ceil(width / 8)) uint8
    values: np.ndarray  # (rows + 1, len(range(width)[value_cols])) float64
    value_cols: slice
    width: int

    @property
    def nbytes(self) -> int:
        return self.slots.nbytes + self.bits.nbytes + self.values.nbytes

    def unpack(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Padded features (len(ids), longest set, width) and 0/1 mask of
        the queries `ids`."""
        slots = np.take(self.slots, ids, axis=0)
        src = slots.ravel()
        # Unpacked as bytes and cast once, which is faster than writing the
        # bits into float64; unpacking all bytes as one run and dropping each
        # row's last pad bits is faster than unpacking row by row.
        bits = np.unpackbits(np.take(self.bits, src, axis=0))
        feats = bits.reshape(src.size, 8 * self.bits.shape[1])[:, : self.width]
        feats = feats.astype(np.float64)
        if self.values.size:
            feats[:, self.value_cols] = np.take(self.values, src, axis=0)
        mask = (slots < len(self.bits) - 1).astype(np.float64)  # not padding
        return feats.reshape(*slots.shape, self.width), mask


def _slots(start: np.ndarray) -> np.ndarray:
    """The `_PackedSet.slots` of sets stored one after the other, set q in
    rows start[q]:start[q + 1]."""
    start = start.astype(np.int32)
    count = np.diff(start)
    rank = np.arange(count.max(), dtype=np.int32)
    return np.where(rank < count[:, None], start[:-1, None] + rank, start[-1])


class PackedCorpus:
    """Featurized queries held packed, one `_PackedSet` per set kind, all
    written by `_pack` (module docstring), selecting the queries `ids`.

    `len` and `slice` never unpack, and `slice` copies no rows. The padded
    features and masks of the three sets, the normalized labels and the
    true counts are built on first read and then kept on the object."""

    def __init__(
        self,
        sets: tuple[_PackedSet, _PackedSet, _PackedSet],
        labels_norm: np.ndarray | None,
        cardinalities: np.ndarray | None,
        ids: np.ndarray,
    ):
        self._sets = sets  # tables, joins, predicates
        self._labels = labels_norm
        self._cards = cardinalities
        self.ids = ids

    def __len__(self) -> int:
        return self.ids.size

    def slice(self, idx: np.ndarray | slice) -> "PackedCorpus":
        return PackedCorpus(self._sets, self._labels, self._cards, self.ids[idx])

    @property
    def nbytes(self) -> int:
        """Bytes held: the whole corpus's rows, labels and counts, and the
        ids; not the padded arrays built on read."""
        arrays = (self._labels, self._cards, self.ids)
        return sum(s.nbytes for s in self._sets) + sum(
            a.nbytes for a in arrays if a is not None
        )

    # Each attribute can be set, or edited in place once read, like a plain one.
    _tables = cached_property(lambda self: self._sets[0].unpack(self.ids))
    _joins = cached_property(lambda self: self._sets[1].unpack(self.ids))
    _preds = cached_property(lambda self: self._sets[2].unpack(self.ids))
    table_feats = cached_property(lambda self: self._tables[0])
    table_mask = cached_property(lambda self: self._tables[1])
    join_feats = cached_property(lambda self: self._joins[0])
    join_mask = cached_property(lambda self: self._joins[1])
    pred_feats = cached_property(lambda self: self._preds[0])
    pred_mask = cached_property(lambda self: self._preds[1])
    labels_norm = cached_property(
        lambda self: None if self._labels is None else self._labels[self.ids]
    )
    cardinalities = cached_property(
        lambda self: None if self._cards is None else self._cards[self.ids]
    )


_ELEMS = ("table_elems", "join_elems", "pred_elems")

#: Queries `featurize_labeled` encodes and packs at a time.
_CHUNK = 64


def _pack(
    chunks, sizes: np.ndarray, widths, value_cols, labels: list, cards: list
) -> PackedCorpus:
    """The `PackedCorpus` of queries whose element rows come in `chunks`,
    per chunk one array per set kind, with `sizes[q]` the element rows of
    query q per set kind. Each kind's rows are written into arrays allocated
    for all of them, a chunk at a time. The labels and true counts are
    carried when every query has them."""
    n = len(sizes)
    start = np.zeros((n + 1, 3), dtype=np.int64)
    np.cumsum(sizes, axis=0, out=start[1:])
    sets = [
        _PackedSet(
            _slots(start[:, k]),
            np.zeros((start[-1, k] + 1, (width + 7) // 8), dtype=np.uint8),
            np.zeros((start[-1, k] + 1, len(range(width)[cols]))),
            cols,
            width,
        )
        for k, (width, cols) in enumerate(zip(widths, value_cols))
    ]
    done = [0, 0, 0]
    for elems in chunks:
        for k, (s, rows) in enumerate(zip(sets, elems)):
            lo, hi = done[k], done[k] + len(rows)
            s.bits[lo:hi] = np.packbits(rows != 0, axis=1)
            s.values[lo:hi] = rows[:, s.value_cols]
            done[k] = hi
    if None in labels:
        return PackedCorpus(tuple(sets), None, None, np.arange(n))
    return PackedCorpus(
        tuple(sets), np.array(labels), np.array(cards, dtype=np.float64), np.arange(n)
    )


def batch(queries: list[FeaturizedQuery]) -> PackedCorpus:
    """The queries' element matrices as the rows of a `PackedCorpus`, every
    column held as a float64 value, so each set unpacks padded to the
    longest of its kind in the batch. The labels and true counts are
    carried when every query has them."""
    if not queries:
        raise ValueError("cannot batch zero queries")
    widths = []
    for attr in _ELEMS:
        found = {getattr(q, attr).shape[1] for q in queries}
        if len(found) > 1:
            raise ValueError(f"mixed {attr} widths {sorted(found)}; one catalog per batch")
        widths.append(found.pop())
    sizes = np.array([[getattr(q, attr).shape[0] for attr in _ELEMS] for q in queries])
    elems = [np.concatenate([getattr(q, attr) for q in queries]) for attr in _ELEMS]
    labels, cards = [q.label_norm for q in queries], [q.cardinality for q in queries]
    return _pack([elems], sizes, widths, [slice(None)] * 3, labels, cards)


def _encode_chunk(queries, catalog: EncodingCatalog, sizes: np.ndarray) -> list[np.ndarray]:
    """The element rows of `queries`, whose set sizes are `sizes`, one array
    per set kind, the queries' rows one after the other."""
    first = np.cumsum(sizes, axis=0) - sizes
    elems = [np.zeros(shape) for shape in zip(sizes.sum(axis=0), catalog.widths)]
    for q, rows in zip(queries, first.tolist()):
        _encode(q, catalog, elems, rows)
    return elems


def featurize_labeled(
    queries: list[LabeledQuery], catalog: EncodingCatalog
) -> PackedCorpus:
    """What `batch` of the queries' `featurize` holds, with only the columns
    that are not 0/1 held as float64 values (`EncodingCatalog.value_cols`),
    and with the element rows of no more than `_CHUNK` queries built at a
    time."""
    if not queries:
        raise ValueError("cannot batch zero queries")
    sizes = np.array([_set_sizes(q.spec) for q in queries])
    chunks = (
        _encode_chunk(queries[i : i + _CHUNK], catalog, sizes[i : i + _CHUNK])
        for i in range(0, len(queries), _CHUNK)
    )
    cards = [q.true_cardinality for q in queries]
    labels = [None if c is None else normalize_label(c, catalog) for c in cards]
    return _pack(chunks, sizes, catalog.widths, catalog.value_cols, labels, cards)
