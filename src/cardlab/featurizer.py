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

One query featurizes to element matrices (`featurize`). A batch of
queries is one type, `PackedCorpus`: per set kind, flat rows and, per
query, the indices of its elements' rows. `batch` stacks the element
matrices of featurized queries as those rows; `featurize_labeled` packs a
labeled corpus without building them, as indices into one-hot patterns,
sample bits (`np.packbits` bytes in `bitmap` mode, the qualifying fraction
in `count` mode) and normalized literals: 1.2 MB where the padded float64
arrays of the 8,797-query reference corpus take 29.5 MB. Slicing selects
query ids; reading a batch attribute unpacks the selected queries into
zero-padded arrays with 0/1 masks, each set padded to the longest set of
its kind in the whole batch, not in the selection: a slice of the whole
batch's padded arrays, the same bytes. That shape sets how BLAS rounds
the padded products of `mscn`'s backward pass, so it keeps trained
models the same bits.
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

    @property
    def sample_width(self) -> int:
        return {"none": 0, "count": 1, "bitmap": self.sample_size}[self.sample_mode]

    @property
    def table_width(self) -> int:
        return len(self.table_index) + self.sample_width

    @property
    def join_width(self) -> int:
        return len(self.join_index)

    @property
    def pred_width(self) -> int:
        return len(self.column_index) + len(OP_INDEX) + 1

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
        isinstance(b, list) and len(b) == 2 and all(map(_is_number, b)) for b in v.values()
    ),
    "sample_size": lambda v: is_int(v) and v >= 0,
    "label_log_min": _is_number,
    "label_log_max": _is_number,
}


@dataclass
class FeaturizedQuery:
    """The three per-set element matrices plus the normalized label and the
    true count it was normalized from."""

    table_elems: np.ndarray  # (n_tables, table_width)
    join_elems: np.ndarray  # (max(n_joins, 1), join_width)
    pred_elems: np.ndarray  # (max(n_preds, 1), pred_width)
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
    """Inverse of `normalize_label` (without its clamp), elementwise on arrays."""
    return np.exp(catalog.label_log_min + y * catalog.label_log_range)


def _resolve_join_key(spec, join, catalog) -> int:
    """Join one-hot position, accepting either written orientation."""
    (la, lc), (ra, rc) = join.left, join.right
    lt, rt = spec.table_of(la), spec.table_of(ra)
    for key in (f"{lt}.{lc}={rt}.{rc}", f"{rt}.{rc}={lt}.{lc}"):
        if key in catalog.join_index:
            return catalog.join_index[key]
    raise ValidationError(f"join {join} not present in catalog")


def _table_code(ref, catalog) -> int:
    """Table one-hot position."""
    if ref.table not in catalog.table_index:
        raise ValidationError(f"table {ref.table!r} not present in catalog")
    return catalog.table_index[ref.table]


def _sample_bitmap(query: LabeledQuery, alias: str, catalog) -> np.ndarray:
    """The alias's sample bitmap, which must have the catalog's sample size."""
    bitmap = query.bitmaps.get(alias)
    if bitmap is None:
        raise ValidationError(f"missing sample bitmap for alias {alias!r}")
    if bitmap.size != catalog.sample_size:
        raise ValidationError(
            f"bitmap for {alias!r} has {bitmap.size} bits,"
            f" catalog expects {catalog.sample_size}"
        )
    return bitmap


def _predicate_code(spec, p, catalog) -> tuple[int, float]:
    """Column one-hot position, and the literal normalized by the column's
    bounds and clamped into [0, 1] (0.5 for a single-valued column)."""
    qc = f"{spec.table_of(p.alias)}.{p.column}"
    if qc not in catalog.column_index:
        raise ValidationError(f"column {qc!r} not present in catalog")
    lo, hi = catalog.column_bounds[qc]
    norm = (p.literal - lo) / (hi - lo) if hi > lo else 0.5
    return catalog.column_index[qc], min(max(norm, 0.0), 1.0)


def featurize(query: LabeledQuery, catalog: EncodingCatalog) -> FeaturizedQuery:
    """Vector sets for one query. Requires per-table bitmaps when the
    catalog's sample mode is `count` or `bitmap`."""
    spec = query.spec
    n_tab = len(catalog.table_index)
    table_elems = np.zeros((len(spec.tables), catalog.table_width))
    for i, ref in enumerate(spec.tables):
        table_elems[i, _table_code(ref, catalog)] = 1.0
        if catalog.sample_mode == "none":
            continue
        bitmap = _sample_bitmap(query, ref.alias, catalog)
        if catalog.sample_mode == "count":
            table_elems[i, n_tab] = bitmap.sum() / catalog.sample_size
        else:
            table_elems[i, n_tab:] = bitmap

    join_elems = np.zeros((max(len(spec.joins), 1), catalog.join_width))
    for i, join in enumerate(spec.joins):
        join_elems[i, _resolve_join_key(spec, join, catalog)] = 1.0

    n_col = len(catalog.column_index)
    pred_elems = np.zeros((max(len(spec.predicates), 1), catalog.pred_width))
    for i, p in enumerate(spec.predicates):
        column, literal = _predicate_code(spec, p, catalog)
        pred_elems[i, column] = 1.0
        pred_elems[i, n_col + OP_INDEX[p.op]] = 1.0
        pred_elems[i, -1] = literal

    label = None
    if query.true_cardinality is not None:
        label = normalize_label(query.true_cardinality, catalog)
    return FeaturizedQuery(table_elems, join_elems, pred_elems, label, query.true_cardinality)


@dataclass(eq=False)
class _PackedSet:
    """One set kind of a packed batch. Row r unpacks to row codes[r] of
    `patterns`, with its entry of `values` at column `at` or its `bits`
    unpacked from column `at` on. Patterns are any rows: from
    `featurize_labeled`, 0/1 one-hot rows that many elements share (the
    zero pattern also marks the placeholder row of an empty join or
    predicate set); from `batch`, one row per element, `codes` counting
    them. The last row of `patterns` is zero. `slots[q]` lists the rows of
    query q's elements, then, up to the longest set of the batch (module
    docstring), the row past the last, which is all zero (its code is the
    zero pattern's) and pads."""

    slots: np.ndarray  # (n_queries, longest set) int32
    patterns: np.ndarray  # (n_patterns + 1, width) float64, uint8 with `bits`
    codes: np.ndarray  # (rows + 1,) int32 rows of `patterns`
    at: int = 0
    values: np.ndarray | None = None  # (rows + 1,) float64
    bits: np.ndarray | None = None  # (rows + 1, ceil(n_bits / 8)) uint8, np.packbits
    n_bits: int = 0

    @property
    def nbytes(self) -> int:
        arrays = (self.slots, self.patterns, self.codes, self.values, self.bits)
        return sum(a.nbytes for a in arrays if a is not None)

    def unpack(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Padded features (len(ids), longest set, width) and 0/1 mask of
        the queries `ids`."""
        slots = np.take(self.slots, ids, axis=0)
        src = slots.ravel()
        feats = np.take(self.patterns, np.take(self.codes, src), axis=0)
        if self.bits is not None:
            # Set as bytes and cast once, which is faster than writing the
            # bits into float64 (`patterns` are bytes here).
            feats[:, self.at :] = np.unpackbits(
                np.take(self.bits, src, axis=0), axis=1, count=self.n_bits
            )
            feats = feats.astype(np.float64)
        if self.values is not None:
            feats[:, self.at] = np.take(self.values, src)
        mask = (slots < self.codes.size - 1).astype(np.float64)  # not padding
        return feats.reshape(*slots.shape, self.patterns.shape[1]), mask


def _slots(start: list[int] | np.ndarray) -> np.ndarray:
    """The `_PackedSet.slots` of sets stored one after the other, set q in
    rows start[q]:start[q + 1]."""
    start = np.array(start, dtype=np.int32)
    count = np.diff(start)
    rank = np.arange(count.max(), dtype=np.int32)
    return np.where(rank < count[:, None], start[:-1, None] + rank, start[-1])


def _patterns(width: int, columns: list[tuple[int, ...]], dtype=np.float64) -> np.ndarray:
    """One 0/1 row of `width` per entry of `columns`, with 1 at its
    columns, and a zero row."""
    patterns = np.zeros((len(columns) + 1, width), dtype=dtype)
    for i, cols in enumerate(columns):
        patterns[i, list(cols)] = 1
    return patterns


class PackedCorpus:
    """A featurized batch held packed (module docstring), selecting the
    queries `ids` of it.

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


def batch(queries: list[FeaturizedQuery]) -> PackedCorpus:
    """The queries' element matrices stacked as the rows of a `PackedCorpus`,
    so each set unpacks padded to the longest of its kind in the batch. The
    labels and true counts are carried when every query has them."""
    if not queries:
        raise ValueError("cannot batch zero queries")
    sets = []
    for attr in ("table_elems", "join_elems", "pred_elems"):
        elems = [getattr(q, attr) for q in queries]
        widths = {e.shape[1] for e in elems}
        if len(widths) > 1:
            raise ValueError(f"mixed {attr} widths {sorted(widths)}; one catalog per batch")
        rows = np.concatenate([*elems, np.zeros((1, widths.pop()))], dtype=np.float64)
        start = np.cumsum([0] + [e.shape[0] for e in elems])
        sets.append(_PackedSet(_slots(start), rows, np.arange(len(rows), dtype=np.int32)))
    labels = cards = None
    if all(q.label_norm is not None for q in queries):
        labels = np.array([q.label_norm for q in queries])
        cards = np.array([q.cardinality for q in queries], dtype=np.float64)
    return PackedCorpus(tuple(sets), labels, cards, np.arange(len(queries)))


def featurize_labeled(
    queries: list[LabeledQuery], catalog: EncodingCatalog
) -> PackedCorpus:
    """The packed corpus of the queries: what `batch` of their `featurize`
    holds, as indices and packed bits, with no per-query matrix built."""
    if not queries:
        raise ValueError("cannot batch zero queries")
    mode, n_tab = catalog.sample_mode, len(catalog.table_index)
    n_join, n_col, n_op = len(catalog.join_index), len(catalog.column_index), len(OP_INDEX)
    tables, bitmaps, joins, preds, literals = [], [], [], [], []
    starts = ([0], [0], [0])
    for q in queries:
        spec = q.spec
        for ref in spec.tables:
            tables.append(_table_code(ref, catalog))
            if mode != "none":
                bitmaps.append(_sample_bitmap(q, ref.alias, catalog))
        joins += [_resolve_join_key(spec, j, catalog) for j in spec.joins] or [n_join]
        for p in spec.predicates:
            column, literal = _predicate_code(spec, p, catalog)
            # The pattern of (column, operator), in the order built below.
            preds.append(column * n_op + OP_INDEX[p.op])
            literals.append(literal)
        if not spec.predicates:
            preds.append(n_col * n_op)
            literals.append(0.0)
        for start, rows in zip(starts, (tables, joins, preds)):
            start.append(len(rows))
    fractions = bits = None
    if mode == "count":
        fractions = np.array([b.sum() / catalog.sample_size for b in bitmaps] + [0.0])
    elif mode == "bitmap":
        bits = np.zeros((len(bitmaps) + 1, (catalog.sample_size + 7) // 8), dtype=np.uint8)
        for i, bitmap in enumerate(bitmaps):
            bits[i] = np.packbits(bitmap)
    sets = (
        _PackedSet(
            _slots(starts[0]),
            _patterns(
                catalog.table_width,
                [(t,) for t in range(n_tab)],
                np.uint8 if mode == "bitmap" else np.float64,
            ),
            np.array(tables + [n_tab], dtype=np.int32),
            n_tab,
            fractions,
            bits,
            catalog.sample_size,
        ),
        _PackedSet(
            _slots(starts[1]),
            _patterns(catalog.join_width, [(j,) for j in range(n_join)]),
            np.array(joins + [n_join], dtype=np.int32),
        ),
        _PackedSet(
            _slots(starts[2]),
            _patterns(
                catalog.pred_width,
                [(c, n_col + o) for c in range(n_col) for o in range(n_op)],
            ),
            np.array(preds + [n_col * n_op], dtype=np.int32),
            catalog.pred_width - 1,
            np.array(literals + [0.0]),
        ),
    )
    cards = [q.true_cardinality for q in queries]
    labels = [None if c is None else normalize_label(c, catalog) for c in cards]
    if None in labels:
        return PackedCorpus(sets, None, None, np.arange(len(queries)))
    return PackedCorpus(
        sets, np.array(labels), np.array(cards, dtype=np.float64), np.arange(len(queries))
    )
