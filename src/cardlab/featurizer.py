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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .query import LabeledQuery
from .storage import Database

CATALOG_FORMAT_VERSION = 1

SAMPLE_MODES = ("none", "count", "bitmap")

OP_INDEX = {"=": 0, "<": 1, ">": 2}


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


def _is_int(value) -> bool:
    """A JSON integer (`bool` is an `int` in Python, but not here)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite JSON number."""
    return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)


def _is_index(value) -> bool:
    """A one-hot dictionary: its values number its keys 0..n-1."""
    return (
        isinstance(value, dict)
        and all(map(_is_int, value.values()))
        and sorted(value.values()) == list(range(len(value)))
    )


#: The type and value checks of the serialized catalog fields besides
#: `sample_mode`, which `EncodingCatalog` checks itself.
_CATALOG_CHECKS = {
    "table_index": _is_index,
    "join_index": _is_index,
    "column_index": _is_index,
    "column_bounds": lambda v: isinstance(v, dict) and all(
        isinstance(b, list) and len(b) == 2 and all(map(_is_number, b)) for b in v.values()
    ),
    "sample_size": lambda v: _is_int(v) and v >= 0,
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


@dataclass
class FeaturizedBatch:
    """Zero-padded dense arrays with 0/1 masks marking real elements."""

    table_feats: np.ndarray  # (batch, max_tables, table_width)
    table_mask: np.ndarray  # (batch, max_tables)
    join_feats: np.ndarray
    join_mask: np.ndarray
    pred_feats: np.ndarray
    pred_mask: np.ndarray
    labels_norm: np.ndarray | None = None  # (batch,)
    cardinalities: np.ndarray | None = None  # (batch,) true counts, with the labels

    def __len__(self) -> int:
        return self.table_feats.shape[0]

    def slice(self, idx: np.ndarray | slice) -> "FeaturizedBatch":
        return FeaturizedBatch(
            self.table_feats[idx],
            self.table_mask[idx],
            self.join_feats[idx],
            self.join_mask[idx],
            self.pred_feats[idx],
            self.pred_mask[idx],
            None if self.labels_norm is None else self.labels_norm[idx],
            None if self.cardinalities is None else self.cardinalities[idx],
        )


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


def featurize(query: LabeledQuery, catalog: EncodingCatalog) -> FeaturizedQuery:
    """Vector sets for one query. Requires per-table bitmaps when the
    catalog's sample mode is `count` or `bitmap`."""
    spec = query.spec
    n_tab = len(catalog.table_index)
    table_elems = np.zeros((len(spec.tables), catalog.table_width))
    for i, ref in enumerate(spec.tables):
        if ref.table not in catalog.table_index:
            raise ValidationError(f"table {ref.table!r} not present in catalog")
        table_elems[i, catalog.table_index[ref.table]] = 1.0
        if catalog.sample_mode == "none":
            continue
        bitmap = query.bitmaps.get(ref.alias)
        if bitmap is None:
            raise ValidationError(f"missing sample bitmap for alias {ref.alias!r}")
        if bitmap.size != catalog.sample_size:
            raise ValidationError(
                f"bitmap for {ref.alias!r} has {bitmap.size} bits,"
                f" catalog expects {catalog.sample_size}"
            )
        if catalog.sample_mode == "count":
            table_elems[i, n_tab] = bitmap.sum() / catalog.sample_size
        else:
            table_elems[i, n_tab:] = bitmap.astype(np.float64)

    join_elems = np.zeros((max(len(spec.joins), 1), catalog.join_width))
    for i, join in enumerate(spec.joins):
        join_elems[i, _resolve_join_key(spec, join, catalog)] = 1.0

    n_col = len(catalog.column_index)
    pred_elems = np.zeros((max(len(spec.predicates), 1), catalog.pred_width))
    for i, p in enumerate(spec.predicates):
        qc = f"{spec.table_of(p.alias)}.{p.column}"
        if qc not in catalog.column_index:
            raise ValidationError(f"column {qc!r} not present in catalog")
        pred_elems[i, catalog.column_index[qc]] = 1.0
        pred_elems[i, n_col + OP_INDEX[p.op]] = 1.0
        lo, hi = catalog.column_bounds[qc]
        if hi > lo:
            norm = (p.literal - lo) / (hi - lo)
        else:
            norm = 0.5
        pred_elems[i, -1] = min(max(norm, 0.0), 1.0)

    label = None
    if query.true_cardinality is not None:
        label = normalize_label(query.true_cardinality, catalog)
    return FeaturizedQuery(table_elems, join_elems, pred_elems, label, query.true_cardinality)


def batch(queries: list[FeaturizedQuery]) -> FeaturizedBatch:
    """Pad per-set element matrices to the batch maximum and build masks.
    The labels and true counts are carried when every query has them."""
    if not queries:
        raise ValueError("cannot batch zero queries")
    arrays = []
    for attr in ("table_elems", "join_elems", "pred_elems"):
        elems = [getattr(q, attr) for q in queries]
        widths = {e.shape[1] for e in elems}
        if len(widths) > 1:
            raise ValueError(f"mixed {attr} widths {sorted(widths)}; one catalog per batch")
        width = widths.pop()
        max_len = max(e.shape[0] for e in elems)
        feats = np.zeros((len(queries), max_len, width))
        mask = np.zeros((len(queries), max_len))
        for i, e in enumerate(elems):
            feats[i, : e.shape[0]] = e
            mask[i, : e.shape[0]] = 1.0
        arrays.extend([feats, mask])
    labels = cards = None
    if all(q.label_norm is not None for q in queries):
        labels = np.array([q.label_norm for q in queries])
        cards = np.array([q.cardinality for q in queries], dtype=np.float64)
    return FeaturizedBatch(*arrays, labels_norm=labels, cardinalities=cards)


def featurize_labeled(
    queries: list[LabeledQuery], catalog: EncodingCatalog
) -> FeaturizedBatch:
    """One padded batch for a whole labeled corpus."""
    return batch([featurize(q, catalog) for q in queries])

