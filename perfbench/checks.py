"""Output checks that share no code with the package's counting path.

`brute_force_count` materialises the join result tuple by tuple (a
sort-and-expand equi-join over predicate-filtered row ids) and counts the
rows, where the executor aggregates per-key weights without materialising
anything. `brute_force_bitmap` evaluates predicates row by row in Python.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

_OPS = {"=": operator.eq, "<": operator.lt, ">": operator.gt}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _filtered_rows(db, spec, alias) -> np.ndarray:
    table = db.table(spec.table_of(alias))
    keep = np.ones(table.row_count, dtype=bool)
    for p in spec.predicates_of(alias):
        keep &= _OPS[p.op](table.column(p.column).values, p.literal)
    return np.flatnonzero(keep)


def brute_force_count(db, spec) -> int:
    """Row count of the materialised join result under bag semantics."""
    rows = {a: _filtered_rows(db, spec, a) for a in spec.aliases}
    first = spec.aliases[0]
    bound = {first: rows[first]}
    pending = list(spec.joins)
    while pending:
        for j in pending:
            if (j.left[0] in bound) != (j.right[0] in bound):
                break
        else:
            raise ValueError(f"join graph of {spec} is not a connected tree")
        pending.remove(j)
        (old, old_col), (new, new_col) = (
            (j.left, j.right) if j.left[0] in bound else (j.right, j.left)
        )
        left_keys = db.column_values(spec.table_of(old), old_col)[bound[old]]
        right_rows = rows[new]
        right_keys = db.column_values(spec.table_of(new), new_col)[right_rows]
        order = np.argsort(right_keys, kind="stable")
        sorted_keys = right_keys[order]
        lo = np.searchsorted(sorted_keys, left_keys, side="left")
        counts = np.searchsorted(sorted_keys, left_keys, side="right") - lo
        total = int(counts.sum())
        left_pos = np.repeat(np.arange(left_keys.size), counts)
        within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        right_pos = order[np.repeat(lo, counts) + within]
        bound = {a: r[left_pos] for a, r in bound.items()}
        bound[new] = right_rows[right_pos]
        joined_old = db.column_values(spec.table_of(old), old_col)[bound[old]]
        joined_new = db.column_values(spec.table_of(new), new_col)[bound[new]]
        if not np.array_equal(joined_old, joined_new):
            raise AssertionError(f"brute-force join of {spec} paired unequal keys")
    return int(bound[first].size)


def brute_force_bitmap(sample, predicates) -> np.ndarray:
    """Qualifying sample rows, one Python comparison at a time."""
    columns = {p.column: sample.rows[p.column].tolist() for p in predicates}
    return np.array(
        [
            all(_OPS[p.op](columns[p.column][i], p.literal) for p in predicates)
            for i in range(sample.size)
        ],
        dtype=bool,
    )
