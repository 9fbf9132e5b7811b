"""Sampling-based competitors: random sampling with independence join
estimates (RS) and index-based join sampling (IBJS).

Both share the same fallback for empty conjunctive sample results: retry
the conjuncts individually, substituting 1/distinct-count for any conjunct
that still matches nothing. All estimates are clamped to >= 1 so q-error
stays defined.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .executor import eval_predicates_on_sample, predicate_mask
from .query import QuerySpec
from .storage import Database, Groups, MaterializedSample


def _sample_scan(
    db: Database,
    samples: dict[str, MaterializedSample],
    spec: QuerySpec,
    alias: str,
) -> tuple[float, np.ndarray | None]:
    """Sample-extrapolated number of qualifying rows of one base table, and
    the sample bitmap it was counted from (None without predicates: every
    sample row qualifies).

    Computed as popcount * |t| / S (in that order, so single-table
    extrapolations are exact); an empty conjunctive sample falls back to
    the per-conjunct product, substituting 1/distinct-count for conjuncts
    that match nothing.
    """
    table = spec.table_of(alias)
    rows = db.table(table).row_count
    preds = spec.predicates_of(alias)
    if not preds:
        return float(rows), None
    sample = samples[table]
    bitmap = eval_predicates_on_sample(sample, preds)
    popcount = int(np.count_nonzero(bitmap))
    if popcount > 0:
        return popcount * rows / sample.size, bitmap
    sel = 1.0
    for p in preds:
        pop_c = int(np.count_nonzero(eval_predicates_on_sample(sample, (p,))))
        fallback = 1.0 / db.table(table).column(p.column).distinct_count
        sel *= max(pop_c / sample.size, fallback)
    return sel * rows, bitmap


def _edge_distinct(db: Database, spec: QuerySpec, left, right) -> int:
    """The independence denominator of one join edge between the (alias,
    column) pairs `left` and `right` (`Database.join_denominator`): the
    larger distinct count. Raises ValidationError for a join that does not
    follow a declared fk edge."""
    (la, lc), (ra, rc) = left, right
    return db.join_denominator((spec.table_of(la), lc), (spec.table_of(ra), rc))


def _join_denominator(db: Database, spec: QuerySpec) -> float:
    """The product of every join edge's denominator, exact in integers and
    then rounded once, so no join order can move it."""
    denom = 1
    for j in spec.joins:
        denom *= _edge_distinct(db, spec, j.left, j.right)
    return float(denom)


def _independence(db: Database, spec: QuerySpec, filtered: dict[str, float]) -> float:
    """The RS estimate from the per-alias filtered sizes, multiplied in the
    query's content order (`QuerySpec.content_order`)."""
    est = 1.0
    for alias in spec.content_order:
        est *= filtered[alias]
    est /= _join_denominator(db, spec)
    return max(est, 1.0)


def rs_estimate(
    db: Database, samples: dict[str, MaterializedSample], spec: QuerySpec
) -> float:
    """Product of extrapolated filtered table sizes over the independence
    join denominator (max distinct count per join edge), clamped to >= 1.
    Raises ValidationError for a join that is not a declared fk edge."""
    filtered = {a: _sample_scan(db, samples, spec, a)[0] for a in spec.aliases}
    return _independence(db, spec, filtered)


def ibjs_estimate(
    db: Database,
    samples: dict[str, MaterializedSample],
    indexes: dict[tuple[tuple[str, str], tuple[str, str]], Groups],
    spec: QuerySpec,
) -> float:
    """Walk the join tree from the most selective table, probing each next
    table's join index (see `storage.build_join_indexes`) with the join-key
    codes of the current intermediate tuples, all at once, and applying
    that table's predicates exactly to the matched rows. A step into an
    identity key needs no index: the codes are the matched rows, and the
    intermediate's rows are gathered again only when a predicate drops
    some (`_matches`). A join that is not a declared fk edge raises
    ValidationError, as `Database.join_keys` does.

    The final match count is scaled by the driver's inverse sampling
    fraction. Falls back to RS semantics when the driver sample is empty,
    and to independence factors for the remaining tables when an
    intermediate runs dry mid-walk.

    Every order the estimate reads is the query's content order
    (`QuerySpec.content_order`), never its alias names: the driver among
    equally selective tables, the breadth-first walk (`QuerySpec.walk`),
    and the product of the tail's factors. In Leis et al. ("Cardinality
    Estimation Done Right: Index-Based Join Sampling", CIDR 2017) the
    order in which tables are joined follows the plan enumerator; here
    there is none, so one walk is taken, in an order fixed by the query's
    content alone, and equal queries get equal estimates.
    """
    if not spec.joins:
        return rs_estimate(db, samples, spec)

    filtered, bitmaps = {}, {}
    for a in spec.aliases:
        filtered[a], bitmaps[a] = _sample_scan(db, samples, spec, a)
    driver = min(spec.content_order, key=filtered.__getitem__)
    driver_sample = samples[spec.table_of(driver)]
    driver_bitmap = bitmaps[driver]
    if driver_bitmap is None:
        driver_rows = driver_sample.row_indices
    elif driver_bitmap.any():
        driver_rows = driver_sample.row_indices[driver_bitmap]
    else:
        return _independence(db, spec, filtered)
    scale = db.table(spec.table_of(driver)).row_count / driver_sample.size

    walk = spec.walk(driver)

    def independence_tail(count: int, joined: set[str], remaining: list) -> float:
        """Partial-walk extrapolation times RS factors for what is left."""
        est = float(count) * scale
        for a in spec.content_order:
            if a not in joined:
                est *= filtered[a]
        for known, known_col, new, new_col in remaining:
            est /= _edge_distinct(db, spec, (known, known_col), (new, new_col))
        return max(est, 1.0)

    # Intermediate result: parallel arrays of full-table row indices.
    inter: dict[str, np.ndarray] = {driver: driver_rows}
    for step, (known, own_col, new, new_col) in enumerate(walk):
        new_table = db.table(spec.table_of(new))
        positions, matches = _matches(
            db, indexes, (spec.table_of(known), own_col), (new_table.name, new_col), inter[known]
        )
        keep = predicate_mask(
            lambda c: new_table.column(c).take(matches), spec.predicates_of(new)
        )
        if keep is not None:
            # Without positions, the mask picks the intermediate's rows.
            positions = keep if positions is None else positions[keep]
            matches = matches[keep]
        if not matches.size:
            return independence_tail(inter[driver].size, set(inter), walk[step:])
        if positions is not None:
            inter = {a: rows[positions] for a, rows in inter.items()}
        inter[new] = matches
    return max(inter[driver].size * scale, 1.0)


def _matches(
    db: Database,
    indexes: dict[tuple[tuple[str, str], tuple[str, str]], Groups],
    own_side: tuple[str, str],
    new_side: tuple[str, str],
    rows: np.ndarray,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Every (probe position, row) pair of one IBJS step, as `Groups.probe`
    gives them: the rows of the (table, column) `new_side` that the rows
    `rows` of `own_side` join. When `new_side` is an identity key, its row
    ids are its codes, so each code probed is the one row it matches: the
    matches are the codes, and positions, every probe position in order,
    are None. Any other side is probed through its join index. Raises
    ValidationError for a join that is not a declared fk edge, and for a
    missing index."""
    own_key, new_key = db.join_keys(own_side, new_side)
    codes = own_key.codes[rows]
    if new_key.identity:
        return None, codes
    index = indexes.get((own_side, new_side))
    if index is None:
        raise ValidationError(f"missing hash index on {new_side[0]}.{new_side[1]}")
    return index.probe(codes)
