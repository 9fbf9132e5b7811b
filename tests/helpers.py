"""Shared test utilities: gradient-check point selection, the
independent nested-loop join oracle, and the per-probe-value IBJS loop."""

import numpy as np

from cardlab.baselines import _filtered_size, rs_estimate
from cardlab.executor import eval_predicates_on_sample
from cardlab.mscn import forward

_OPS = {"=": np.equal, "<": np.less, ">": np.greater}


def nested_loop_count(db, spec):
    """Independent cardinality oracle: literal nested-loop join over
    predicate-filtered rows, scanning every row of each table in tree
    order. No hashing, no sorting, no shared code with the executor's
    counting path."""
    order = [spec.aliases[0]]
    edges = list(spec.joins)
    conds = []  # (bound alias, bound col, new alias, new col) per join
    while edges:
        for j in edges:
            (la, lc), (ra, rc) = j.left, j.right
            if la in order and ra not in order:
                conds.append((la, lc, ra, rc))
                order.append(ra)
                edges.remove(j)
                break
            if ra in order and la not in order:
                conds.append((ra, rc, la, lc))
                order.append(la)
                edges.remove(j)
                break
        else:
            raise AssertionError("join graph not a connected tree")
    masks = {}
    for a in spec.aliases:
        table = db.table(spec.table_of(a))
        m = np.ones(table.row_count, dtype=bool)
        for p in spec.predicates_of(a):
            v = table.column(p.column).values
            m &= {"=": v == p.literal, "<": v < p.literal, ">": v > p.literal}[p.op]
        masks[a] = m
    cols = {
        (a, c): db.column_values(spec.table_of(a), c)
        for (a, c) in {(x[0], x[1]) for x in conds} | {(x[2], x[3]) for x in conds}
    }
    count = 0
    stack = [(0, {})]
    while stack:
        depth, bound = stack.pop()
        if depth == len(order):
            count += 1
            continue
        alias = order[depth]
        table = db.table(spec.table_of(alias))
        my_conds = [c for c in conds if c[2] == alias]
        for r in range(table.row_count):
            if not masks[alias][r]:
                continue
            ok = True
            for ba, bc, _, nc in my_conds:
                if cols[(ba, bc)][bound[ba]] != cols[(alias, nc)][r]:
                    ok = False
                    break
            if ok:
                stack.append((depth + 1, {**bound, alias: r}))
    return count


def loop_ibjs_estimate(db, samples, spec):
    """IBJS as a Python loop over probe values: each value's matching rows
    come from a full column scan, then the new table's full predicate mask
    filters them. Returns (estimate, path), path being "rs" (empty driver
    or no join), "tail" (an intermediate ran dry) or "walk"."""
    if not spec.joins:
        return rs_estimate(db, samples, spec), "rs"
    filtered = {a: _filtered_size(db, samples, spec, a) for a in spec.aliases}
    driver = min(spec.aliases, key=lambda a: (filtered[a], a))
    driver_sample = samples[spec.table_of(driver)]
    bitmap = eval_predicates_on_sample(driver_sample, spec.predicates_of(driver))
    if not bitmap.any():
        return rs_estimate(db, samples, spec), "rs"
    scale = db.table(spec.table_of(driver)).row_count / driver_sample.size

    adj = {a: [] for a in spec.aliases}
    for j in spec.joins:
        adj[j.left[0]].append((j.right[0], j.left[1], j.right[1]))
        adj[j.right[0]].append((j.left[0], j.right[1], j.left[1]))
    walk, seen, frontier = [], {driver}, [driver]
    while frontier:
        alias = frontier.pop(0)
        for other, own_col, other_col in sorted(adj[alias]):
            if other not in seen:
                seen.add(other)
                walk.append((alias, own_col, other, other_col))
                frontier.append(other)

    inter = {driver: driver_sample.row_indices[bitmap]}
    for step, (known, own_col, new, new_col) in enumerate(walk):
        table = db.table(spec.table_of(new))
        mask = np.ones(table.row_count, dtype=bool)
        for p in spec.predicates_of(new):
            mask &= _OPS[p.op](table.column(p.column).values, p.literal)
        new_vals = table.column(new_col).values
        probe_vals = db.column_values(spec.table_of(known), own_col)[inter[known]]
        match_lists, repeats = [], []
        for v in probe_vals:
            matches = np.flatnonzero(new_vals == v)
            matches = matches[mask[matches]]
            match_lists.append(matches)
            repeats.append(matches.size)
        if not sum(repeats):
            est = float(inter[driver].size) * scale
            for a in spec.aliases:
                if a not in inter:
                    est *= filtered[a]
            for k, _, n, _ in walk[step:]:
                edge = next(j for j in spec.joins if {j.left[0], j.right[0]} == {k, n})
                est /= max(
                    db.stats(spec.table_of(a), c).distinct_count
                    for a, c in (edge.left, edge.right)
                )
            return max(est, 1.0), "tail"
        inter = {a: np.repeat(rows, repeats) for a, rows in inter.items()}
        inter[new] = np.concatenate(match_lists)
    return max(inter[driver].size * scale, 1.0), "walk"


def flatten_params(params):
    return np.concatenate([params[k].ravel() for k in params])


def assign_params(params, vector):
    offset = 0
    for k in params:
        size = params[k].size
        params[k][...] = vector[offset : offset + size].reshape(params[k].shape)
        offset += size


def pick_generic_point(model, params, mb, h, seed=0, scale=0.05):
    """A parameter point whose pre-activations all clear the ReLU kinks by a
    comfortable margin, so central differences with step h stay one-sided.

    Freshly initialized models sit exactly on the kinks (zero biases meet
    the all-zero placeholder elements), which is a genuine point of
    non-differentiability rather than a gradient bug.
    """
    rng = np.random.default_rng(seed)
    base = flatten_params(params)
    for _ in range(50):
        point = base + rng.normal(scale=scale, size=base.size)
        assign_params(params, point)
        _, caches = forward(model, mb)
        margins = []
        for name in ("tables", "joins", "preds"):
            cache, _ = caches[name]
            margins.append(np.abs(cache.pre1).min())
            margins.append(np.abs(cache.pre2).min())
        margins.append(np.abs(caches["out"].pre1).min())
        if min(margins) > 20 * h:
            return point
    raise AssertionError("could not find a kink-free parameter point")
