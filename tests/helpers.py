"""Shared test utilities: the finite-difference gradient check and its
point selection, the independent nested-loop join oracle, the
per-probe-value IBJS loop, the two-column join-key coding, drawn fk-forest
schemas and join trees over them, query rewrites that keep a query's
meaning, the zero-padding loop that batches featurized queries, the dense
MSCN kernel that runs every padded set element, the sign-split sigmoid,
and a reader of report CSVs."""

import csv
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from cardlab.baselines import _sample_scan, ibjs_estimate, rs_estimate
from cardlab.executor import eval_predicates_on_sample, true_cardinality
from cardlab.mscn import (
    _FIELDS,
    _SET_NAMES,
    init_model,
    logger,
    loss_and_grad,
    param_dict,
    validation_mean_qerror,
)
from cardlab.neural import (
    AdamState,
    adam_step,
    masked_mean_pool,
    masked_mean_pool_backward,
    mlp2_backward,
    mlp2_forward,
)
from cardlab.query import JoinEdge, Predicate, QuerySpec, TableRef
from cardlab.storage import Column, Database, Table, _code_space, _join_key, _matched

_OPS = {"=": np.equal, "<": np.less, ">": np.greater}


def code_join_keys(left, right):
    """Code two join columns into one key space (`storage._code_space`),
    each key's `matches_once` read against the other: the two-column form
    of the coding `Database` gives each referenced column and its fk
    children."""
    arrays = (left, right)
    codes, size, base = _code_space(
        arrays, [(int(a.min()), int(a.max())) for a in arrays if a.size], left.size + right.size
    )
    return _matched(*(_join_key(c, size, base) for c in codes))


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


def content_key(spec, alias):
    """What `spec` says of `alias`, as a content order sorts it: table,
    predicates (column, operator, literal), join ends (own column, other
    table, other column), and the name last. Read from `spec.predicates`
    and `spec.joins` alone, not from `QuerySpec.content_order` or
    `joins_of`, so that tests can check those against it."""
    preds = sorted((p.column, p.op, p.literal) for p in spec.predicates if p.alias == alias)
    ends = []
    for j in spec.joins:
        if alias in (j.left[0], j.right[0]):
            own, other = (j.left, j.right) if j.left[0] == alias else (j.right, j.left)
            ends.append((own[1], spec.table_of(other[0]), other[1]))
    return spec.table_of(alias), preds, sorted(ends), alias


def content_order(spec):
    """`spec`'s aliases sorted by `content_key`."""
    return sorted(spec.aliases, key=lambda a: content_key(spec, a))


def loop_ibjs_estimate(db, samples, spec):
    """IBJS as a Python loop over probe values: each value's matching rows
    come from a full column scan, then the new table's full predicate mask
    filters them. Every order follows the content order, here built by
    `content_order` rather than read from the spec: the driver among equal
    filtered sizes, each alias's neighbours in the breadth-first walk
    (then by columns), and the tail's product. Returns (estimate, path),
    path being "rs" (empty driver or no join), "tail" (an intermediate ran
    dry) or "walk"."""
    if not spec.joins:
        return rs_estimate(db, samples, spec), "rs"
    order = content_order(spec)
    rank = {a: i for i, a in enumerate(order)}
    filtered = {a: _sample_scan(db, samples, spec, a)[0] for a in spec.aliases}
    driver = min(spec.aliases, key=lambda a: (filtered[a], rank[a]))
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
        for other, own_col, other_col in sorted(adj[alias], key=lambda e: (rank[e[0]], e)):
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
            for a in order:
                if a not in inter:
                    est *= filtered[a]
            for k, _, n, _ in walk[step:]:
                edge = next(j for j in spec.joins if {j.left[0], j.right[0]} == {k, n})
                est /= max(
                    db.table(spec.table_of(a)).column(c).distinct_count
                    for a, c in (edge.left, edge.right)
                )
            return max(est, 1.0), "tail"
        inter = {a: np.repeat(rows, repeats) for a, rows in inter.items()}
        inter[new] = np.concatenate(match_lists)
    return max(inter[driver].size * scale, 1.0), "walk"


@st.composite
def fk_forests(draw):
    """A database of 2-5 tables `t0`, `t1`, ... of 3-14 rows each. Each
    has a primary key `id`, one or two attribute columns (`a`, `b`) of at
    most six values, so some tables have a cube and some have not, and
    each table after the first one or two fks (`f0`, `f1`) to earlier
    tables, which give chains, parents with several children and children
    with two fks to one parent. A key's values are its row positions, in
    row order (an identity key) or shuffled, spread by 1, 3 or 10**12 (a
    dense key space that is not the identity, or one `np.unique` codes)."""
    tables = []
    for i in range(draw(st.integers(2, 5))):
        n = draw(st.integers(3, 14))
        order = draw(st.permutations(range(n)) | st.just(list(range(n))))
        ids = draw(st.sampled_from([1, 3, 10**12])) * np.array(order, dtype=np.int64)
        columns = [Column("id", "pk", ids)]
        for name in "ab"[: draw(st.integers(1, 2))]:
            domain = draw(st.integers(1, 6))
            columns.append(Column(name, "attr", draw(st.lists(
                st.integers(0, domain - 1), min_size=n, max_size=n))))
        for k in range(draw(st.integers(1, 2)) if i else 0):
            parent = tables[draw(st.integers(0, i - 1))]
            ids = parent.column("id").values.tolist()
            fks = draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n))
            columns.append(Column(f"f{k}", "fk", fks, ref=(parent.name, "id")))
        tables.append(Table(f"t{i}", columns))
    return Database(tables)


@st.composite
def join_queries(draw, db, max_aliases=4):
    """A join tree over `db` along its fk edges, of 1 to `max_aliases`
    aliases, the larger trees drawn first: each alias after the first
    joins one already drawn through an fk edge of its table, as child or
    as parent, so one table may have several aliases; each join is written
    either way round, and each alias has 0-2 predicates, on one column or
    two, with literals around the columns' values."""
    tables = [draw(st.sampled_from(db.table_names()))]
    joins = []
    for _ in range(draw(st.sampled_from(range(max_aliases - 1, -1, -1)))):
        # Every table of a forest has an fk edge: each after the first
        # references an earlier one.
        ends = [(i, e, side) for i, t in enumerate(tables) for e in db.fk_edges
                for side in (0, 1) if (e.child, e.parent)[side][0] == t]
        i, e, side = draw(st.sampled_from(ends))
        own, other = (e.child, e.parent) if side == 0 else (e.parent, e.child)
        tables.append(other[0])
        edge = ((f"q{i}", own[1]), (f"q{len(tables) - 1}", other[1]))
        joins.append(JoinEdge(*(edge if draw(st.booleans()) else edge[::-1])))
    predicates = []
    for i, t in enumerate(tables):
        for _ in range(draw(st.sampled_from((0, 1, 2)))):
            column = draw(st.sampled_from(db.attr_columns(t)))
            literal = draw(st.integers(-1, 6))
            predicates.append(Predicate(f"q{i}", column, draw(st.sampled_from("=<>")), literal))
    refs = tuple(TableRef(t, f"q{i}") for i, t in enumerate(tables))
    return QuerySpec(refs, tuple(joins), tuple(predicates))


def rewritten(spec, names, flips=()):
    """`spec` with every alias `a` written as `names[a]` and the joins
    whose positions in `spec.joins` are in `flips` written the other way
    round: the same query."""
    def end(side):
        return names[side[0]], side[1]

    joins = tuple(
        JoinEdge(end(j.right), end(j.left)) if i in flips else JoinEdge(end(j.left), end(j.right))
        for i, j in enumerate(spec.joins)
    )
    return QuerySpec(
        tuple(TableRef(t.table, names[t.alias]) for t in spec.tables),
        joins,
        tuple(Predicate(names[p.alias], p.column, p.op, p.literal) for p in spec.predicates),
    )


def count_and_estimates(db, samples, indexes, spec):
    """The exact count of `spec`, and its RS and IBJS estimates as hex
    strings, so that equal means bit-equal."""
    return (true_cardinality(db, spec), rs_estimate(db, samples, spec).hex(),
            ibjs_estimate(db, samples, indexes, spec).hex())


@st.composite
def rewrites(draw, spec):
    """`spec` rewritten (`rewritten`) with drawn alias names, none of them
    kept, each join drawn to flip or not, and its tables, joins and
    predicates handed to `QuerySpec` in drawn orders."""
    names = draw(st.lists(st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=3),
                          min_size=len(spec.aliases), max_size=len(spec.aliases), unique=True)
                 .filter(lambda new: all(n != a for n, a in zip(new, spec.aliases))))
    flips = {i for i in range(len(spec.joins)) if draw(st.booleans())}
    other = rewritten(spec, dict(zip(spec.aliases, names)), flips)
    return QuerySpec(*(tuple(draw(st.permutations(part)))
                       for part in (other.tables, other.joins, other.predicates)))


def flatten_params(params):
    return np.concatenate([params[k].ravel() for k in params])


def assign_params(params, vector):
    offset = 0
    for k in params:
        size = params[k].size
        params[k][...] = vector[offset : offset + size].reshape(params[k].shape)
        offset += size


def grad_check(
    f,
    analytic_grad: np.ndarray,
    point: np.ndarray,
    h: float = 1e-4,
    num_coords: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error between `analytic_grad` and central differences of
    scalar `f` at `point`, over a random subset of coordinates.

    Coordinates where both gradients are below 1e-6 in magnitude are
    treated as matched (finite differences carry no signal there).
    """
    rng = np.random.default_rng(seed)
    n = point.size
    coords = rng.choice(n, size=min(num_coords, n), replace=False)
    worst = 0.0
    for i in coords:
        shifted = point.copy()
        shifted[i] = point[i] + h
        fp = f(shifted)
        shifted[i] = point[i] - h
        fm = f(shifted)
        numeric = (fp - fm) / (2.0 * h)
        denom = max(abs(numeric), abs(analytic_grad[i]), 1e-6)
        worst = max(worst, abs(numeric - analytic_grad[i]) / denom)
    return worst


def read_report_csv(path):
    """The rows of a report CSV written by `evalkit.write_report_csv`, as
    dicts of strings."""
    with Path(path).open(newline="", encoding="utf-8") as f:
        return [dict(row) for row in csv.DictReader(f)]


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
        _, caches = dense_forward(model, mb)
        margins = []
        # The caches keep no pre-activations; recompute them from the inputs.
        for name in ("tables", "joins", "preds"):
            cache, _ = caches[name]
            p = model.modules()[name]
            margins.append(np.abs(cache.x @ p.w1 + p.b1).min())
            margins.append(np.abs(cache.h @ p.w2 + p.b2).min())
        p = model.out_mlp
        margins.append(np.abs(caches["out"].x @ p.w1 + p.b1).min())
        if min(margins) > 20 * h:
            return point
    raise AssertionError("could not find a kink-free parameter point")


def padded_batch(fqs):
    """The eight batch attributes of featurized queries, by name, built by
    copying each query's element matrices into zeros padded to the longest
    set of its kind and marking the copied rows 1 in a float64 mask; the
    labels and true counts when every query has them, else None.
    `featurizer.batch` and `featurize_labeled` must match it byte for byte."""
    out = {}
    for kind in ("table", "join", "pred"):
        elems = [getattr(q, f"{kind}_elems") for q in fqs]
        longest = max(e.shape[0] for e in elems)
        feats = np.zeros((len(fqs), longest, elems[0].shape[1]))
        mask = np.zeros((len(fqs), longest))
        for i, e in enumerate(elems):
            feats[i, : e.shape[0]] = e
            mask[i, : e.shape[0]] = 1.0
        out[f"{kind}_feats"], out[f"{kind}_mask"] = feats, mask
    labeled = all(q.label_norm is not None for q in fqs)
    out["labels_norm"] = np.array([q.label_norm for q in fqs]) if labeled else None
    out["cardinalities"] = (
        np.array([q.cardinality for q in fqs], dtype=np.float64) if labeled else None
    )
    return out


# ---------------------------------------------------------------------------
# The dense MSCN kernel: every set module runs on all padded elements and
# the masked mean pool weights them by their mask. `mscn.forward`,
# `mscn.backward` and `mscn.train` must match it byte for byte.
# ---------------------------------------------------------------------------


def dense_forward(model, batch):
    """Predictions in (0, 1) plus the cache needed for backward."""
    caches = {}
    pooled = []
    sets = (
        ("tables", batch.table_feats, batch.table_mask, model.tables_mlp),
        ("joins", batch.join_feats, batch.join_mask, model.joins_mlp),
        ("preds", batch.pred_feats, batch.pred_mask, model.preds_mlp),
    )
    for name, feats, mask, module in sets:
        elems, cache = mlp2_forward(feats, module, final="relu")
        caches[name] = (cache, mask)
        pooled.append(masked_mean_pool(elems, mask))
    merged = np.concatenate(pooled, axis=-1)
    out, out_cache = mlp2_forward(merged, model.out_mlp, final="sigmoid")
    caches["out"] = out_cache
    return out[..., 0], caches


def dense_backward(model, caches, d_y):
    """Parameter gradients given dL/dy."""
    grads = {}
    d_merged, g_out = mlp2_backward(d_y[..., None], caches["out"], model.out_mlp)
    for field in _FIELDS:
        grads[f"out.{field}"] = getattr(g_out, field)
    d = model.hyperparams.d
    for i, name in enumerate(_SET_NAMES):
        cache, mask = caches[name]
        d_pooled = d_merged[..., i * d : (i + 1) * d]
        d_elems = masked_mean_pool_backward(d_pooled, mask)
        _, g = mlp2_backward(d_elems, cache, model.modules()[name])
        for field in _FIELDS:
            grads[f"{name}.{field}"] = getattr(g, field)
    return grads


def dense_train(train_batch, val_batch, catalog, hp):
    """Mini-batch shuffled Adam for hp.epochs; returns the last-epoch model
    and a per-epoch history of train loss and validation mean q-error."""
    if train_batch.labels_norm is None or val_batch.labels_norm is None:
        raise ValueError("training requires normalized labels")
    model = init_model(catalog, hp)
    params = param_dict(model)
    state = AdamState.init_like(params)
    shuffle_rng = np.random.default_rng([hp.seed, 1])
    k = catalog.label_log_range
    n = len(train_batch)
    history = []
    for epoch in range(1, hp.epochs + 1):
        perm = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, hp.batch_size):
            idx = perm[start : start + hp.batch_size]
            mb = train_batch.slice(idx)
            y, caches = dense_forward(model, mb)
            loss, d_y = loss_and_grad(y, mb.labels_norm, hp.loss_kind, k)
            grads = dense_backward(model, caches, d_y)
            adam_step(params, grads, state, hp.lr)
            epoch_loss += loss * idx.size
        val_q = validation_mean_qerror(model, val_batch)
        history.append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss / n,
                "val_mean_qerror": val_q,
            }
        )
        if epoch % 10 == 0 or epoch == 1:
            logger.info(
                "epoch %d/%d train_loss=%.4f val_mean_qerror=%.4f",
                epoch,
                hp.epochs,
                history[-1]["train_loss"],
                val_q,
            )
    return model, history


def masked_sigmoid(x):
    """The sigmoid as `neural.sigmoid` computed it by scattering through
    boolean masks; `neural.sigmoid` must match it byte for byte."""
    # Split by sign to avoid overflow in exp.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
