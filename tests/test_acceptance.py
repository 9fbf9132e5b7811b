"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The quantitative criteria share one model set (three seeds x three sample
modes at the reference configuration: correlated database with a 10^5-row
fact table, sample size 100, 10^4 training queries with 0-2 joins, d=64,
100 epochs, lr=0.001, batch 256), built once by module-scoped fixtures.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete; the heavy fixtures take a few minutes of CPU.
"""

import math
import time

import numpy as np
import pytest
from helpers import (
    assign_params,
    flatten_params,
    grad_check,
    nested_loop_count,
    pick_generic_point,
)

from cardlab.baselines import ibjs_estimate, rs_estimate
from cardlab.evalkit import is_zero_tuple, run_eval, write_report_csv
from cardlab.executor import eval_predicates_on_sample, label_workload
from cardlab.featurizer import (
    batch as make_batch,
    build_catalog,
    denormalize_label,
    featurize,
    featurize_labeled,
)
from cardlab.mscn import (
    Hyperparams,
    backward,
    forward,
    init_model,
    loss_and_grad,
    param_dict,
    predict_labeled,
    save_model,
    train,
)
from cardlab.query import format_query, generate_workload
from cardlab.storage import (
    SynthConfig,
    build_join_indexes,
    draw_all_samples,
    draw_sample,
    generate_synthetic_db,
)

SAMPLE_SIZE = 100
DB_SEED = 101
SAMPLE_SEED = 11
CORPUS_SEED = 12
HELD_SEED = 13
SCALE_SEED = 14
MODEL_SEEDS = (1000, 1001, 1002)
HP = dict(d=64, epochs=100, batch_size=256, lr=0.001)

SMALL_ROWS = {
    "title": 200,
    "movie_companies": 300,
    "movie_info": 300,
    "movie_info_idx": 300,
    "movie_keyword": 300,
    "cast_info": 300,
}


def check(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def overall(rows: list[dict]) -> dict:
    return next(r for r in rows if r["join_count"] == "overall")


# ---------------------------------------------------------------------------
# Shared fixtures (reference configuration)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def db():
    return generate_synthetic_db(SynthConfig(rho=0.8), seed=DB_SEED)


@pytest.fixture(scope="module")
def samples(db):
    return draw_all_samples(db, SAMPLE_SIZE, seed=SAMPLE_SEED)


@pytest.fixture(scope="module")
def corpus(db, samples):
    specs = generate_workload(db, 11500, 2, seed=CORPUS_SEED)
    labeled, _ = label_workload(db, specs, samples)
    assert len(labeled) >= 10_000
    return labeled[:10_000]


@pytest.fixture(scope="module")
def held_out(db, samples, corpus):
    train_keys = {format_query(q.spec) for q in corpus}
    specs = [
        s
        for s in generate_workload(db, 1400, 2, seed=HELD_SEED)
        if format_query(s) not in train_keys
    ]
    labeled, _ = label_workload(db, specs, samples)
    assert len(labeled) >= 1000
    return labeled[:1000]


@pytest.fixture(scope="module")
def scale_workload(db, samples):
    specs = [s for s in generate_workload(db, 1500, 4, seed=SCALE_SEED) if len(s.joins) >= 3]
    labeled, _ = label_workload(db, specs, samples)
    three = [q for q in labeled if len(q.spec.joins) == 3][:100]
    four = [q for q in labeled if len(q.spec.joins) == 4][:100]
    assert len(three) == 100 and len(four) == 100
    return three, four


@pytest.fixture(scope="module")
def catalogs(db, corpus):
    cards = [q.true_cardinality for q in corpus]
    return {
        mode: build_catalog(db, cards, SAMPLE_SIZE, mode)
        for mode in ("bitmap", "count", "none")
    }


def split_batches(full, n, seed):
    rng = np.random.default_rng([seed, 2])
    perm = rng.permutation(n)
    n_val = round(0.1 * n)
    return full.slice(perm[n_val:]), full.slice(perm[:n_val])


@pytest.fixture(scope="module")
def models(corpus, catalogs):
    """(mode, seed) -> (model, history, train seconds) for the shared grid."""
    out = {}
    for mode, catalog in catalogs.items():
        full = featurize_labeled(corpus, catalog)
        for seed in MODEL_SEEDS:
            tb, vb = split_batches(full, len(corpus), seed)
            t0 = time.time()
            model, history = train(tb, vb, catalog, Hyperparams(seed=seed, **HP))
            out[(mode, seed)] = (model, history, time.time() - t0)
    return out


@pytest.fixture(scope="module")
def reference_model(models):
    return models[("bitmap", MODEL_SEEDS[0])][0]


@pytest.fixture(scope="module")
def small_db():
    return generate_synthetic_db(SynthConfig(rows=SMALL_ROWS, rho=0.6), seed=7)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_permutation_and_padding_invariance(reference_model, held_out):
    t0 = time.time()
    model = reference_model
    catalog = model.catalog
    rng = np.random.default_rng(201)
    queries = held_out[:200]
    base = predict_labeled(model, queries)
    perturbed = []
    for q in queries:
        fq = featurize(q, catalog)
        for attr in ("table_elems", "join_elems", "pred_elems"):
            elems = getattr(fq, attr)
            setattr(fq, attr, elems[rng.permutation(elems.shape[0])])
        perturbed.append(fq)
    b = make_batch(perturbed)
    # Random extra zero-padding rows with mask 0 on every set.
    pads = [int(rng.integers(1, 4)) for _ in range(3)]
    for pad, (feats, mask) in zip(
        pads,
        (
            (b.table_feats, b.table_mask),
            (b.join_feats, b.join_mask),
            (b.pred_feats, b.pred_mask),
        ),
    ):
        padded_f = np.concatenate(
            [feats, np.zeros((feats.shape[0], pad, feats.shape[2]))], axis=1
        )
        padded_m = np.concatenate([mask, np.zeros((mask.shape[0], pad))], axis=1)
        if feats is b.table_feats:
            b.table_feats, b.table_mask = padded_f, padded_m
        elif feats is b.join_feats:
            b.join_feats, b.join_mask = padded_f, padded_m
        else:
            b.pred_feats, b.pred_mask = padded_f, padded_m
    y, _ = forward(model, b)
    est = np.exp(catalog.label_log_min + y * catalog.label_log_range)
    rel = np.abs(est - base) / base
    elapsed = time.time() - t0
    check(
        1,
        bool(rel.max() <= 1e-6) and elapsed < 60,
        f"max relative output change {rel.max():.2e} over 200 queries"
        f" under permutation+padding (limit 1e-06), {elapsed:.1f}s",
    )


@pytest.mark.parametrize("kind", ["mse", "mean_qerror"])
def test_criterion_02_gradient_correctness(catalogs, corpus, kind):
    t0 = time.time()
    catalog = catalogs["bitmap"]
    model = init_model(catalog, Hyperparams(d=8, seed=77))
    params = param_dict(model)
    mb = featurize_labeled(corpus[:4], catalog)
    k = catalog.label_log_range
    h = 1e-5
    point = pick_generic_point(model, params, mb, h, seed=78)
    assign_params(params, point)
    y0, _ = forward(model, mb)
    offsets = np.array([0.09, -0.11, 0.13, -0.08])
    labels = np.clip(y0 - offsets, 0.02, 0.98)
    assert np.all(np.abs(y0 - labels) > 1e-2)

    def f(vec):
        assign_params(params, vec)
        y, _ = forward(model, mb)
        loss, _ = loss_and_grad(y, labels, kind, k)
        assign_params(params, point)
        return loss

    y, caches = forward(model, mb)
    _, d_y = loss_and_grad(y, labels, kind, k)
    grads = backward(model, caches, d_y)
    flat = np.concatenate([grads[name].ravel() for name in params])
    err = grad_check(f, flat, point, h=h, num_coords=250, seed=79)
    elapsed = time.time() - t0
    check(
        2,
        bool(err <= 1e-4) and elapsed < 60,
        f"{kind}: max relative gradient error {err:.2e} (limit 1e-04), {elapsed:.1f}s",
    )


def test_criterion_03_loss_identity(catalogs):
    catalog = catalogs["bitmap"]
    k = catalog.label_log_range
    rng = np.random.default_rng(301)
    worst = 0.0
    for _ in range(1000):
        y = float(rng.uniform(0.001, 0.999))
        t = float(rng.uniform(0.001, 0.999))
        loss, _ = loss_and_grad(np.array([y]), np.array([t]), "mean_qerror", k)
        est = denormalize_label(y, catalog)
        truth = denormalize_label(t, catalog)
        direct = max(est / truth, truth / est)
        worst = max(worst, abs(loss - direct) / direct)
    check(
        3,
        worst <= 1e-9,
        f"exp(k|delta|) vs direct q-error: max relative gap {worst:.2e}"
        f" over 1000 pairs (limit 1e-09)",
    )


def test_criterion_04_oracle_equivalence(small_db):
    t0 = time.time()
    specs = generate_workload(small_db, 200, 2, seed=401)
    from cardlab.executor import true_cardinality

    mismatches = sum(
        true_cardinality(small_db, s) != nested_loop_count(small_db, s) for s in specs
    )
    elapsed = time.time() - t0
    check(
        4,
        mismatches == 0 and elapsed < 120,
        f"executor vs nested-loop oracle: {mismatches} mismatches"
        f" on 200 queries, {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_05_baseline_sanity(small_db):
    # IBJS with full samples reproduces exact cardinalities.
    full_samples = {
        name: draw_sample(small_db.table(name), small_db.table(name).row_count, seed=0)
        for name in small_db.table_names()
    }
    indexes = build_join_indexes(small_db)
    specs = generate_workload(small_db, 60, 2, seed=501)
    labeled, _ = label_workload(small_db, specs, full_samples)
    worst_q = 1.0
    for q in labeled:
        est = ibjs_estimate(small_db, full_samples, indexes, q.spec)
        worst_q = max(worst_q, max(est / q.true_cardinality, q.true_cardinality / est))
    # RS on single tables is exactly the popcount extrapolation (queries
    # with an empty sample take the separate per-conjunct fallback path).
    samples = draw_all_samples(small_db, 50, seed=502)
    singles = generate_workload(small_db, 80, 0, seed=503)
    exact = True
    checked = 0
    for spec in singles:
        alias = spec.aliases[0]
        table = small_db.table(spec.table_of(alias))
        pop = int(
            eval_predicates_on_sample(
                samples[table.name], spec.predicates_of(alias)
            ).sum()
        )
        if pop == 0:
            continue
        checked += 1
        if rs_estimate(small_db, samples, spec) != pop * table.row_count / 50:
            exact = False
    check(
        5,
        worst_q == 1.0 and exact and checked >= 30,
        f"IBJS@full-sample worst q-error {worst_q} (want 1.0);"
        f" RS extrapolation exact on {checked} single-table queries: {exact}",
    )


def test_criterion_06_scaled_end_to_end_quality(
    models, held_out, db, samples
):
    model, _, train_seconds = models[("bitmap", MODEL_SEEDS[0])]
    mscn_row = overall(run_eval(model, held_out, db, samples))
    rs_row = overall(run_eval("rs", held_out, db, samples))
    ok = (
        mscn_row["median"] <= 3.0
        and mscn_row["p95"] <= 25.0
        and mscn_row["mean"] < rs_row["mean"]
        and train_seconds <= 20 * 60
    )
    check(
        6,
        ok,
        f"held-out MSCN(bitmap): median {mscn_row['median']:.2f} (<=3.0),"
        f" p95 {mscn_row['p95']:.2f} (<=25.0), mean {mscn_row['mean']:.2f}"
        f" < RS mean {rs_row['mean']:.2f}; training {train_seconds:.0f}s (<=1200s)",
    )


def test_criterion_07_zero_tuple_robustness(models, held_out, db, samples):
    model = models[("bitmap", MODEL_SEEDS[0])][0]
    subset = [q for q in held_out if is_zero_tuple(q)]
    mscn_row = overall(run_eval(model, subset, db, samples))
    rs_row = overall(run_eval("rs", subset, db, samples))
    ok = len(subset) >= 30 and mscn_row["p95"] < rs_row["p95"]
    check(
        7,
        ok,
        f"{len(subset)} all-zero-bitmap held-out queries (need >=30);"
        f" MSCN p95 {mscn_row['p95']:.2f} < RS p95 {rs_row['p95']:.2f}",
    )


def test_criterion_08_ablation_direction(models, held_out, db, samples):
    means = {}
    for mode in ("bitmap", "count", "none"):
        per_seed = [
            overall(run_eval(models[(mode, s)][0], held_out, db, samples))["mean"]
            for s in MODEL_SEEDS
        ]
        means[mode] = float(np.mean(per_seed))
    ok = means["bitmap"] <= means["count"] <= means["none"]
    check(
        8,
        ok,
        f"3-seed mean held-out q-error: bitmap {means['bitmap']:.3f}"
        f" <= count {means['count']:.3f} <= none {means['none']:.3f}",
    )


def test_criterion_09_generalization_shape(
    models, scale_workload, db, samples
):
    three, four = scale_workload
    lo = math.exp(models[("bitmap", MODEL_SEEDS[0])][0].catalog.label_log_min)
    hi = math.exp(models[("bitmap", MODEL_SEEDS[0])][0].catalog.label_log_max)
    in_range = True
    medians_3j = []
    for s in MODEL_SEEDS:
        model = models[("bitmap", s)][0]
        for part in (three, four):
            est = predict_labeled(model, part)
            if not (np.all(np.isfinite(est)) and np.all((est > lo) & (est < hi))):
                in_range = False
        medians_3j.append(overall(run_eval(model, three, db, samples))["median"])
    rs_median_3j = overall(run_eval("rs", three, db, samples))["median"]
    mscn_median_3j = float(np.mean(medians_3j))
    ok = in_range and mscn_median_3j <= rs_median_3j
    check(
        9,
        ok,
        f"3/4-join predictions finite and inside ({lo:.1f}, {hi:.1f}): {in_range};"
        f" median@3joins MSCN {mscn_median_3j:.2f} <= RS {rs_median_3j:.2f}",
    )


def test_criterion_10_convergence_monotonicity(models):
    history = models[("bitmap", MODEL_SEEDS[0])][1]
    assert [h["epoch"] for h in history] == list(range(1, HP["epochs"] + 1))
    early = history[4]["val_mean_qerror"]
    late = history[-1]["val_mean_qerror"]
    check(
        10,
        late < early,
        f"validation mean q-error epoch 100: {late:.2f} < epoch 5: {early:.2f};"
        f" history emitted for all {len(history)} epochs",
    )


def test_criterion_11_reproducibility(
    models, corpus, catalogs, held_out, db, samples, tmp_path
):
    seed = MODEL_SEEDS[0]
    first_model = models[("bitmap", seed)][0]
    path_a, path_b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(first_model, path_a)

    # Full rerun from the seeds: database, samples, corpus, split, training.
    db2 = generate_synthetic_db(SynthConfig(rho=0.8), seed=DB_SEED)
    samples2 = draw_all_samples(db2, SAMPLE_SIZE, seed=SAMPLE_SEED)
    specs2 = generate_workload(db2, 11500, 2, seed=CORPUS_SEED)
    labeled2, _ = label_workload(db2, specs2, samples2)
    corpus2 = labeled2[:10_000]
    catalog2 = build_catalog(
        db2, [q.true_cardinality for q in corpus2], SAMPLE_SIZE, "bitmap"
    )
    full2 = featurize_labeled(corpus2, catalog2)
    tb2, vb2 = split_batches(full2, len(corpus2), seed)
    model2, _ = train(tb2, vb2, catalog2, Hyperparams(seed=seed, **HP))
    save_model(model2, path_b)
    models_identical = path_a.read_bytes() == path_b.read_bytes()

    report_a, report_b = tmp_path / "ra.csv", tmp_path / "rb.csv"
    write_report_csv(run_eval(first_model, held_out, db, samples), report_a)
    write_report_csv(run_eval(model2, held_out, db, samples), report_b)
    reports_identical = report_a.read_bytes() == report_b.read_bytes()
    check(
        11,
        models_identical and reports_identical,
        f"rerun from seeds: model files byte-identical: {models_identical},"
        f" eval reports byte-identical: {reports_identical}",
    )
