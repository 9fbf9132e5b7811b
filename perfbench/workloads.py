"""The three benchmark workloads: `label`, `train` and `serve`.

Each workload is one closed-loop client in one process. `setup` builds its
inputs from the workload seed, `op` runs one timed operation through the
package's public entry points, and `traced_op` runs the same operation as a
sequence of calls into each module, each inside a span. The database and
samples are the acceptance reference configuration; the queries, the data
split and the model seed come from the workload seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from cardlab.baselines import ibjs_estimate, rs_estimate
from cardlab.evalkit import report, run_eval, write_report_json
from cardlab.executor import (
    label_workload,
    query_bitmaps,
    read_labeled_corpus,
    true_cardinality,
    write_labeled_corpus,
)
from cardlab.featurizer import batch as make_batch
from cardlab.featurizer import build_catalog, featurize, featurize_labeled
from cardlab.mscn import (
    Hyperparams,
    forward,
    init_model,
    loss_and_grad,
    param_dict,
    predict,
    predict_labeled,
    save_model,
    train,
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
from cardlab.query import LabeledQuery, format_query, generate_workload, validate
from cardlab.storage import (
    SynthConfig,
    build_join_indexes,
    draw_all_samples,
    generate_synthetic_db,
)

from checks import brute_force_bitmap, brute_force_count, sha256
from spans import Tracer, clock, median, pct

# Acceptance reference configuration (tests/test_acceptance.py).
DB_SEED = 101
SAMPLE_SEED = 11
SAMPLE_SIZE = 100
RHO = 0.8
REFERENCE_HP = dict(d=64, batch_size=256, lr=0.001, loss_kind="mean_qerror")

LABEL_PASS = 100  # generated queries per `label` pass (0-2 joins)
BRUTE_FORCE_QUERIES = 16  # pass-0 queries recounted by the brute-force join

TRAIN_GENERATED, TRAIN_KEEP = 2000, 1700  # 0-2 joins; 10% of kept is validation
HELD_GENERATED, HELD_KEEP = 400, 300
# One epoch per timed `mscn.train` call: many short calls, each run once
# per round, give each call ten samples spread over the whole run.
TRAIN_EPOCHS = 1
# Training cost grows with the padded predicate-set width, which is the
# largest predicate count in the corpus. Capping it keeps that width, and so
# the work per epoch, the same for every seed.
TRAIN_MAX_PREDICATES = 5

SERVE_PASS = 400  # queries per `serve` pass, 0-4 joins, not labeled
SERVE_GENERATED, SERVE_KEEP = 320, 250  # labeled held-out for run_eval, 0-4 joins
MODEL_GENERATED, MODEL_KEEP = 600, 500  # small model's corpus, 0-2 joins
MODEL_EPOCHS = 5

_SETS = ("tables", "joins", "preds")
_FIELDS = ("w1", "b1", "w2", "b2")


class Checks:
    """Counts output checks and remembers the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def build_db(tr):
    with tr.span("storage.generate_synthetic_db"):
        db = generate_synthetic_db(SynthConfig(rho=RHO), seed=DB_SEED)
    with tr.span("storage.draw_all_samples"):
        samples = draw_all_samples(db, SAMPLE_SIZE, seed=SAMPLE_SEED)
    return db, samples


def labeled_set(
    db, samples, generated, max_joins, seed, keep, exclude=frozenset(), max_preds=None
):
    """The first `keep` non-empty labeled queries of a generated workload,
    leaving out those in `exclude` and those with over `max_preds` predicates.
    Labels `generated` queries, and twice as many again while too few are
    left (a longer workload from the same seed starts with the shorter one)."""
    kept, done = [], 0
    while len(kept) < keep:
        specs = [
            s
            for s in generate_workload(db, generated, max_joins, seed=seed)[done:]
            if format_query(s) not in exclude
            and (max_preds is None or len(s.predicates) <= max_preds)
        ]
        kept += label_workload(db, specs, samples)[0]
        done, generated = generated, 2 * generated
    return kept[:keep]


def split(full, n, seed):
    perm = np.random.default_rng([seed, 2]).permutation(n)
    n_val = round(0.1 * n)
    return full.slice(perm[n_val:]), full.slice(perm[:n_val])


def qerrors(estimates, queries) -> np.ndarray:
    truth = np.array([q.true_cardinality for q in queries], dtype=np.float64)
    est = np.asarray(estimates, dtype=np.float64)
    return np.maximum(est / truth, truth / est)


def model_bytes(model, path: Path) -> bytes:
    save_model(model, path)
    return path.read_bytes()


# ---------------------------------------------------------------------------
# Replays of mscn.forward / mscn.backward / mscn.train, one span per call.
# They call the same functions in the same order, so their results are
# bit-identical to the package's; the traced runs check that.
# ---------------------------------------------------------------------------


def traced_forward(model, mb, tr, request):
    caches = {}
    pooled = []
    for name, feats, mask in (
        ("tables", mb.table_feats, mb.table_mask),
        ("joins", mb.join_feats, mb.join_mask),
        ("preds", mb.pred_feats, mb.pred_mask),
    ):
        with tr.span(f"neural.fwd_{name}", request):
            elems, cache = mlp2_forward(feats, model.modules()[name], final="relu")
        caches[name] = (cache, mask)
        with tr.span("neural.masked_mean_pool", request):
            pooled.append(masked_mean_pool(elems, mask))
    merged = np.concatenate(pooled, axis=-1)
    with tr.span("neural.fwd_out", request):
        out, caches["out"] = mlp2_forward(merged, model.out_mlp, final="sigmoid")
    return out[..., 0], caches


def traced_backward(model, caches, d_y, tr, request):
    grads = {}
    with tr.span("neural.bwd_out", request):
        d_merged, g = mlp2_backward(d_y[..., None], caches["out"], model.out_mlp)
    for field in _FIELDS:
        grads[f"out.{field}"] = getattr(g, field)
    d = model.hyperparams.d
    for i, name in enumerate(_SETS):
        cache, mask = caches[name]
        with tr.span("neural.masked_mean_pool_backward", request):
            d_elems = masked_mean_pool_backward(d_merged[..., i * d : (i + 1) * d], mask)
        with tr.span(f"neural.bwd_{name}", request):
            _, g = mlp2_backward(d_elems, cache, model.modules()[name])
        for field in _FIELDS:
            grads[f"{name}.{field}"] = getattr(g, field)
    return grads


def traced_train(tb, vb, catalog, hp, tr, op):
    model = init_model(catalog, hp)
    params = param_dict(model)
    state = AdamState.init_like(params)
    shuffle_rng = np.random.default_rng([hp.seed, 1])
    k = catalog.label_log_range
    n = len(tb)
    for epoch in range(hp.epochs):
        perm = shuffle_rng.permutation(n)
        for step, start in enumerate(range(0, n, hp.batch_size)):
            request = (op, epoch, step)
            with tr.span("mscn.slice", request):
                mb = tb.slice(perm[start : start + hp.batch_size])
            y, caches = traced_forward(model, mb, tr, request)
            with tr.span("mscn.loss_and_grad", request):
                _, d_y = loss_and_grad(y, mb.labels_norm, hp.loss_kind, k)
            grads = traced_backward(model, caches, d_y, tr, request)
            with tr.span("neural.adam_step", request):
                adam_step(params, grads, state, hp.lr)
        with tr.span("mscn.validation_mean_qerror", (op, epoch)):
            validation_mean_qerror(model, vb)
    return model


def matmul_flops(model, tb, batch_size) -> tuple[int, int]:
    """Floating-point operations of the matrix products in one full training
    minibatch (forward plus backward), and the part of them spent on input
    gradients of the three set modules, which no caller uses."""
    b = min(batch_size, len(tb))
    total = input_grad = 0
    for name, rows in zip(
        ("tables", "joins", "preds", "out"),
        (b * tb.table_feats.shape[1], b * tb.join_feats.shape[1], b * tb.pred_feats.shape[1], b),
    ):
        m = model.modules()[name]
        x_w1 = 2 * rows * m.in_dim * m.hidden  # also d_w1 and d_x
        h_w2 = 2 * rows * m.hidden * m.out_dim  # also d_w2 and d_h
        total += 3 * x_w1 + 3 * h_w2
        if name != "out":
            input_grad += x_w1
    return total, input_grad


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def fastest(rounds: list[dict]) -> dict:
    """Element-wise minimum of one op's timings over the rounds it ran in.
    Other processes on the machine only ever slow an op down, so the
    fastest round is the steadiest estimate of its own cost."""
    return {k: np.min([r[k] for r in rounds], axis=0) for k in rounds[0]}


class Label:
    """Generate a reference-shape workload, label it exactly, write the corpus
    and its bitmap sidecar, and read both back. Op p is one pass over
    LABEL_PASS queries generated from (seed, p)."""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.corpus = tmp / "corpus.txt"
        self.sidecar = tmp / "corpus.txt.bitmaps"
        self.times: dict[int, list[dict]] = {}  # op -> per-round timings
        self.outputs: dict[int, tuple] = {}  # op -> digests of its first round
        self.first = None  # pass-0 specs and read-back queries
        self.dropped = 0  # empty-result queries in the traced passes

    def setup(self, tr):
        self.db, self.samples = build_db(tr)

    def _specs(self, p):
        return generate_workload(self.db, LABEL_PASS, 2, seed=[self.seed, 1, p])

    def _check_output(self, p, r, check):
        digest = (sha256(self.corpus.read_bytes()), sha256(self.sidecar.read_bytes()))
        check(
            self.outputs.setdefault(p, digest) == digest,
            f"label pass {p} round {r}: corpus differs from the first round",
        )

    def op(self, p, r, check):
        t0 = clock()
        specs = self._specs(p)
        kept, latencies = [], []
        for spec in specs:
            t = clock()
            labeled, _ = label_workload(self.db, [spec], self.samples)
            latencies.append(clock() - t)
            kept += labeled
        write_labeled_corpus(kept, self.corpus, self.sidecar, SAMPLE_SIZE)
        back, _ = read_labeled_corpus(self.corpus, self.sidecar)
        elapsed = clock() - t0
        self.times.setdefault(p, []).append({"pass": elapsed, "query": latencies})
        check(
            [format_query(q.spec, q.true_cardinality) for q in back]
            == [format_query(q.spec, q.true_cardinality) for q in kept]
            and all(
                np.array_equal(a.bitmaps[k], b.bitmaps[k])
                for a, b in zip(back, kept)
                for k in a.spec.aliases
            ),
            f"label pass {p}: re-read corpus differs from the labeled queries",
        )
        self._check_output(p, r, check)
        if p == 0 and self.first is None:
            self.first = (specs, back)
        return elapsed, len(specs)

    def traced_op(self, p, r, tr, check):
        t0 = clock()
        with tr.span("query.generate_workload", (p, r, None)):
            specs = self._specs(p)
        kept = []
        for i, spec in enumerate(specs):
            jc = len(spec.joins)
            with tr.span("executor.label", (p, r, i), jc):
                with tr.span("executor.true_cardinality", (p, r, i), jc):
                    card = true_cardinality(self.db, spec)
                if card:
                    with tr.span("executor.query_bitmaps", (p, r, i), jc):
                        bitmaps = query_bitmaps(spec, self.samples)
                    kept.append(LabeledQuery(spec, card, bitmaps))
        with tr.span("executor.write_labeled_corpus", (p, r, None)):
            write_labeled_corpus(kept, self.corpus, self.sidecar, SAMPLE_SIZE)
        with tr.span("executor.read_labeled_corpus", (p, r, None)):
            read_labeled_corpus(self.corpus, self.sidecar)
        elapsed = clock() - t0
        self._check_output(p, r, check)
        self.dropped += len(specs) - len(kept)
        return elapsed, len(specs)

    def finish(self, check, digests):
        specs, back = self.first
        digests["label.corpus"], digests["label.sidecar"] = self.outputs[0]
        labels = {format_query(q.spec): q for q in back}
        step = max(1, len(specs) // BRUTE_FORCE_QUERIES)
        for spec in specs[::step][:BRUTE_FORCE_QUERIES]:
            key = format_query(spec)
            q = labels.get(key)
            count = brute_force_count(self.db, spec)
            check(
                count == (q.true_cardinality if q else 0),
                f"label: {key} counts {count} by brute force,"
                f" {q.true_cardinality if q else 0} labeled",
            )
            for alias in spec.aliases if q else ():
                sample = self.samples[spec.table_of(alias)]
                check(
                    np.array_equal(
                        brute_force_bitmap(sample, spec.predicates_of(alias)),
                        q.bitmaps[alias],
                    ),
                    f"label: {key} bitmap of {alias} differs from brute force",
                )
        best = [fastest(rounds) for rounds in self.times.values()]
        latencies = np.concatenate([b["query"] for b in best])
        qps = LABEL_PASS * len(best) / sum(b["pass"] for b in best)
        e2e = {"op_ms_p50": 1e3 * median(latencies)}
        detail = {
            "label_qps": (qps, "1/s", len(best)),
            "label_ms_p50": (1e3 * median(latencies), "ms", latencies.size),
            "label_ms_p99": (1e3 * pct(latencies, 99), "ms", latencies.size),
        }
        return e2e, detail

    def layers(self, tr):
        by_pass = lambda request: request[:2]  # noqa: E731
        attempted = len(tr.durations("executor.label"))
        out = {
            "query.generate_s": median(tr.durations("query.generate_workload")),
            "executor.write_corpus_s": median(tr.durations("executor.write_labeled_corpus")),
            "executor.read_corpus_s": median(tr.durations("executor.read_labeled_corpus")),
            "executor.true_cardinality_s": median(
                tr.totals(("executor.true_cardinality",), by_pass)
            ),
            "executor.query_bitmaps_s": median(
                tr.totals(("executor.query_bitmaps",), by_pass)
            ),
            "executor.dropped_frac": self.dropped / attempted if attempted else 0.0,
            "executor.label_ms_p99": 1e3 * pct(tr.durations("executor.label"), 99),
        }
        for j in range(3):
            out[f"executor.label_ms_j{j}"] = 1e3 * median(
                tr.durations("executor.label", j)
            )
        return out


class Train:
    """Train the set network at the reference hyperparameters on a labeled,
    bitmap-featurized corpus, then score a held-out set. Every op is the
    same `mscn.train` call of TRAIN_EPOCHS epochs plus the scoring."""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.model_path = tmp / "model.bin"
        self.times: dict[int, list[dict]] = {}
        self.outputs = None  # model digest and held-out estimates of the first op

    def setup(self, tr):
        self.db, self.samples = build_db(tr)
        db, samples, cap = self.db, self.samples, TRAIN_MAX_PREDICATES
        corpus = labeled_set(
            db, samples, TRAIN_GENERATED, 2, [self.seed, 2], TRAIN_KEEP, max_preds=cap
        )
        keys = frozenset(format_query(q.spec) for q in corpus)
        self.held = labeled_set(
            db, samples, HELD_GENERATED, 2, [self.seed, 3], HELD_KEEP, keys, cap
        )
        self.catalog = build_catalog(
            self.db, [q.true_cardinality for q in corpus], SAMPLE_SIZE, "bitmap"
        )
        with tr.span("featurizer.featurize_labeled"):
            self.full = featurize_labeled(corpus, self.catalog)
        self.tb, self.vb = split(self.full, len(corpus), self.seed)
        self.hp = Hyperparams(epochs=TRAIN_EPOCHS, seed=self.seed, **REFERENCE_HP)

    def _check_output(self, p, r, model, estimates, check):
        digest = sha256(model_bytes(model, self.model_path))
        if self.outputs is None:
            self.model, self.outputs = model, (digest, estimates)
        first_digest, first_estimates = self.outputs
        check(
            digest == first_digest
            and (estimates is None or np.array_equal(estimates, first_estimates)),
            f"train op {p} round {r}: model or held-out estimates differ from the first op",
        )

    def op(self, p, r, check):
        t0 = clock()
        model, _ = train(self.tb, self.vb, self.catalog, self.hp)
        t1 = clock()
        estimates = predict_labeled(model, self.held)
        t2 = clock()
        self.times.setdefault(p, []).append({"train": t1 - t0, "op": t2 - t0})
        self._check_output(p, r, model, estimates, check)
        return t2 - t0, 1

    def traced_op(self, p, r, tr, check):
        t0 = clock()
        model = traced_train(self.tb, self.vb, self.catalog, self.hp, tr, (p, r))
        with tr.span("mscn.predict_labeled", (p, r)):
            estimates = predict_labeled(model, self.held)
        elapsed = clock() - t0
        self._check_output(p, r, model, estimates, check)
        return elapsed, 1

    def finish(self, check, digests):
        digests["train.model"] = self.outputs[0]
        errors = qerrors(self.outputs[1], self.held)
        check(bool(np.all(np.isfinite(errors))), "train: non-finite held-out q-error")
        best = [fastest(rounds) for rounds in self.times.values()]
        train_s = [b["train"] for b in best]
        n = len(self.tb) * TRAIN_EPOCHS
        e2e = {"op_ms_p50": 1e3 * median(train_s) / TRAIN_EPOCHS}
        detail = {
            "train_epoch_s": (median(train_s) / TRAIN_EPOCHS, "s", len(train_s)),
            "train_qps": (median([n / b["op"] for b in best]), "1/s", len(best)),
            "mscn_qerr_p50": (pct(errors, 50), "ratio", errors.size),
            "mscn_qerr_p99": (pct(errors, 99), "ratio", errors.size),
        }
        return e2e, detail

    def layers(self, tr):
        full = self.full
        arrays = (
            full.table_feats, full.table_mask, full.join_feats,
            full.join_mask, full.pred_feats, full.pred_mask,
        )
        total, input_grad = matmul_flops(self.model, self.tb, self.hp.batch_size)
        return {
            "featurizer.batch_mb": sum(a.nbytes for a in arrays) / 1e6,
            "neural.step_mflop": total / 1e6,
            "neural.input_grad_mflop": input_grad / 1e6,
        }


class Serve:
    """Estimate queries with 0-4 joins one at a time by RS, IBJS and the
    model, then score a labeled held-out set in one batched `run_eval`.
    Op p is one pass over SERVE_PASS queries generated from (seed, p),
    followed by the same `run_eval` call."""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.report_path = tmp / "report.json"
        self.specs: dict[int, list] = {}  # op -> its queries
        self.times: dict[int, list[dict]] = {}
        self.outputs: dict[int, tuple] = {}  # op -> estimates and mscn rows of its first round

    def setup(self, tr):
        self.db, self.samples = build_db(tr)
        with tr.span("storage.build_join_indexes"):
            self.indexes = build_join_indexes(self.db)
        self.held = labeled_set(
            self.db, self.samples, SERVE_GENERATED, 4, [self.seed, 4], SERVE_KEEP
        )
        keys = frozenset(format_query(q.spec) for q in self.held)
        corpus = labeled_set(
            self.db, self.samples, MODEL_GENERATED, 2, [self.seed, 5], MODEL_KEEP, keys
        )
        self.catalog = build_catalog(
            self.db, [q.true_cardinality for q in corpus], SAMPLE_SIZE, "bitmap"
        )
        with tr.span("featurizer.featurize_labeled"):
            full = featurize_labeled(corpus, self.catalog)
        tb, vb = split(full, len(corpus), self.seed)
        hp = Hyperparams(epochs=MODEL_EPOCHS, seed=self.seed, **REFERENCE_HP)
        self.model, _ = train(tb, vb, self.catalog, hp)

    def _specs(self, p):
        if p not in self.specs:
            self.specs[p] = generate_workload(self.db, SERVE_PASS, 4, seed=[self.seed, 6, p])
        return self.specs[p]

    def _check_output(self, p, r, outputs, check):
        check(
            self.outputs.setdefault(p, outputs) == outputs,
            f"serve pass {p} round {r}: estimates differ from the first round",
        )

    def op(self, p, r, check):
        db, samples, model = self.db, self.samples, self.model
        specs = self._specs(p)
        rs, ibjs, pred = [], [], []
        rs_s, ibjs_s, pred_s = [], [], []
        t0 = clock()
        for spec in specs:
            a = clock()
            rs.append(rs_estimate(db, samples, spec))
            b = clock()
            ibjs.append(ibjs_estimate(db, samples, self.indexes, spec))
            c = clock()
            pred.append(predict(model, spec, db, samples))
            d = clock()
            rs_s.append(b - a)
            ibjs_s.append(c - b)
            pred_s.append(d - c)
        e = clock()
        rows = run_eval(model, self.held, db, samples)
        f = clock()
        self.times.setdefault(p, []).append(
            {"pass": f - t0, "eval": f - e, "rs": rs_s, "ibjs": ibjs_s, "predict": pred_s}
        )
        self._check_output(p, r, (rs, ibjs, pred, rows), check)
        return f - t0, len(specs) + len(self.held)

    def traced_op(self, p, r, tr, check):
        db, samples, model, catalog = self.db, self.samples, self.model, self.catalog
        specs = self._specs(p)
        rs, ibjs, pred = [], [], []
        t0 = clock()
        for i, spec in enumerate(specs):
            jc = len(spec.joins)
            with tr.span("baselines.rs_estimate", (p, r, i), jc):
                rs.append(rs_estimate(db, samples, spec))
            with tr.span("baselines.ibjs_estimate", (p, r, i), jc):
                ibjs.append(ibjs_estimate(db, samples, self.indexes, spec))
            with tr.span("mscn.predict", (p, r, i), jc):
                with tr.span("query.validate", (p, r, i)):
                    errors = validate(spec, db)
                if errors:
                    raise ValueError("; ".join(errors))
                with tr.span("executor.query_bitmaps", (p, r, i)):
                    bitmaps = query_bitmaps(spec, samples)
                with tr.span("featurizer.featurize", (p, r, i), "predict"):
                    fq = featurize(LabeledQuery(spec, None, bitmaps), catalog)
                with tr.span("featurizer.batch", (p, r, i)):
                    one = make_batch([fq])
                with tr.span("mscn.forward", (p, r, i)):
                    y, _ = forward(model, one)
                pred.append(float(self._denormalize(y)[0]))
        with tr.span("evalkit.run_eval", (p, r, None)):
            with tr.span("featurizer.featurize", (p, r, None), "eval"):
                fqs = [featurize(q, catalog) for q in self.held]
            with tr.span("featurizer.batch", (p, r, None)):
                full = make_batch(fqs)
            y, _ = traced_forward(model, full, tr, (p, r, None))
            errors = qerrors(self._denormalize(y), self.held)
            join_counts = np.array([len(q.spec.joins) for q in self.held])
            rows = []
            for jc in sorted(set(join_counts.tolist())):
                mask = join_counts == jc
                with tr.span("evalkit.report", (p, r, None)):
                    stats = report(errors[mask])
                rows.append(
                    {"estimator": "mscn", "join_count": str(jc), "n": int(mask.sum())}
                    | stats
                )
            with tr.span("evalkit.report", (p, r, None)):
                stats = report(errors)
            rows.append(
                {"estimator": "mscn", "join_count": "overall", "n": len(self.held)}
                | stats
            )
        elapsed = clock() - t0
        self._check_output(p, r, (rs, ibjs, pred, rows), check)
        return elapsed, len(specs) + len(self.held)

    def _denormalize(self, y):
        c = self.catalog
        return np.exp(c.label_log_min + y * c.label_log_range)

    def finish(self, check, digests):
        db, samples, held = self.db, self.samples, self.held
        one_at_a_time = [predict(self.model, q.spec, db, samples) for q in held]
        check(
            np.allclose(one_at_a_time, predict_labeled(self.model, held), rtol=1e-9, atol=0),
            "serve: one-at-a-time predictions differ from the batched ones",
        )
        check(
            all(
                np.isfinite(e) and e >= 1
                for rs, ibjs, _, _ in self.outputs.values()
                for e in rs + ibjs
            ),
            "serve: a baseline estimate is not finite or below 1",
        )
        rows = {
            "mscn": self.outputs[0][3],
            "rs": run_eval("rs", held, db, samples),
            "ibjs": run_eval("ibjs", held, db, samples, self.indexes),
        }
        write_report_json([row for r in rows.values() for row in r], self.report_path)
        digests["serve.report"] = sha256(self.report_path.read_bytes())

        best = [fastest(rounds) for rounds in self.times.values()]
        per_query = {k: np.concatenate([b[k] for b in best]) for k in ("rs", "ibjs", "predict")}
        n = sum(len(self.specs[p]) + len(held) for p in self.times)
        e2e = {"op_ms_p50": 1e3 * median(sum(per_query.values()))}
        detail = {
            "serve_qps": (n / sum(b["pass"] for b in best), "1/s", len(best)),
            "eval_mscn_qps": (
                len(held) * len(best) / sum(b["eval"] for b in best), "1/s", len(best)
            ),
        }
        for name, times in per_query.items():
            detail[f"{name}_ms_p50"] = (1e3 * median(times), "ms", times.size)
            detail[f"{name}_ms_p99"] = (1e3 * pct(times, 99), "ms", times.size)
        for name in ("rs", "ibjs"):
            overall = rows[name][-1]
            detail[f"{name}_qerr_p50"] = (overall["median"], "ratio", overall["n"])
        return e2e, detail

    def layers(self, tr):
        out = {
            "featurizer.featurize_us": 1e6 * median(tr.durations("featurizer.featurize", "predict")),
            "executor.query_bitmaps_us": 1e6 * median(tr.durations("executor.query_bitmaps")),
            "mscn.forward_us": 1e6 * median(tr.durations("mscn.forward")),
            "evalkit.report_ms": 1e3 * median(
                tr.totals(("evalkit.report",), lambda request: request[:2])
            ),
        }
        for j in range(5):
            out[f"baselines.rs_ms_j{j}"] = 1e3 * median(tr.durations("baselines.rs_estimate", j))
            out[f"baselines.ibjs_ms_j{j}"] = 1e3 * median(tr.durations("baselines.ibjs_estimate", j))
        return out


WORKLOADS = {"label": Label, "train": Train, "serve": Serve}


def common_layers(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics that several workloads produce from the same spans."""
    out = {
        "storage.generate_synthetic_db_s": median(tr.durations("storage.generate_synthetic_db")),
        "storage.draw_all_samples_s": median(tr.durations("storage.draw_all_samples")),
        "storage.build_join_indexes_s": median(tr.durations("storage.build_join_indexes")),
        "featurizer.featurize_s": median(tr.durations("featurizer.featurize_labeled")),
        "neural.pool_ms": 1e3 * median(
            tr.totals(("neural.masked_mean_pool", "neural.masked_mean_pool_backward"))
        ),
        "neural.adam_ms": 1e3 * median(tr.durations("neural.adam_step")),
        "mscn.loss_ms": 1e3 * median(tr.durations("mscn.loss_and_grad")),
        "mscn.slice_ms": 1e3 * median(tr.durations("mscn.slice")),
        "mscn.validation_s": median(tr.durations("mscn.validation_mean_qerror")),
    }
    for part in ("tables", "joins", "preds", "out"):
        out[f"neural.fwd_{part}_ms"] = 1e3 * median(tr.durations(f"neural.fwd_{part}"))
        out[f"neural.bwd_{part}_ms"] = 1e3 * median(tr.durations(f"neural.bwd_{part}"))
    return out
