import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardlab.errors import ModelFormatError
from cardlab.executor import label_workload, query_bitmaps
from cardlab.featurizer import (
    batch as make_batch,
    build_catalog,
    denormalize_label,
    featurize,
    featurize_labeled,
    normalize_label,
)
from cardlab import mscn
from cardlab.mscn import (
    Hyperparams,
    forward,
    backward,
    init_model,
    load_model,
    loss_and_grad,
    param_dict,
    predict,
    predict_batch,
    predict_labeled,
    save_model,
    train,
)
from cardlab.neural import Dense2, sigmoid, sigmoid_float
from cardlab.query import (
    LabeledQuery,
    Predicate,
    QuerySpec,
    TableRef,
    format_query,
    generate_workload,
    parse_query,
)
from cardlab.storage import SynthConfig, build_join_indexes, draw_all_samples, generate_synthetic_db

ROWS = {
    "title": 300,
    "movie_companies": 500,
    "movie_info": 500,
    "movie_info_idx": 500,
    "movie_keyword": 500,
    "cast_info": 500,
}
S = 30


@pytest.fixture(scope="module")
def db():
    return generate_synthetic_db(SynthConfig(rows=ROWS, rho=0.6), seed=61)


@pytest.fixture(scope="module")
def samples(db):
    return draw_all_samples(db, S, seed=9)


@pytest.fixture(scope="module")
def indexes(db):
    return build_join_indexes(db)


@pytest.fixture(scope="module")
def corpus(db, samples):
    workload = generate_workload(db, 300, 2, seed=62)
    labeled, _ = label_workload(db, workload, samples)
    return labeled


@pytest.fixture(scope="module")
def catalog(db, corpus):
    return build_catalog(db, [q.true_cardinality for q in corpus], S, "bitmap")


@pytest.fixture(scope="module")
def corpus_batch(corpus, catalog):
    return featurize_labeled(corpus, catalog)


from helpers import (
    assign_params,
    count_and_estimates,
    dense_backward,
    dense_forward,
    dense_train,
    flatten_params,
    grad_check,
    pick_generic_point,
    rewrites,
)


def _zeroed(model):
    for arr in param_dict(model).values():
        arr[...] = 0.0
    return model


class TestForward:
    def test_zero_params_give_half(self, catalog, corpus_batch):
        model = _zeroed(init_model(catalog, Hyperparams(d=8, seed=0)))
        y, _ = forward(model, corpus_batch.slice(np.arange(10)))
        np.testing.assert_allclose(y, 0.5)

    def test_outputs_in_open_unit_interval(self, catalog, corpus_batch):
        model = init_model(catalog, Hyperparams(d=16, seed=1))
        y, _ = forward(model, corpus_batch)
        assert np.all((y > 0) & (y < 1))

    def test_permutation_invariance(self, catalog, corpus, corpus_batch):
        model = init_model(catalog, Hyperparams(d=16, seed=2))
        rng = np.random.default_rng(3)
        multi = [q for q in corpus if len(q.spec.predicates) >= 2][:30]
        base = predict_labeled(model, multi)
        fqs = []
        for q in multi:
            fq = featurize(q, catalog)
            perm = rng.permutation(fq.pred_elems.shape[0])
            fq.pred_elems = fq.pred_elems[perm]
            fqs.append(fq)
        y, _ = forward(model, make_batch(fqs))
        permuted = np.exp(
            catalog.label_log_min + y * catalog.label_log_range
        )
        np.testing.assert_allclose(permuted, base, rtol=1e-6)

    def test_batch_equals_single(self, catalog, corpus, corpus_batch):
        model = init_model(catalog, Hyperparams(d=16, seed=4))
        queries = corpus[:20]
        batched = predict_labeled(model, queries)
        singles = [predict_labeled(model, [q])[0] for q in queries]
        np.testing.assert_allclose(batched, singles, rtol=1e-6)

    def test_zero_padding_invariance(self, catalog, corpus):
        model = init_model(catalog, Hyperparams(d=16, seed=5))
        q = corpus[0]
        fq = featurize(q, catalog)
        y_base, _ = forward(model, make_batch([fq]))
        padded = featurize(q, catalog)
        padded.pred_elems = np.vstack(
            [padded.pred_elems, np.zeros((3, padded.pred_elems.shape[1]))]
        )
        b = make_batch([padded])
        b.pred_mask[0, -3:] = 0.0
        y_pad, _ = forward(model, b)
        np.testing.assert_allclose(y_pad, y_base, rtol=1e-6)


class TestLoss:
    def test_perfect_prediction(self):
        y = np.array([0.2, 0.7])
        for kind, expected in (("mean_qerror", 1.0), ("mse", 0.0), ("geometric_qerror", 0.0)):
            loss, grad = loss_and_grad(y, y.copy(), kind, k=10.0)
            assert loss == pytest.approx(expected)
            np.testing.assert_array_equal(grad, 0.0)

    def test_factor_of_two(self):
        y = np.array([0.5 + math.log(2) / 10.0])
        labels = np.array([0.5])
        loss, _ = loss_and_grad(y, labels, "mean_qerror", k=10.0)
        assert loss == pytest.approx(2.0)

    def test_identity_with_direct_qerror(self, catalog):
        rng = np.random.default_rng(6)
        k = catalog.label_log_range
        for _ in range(100):
            y = float(rng.uniform(0.01, 0.99))
            t = float(rng.uniform(0.01, 0.99))
            loss, _ = loss_and_grad(np.array([y]), np.array([t]), "mean_qerror", k)
            est = denormalize_label(y, catalog)
            truth = denormalize_label(t, catalog)
            direct = max(est / truth, truth / est)
            assert abs(loss - direct) / direct <= 1e-9

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            loss_and_grad(np.array([np.nan]), np.array([0.5]), "mse", 1.0)

    def test_gradient_signs(self):
        y = np.array([0.6, 0.4])
        labels = np.array([0.5, 0.5])
        for kind in ("mean_qerror", "mse", "geometric_qerror"):
            _, grad = loss_and_grad(y, labels, kind, k=5.0)
            assert grad[0] > 0 > grad[1]


class TestGradients:
    @pytest.mark.parametrize("kind", ["mse", "mean_qerror"])
    def test_full_model_matches_finite_differences(self, catalog, corpus_batch, kind):
        model = init_model(catalog, Hyperparams(d=8, seed=7))
        params = param_dict(model)
        mb = corpus_batch.slice(np.arange(4))
        k = catalog.label_log_range
        h = 1e-5
        point = pick_generic_point(model, params, mb, h, seed=70)
        _assign = assign_params
        _assign(params, point)
        y0, _ = forward(model, mb)
        # Labels placed well away from the |y - label| = 0 kink.
        offsets = np.array([0.08, -0.1, 0.12, -0.07])
        labels = np.clip(y0 - offsets, 0.02, 0.98)
        assert np.all(np.abs(y0 - labels) > 1e-2)

        def f(vec):
            _assign(params, vec)
            y, _ = forward(model, mb)
            loss, _ = loss_and_grad(y, labels, kind, k)
            _assign(params, point)
            return loss

        y, caches = forward(model, mb)
        _, d_y = loss_and_grad(y, labels, kind, k)
        grads = backward(model, caches, d_y)
        flat_grad = np.concatenate([grads[k_].ravel() for k_ in params])
        err = grad_check(f, flat_grad, point, h=h, num_coords=250, seed=8)
        assert err <= 1e-4


class TestTrain:
    def test_deterministic(self, catalog, corpus_batch):
        hp = Hyperparams(d=8, epochs=3, batch_size=64, seed=9)
        val = corpus_batch.slice(np.arange(20))
        m1, h1 = train(corpus_batch, val, catalog, hp)
        m2, h2 = train(corpus_batch, val, catalog, hp)
        assert h1 == h2
        for k, arr in param_dict(m1).items():
            np.testing.assert_array_equal(arr, param_dict(m2)[k])

    def test_memorizes_single_query(self, db, corpus, catalog):
        copies = [corpus[0]] * 50
        b = featurize_labeled(copies, catalog)
        hp = Hyperparams(d=16, epochs=100, batch_size=16, seed=10)
        model, history = train(b, b, catalog, hp)
        assert history[-1]["val_mean_qerror"] <= 1.05

    def test_history_shape(self, catalog, corpus_batch):
        hp = Hyperparams(d=8, epochs=5, batch_size=64, seed=11)
        _, history = train(corpus_batch, corpus_batch.slice(np.arange(10)), catalog, hp)
        assert [h["epoch"] for h in history] == [1, 2, 3, 4, 5]
        assert all(np.isfinite(h["train_loss"]) for h in history)

    def test_all_loss_kinds_run(self, catalog, corpus_batch):
        val = corpus_batch.slice(np.arange(10))
        for kind in ("mean_qerror", "mse", "geometric_qerror"):
            hp = Hyperparams(d=8, epochs=2, batch_size=64, seed=12, loss_kind=kind)
            _, history = train(corpus_batch, val, catalog, hp)
            assert len(history) == 2

    def test_validation_scores_true_counts(self, db, corpus):
        # Labels above this catalog's range clamp to 1, which denormalizes
        # to 2; the validation q-error is against the true counts.
        narrow = build_catalog(db, [1, 2], S, "bitmap")
        model = init_model(narrow, Hyperparams(d=8, seed=29))
        b = featurize_labeled(corpus, narrow)
        est = predict_batch(model, b)
        truth = np.array([q.true_cardinality for q in corpus], dtype=np.float64)
        assert (truth > 2).any()
        assert mscn.validation_mean_qerror(model, b) == float(
            np.maximum(est / truth, truth / est).mean()
        )
        unlabeled = make_batch(
            [featurize(LabeledQuery(q.spec, None, q.bitmaps), narrow) for q in corpus[:3]]
        )
        with pytest.raises(ValueError, match="true counts"):
            mscn.validation_mean_qerror(model, unlabeled)

    def test_predict_batch_on_empty_batch(self, catalog, corpus_batch):
        model = init_model(catalog, Hyperparams(d=8, seed=30))
        est = predict_batch(model, corpus_batch.slice(np.arange(0)))
        assert est.dtype == np.float64 and est.shape == (0,)

    def test_validation_rejects_empty_batch(self, catalog, corpus_batch):
        model = init_model(catalog, Hyperparams(d=8, seed=30))
        with pytest.raises(ValueError, match="batch is empty"):
            mscn.validation_mean_qerror(model, corpus_batch.slice(np.arange(0)))

    @pytest.mark.parametrize("which", ["training", "validation"])
    def test_train_rejects_empty_batch_before_training(
        self, catalog, corpus_batch, which, monkeypatch
    ):
        # No forward pass runs: the empty batch is rejected before the
        # first epoch, not after training one.
        def forbidden(*args):
            raise AssertionError("trained on a call with an empty batch")

        monkeypatch.setattr(mscn, "forward", forbidden)
        empty = corpus_batch.slice(np.arange(0))
        batches = (empty, corpus_batch) if which == "training" else (corpus_batch, empty)
        hp = Hyperparams(d=8, epochs=2, batch_size=64, seed=30)
        with pytest.raises(ValueError, match=f"the {which} batch is empty"):
            train(*batches, catalog, hp)

    def test_epoch_peak_budget(self, db):
        # The shapes of the reference training run: 1530 training and 170
        # validation queries with 0-2 joins and at most 5 predicates, 100-bit
        # sample bitmaps, d=64, batch 256. tracemalloc peak of one epoch:
        # 5.53 MiB, reached in a training step (3.88 MiB of it the step's
        # own: the minibatch, caches without pre-activations, at most two
        # padded backward scratch arrays at once); 8.09 MiB with the
        # pre-activations cached, three padded scratch arrays alive together
        # and validation copying its batch. The budget is the measured peak
        # plus 0.72 MiB (13%).
        samples = draw_all_samples(db, 100, seed=9)
        specs = generate_workload(db, 2400, 2, seed=64)
        specs = [s for s in specs if len(s.predicates) <= 5]
        labeled = label_workload(db, specs, samples)[0][:1700]
        catalog = build_catalog(db, [q.true_cardinality for q in labeled], 100, "bitmap")
        full = featurize_labeled(labeled, catalog)
        assert full.pred_feats.shape[:2] == (1700, 5)
        tb, vb = full.slice(np.arange(170, 1700)), full.slice(np.arange(170))
        hp = Hyperparams(epochs=1, seed=5)
        tracemalloc.start()
        try:
            train(tb, vb, catalog, hp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.25 * 2**20


@pytest.fixture(scope="module")
def oracle_batches(db, samples):
    """A larger corpus featurized in every sample mode, with its catalogs."""
    labeled, _ = label_workload(db, generate_workload(db, 500, 2, seed=63), samples)
    out = {}
    for mode in ("none", "count", "bitmap"):
        cat = build_catalog(db, [q.true_cardinality for q in labeled], S, mode)
        out[mode] = (cat, featurize_labeled(labeled, cat))
    return out


def _generic_model(catalog, d, seed):
    """A model with nonzero biases, so that padding rows would produce
    nonzero activations in the dense kernel."""
    model = init_model(catalog, Hyperparams(d=d, seed=seed))
    rng = np.random.default_rng(seed)
    for arr in param_dict(model).values():
        arr += rng.normal(scale=0.05, size=arr.shape)
    return model


def _assert_matches_dense(model, mb):
    """Outputs and all 16 gradients equal the dense kernel's, byte for byte."""
    y, caches = forward(model, mb)
    y_dense, caches_dense = dense_forward(model, mb)
    assert y.tobytes() == y_dense.tobytes()
    k = model.catalog.label_log_range
    _, d_y = loss_and_grad(y, mb.labels_norm, "mean_qerror", k)
    grads = backward(model, caches, d_y)
    grads_dense = dense_backward(model, caches_dense, d_y)
    assert list(grads) == list(grads_dense) and len(grads) == 16
    for name, g in grads.items():
        assert g.shape == grads_dense[name].shape, name
        assert g.tobytes() == grads_dense[name].tobytes(), name


class TestDenseOracle:
    """The set modules run on real elements only; every output and
    gradient must still equal the dense kernel's (tests/helpers.py)."""

    @pytest.mark.parametrize("mode", ["none", "count", "bitmap"])
    @pytest.mark.parametrize("d", [8, 64])
    def test_full_minibatches(self, oracle_batches, mode, d):
        catalog, full = oracle_batches[mode]
        model = _generic_model(catalog, d, seed=20)
        perm = np.random.default_rng(21).permutation(len(full))
        assert len(full) >= 256
        for start in range(0, len(full), 256):
            _assert_matches_dense(model, full.slice(perm[start : start + 256]))

    def test_extra_masked_rows(self, oracle_batches):
        catalog, full = oracle_batches["bitmap"]
        model = _generic_model(catalog, 16, seed=22)
        b = full.slice(np.arange(100))
        for feats, mask, pad in (
            ("table_feats", "table_mask", 1),
            ("join_feats", "join_mask", 2),
            ("pred_feats", "pred_mask", 3),
        ):
            f, m = getattr(b, feats), getattr(b, mask)
            f_pad = np.zeros((len(b), pad, f.shape[2]))
            setattr(b, feats, np.concatenate([f, f_pad], axis=1))
            setattr(b, mask, np.concatenate([m, np.zeros((len(b), pad))], axis=1))
        _assert_matches_dense(model, b)

    def test_single_slot_sets(self, corpus, catalog):
        model = _generic_model(catalog, 16, seed=23)
        simple = [
            q for q in corpus if len(q.spec.joins) <= 1 and len(q.spec.predicates) <= 1
        ]
        b = featurize_labeled(simple, catalog)
        assert b.join_mask.shape[1] == b.pred_mask.shape[1] == 1
        _assert_matches_dense(model, b)

    def test_one_query_batches(self, corpus, catalog):
        model = _generic_model(catalog, 16, seed=24)
        for q in corpus[:40]:
            _assert_matches_dense(model, featurize_labeled([q], catalog))
        padded = featurize_labeled(corpus, catalog)
        for i in range(40):
            _assert_matches_dense(model, padded.slice(np.array([i])))

    def test_chunked_predict_batch(self, oracle_batches, monkeypatch):
        catalog, full = oracle_batches["bitmap"]
        model = _generic_model(catalog, 16, seed=25)
        b = full.slice(np.arange(7 * 20 + 1))
        # 7: chunks unpacked at offsets; 141 and 4096: one chunk.
        for chunk in (7, 141, 4096):
            monkeypatch.setattr(mscn, "_PREDICT_CHUNK", chunk)
            dense = [
                dense_forward(model, b.slice(np.arange(s, min(s + chunk, len(b)))))[0]
                for s in range(0, len(b), chunk)
            ]
            expected = denormalize_label(np.concatenate(dense), catalog)
            assert predict_batch(model, b).tobytes() == expected.tobytes()

    def test_backward_twice_on_one_cache(self, oracle_batches):
        catalog, full = oracle_batches["bitmap"]
        model = _generic_model(catalog, 16, seed=26)
        mb = full.slice(np.arange(64))
        y, caches = forward(model, mb)
        _, d_y = loss_and_grad(y, mb.labels_norm, "mean_qerror", catalog.label_log_range)
        first = backward(model, caches, d_y)
        second = backward(model, caches, d_y)
        assert all(first[k].tobytes() == second[k].tobytes() for k in first)

    @pytest.mark.parametrize("kind", ["mean_qerror", "mse", "geometric_qerror"])
    @pytest.mark.parametrize("n", [200, 193])
    def test_trained_model_bytes(self, oracle_batches, tmp_path, kind, n):
        # 200 = 3 * 64 + 8 and 193 = 3 * 64 + 1: the last minibatch is short,
        # down to a single query.
        catalog, full = oracle_batches["bitmap"]
        tb, vb = full.slice(np.arange(n)), full.slice(np.arange(n, n + 30))
        hp = Hyperparams(d=64, epochs=3, batch_size=64, loss_kind=kind, seed=26)
        model, history = train(tb, vb, catalog, hp)
        dense_model, dense_history = dense_train(tb, vb, catalog, hp)
        save_model(model, tmp_path / "packed.bin")
        save_model(dense_model, tmp_path / "dense.bin")
        packed_bytes = (tmp_path / "packed.bin").read_bytes()
        assert packed_bytes == (tmp_path / "dense.bin").read_bytes()
        assert history == dense_history

    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0])
    def test_mask_must_be_zero_or_one(self, corpus_batch, catalog, bad):
        model = init_model(catalog, Hyperparams(d=8, seed=27))
        b = corpus_batch.slice(np.arange(10))
        b.pred_mask[3, 0] = bad
        with pytest.raises(ValueError, match="only 0 and 1"):
            forward(model, b)

    def test_forward_on_empty_slice(self, corpus_batch, catalog):
        model = init_model(catalog, Hyperparams(d=8, seed=27))
        y, caches = forward(model, corpus_batch.slice(np.arange(0)))
        assert y.shape == (0,)
        assert set(caches) == {"tables", "joins", "preds", "out"}

    def test_set_without_real_element_rejected(self, corpus_batch, catalog):
        model = init_model(catalog, Hyperparams(d=8, seed=27))
        b = corpus_batch.slice(np.arange(10))
        b.join_mask[4] = 0
        with pytest.raises(ValueError, match="at least one unmasked element"):
            forward(model, b)

    def test_nonfinite_gradient_names_parameter(
        self, corpus_batch, catalog, monkeypatch
    ):
        def poisoned(model, caches, d_y):
            grads = backward(model, caches, d_y)
            grads["joins.b1"] = np.full_like(grads["joins.b1"], np.nan)
            return grads

        monkeypatch.setattr(mscn, "backward", poisoned)
        hp = Hyperparams(d=8, epochs=1, batch_size=64, seed=28)
        with pytest.raises(ValueError, match="'joins.b1'"):
            train(corpus_batch, corpus_batch.slice(np.arange(10)), catalog, hp)


@pytest.fixture(scope="module")
def model(catalog, corpus_batch):
    hp = Hyperparams(d=16, epochs=10, batch_size=64, seed=13)
    m, _ = train(corpus_batch, corpus_batch.slice(np.arange(30)), catalog, hp)
    return m


class TestPredict:
    def test_within_training_range(self, model, db, samples, corpus):
        lo = math.exp(model.catalog.label_log_min)
        hi = math.exp(model.catalog.label_log_max)
        for q in corpus[:30]:
            est = predict(model, q.spec, db, samples)
            assert lo < est < hi

    def test_zero_bitmap_query_still_predicts(self, model, db, samples):
        from cardlab.query import parse_query

        spec, _ = parse_query("title t##t.production_year,=,9999#")
        est = predict(model, spec, db, samples)
        assert est > 0 and np.isfinite(est)

    def test_composition_matches_manual_path(self, model, db, samples, corpus):
        q = corpus[0]
        est = predict(model, q.spec, db, samples)
        manual = predict_labeled(model, [q])[0]
        assert est == pytest.approx(manual, rel=1e-12)

    def test_invalid_query_rejected(self, model, db, samples):
        from cardlab.errors import ValidationError

        bad = QuerySpec((TableRef("title", "t"),), (), (Predicate("t", "id", "=", 1),))
        with pytest.raises(ValidationError):
            predict(model, bad, db, samples)


class TestOneQueryPath:
    """`predict` runs one query's unpadded element matrices through the set
    modules; its estimate equals `predict_batch` on the one-query batch and
    the dense kernel (tests/helpers.py), byte for byte."""

    @pytest.fixture(scope="class")
    def specs(self, db):
        specs = generate_workload(db, 120, 4, seed=64)
        assert {len(s.joins) for s in specs} == {0, 1, 2, 3, 4}
        assert any(not s.predicates for s in specs)
        assert any(not s.joins and not s.predicates for s in specs)
        return specs

    @pytest.mark.parametrize("mode", ["none", "count", "bitmap"])
    def test_matches_batch_and_dense(self, db, samples, oracle_batches, specs, mode):
        catalog, _ = oracle_batches[mode]
        fqs = [featurize(LabeledQuery(s, None, query_bitmaps(s, samples)), catalog) for s in specs]
        # Every set kind has a one-row set, which numpy multiplies as a lone
        # row, and a set of several rows.
        rows = np.array([[len(fq.table_elems), len(fq.join_elems), len(fq.pred_elems)] for fq in fqs])
        assert ((rows == 1).any(axis=0) & (rows > 1).any(axis=0)).all()
        # 64 is the serve width and 256 the paper's; BLAS picks kernels by shape.
        for d in (16, 64, 256):
            model = _generic_model(catalog, d, seed=30)
            # Centre the output pre-activations on 0, so that they take both
            # signs of the sigmoid.
            y_all = forward(model, make_batch(fqs))[0]
            model.out_mlp.b2 -= np.median(np.log(y_all / (1 - y_all)))
            outputs = []
            for spec, fq in zip(specs, fqs):
                est = predict(model, spec, db, samples)
                assert type(est) is float
                one = make_batch([fq])
                want = predict_batch(model, one)
                assert np.float64(est).tobytes() == want.tobytes(), (d, format_query(spec))
                y = dense_forward(model, one)[0]
                dense = denormalize_label(y, catalog)
                assert want.tobytes() == dense.tobytes(), (d, format_query(spec))
                outputs.append(y[0])
            assert min(outputs) < 0.5 < max(outputs), d

    @pytest.mark.parametrize("mode", ["none", "count", "bitmap"])
    def test_row_block_edges(self, db, samples, oracle_batches, mode):
        # `predict` writes the three sets into row blocks of one buffer:
        # blocks of one row each, a two-row first block, and blocks of
        # three or more rows of each kind, with and without joins and
        # predicates, keep `predict_batch`'s and the dense kernel's bits.
        catalog, _ = oracle_batches[mode]
        children = ("movie_companies mc", "movie_info mi", "movie_info_idx mii",
                    "movie_keyword mk", "cast_info ci")

        def star(n, preds=""):
            aliases = [c.split()[1] for c in children[:n]]
            joins = ",".join(f"{a}.movie_id=t.id" for a in aliases)
            return ",".join(("title t", *children[:n])) + f"#{joins}#{preds}#"

        lines = [
            "title t###",
            "movie_keyword mk##mk.keyword_id,<,250#",
            star(1),
            star(1, "t.production_year,>,1990,mc.company_type_id,<,3"),
            "title t##t.kind_id,=,1,t.production_year,>,1950,t.production_year,<,2010#",
            star(2),
            star(3, "t.kind_id,<,4,mc.company_type_id,=,2,mii.info_type_id,>,3"),
            star(5, "t.kind_id,>,1,mc.company_type_id,<,3,mi.info_type_id,>,10,"
                    "mii.info_type_id,<,90,mk.keyword_id,>,5,ci.role_id,<,10"),
        ]
        specs = [parse_query(line)[0] for line in lines]
        fqs = [featurize(LabeledQuery(s, None, query_bitmaps(s, samples)), catalog) for s in specs]
        sizes = [(len(fq.table_elems), len(fq.join_elems), len(fq.pred_elems)) for fq in fqs]
        assert {(1, 1, 1), (2, 1, 1), (1, 1, 3), (3, 2, 1)} <= set(sizes)
        assert all(any(size[k] >= 3 for size in sizes) for k in range(3))
        for d in (16, 64, 256):
            model = _generic_model(catalog, d, seed=32)
            for spec, fq in zip(specs, fqs):
                est = predict(model, spec, db, samples)
                one = make_batch([fq])
                want = predict_batch(model, one)
                assert np.float64(est).tobytes() == want.tobytes(), (d, format_query(spec))
                dense = denormalize_label(dense_forward(model, one)[0], catalog)
                assert want.tobytes() == dense.tobytes(), (d, format_query(spec))

    def test_scalar_tail_matches_array_path(self, catalog):
        # `predict`'s float tail against the array path. exp(-|z|) is 1.0 at
        # the subnormal, loses 1 + e to rounding near 36.8 and underflows to
        # 0.0 from 746 on; the grid in between.
        edges = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 36.8, -36.8, 746.0, -746.0, 1e300, -1e300]
        for z in edges + np.linspace(-40.0, 40.0, 801).tolist():
            want = denormalize_label(sigmoid(np.array([z])), catalog)
            got = float(denormalize_label(sigmoid_float(z), catalog))
            assert np.float64(got).tobytes() == want.tobytes(), z

    @given(data=st.data())
    @settings(max_examples=100)
    def test_renaming_aliases_keeps_estimate(
        self, db, samples, indexes, oracle_batches, specs, data
    ):
        # Renaming aliases and flipping joins leave the query: its exact
        # count, and its RS and IBJS estimates bit for bit. They reorder
        # the element rows, and so the pooled sums, so the MSCN estimate
        # may move in its last bits (ROADMAP item 13) but no more.
        catalog, _ = oracle_batches["bitmap"]
        model = _generic_model(catalog, 64, seed=31)
        spec = data.draw(st.sampled_from(specs))
        other = data.draw(rewrites(spec))
        assert count_and_estimates(db, samples, indexes, other) == count_and_estimates(
            db, samples, indexes, spec), format_query(spec)
        est = predict(model, spec, db, samples)
        rewritten_est = predict(model, other, db, samples)
        assert abs(rewritten_est - est) <= 1e-14 * est, format_query(spec)

    @given(data=st.data())
    @settings(max_examples=50)
    def test_reordered_line_keeps_estimate(
        self, db, samples, indexes, oracle_batches, specs, data
    ):
        # The tables, joins and predicates of a written line, shuffled,
        # parse to the same spec: the same line, exact count, RS and IBJS
        # estimates, and MSCN estimate, each bit for bit.
        catalog, _ = oracle_batches["bitmap"]
        model = _generic_model(catalog, 64, seed=31)
        spec = data.draw(st.sampled_from(specs))
        line = format_query(spec)
        tables, joins, preds, _ = (f.split(",") if f else [] for f in line.split("#"))
        preds = [",".join(preds[i : i + 3]) for i in range(0, len(preds), 3)]  # column,op,literal
        parts = (tables, joins, preds)
        shuffled = "#".join(",".join(data.draw(st.permutations(p))) for p in parts) + "#"
        other, _ = parse_query(shuffled)
        assert other == spec and format_query(other) == line, shuffled
        assert count_and_estimates(db, samples, indexes, other) == count_and_estimates(
            db, samples, indexes, spec), line
        est, other_est = predict(model, spec, db, samples), predict(model, other, db, samples)
        assert np.float64(other_est).tobytes() == np.float64(est).tobytes(), line


class TestPersistence:
    def test_round_trip_identical_predictions(self, model, corpus, tmp_path):
        p = tmp_path / "m.bin"
        save_model(model, p)
        loaded = load_model(p)
        for k, arr in param_dict(model).items():
            np.testing.assert_array_equal(arr, param_dict(loaded)[k])
        a = predict_labeled(model, corpus[:100])
        b = predict_labeled(loaded, corpus[:100])
        np.testing.assert_array_equal(a, b)

    def test_truncation_detected(self, model, tmp_path):
        p = tmp_path / "m.bin"
        save_model(model, p)
        data = p.read_bytes()
        p.write_bytes(data[:-10])
        with pytest.raises(ModelFormatError, match="checksum|truncated"):
            load_model(p)

    def test_corruption_detected(self, model, tmp_path):
        p = tmp_path / "m.bin"
        save_model(model, p)
        data = bytearray(p.read_bytes())
        data[len(data) // 2] ^= 0xFF
        p.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError):
            load_model(p)

    def test_wrong_magic_rejected(self, tmp_path):
        p = tmp_path / "m.bin"
        p.write_bytes(b"JUNK" + bytes(100))
        with pytest.raises(ModelFormatError):
            load_model(p)

    def test_save_deterministic(self, model, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()


def test_full_scale_file_size_report(db, corpus, tmp_path, capsys):
    # Informational: at full-scale settings (d=256, 1000-bit bitmaps) the
    # serialized model lands in the single-digit-MiB range.
    cat = build_catalog(db, [q.true_cardinality for q in corpus], 1000, "bitmap")
    model = init_model(cat, Hyperparams.paper_scale(seed=0))
    p = tmp_path / "full.bin"
    save_model(model, p)
    size_mib = p.stat().st_size / 2**20
    print(f"full-scale serialized model size: {size_mib:.2f} MiB")
    assert 1.0 < size_mib < 16.0


class TestHyperparams:
    def test_desk_defaults(self):
        hp = Hyperparams()
        assert (hp.d, hp.epochs, hp.batch_size, hp.lr) == (64, 100, 256, 0.001)

    def test_paper_scale(self):
        hp = Hyperparams.paper_scale()
        assert (hp.epochs, hp.batch_size, hp.d, hp.lr) == (100, 1024, 256, 0.001)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Hyperparams(d=0)
        with pytest.raises(ValueError):
            Hyperparams(loss_kind="nope")
