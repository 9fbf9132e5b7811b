import numpy as np
import pytest
from helpers import read_report_csv
from hypothesis import given, settings
from hypothesis import strategies as st

from cardlab.baselines import rs_estimate
from cardlab.evalkit import (
    REPORT_FIELDS,
    grid_search,
    is_zero_tuple,
    qerror,
    report,
    run_eval,
    write_grid_csv,
    write_report_csv,
    write_report_json,
)
from cardlab.executor import label_workload
from cardlab.featurizer import build_catalog, featurize_labeled
from cardlab.query import generate_workload
from cardlab.storage import SynthConfig, draw_all_samples, generate_synthetic_db

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
    return generate_synthetic_db(SynthConfig(rows=ROWS, rho=0.6), seed=71)


@pytest.fixture(scope="module")
def samples(db):
    return draw_all_samples(db, S, seed=10)


@pytest.fixture(scope="module")
def workload(db, samples):
    specs = generate_workload(db, 200, 2, seed=72)
    labeled, _ = label_workload(db, specs, samples)
    return labeled


class TestQerror:
    def test_exact(self):
        assert qerror(10, 10) == 1.0

    def test_underestimate(self):
        assert qerror(2, 8) == 4.0

    def test_overestimate_symmetric(self):
        assert qerror(8, 2) == 4.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            qerror(0, 5)
        with pytest.raises(ValueError):
            qerror(5, -1)

    @given(
        a=st.floats(min_value=1e-6, max_value=1e12),
        b=st.floats(min_value=1e-6, max_value=1e12),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_lower_bound(self, a, b):
        assert qerror(a, b) == qerror(b, a) >= 1.0


class TestReport:
    def test_all_ones(self):
        r = report([1, 1, 1, 1])
        assert all(r[k] == 1.0 for k in ("median", "p90", "p95", "p99", "max", "mean"))

    def test_hand_values(self):
        r = report([1, 2, 3, 4, 5])
        assert r["median"] == 3.0
        assert r["max"] == 5.0
        assert r["mean"] == 3.0
        assert r["p25"] == 2.0 and r["p75"] == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report([])

    def test_percentile_oracle(self):
        # Independent type-7 implementation: index q*(n-1), then linear
        # interpolation between the bracketing order statistics.
        rng = np.random.default_rng(11)
        for _ in range(1000):
            data = rng.lognormal(0, 2, size=int(rng.integers(1, 40)))
            r = report(data)
            s = np.sort(data)
            for name, q in (("median", 0.5), ("p90", 0.9), ("p95", 0.95), ("p99", 0.99)):
                pos = q * (s.size - 1)
                lo = int(np.floor(pos))
                hi = min(lo + 1, s.size - 1)
                frac = pos - lo
                expected = s[lo] + frac * (s[hi] - s[lo])
                assert r[name] == pytest.approx(expected, rel=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(12)
        data = rng.lognormal(0, 1, size=50)
        assert report(data) == report(data[rng.permutation(50)])


class TestRunEval:
    def test_perfect_oracle(self, db, samples, workload):
        rows = run_eval(
            lambda q: float(q.true_cardinality),
            workload,
            db,
            samples,
            name="oracle",
        )
        for row in rows:
            assert row["median"] == 1.0 and row["mean"] == 1.0 and row["max"] == 1.0

    def test_grouping_covers_workload(self, db, samples, workload):
        rows = run_eval("rs", workload, db, samples)
        by_join = [r for r in rows if r["join_count"] != "overall"]
        overall = next(r for r in rows if r["join_count"] == "overall")
        assert sum(r["n"] for r in by_join) == overall["n"] == len(workload)

    def test_zero_tuple_subset_detection(self, workload):
        flagged = [q for q in workload if is_zero_tuple(q)]
        for q in flagged:
            assert any(
                q.spec.predicates_of(a) and not q.bitmaps[a].any()
                for a in q.spec.aliases
            )

    def test_zero_tuple_empty_subset(self, db, samples, workload):
        no_pred = [q for q in workload if not q.spec.predicates]
        rows = run_eval("rs", no_pred, db, samples, zero_tuple_only=True)
        assert rows == [{"estimator": "rs", "join_count": "overall", "n": 0}]

    def test_estimator_names(self, db, samples, workload):
        # A full run and an empty subset name their rows alike.
        oracle = lambda q: float(q.true_cardinality)  # noqa: E731
        for subset in (workload[:20], []):
            for estimator, name, shown in (
                (oracle, None, "custom"), (oracle, "oracle", "oracle"), ("ibjs", None, "ibjs"),
            ):
                rows = run_eval(estimator, subset, db, samples, name=name)
                assert {r["estimator"] for r in rows} == {shown}

    def test_rs_report_matches_recomputation(self, db, samples, workload):
        singles = [q for q in workload if not q.spec.joins]
        rows = run_eval("rs", singles, db, samples)
        overall = next(r for r in rows if r["join_count"] == "overall")
        errors = []
        for q in singles:
            est = rs_estimate(db, samples, q.spec)
            errors.append(max(est / q.true_cardinality, q.true_cardinality / est))
        assert overall["mean"] == pytest.approx(np.mean(errors))
        assert overall["median"] == pytest.approx(np.median(errors))

    def test_concatenation_weighted_mean(self, db, samples, workload):
        a, b = workload[:60], workload[60:]
        ra = run_eval("rs", a, db, samples)[-1]
        rb = run_eval("rs", b, db, samples)[-1]
        rall = run_eval("rs", workload, db, samples)[-1]
        combined = (ra["mean"] * ra["n"] + rb["mean"] * rb["n"]) / (ra["n"] + rb["n"])
        assert rall["mean"] == pytest.approx(combined)

    def test_csv_json_round_trip(self, db, samples, workload, tmp_path):
        rows = run_eval("rs", workload, db, samples)
        write_report_csv(rows, tmp_path / "r.csv")
        write_report_json(rows, tmp_path / "r.json")
        loaded = read_report_csv(tmp_path / "r.csv")
        assert [r["join_count"] for r in loaded] == [r["join_count"] for r in rows]
        assert list(loaded[0]) == list(REPORT_FIELDS)
        assert float(loaded[-1]["mean"]) == rows[-1]["mean"]


@pytest.fixture(scope="module")
def batches(db, workload):
    catalog = build_catalog(db, [q.true_cardinality for q in workload], S, "bitmap")
    full = featurize_labeled(workload, catalog)
    return full.slice(np.arange(100)), full.slice(np.arange(100, len(workload))), catalog


class TestGridSearch:
    def test_single_config(self, batches):
        tb, vb, catalog = batches
        rows = grid_search(
            {"epochs": [2], "batch_size": [64], "d": [8]},
            0.001,
            tb,
            vb,
            catalog,
            repeats=3,
            seed=1,
        )
        assert len(rows) == 1
        assert len(rows[0]["seeds"]) == len(rows[0]["val_mean_qerrors"]) == 3
        assert len(set(rows[0]["seeds"])) == 3

    def test_deterministic(self, batches):
        tb, vb, catalog = batches
        space = {"epochs": [2], "batch_size": [64], "d": [4, 8]}
        a = grid_search(space, 0.001, tb, vb, catalog, repeats=2, seed=2)
        b = grid_search(space, 0.001, tb, vb, catalog, repeats=2, seed=2)
        assert a == b

    def test_small_grid_ranked(self, batches, tmp_path):
        tb, vb, catalog = batches
        space = {"epochs": [1, 2], "batch_size": [64, 128], "d": [4, 8]}
        rows = grid_search(space, 0.001, tb, vb, catalog, repeats=1, seed=3)
        assert len(rows) == 8
        errs = [r["mean_val_qerror"] for r in rows]
        assert errs == sorted(errs)
        write_grid_csv(rows, tmp_path / "grid.csv")
        assert (tmp_path / "grid.csv").read_text().count("\n") == 9

    def test_empty_space_rejected(self, batches):
        tb, vb, catalog = batches
        with pytest.raises(ValueError):
            grid_search({"epochs": [], "batch_size": [64], "d": [8]}, 0.001, tb, vb, catalog)
