import numpy as np
import pytest
from helpers import (
    content_order,
    count_and_estimates,
    fk_forests,
    join_queries,
    loop_ibjs_estimate,
    rewrites,
    rewritten,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cardlab.baselines import ibjs_estimate, rs_estimate
from cardlab.errors import ValidationError
from cardlab.executor import label_workload, true_cardinality
from cardlab.query import JoinEdge, Predicate, QuerySpec, TableRef, generate_workload
from cardlab.storage import (
    Column,
    Database,
    SynthConfig,
    Table,
    build_join_indexes,
    draw_all_samples,
    draw_sample,
    generate_synthetic_db,
)

ROWS = {
    "title": 300,
    "movie_companies": 500,
    "movie_info": 500,
    "movie_info_idx": 500,
    "movie_keyword": 500,
    "cast_info": 500,
}


@pytest.fixture(scope="module")
def db():
    return generate_synthetic_db(SynthConfig(rows=ROWS, rho=0.6), seed=41)


@pytest.fixture(scope="module")
def samples(db):
    return draw_all_samples(db, 50, seed=6)


@pytest.fixture(scope="module")
def full_samples(db):
    return {
        name: draw_sample(db.table(name), db.table(name).row_count, seed=0)
        for name in db.table_names()
    }


@pytest.fixture(scope="module")
def indexes(db):
    return build_join_indexes(db)


def _single_table_db_with_popcount_seven():
    # Column is 0..999; the sample is drawn first, then the literal is set
    # to the 8th smallest sampled value so that exactly 7 sample rows pass.
    table = Table(
        "t",
        [Column("id", "pk", np.arange(1000)), Column("x", "attr", np.arange(1000))],
    )
    db = Database([table])
    sample = draw_sample(table, 100, seed=3)
    literal = int(np.sort(sample.rows["x"])[7])
    spec = QuerySpec(
        (TableRef("t", "t"),), (), (Predicate("t", "x", "<", literal),)
    )
    return db, {"t": sample}, spec


class TestRandomSampling:
    def test_single_table_extrapolation(self):
        db, samples, spec = _single_table_db_with_popcount_seven()
        assert rs_estimate(db, samples, spec) == pytest.approx(70.0)

    def test_conjunctive_fallback_hand_computation(self):
        # Sampled rows all get value 0 in both attribute columns; the full
        # columns carry 50 resp. 20 distinct values. Predicates hit only
        # unsampled rows, so both conjuncts are empty on the sample.
        n = 1000
        # Same name/size/seed as the real table, so the indices coincide.
        sample_idx = draw_sample(
            Table("t", [Column("id", "pk", np.arange(n))]), 100, seed=9
        ).row_indices
        a = np.arange(n) % 50
        b = np.arange(n) % 20
        a[sample_idx] = 0
        b[sample_idx] = 0
        table = Table(
            "t",
            [
                Column("id", "pk", np.arange(n)),
                Column("a", "attr", a),
                Column("b", "attr", b),
            ],
        )
        db = Database([table])
        samples = {"t": draw_sample(table, 100, seed=9)}
        assert int(np.unique(a).size) == 50 and int(np.unique(b).size) == 20
        spec = QuerySpec(
            (TableRef("t", "t"),),
            (),
            (Predicate("t", "a", "=", 7), Predicate("t", "b", "=", 7)),
        )
        # 1000 * (1/50) * (1/20) = 1.0, and the clamp keeps it there.
        assert rs_estimate(db, samples, spec) == pytest.approx(1.0)

    def test_clean_fk_join_is_exact(self, db, samples):
        spec = QuerySpec(
            (TableRef("title", "t"), TableRef("movie_keyword", "mk")),
            (JoinEdge(("mk", "movie_id"), ("t", "id")),),
        )
        truth = true_cardinality(db, spec)
        assert rs_estimate(db, samples, spec) == pytest.approx(truth)

    def test_never_below_one(self, db, samples):
        for spec in generate_workload(db, 100, 2, seed=42):
            assert rs_estimate(db, samples, spec) >= 1.0

    def test_deterministic(self, db, samples):
        spec = generate_workload(db, 1, 2, seed=43)[0]
        assert rs_estimate(db, samples, spec) == rs_estimate(db, samples, spec)


class TestIndexBasedJoinSampling:
    def test_zero_join_equals_rs(self, db, samples, indexes):
        for spec in generate_workload(db, 30, 0, seed=44):
            assert ibjs_estimate(db, samples, indexes, spec) == rs_estimate(
                db, samples, spec
            )

    def test_empty_driver_falls_back_to_rs(self, db, samples, indexes):
        # production_year = 9999 matches nothing anywhere, so every table's
        # sample (and in particular the driver's) is empty.
        spec = QuerySpec(
            (TableRef("title", "t"), TableRef("movie_keyword", "mk")),
            (JoinEdge(("mk", "movie_id"), ("t", "id")),),
            (Predicate("t", "production_year", "=", 9999),),
        )
        assert ibjs_estimate(db, samples, indexes, spec) == rs_estimate(
            db, samples, spec
        )

    def test_full_sample_is_exact(self, db, full_samples, indexes):
        workload = generate_workload(db, 40, 2, seed=45)
        labeled, _ = label_workload(db, workload, full_samples)
        assert labeled
        for q in labeled:
            est = ibjs_estimate(db, full_samples, indexes, q.spec)
            assert est == pytest.approx(q.true_cardinality)

    def test_missing_index_names_column(self, db, samples):
        spec = QuerySpec(
            (TableRef("title", "t"), TableRef("movie_keyword", "mk")),
            (JoinEdge(("mk", "movie_id"), ("t", "id")),),
        )
        with pytest.raises(ValidationError, match="movie_id|id"):
            ibjs_estimate(db, samples, {}, spec)

    def test_never_below_one_and_deterministic(self, db, samples, indexes):
        for spec in generate_workload(db, 60, 2, seed=46):
            a = ibjs_estimate(db, samples, indexes, spec)
            b = ibjs_estimate(db, samples, indexes, spec)
            assert a == b >= 1.0


@pytest.mark.parametrize("literal", [40000, -(2**40), 2**70])
def test_literal_outside_column_dtype(db, samples, indexes, literal):
    """A literal beyond an int16 column's range selects the same rows as
    the literal clamped to the column's [min - 1, max + 1], so RS and IBJS
    estimate both queries alike."""
    rng = np.random.default_rng(47)
    workload = generate_workload(db, 20, 3, seed=48)
    assert {len(q.joins) for q in workload} == {0, 1, 2, 3}
    for spec in workload:
        alias = spec.aliases[int(rng.integers(len(spec.aliases)))]
        table = spec.table_of(alias)
        attrs = db.attr_columns(table)
        col = attrs[int(rng.integers(len(attrs)))]
        assert db.column_values(table, col).dtype == np.int16
        s = db.table(table).column(col)
        for op in ("=", "<", ">"):
            specs = [
                QuerySpec(spec.tables, spec.joins, spec.predicates + (Predicate(alias, col, op, lit),))
                for lit in (literal, min(max(literal, s.lo - 1), s.hi + 1))
            ]
            for estimate in (rs_estimate, lambda d, sm, q: ibjs_estimate(d, sm, indexes, q)):
                wide, clamped = (estimate(db, samples, q) for q in specs)
                assert wide == clamped


def _star_with_dry_second_step():
    # p has two children. Driver p (a = 1: ids 1, 2) meets c1 rows
    # 0-3 (fanouts 3 and 1), then c2 rows 0-3, none of which pass x = 7,
    # so the walk runs dry on its second step.
    p = Table("p", [Column("id", "pk", [1, 2, 3, 4]), Column("a", "attr", [1, 1, 2, 2])])
    c1 = Table(
        "c1",
        [Column("id", "pk", np.arange(6)), Column("pid", "fk", [1, 1, 1, 2, 3, 4], ref=("p", "id"))],
    )
    c2 = Table(
        "c2",
        [
            Column("id", "pk", np.arange(12)),
            Column("pid", "fk", [1, 1, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4], ref=("p", "id")),
            Column("x", "attr", [5] * 4 + [7] * 8),
        ],
    )
    db = Database([p, c1, c2])
    samples = {t.name: draw_sample(t, t.row_count, seed=0) for t in (p, c1, c2)}
    spec = QuerySpec(
        (TableRef("p", "p"), TableRef("c1", "c1"), TableRef("c2", "c2")),
        (JoinEdge(("c1", "pid"), ("p", "id")), JoinEdge(("c2", "pid"), ("p", "id"))),
        (Predicate("p", "a", "=", 1), Predicate("c2", "x", "=", 7)),
    )
    return db, samples, spec


class TestIbjsAgainstLoopOracle:
    """The vectorised CSR probe against the per-probe-value loop it replaced."""

    @pytest.mark.parametrize("max_joins", [0, 1, 2, 3, 4])
    def test_workload_matches_loop(self, db, samples, full_samples, indexes, max_joins):
        specs = generate_workload(db, 40, max_joins, seed=50 + max_joins)
        paths = set()
        for sample_set in (samples, full_samples):
            for spec in specs:
                want, path = loop_ibjs_estimate(db, sample_set, spec)
                assert ibjs_estimate(db, sample_set, indexes, spec) == want
                paths.add(path)
        if max_joins:
            assert "walk" in paths
            # Some joined queries filter more than one alias, so some
            # probed table carries predicates.
            assert any(
                s.joins and len({p.alias for p in s.predicates}) > 1 for s in specs
            )

    def test_dry_intermediate_takes_independence_tail(self):
        db, samples, spec = _star_with_dry_second_step()
        want, path = loop_ibjs_estimate(db, samples, spec)
        assert path == "tail"
        # 4 intermediate tuples * scale 1 * |c2 filtered| 8 / max ndv 4.
        assert want == 8.0
        assert ibjs_estimate(db, samples, build_join_indexes(db), spec) == want
        # Not the RS value 2 * 6 * 8 / (4 * 4), so the walk did run.
        assert rs_estimate(db, samples, spec) == 6.0


@pytest.fixture(scope="module")
def two_fk_db():
    """`c` (120 rows) with two fks, `f0` and `f1`, to `p` (40 rows); its
    samples (10 rows per table) and join indexes."""
    rng = np.random.default_rng(83)
    db = Database([
        Table("p", [Column("id", "pk", np.arange(40)), Column("a", "attr", rng.integers(0, 5, 40)),
                    Column("b", "attr", rng.integers(0, 3, 40))]),
        Table("c", [Column("id", "pk", np.arange(120)),
                    Column("f0", "fk", rng.integers(0, 40, 120), ref=("p", "id")),
                    Column("f1", "fk", rng.integers(0, 40, 120), ref=("p", "id")),
                    Column("v", "attr", rng.integers(0, 4, 120))]),
    ])
    return db, draw_all_samples(db, 10, seed=3), build_join_indexes(db)


class TestRewrites:
    """Renaming aliases and writing joins the other way round leave the
    query, and so its exact count and its RS and IBJS estimates, bit for
    bit: both estimators read the query's content order, never its alias
    names (`QuerySpec.content_order`)."""

    def test_dry_walk_ignores_alias_names(self):
        # `d1` sorts after `c2` where `c1` sorts before it: by name, the
        # walk would probe c2 first and run dry at once (6.0).
        db, samples, spec = _star_with_dry_second_step()
        indexes = build_join_indexes(db)
        for names in ({"p": "p", "c1": "c1", "c2": "c2"}, {"p": "p", "c1": "d1", "c2": "c2"}):
            renamed = rewritten(spec, names)
            assert loop_ibjs_estimate(db, samples, renamed) == (8.0, "tail")
            assert ibjs_estimate(db, samples, indexes, renamed) == 8.0

    @settings(max_examples=100)
    @given(data=st.data())
    def test_two_aliases_of_one_parent(self, two_fk_db, data):
        # c joins p twice, as x through f0 and as y through f1. Swapping
        # the names x and y swaps which alias each name's predicates and
        # join describe, not the query.
        db, samples, indexes = two_fk_db
        predicates = []
        for alias, columns in (("c", ("v",)), ("x", ("a", "b")), ("y", ("a", "b"))):
            for _ in range(data.draw(st.integers(0, 2))):
                predicates.append(Predicate(alias, data.draw(st.sampled_from(columns)),
                                            data.draw(st.sampled_from("=<>")),
                                            data.draw(st.integers(-1, 5))))
        spec = QuerySpec((TableRef("c", "c"), TableRef("p", "x"), TableRef("p", "y")),
                         (JoinEdge(("c", "f0"), ("x", "id")), JoinEdge(("c", "f1"), ("y", "id"))),
                         tuple(predicates))
        flips = {i for i in range(2) if data.draw(st.booleans())}
        swapped = rewritten(spec, {"c": "c", "x": "y", "y": "x"}, flips)
        assert count_and_estimates(db, samples, indexes, swapped) == count_and_estimates(db, samples, indexes, spec)

    @settings(max_examples=100)
    @given(data=st.data())
    def test_drawn_forests(self, data):
        db = data.draw(fk_forests())
        spec = data.draw(join_queries(db))
        samples, indexes = draw_all_samples(db, 3, seed=4), build_join_indexes(db)
        other = data.draw(rewrites(spec))
        assert count_and_estimates(db, samples, indexes, other) == count_and_estimates(db, samples, indexes, spec)
        # The content order, and IBJS against the loop oracle, which sorts
        # the aliases itself, on schemas with several tables.
        for s in (spec, other):
            assert list(s.content_order) == content_order(s)
            assert ibjs_estimate(db, samples, indexes, s) == loop_ibjs_estimate(db, samples, s)[0]
