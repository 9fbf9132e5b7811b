import dataclasses
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from helpers import code_join_keys, loop_ibjs_estimate, nested_loop_count
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cardlab import storage
from cardlab.baselines import ibjs_estimate
from cardlab.errors import ParseError, SchemaError
from cardlab.executor import true_cardinality
from cardlab.featurizer import build_catalog
from cardlab.query import parse_query
from cardlab.storage import (
    Column,
    ColumnSpec,
    Database,
    SynthConfig,
    Table,
    TableSchema,
    build_join_indexes,
    distinct_count,
    draw_sample,
    generate_synthetic_db,
    group_rows,
    load_csv,
    load_database,
    load_samples,
    load_synth_config,
    _RADIX_SPACE,
    _dense_span,
    _draw_positions,
    _guide_table,
    rows_by_code,
    save_database,
    save_samples,
)

SMALL_ROWS = {
    "title": 500,
    "movie_companies": 800,
    "movie_info": 800,
    "movie_info_idx": 800,
    "movie_keyword": 800,
    "cast_info": 800,
}


@pytest.fixture(scope="module")
def small_db():
    return generate_synthetic_db(SynthConfig(rows=SMALL_ROWS, rho=0.5), seed=11)


class TestLoadCsv:
    def test_single_pk_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id\n1\n2\n3\n")
        table = load_csv(p, TableSchema("t", (ColumnSpec("id", "pk"),)))
        assert table.row_count == 3
        np.testing.assert_array_equal(table.column("id").values, [1, 2, 3])

    def test_empty_data_section(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id\n")
        table = load_csv(p, TableSchema("t", (ColumnSpec("id", "pk"),)))
        assert table.row_count == 0

    def test_malformed_integer(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,x\n1,x\n")
        schema = TableSchema("t", (ColumnSpec("id", "pk"), ColumnSpec("x", "attr")))
        with pytest.raises(ParseError):
            load_csv(p, schema)

    def test_wrong_arity(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,x\n1\n")
        schema = TableSchema("t", (ColumnSpec("id", "pk"), ColumnSpec("x", "attr")))
        with pytest.raises(ParseError):
            load_csv(p, schema)

    def test_unknown_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,bogus\n1,2\n")
        schema = TableSchema("t", (ColumnSpec("id", "pk"), ColumnSpec("x", "attr")))
        with pytest.raises(SchemaError):
            load_csv(p, schema)

    @pytest.mark.parametrize(
        "cell", [2**63, 2**70, -(2**63) - 1], ids=["int64_max_plus_1", "2**70", "below_int64"]
    )
    @pytest.mark.parametrize("column", ["id", "x"])
    def test_beyond_int64(self, tmp_path, cell, column):
        p = tmp_path / "t.csv"
        row = f"3,{cell}" if column == "x" else f"{cell},3"
        p.write_text(f"id,x\n1,2\n2,2\n{row}\n")
        schema = TableSchema("t", (ColumnSpec("id", "pk"), ColumnSpec("x", "attr")))
        with pytest.raises(ParseError, match=rf"t\.csv:4: integer {cell} outside"):
            load_csv(p, schema)

    def test_header_order_independent(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,id\n7,1\n8,2\n")
        schema = TableSchema("t", (ColumnSpec("id", "pk"), ColumnSpec("x", "attr")))
        table = load_csv(p, schema)
        assert [c.name for c in table.columns] == ["id", "x"]
        np.testing.assert_array_equal(table.column("x").values, [7, 8])


def _facts(column):
    return column.lo, column.hi, column.distinct_count


class TestComputeStats:
    """The facts each `Column` records when it is built: least and
    greatest value and distinct count, from the value index of an
    attribute column and from one sort of a key column."""

    def test_hand_counts(self):
        assert _facts(Column("c", "attr", [5, 1, 5])) == (1, 5, 2)
        assert _facts(Column("c", "fk", [5, 1, 5], ref=("p", "id"))) == (1, 5, 2)
        assert _facts(Column("c", "pk", [5, 1, 3])) == (1, 5, 3)

    def test_singleton(self):
        assert _facts(Column("c", "attr", [7])) == (7, 7, 1)

    def test_empty_column_errors(self):
        # An empty column has no bounds, and the featurizer cannot
        # normalize literals of a column without them.
        assert _facts(Column("c", "attr", [])) == (None, None, 0)
        assert _facts(Column("c", "pk", [])) == (None, None, 0)
        db = Database([Table("t", [Column("id", "pk", []), Column("x", "attr", [])])])
        with pytest.raises(ValueError, match="empty column t.x"):
            build_catalog(db, [1.0], 10, "bitmap")

    def test_full_scan_oracle(self, small_db):
        rng = np.random.default_rng(12)
        extra = [
            Column("absent", "attr", rng.choice([0, 7, 65535], size=300)),
            Column("wide", "attr", rng.integers(-(10**6), 10**6, size=3000)),
            Column("extremes", "attr", [-(2**63), 2**63 - 1, 0, 0]),
            Column("key", "fk", rng.integers(0, 50, size=300), ref=("p", "id")),
        ]
        columns = [c for t in small_db.tables.values() for c in t.columns] + extra
        for col in columns:
            vals = [int(v) for v in col.values]
            assert _facts(col) == (min(vals), max(vals), len(set(vals))), col.name


class TestDistinctCount:
    @pytest.mark.parametrize(
        "values",
        [
            [7],
            [3] * 50,
            [-5, -1, -5, 0, 4, -1],
            [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, np.iinfo(np.int64).min],
            np.arange(1, 200_001),
            np.random.default_rng(2).integers(-1000, 1000, size=5000),
        ],
        ids=["one", "all_equal", "negative", "int64_extremes", "sequential_200k", "random"],
    )
    def test_matches_unique(self, values):
        v = np.asarray(values, dtype=np.int64)
        assert distinct_count(v) == np.unique(v).size

    def test_empty(self):
        assert distinct_count(np.empty(0, dtype=np.int64)) == 0

    @staticmethod
    @st.composite
    def _spans(draw):
        """Key-like int64 values whose span is dense or sparse for their
        row count, its least and greatest value both present."""
        rows = draw(st.integers(1, 300))
        limit = 4 * rows + 1024
        dense = draw(st.booleans())
        span = draw(st.integers(1, limit) if dense else st.integers(limit + 1, 2**62))
        lo = draw(st.integers(-(2**62), 2**62 - span))
        values = lo + np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
            0, span, size=rows
        )
        values[0], values[-1] = lo, lo + span - 1
        assert _dense_span(span, rows) == dense
        return values

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(values=_spans())
    def test_matches_unique_over_dense_and_sparse_spans(self, values):
        assert distinct_count(values) == np.unique(values).size


class TestSyntheticDb:
    def test_deterministic(self):
        cfg = SynthConfig(rows=SMALL_ROWS, rho=0.5)
        a = generate_synthetic_db(cfg, seed=1)
        b = generate_synthetic_db(cfg, seed=1)
        for tname in a.table_names():
            for ca, cb in zip(a.table(tname).columns, b.table(tname).columns):
                np.testing.assert_array_equal(ca.values, cb.values)

    @staticmethod
    def _columns_digest(db):
        """SHA-256 of every column's name, dtype and bytes."""
        digest = hashlib.sha256()
        for name in db.table_names():
            for c in db.table(name).columns:
                digest.update(f"{name}.{c.name}:{c.values.dtype.str}:".encode())
                digest.update(c.values.tobytes())
        return digest.hexdigest()

    def test_columns_pinned(self, small_db):
        # Recorded before the generator's arrays were freed ahead of join
        # coding: the RNG draws, their order and the stored columns are
        # unchanged.
        assert self._columns_digest(small_db) == (
            "7c2cf40cc85667113df5f184c1df5aae6f4c55e74ceda43183ad0a4b96e31aa3"
        )

    def test_reference_columns_pinned(self):
        # The reference-size database (default rows, rho 0.8, seed 101),
        # recorded while child rows drew their parents by `rng.choice`.
        db = generate_synthetic_db(SynthConfig(rho=0.8), seed=101)
        assert self._columns_digest(db) == (
            "75204dbdc7c45836f48e14fd6284b0a3f339a08a680f2b150d368ac536922353"
        )

    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(0, 500),
        weights=st.one_of(
            st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0]), min_size=1, max_size=60)
            .filter(lambda w: sum(w) > 0),
            st.just([1.0]),
            st.builds(
                lambda s, k: np.random.default_rng(s).lognormal(0.0, 2.0, k),
                st.integers(0, 2**32 - 1),
                st.integers(1, 3000),
            ),
        ),
    )
    def test_draws_equal_choice(self, seed, size, weights):
        # The parent draws are `Generator.choice`'s, found through a guide
        # table, and leave the stream where `choice` leaves it: zero
        # weights, a single entry and skewed log-normal weights alike.
        p = np.asarray(weights, dtype=np.float64)
        p /= p.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _draw_positions(cdf, _guide_table(cdf), ours.random(size))
        want = numpys.choice(p.size, size=size, p=p)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert ours.random() == numpys.random()

    @staticmethod
    def _cdf(weights):
        """The cdf `Generator.choice` searches for weights `weights`."""
        p = np.asarray(weights, dtype=np.float64)
        p /= p.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return cdf

    @pytest.mark.parametrize(
        "weights, crowd",
        [
            ([1.0], 0),
            (np.ones(1024), 0),  # every cdf entry a bucket edge
            (np.ones(1000), 0),
            ([0.0] * 300 + [1.0] + [0.0] * 2000 + [2.0] + [0.0] * 700 + [0.5], 2000),
            (np.random.default_rng(4).lognormal(0.0, 4.0, 5000), 40),
            (np.random.default_rng(5).lognormal(0.0, 6.0, 20_000), 100),
        ],
        ids=["single", "edges_1024", "uniform_1000", "zero_runs", "lognormal_4", "lognormal_6"],
    )
    def test_guide_table_search_equals_searchsorted(self, weights, crowd):
        # Uniforms at 0, at every cdf value, at its neighbours and at every
        # bucket edge, and random ones; in the crowded cases one bucket
        # holds at least `crowd` entries, so a search steps that far.
        cdf = self._cdf(weights)
        starts = _guide_table(cdf)
        m = starts.size
        assert starts.dtype == np.int32
        assert m & (m - 1) == 0 and m >= 2 * cdf.size
        assert np.diff(starts, append=cdf.size).max() >= crowd
        edges = np.arange(m) / m
        u = np.concatenate(
            [
                [0.0],
                cdf,
                np.nextafter(cdf, 0.0),
                np.nextafter(cdf, 1.0),
                edges,
                np.nextafter(edges, 0.0),
                np.nextafter(edges, 1.0),
                np.random.default_rng(6).random(10_000),
            ]
        )
        u = u[(u >= 0.0) & (u < 1.0)]
        got = _draw_positions(cdf, starts, u)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, cdf.searchsorted(u, side="right"))

    def test_referential_integrity_full_scan(self, small_db):
        for edge in small_db.fk_edges:
            child = set(small_db.column_values(*edge.child).tolist())
            parent = set(small_db.column_values(*edge.parent).tolist())
            assert child <= parent

    def test_shape(self, small_db):
        assert len(small_db.tables) == 6
        assert len(small_db.fk_edges) == 5
        assert small_db.referenced_tables() == ("title",)

    @staticmethod
    def _joined_contingency(db, child, attr):
        """Bucketed (production_year, child attr) counts across the join."""
        title = db.table("title")
        years = title.column("production_year").values
        ids = title.column("id").values
        pos = np.searchsorted(ids, db.column_values(child, "movie_id"))
        joined_years = years[pos]
        attr_vals = db.column_values(child, attr)
        ybins = np.linspace(1880, 2021, 9)
        abins = np.linspace(attr_vals.min(), attr_vals.max() + 1, 9)
        table, _, _ = np.histogram2d(joined_years, attr_vals, bins=(ybins, abins))
        return table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]

    def test_rho_zero_independent(self):
        rows = {t: 10_000 for t in SMALL_ROWS}
        db = generate_synthetic_db(SynthConfig(rows=rows, rho=0.0), seed=3)
        table = self._joined_contingency(db, "movie_keyword", "keyword_id")
        _, p, _, _ = stats.chi2_contingency(table)
        assert p > 0.01

    def test_rho_one_dependent(self):
        rows = {t: 10_000 for t in SMALL_ROWS}
        db = generate_synthetic_db(SynthConfig(rows=rows, rho=1.0), seed=3)
        table = self._joined_contingency(db, "movie_keyword", "keyword_id")
        _, p, _, _ = stats.chi2_contingency(table)
        assert p < 0.01

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(rows={"title": 0})
        with pytest.raises(ValueError):
            SynthConfig(rho=1.5)
        with pytest.raises(ValueError):
            SynthConfig(rows={"nope": 10})


class TestDrawSample:
    def test_full_sample_is_permutation(self, small_db):
        t = small_db.table("title")
        s = draw_sample(t, t.row_count, seed=0)
        np.testing.assert_array_equal(np.sort(s.row_indices), np.arange(t.row_count))

    def test_deterministic(self, small_db):
        t = small_db.table("title")
        a = draw_sample(t, 50, seed=9)
        b = draw_sample(t, 50, seed=9)
        np.testing.assert_array_equal(a.row_indices, b.row_indices)
        for name in a.rows:
            np.testing.assert_array_equal(a.rows[name], b.rows[name])

    def test_distinct_indices(self, small_db):
        s = draw_sample(small_db.table("cast_info"), 100, seed=4)
        assert len(np.unique(s.row_indices)) == 100

    def test_seed_changes_sample(self, small_db):
        t = small_db.table("title")
        draws = {tuple(draw_sample(t, 5, seed=k).row_indices) for k in range(10)}
        assert len(draws) == 10

    def test_size_bounds(self, small_db):
        t = small_db.table("title")
        with pytest.raises(ValueError):
            draw_sample(t, t.row_count + 1, seed=0)
        with pytest.raises(ValueError):
            draw_sample(t, 0, seed=0)

    def test_single_row_frequency(self):
        table = Table("t", [Column("id", "pk", np.arange(10))])
        counts = np.zeros(10)
        trials = 10_000
        for k in range(trials):
            counts[draw_sample(table, 1, seed=k).row_indices[0]] += 1
        np.testing.assert_allclose(counts / trials, 0.1, atol=0.02)


def _lookup(values, probes):
    """Per probe value, the rows of `values` equal to it, read from the rows
    grouped by code in the two columns' shared key space."""
    key, probe = code_join_keys(
        np.asarray(values, dtype=np.int64), np.asarray(probes, dtype=np.int64)
    )
    positions, rows = group_rows(key.codes, key.fanout).probe(probe.codes)
    return [rows[positions == i] for i in range(len(probes))]


class TestHashIndex:
    """The CSR grouping (`storage.group_rows`) that replaced the per-value
    hash index, checked with the hash index's assertions."""

    def test_hand_check(self):
        table = Table(
            "t",
            [Column("id", "pk", [0, 1, 2]), Column("x", "attr", [1, 1, 3])],
        )
        one, two = _lookup(table.column("x").values, [1, 2])
        np.testing.assert_array_equal(np.sort(one), [0, 1])
        assert two.size == 0

    def test_scan_oracle(self, small_db):
        rng = np.random.default_rng(7)
        table = small_db.table("movie_keyword")
        vals = table.column("keyword_id").values
        probes = rng.integers(0, 600, size=1000)
        for v, rows in zip(probes, _lookup(vals, probes)):
            expected = np.flatnonzero(vals == v)
            np.testing.assert_array_equal(np.sort(rows), expected)

    def test_posting_lists_partition_rows(self, small_db):
        table = small_db.table("movie_info")
        vals = table.column("info_type_id").values
        all_rows = np.concatenate(_lookup(vals, np.unique(vals)))
        np.testing.assert_array_equal(np.sort(all_rows), np.arange(table.row_count))

    @pytest.mark.parametrize("scale", [1, 10**12], ids=["dense", "sparse"])
    def test_probe_order(self, scale):
        # Probes come back grouped in probe order, each group's rows
        # ascending, as the per-value loop produced them; the sparse case
        # takes the np.unique coding path.
        rng = np.random.default_rng(8)
        vals = rng.integers(-20, 20, size=300) * scale
        probes = rng.integers(-25, 25, size=80) * scale
        key, probe = code_join_keys(vals, probes)
        positions, rows = group_rows(key.codes, key.fanout).probe(probe.codes)
        expected = [np.flatnonzero(vals == v) for v in probes]
        np.testing.assert_array_equal(
            positions, np.repeat(np.arange(probes.size), [e.size for e in expected])
        )
        np.testing.assert_array_equal(rows, np.concatenate(expected))

    @pytest.mark.parametrize("scale", [1, 10**12], ids=["dense", "sparse"])
    def test_rows_by_code_matches_stable_argsort(self, scale):
        # The radix sort of 16-bit codes and the unique-key sort (any key
        # space past 2**16, forced here on small codes too) give the stable
        # argsort's order; the dense 70000-wide keys take the unique-key
        # sort through `group_rows`, which keeps the order in int32 ids.
        rng = np.random.default_rng(9)
        for vals in (rng.integers(-20, 20, size=300) * scale,
                     rng.integers(0, 5, size=1000), np.empty(0, np.int64),
                     rng.integers(0, 70_000, size=20_000) * scale):
            key, _ = code_join_keys(vals, vals[:10])
            expected = np.argsort(key.codes, kind="stable")
            for space in (key.fanout.size, _RADIX_SPACE + 1):
                np.testing.assert_array_equal(rows_by_code(key.codes, space), expected)
            groups = group_rows(key.codes, key.fanout)
            assert groups.rows.dtype == np.int32
            np.testing.assert_array_equal(groups.rows, expected)
            np.testing.assert_array_equal(np.diff(groups.offsets), key.fanout)

    def test_rows_by_code_bound_asserted(self):
        # code * n + row must stay inside int64, which no in-memory table
        # reaches; past it the sort would be wrong, so it is asserted.
        with pytest.raises(AssertionError, match="leaves int64"):
            rows_by_code(np.zeros(300, dtype=np.int64), 2**62)

    def test_build_join_indexes_scan_oracle(self, small_db):
        indexes = build_join_indexes(small_db)
        assert len(indexes) == 2 * len(small_db.fk_edges)
        for (probing, indexed), index in indexes.items():
            assert index.rows.dtype == np.int32
            probe_vals = small_db.column_values(*probing)
            vals = small_db.column_values(*indexed)
            own, _ = small_db.join_keys(probing, indexed)
            picks = np.arange(0, probe_vals.size, 7)
            positions, rows = index.probe(own.codes[picks])
            for i, r in enumerate(picks):
                expected = np.flatnonzero(vals == probe_vals[r])
                np.testing.assert_array_equal(rows[positions == i], expected)


_PY_OPS = {"=": lambda v, x: v == x, "<": lambda v, x: v < x, ">": lambda v, x: v > x}


class TestValueIndex:
    """`ValueIndex.group_span` selects the rows a Python scan does, grouped
    by value in ascending row order, for literals at, between and outside
    the keys. Spans of at most 2**16 that are dense for the row count (at
    most 4 * rows + 1024) key every value of the span, held or not; other
    columns key their distinct values."""

    @pytest.mark.parametrize(
        "values",
        [
            np.random.default_rng(13).choice([0, 7, 65535], size=400),
            np.random.default_rng(16).choice([0, 7, 2000], size=400),
            np.random.default_rng(14).integers(-(10**6), 10**6, size=3000),
            np.random.default_rng(15).integers(-40, 40, size=500),
            [-(2**63), 2**63 - 1, 0, 0, -(2**63)],
            [5],
            [],
        ],
        ids=["absent_inside_span", "absent_inside_dense_span", "wider_than_2_16",
             "negative", "int64_extremes", "one", "empty"],
    )
    def test_rows_where_matches_scan(self, values):
        column = Column("x", "attr", values)
        index, vals = column.index, [int(v) for v in column.values]
        assert index.groups.rows.dtype == np.int32
        distinct = sorted(set(vals))
        span = distinct[-1] - distinct[0] + 1 if vals else 0
        if vals and span <= min(_RADIX_SPACE, 4 * len(vals) + 1024):
            assert index.keys.tolist() == list(range(distinct[0], distinct[-1] + 1))
        else:
            assert index.keys.tolist() == distinct
        literals = {-(2**70), 2**70, -(2**63) - 1, 2**63}
        for v in distinct:
            literals |= {v - 1, v, v + 1}
        order = np.argsort(column.values, kind="stable")
        ordered = np.array(vals, dtype=np.int64)[order]
        for op in "=<>":
            for literal in sorted(literals):
                if -(2**63) <= literal < 2**63:
                    # numpy compares int64 with a literal inside int64
                    # exactly: the scan below, one comparison per row.
                    want = order[_PY_OPS[op](ordered, literal)].tolist()
                else:
                    want = [i for i in order.tolist() if _PY_OPS[op](vals[i], literal)]
                first, stop = index.group_span(op, literal)
                got = index.groups.rows[index.groups.offsets[first] : index.groups.offsets[stop]]
                assert got.tolist() == want, (op, literal)

    def test_sparse_narrow_span_is_small(self):
        # Three values 65535 apart are keyed as three values: 68 bytes of
        # keys, offsets and rows, not one key per value of the span (1 MB).
        index = Column("x", "attr", [0, 7, 65535]).index
        assert index.keys.tolist() == [0, 7, 65535]
        assert index.keys.nbytes + index.groups.offsets.nbytes + index.groups.rows.nbytes <= 100


def test_narrow_columns_code_in_int64():
    # Two int16 columns whose dense offset coding leaves the int16 range.
    values = np.arange(-30000, 30001).astype(np.int16)
    left, right = code_join_keys(values, values[::-1])
    assert left.codes.dtype == np.int64
    np.testing.assert_array_equal(left.codes, np.arange(values.size))
    np.testing.assert_array_equal(right.codes, np.arange(values.size)[::-1])


class TestColumnLookup:
    def test_by_name(self, small_db):
        title = small_db.table("title")
        assert all(title.column(c.name) is c for c in title.columns)
        with pytest.raises(SchemaError, match="unknown column title.nosuch"):
            title.column("nosuch")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate column names"):
            Table("t", [Column("id", "pk", [1, 2]), Column("id", "attr", [3, 4])])

    def test_declared_fk_joins(self, small_db):
        for e in small_db.fk_edges:
            assert small_db.is_fk_join(e.child, e.parent)
            assert small_db.is_fk_join(e.parent, e.child)
        assert not small_db.is_fk_join(
            ("movie_companies", "movie_id"), ("movie_info", "movie_id")
        )


class TestJoinKeyIdentity:
    def test_synthetic_primary_keys(self, small_db):
        for e in small_db.fk_edges:
            child, parent = small_db.join_keys(e.child, e.parent)
            assert parent.identity and not child.identity

    def test_sorted_sparse_ids(self):
        # Spread ids take the joint np.unique coding, which keeps sorted
        # ids in row order.
        ids = np.arange(50) * 10**12
        parent, child = code_join_keys(ids, ids[::3])
        assert parent.identity and not child.identity

    def test_permuted_ids(self):
        ids = np.random.default_rng(10).permutation(50)
        parent, _ = code_join_keys(ids, ids[::3])
        assert not parent.identity

    def test_key_space_larger_than_rows(self):
        # Codes 0..2 in row order, but the other column adds a fourth key.
        parent, _ = code_join_keys(np.arange(3), np.array([0, 3]))
        assert parent.fanout.size == 4 and not parent.identity

    def test_key_arrays_are_read_only(self, small_db):
        e = small_db.fk_edges[0]
        for key in small_db.join_keys(e.child, e.parent):
            for a in (key.codes, key.fanout):
                with pytest.raises(ValueError):
                    a[0] = 1


def _hand_star(reverse=False):
    """Two parents and the children of their ids. `p.id` (dense) has `a`,
    holding each parent id once, and `b`, skipping ids 2 and 4 and
    repeating others. `s.id` (0 and 3000) has `x`, one row, and `y`, 600
    rows: the span 3001 is sparse for s's and x's 3 rows alone but dense
    for the 603 rows of `s.id`'s key space, so all three are coded as
    offsets from 0. `reverse` lists the tables, and so the edges, in
    reverse order: `y` and `b` come first."""
    def child(name, ref, fks, attr):
        return Table(name, [Column("id", "pk", np.arange(len(fks))),
                            Column("fk", "fk", fks, ref=(ref, "id")),
                            Column("v", "attr", attr)])

    return Database([
        Table("p", [Column("id", "pk", [1, 2, 3, 4, 5]), Column("k", "attr", [1, 2, 1, 2, 3])]),
        child("a", "p", [5, 3, 1, 2, 4], [1, 2, 3, 1, 2]),
        child("b", "p", [1, 1, 3, 5, 3, 1], [2, 2, 1, 3, 1, 1]),
        Table("s", [Column("id", "pk", [0, 3000]), Column("k", "attr", [7, 8])]),
        child("x", "s", [0], [1]),
        child("y", "s", [0, 3000] * 300, np.arange(600) % 3),
    ][:: -1 if reverse else 1])


def _sparse_star():
    """`q.id` (0 and 10**6) and two children, `c` and `d`: the span 10**6 +
    1 is sparse for all 7 rows of the key space, which is coded by a joint
    `np.unique` as [0, 1]."""
    def child(name, fks):
        return Table(name, [Column("id", "pk", np.arange(len(fks))),
                            Column("fk", "fk", fks, ref=("q", "id"))])

    return Database([Table("q", [Column("id", "pk", [0, 10**6])]),
                     child("c", [0, 10**6, 0]), child("d", [10**6, 0])])


def _unique_bytes(arrays):
    """Bytes of the buffers under `arrays`, a buffer seen through several
    arrays or views counted once."""
    owners = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        owners[id(a)] = a.nbytes
    return sum(owners.values())


class TestSharedKeySpaces:
    """Each column that fk edges reference has one key space, over it and
    all of its fk children: every edge into it shares the column's codes,
    fanout, grouped codes and join index, and keeps its own
    `matches_once`."""

    def test_synthetic_edges_share(self, small_db):
        assert {e.parent for e in small_db.fk_edges} == {("title", "id")}
        first, *rest = [small_db.join_keys(e.child, e.parent)[1] for e in small_db.fk_edges]
        for key in rest:
            assert np.shares_memory(key.codes, first.codes)
            assert np.shares_memory(key.fanout, first.fanout)
        indexes = build_join_indexes(small_db)
        assert len({id(indexes[(e.child, e.parent)]) for e in small_db.fk_edges}) == 1
        assert len({id(indexes[(e.parent, e.child)]) for e in small_db.fk_edges}) == 5

    @staticmethod
    def _assert_one_space_per_column(db):
        """Each referenced column and its fk children are coded into one
        key space: as offsets from their least value when its span is
        dense for their combined rows, else as ranks among their distinct
        values. Each key's fanout, max_fanout, identity and base agree
        with its codes, and every edge holds the parent's one key."""
        spaces = {}
        for e in db.fk_edges:
            spaces.setdefault(e.parent, []).append(e)
        for ref, edges in spaces.items():
            values = [db.column_values(*ref)] + [db.column_values(*e.child) for e in edges]
            every = np.concatenate(values)
            lo, span = int(every.min()), int(every.max()) - int(every.min()) + 1
            if _dense_span(span, every.size):
                base, size, want = lo, span, [v - lo for v in values]
            else:
                distinct = np.unique(every)
                base, size, want = None, distinct.size, [distinct.searchsorted(v) for v in values]
            parent = db.join_keys(edges[0].child, edges[0].parent)[1]
            keys = [parent] + [db.join_keys(e.child, e.parent)[0] for e in edges]
            for key, codes in zip(keys, want):
                assert key.base == base and key.fanout.size == size
                np.testing.assert_array_equal(key.codes, codes)
                np.testing.assert_array_equal(key.fanout, np.bincount(codes, minlength=size))
                assert key.max_fanout == (key.fanout.max() if size else 0)
                assert key.identity == (codes.tolist() == list(range(size)))
            for e in edges:
                child, other = db.join_keys(e.child, e.parent)
                assert other.codes is parent.codes and other.fanout is parent.fanout
                assert other.grouped is parent.grouped
                assert db.join_keys(e.parent, e.child) == (other, child)

    def test_edges_share_one_space(self, small_db):
        # One coding per referenced column: `title.id` for the five
        # synthetic edges, `p.id` and `s.id` in the hand-built star, whose
        # span 3001 is dense for s, x and y together.
        for db in (small_db, _offset_keys(small_db, 1), _offset_keys(small_db, 10**12),
                   _hand_star(), _hand_star(reverse=True), _sparse_star()):
            self._assert_one_space_per_column(db)

    def test_shared_only_when_equal(self):
        # Edges share keys and join indexes exactly when they reference
        # the same column: a and b share p.id's, x and y share s.id's,
        # and the two key spaces share nothing.
        db = _hand_star()
        keys = {e.child[0]: db.join_keys(e.child, e.parent) for e in db.fk_edges}
        for a, b in ("ab", "xy"):
            assert keys[a][1].codes is keys[b][1].codes
            assert keys[a][1].fanout is keys[b][1].fanout
        assert not np.shares_memory(keys["a"][1].codes, keys["x"][1].codes)
        assert not np.shares_memory(keys["a"][1].fanout, keys["x"][1].fanout)
        assert keys["x"][1].base == 0 and keys["x"][1].fanout.size == 3001
        assert not keys["x"][1].identity and keys["x"][1].grouped
        indexes = build_join_indexes(db)
        parent_side = {e.child[0]: indexes[(e.child, e.parent)] for e in db.fk_edges}
        assert parent_side["a"] is parent_side["b"]
        assert parent_side["x"] is parent_side["y"]
        assert parent_side["a"] is not parent_side["x"]

    def test_later_edges_code_only_their_child(self, monkeypatch):
        # A later edge into a column makes no coder call of its own: its
        # child's rows are coded in the column's one call, over the rows
        # of the column and all of its children, in either table order.
        calls, code_space = [], storage._code_space
        monkeypatch.setattr(
            storage, "_code_space", lambda *a: calls.append(a) or code_space(*a)
        )
        Database(storage._synthetic_tables(SynthConfig(rows=SMALL_ROWS, rho=0.5), 11))
        assert [a[2] for a in calls] == [500 + 5 * 800]
        for reverse in (False, True):
            calls.clear()
            _hand_star(reverse=reverse)
            assert sorted(a[2] for a in calls) == [5 + 5 + 6, 2 + 1 + 600]

    def test_sparse_edges_share_when_equal(self):
        # A sparse key space is coded once too: both edges into q.id take
        # its one coding, [0, 1], and keep their own matches_once.
        db = _sparse_star()
        (_, c), (_, d) = (db.join_keys((t, "fk"), ("q", "id")) for t in "cd")
        assert c.base is d.base is None and c.codes.tolist() == [0, 1]
        assert d.codes is c.codes and d.fanout is c.fanout
        assert not c.matches_once and d.matches_once

    def test_matches_once_per_edge(self, small_db):
        # Every row of the key on one side meets exactly one row of the
        # other side's column, edge by edge, though the edges into a
        # column share its key: each p.id meets one row of a but not of b.
        for db in (small_db, _hand_star(), _sparse_star()):
            for e in db.fk_edges:
                child, parent = db.join_keys(e.child, e.parent)
                cv, pv = db.column_values(*e.child), db.column_values(*e.parent)
                assert child.matches_once == all(np.count_nonzero(pv == v) == 1 for v in cv)
                assert parent.matches_once == all(np.count_nonzero(cv == v) == 1 for v in pv)
        db = _hand_star()
        assert db.join_keys(("a", "fk"), ("p", "id"))[1].matches_once
        assert not db.join_keys(("b", "fk"), ("p", "id"))[1].matches_once

    @pytest.mark.parametrize(
        "text",
        [
            "p p,a a#a.fk=p.id#",
            "p p,b b#b.fk=p.id#p.k,<,3",
            "p p,a a,b b#a.fk=p.id,b.fk=p.id#",
            "p p,a a,b b#a.fk=p.id,b.fk=p.id#a.v,>,1,b.v,<,3",
            "a a,b b,p p#a.fk=p.id,b.fk=p.id#p.k,=,1",
            "s s,x x,y y#x.fk=s.id,y.fk=s.id#",
            "s s,y y#y.fk=s.id#y.v,=,2,s.k,>,7",
            "s s,x x,y y#x.fk=s.id,y.fk=s.id#s.k,=,8",
        ],
    )
    def test_counts_match_nested_loop(self, text):
        db = _hand_star()
        spec, _ = parse_query(text)
        assert true_cardinality(db, spec) == nested_loop_count(db, spec)

    def test_reference_byte_budget(self):
        # Unique buffers of every array the reference database keeps
        # (columns, value indexes, join key spaces, their grouped codes and
        # cubes) and of its join indexes: 27.67 MiB and 8.77 MiB. The
        # grouped codes take 5.34 MiB and the cubes 0.16 MiB; the five
        # child ids, held as ranges, no longer take 7.63 MiB. With each
        # child id stored and no grouped codes they were 29.79 MiB, with
        # each key column stored as values and as codes 38.18 MiB, and
        # with a copy of `title.id`'s key space and join index per edge
        # 44.28 MiB and 13.35 MiB.
        db = generate_synthetic_db()
        arrays = _kept_arrays(db)
        cubes = [c.sums for _, _, c in _cube_sets(db)]
        assert all(any(a is c for a in arrays) for c in cubes)
        assert _unique_bytes(arrays) <= 28 * 2**20
        groups = build_join_indexes(db).values()
        assert _unique_bytes([a for g in groups for a in (g.rows, g.offsets)]) <= 9 * 2**20


def _kept_arrays(obj, seen=None) -> list:
    """Every numpy array reachable from `obj` through the attributes of
    objects and dataclasses and the items of dicts, lists and tuples:
    what a `Database` keeps, read without calling a property."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif dataclasses.is_dataclass(obj):
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif hasattr(obj, "__dict__"):
        children = list(vars(obj).values())
    else:
        return []
    return [a for c in children for a in _kept_arrays(c, seen)]


def _offset_keys(db, scale):
    """`db` with every key shifted by -10**17, and spread by `scale`: dense
    offset codings at scale 1, joint unique codings at 10**12."""
    return Database([
        Table(t.name, [
            Column(c.name, c.kind, c.values if c.kind == "attr" else c.values * scale - 10**17,
                   ref=c.ref)
            for c in t.columns
        ])
        for t in db.tables.values()
    ])


class TestGroupedCodes:
    """Each non-identity key of a declared fk edge carries its codes in the
    value-index row order of every attribute column of its table."""

    @pytest.fixture(params=["synthetic", "hand_star", "hand_star_reversed", "offset",
                            "sparse", "csv"])
    def any_db(self, request, small_db, tmp_path):
        kind = request.param
        if kind.startswith("hand_star"):
            return _hand_star(reverse=kind.endswith("reversed"))
        if kind in ("offset", "sparse"):
            return _offset_keys(small_db, 1 if kind == "offset" else 10**12)
        if kind == "csv":
            save_database(small_db, tmp_path / "db")
            return load_database(tmp_path / "db")
        return small_db

    def test_equal_to_gathered_codes(self, any_db):
        seen = 0
        for e in any_db.fk_edges:
            for key, (t, _) in zip(any_db.join_keys(e.child, e.parent), (e.child, e.parent)):
                attrs = [c for c in any_db.table(t).columns if c.index is not None]
                if key.identity:
                    assert key.grouped == {}
                    continue
                assert sorted(key.grouped) == sorted(c.name for c in attrs)
                for c in attrs:
                    grouped = key.grouped[c.name]
                    assert grouped.dtype == np.int32 and not grouped.flags.writeable
                    np.testing.assert_array_equal(grouped, key.codes[c.index.groups.rows])
                    seen += 1
        assert seen

    def test_shared_parent_key_shares_them(self):
        # q.id (10, 20, 30: dense codes 0, 10, 20, not the identity) is
        # coded alike by both edges, which share its codes and grouped codes.
        def child(name, fks):
            return Table(name, [Column("id", "pk", np.arange(len(fks))),
                                Column("fk", "fk", fks, ref=("q", "id"))])

        db = Database([Table("q", [Column("id", "pk", [10, 20, 30]),
                                   Column("k", "attr", [3, 1, 2])]),
                       child("c", [10, 30, 30]), child("d", [20, 10])])
        (_, c), (_, d) = (db.join_keys((t, "fk"), ("q", "id")) for t in "cd")
        assert not c.identity and d.codes is c.codes and d.grouped is c.grouped
        assert c.grouped["k"].tolist() == [10, 20, 0]


def _brute_prefix(fanout, values):
    """Prefix sums, over the distinct values of `values` in ascending
    order, of `fanout` summed per value: one Python sum per value, with no
    value index."""
    sums = [int(fanout[values == v].sum()) for v in np.unique(values)]
    return np.concatenate(([0], np.cumsum(sums, dtype=np.int64)))


def _marginal(cube, column):
    """The 1-D prefix sums a cube holds for one of its columns: every
    other axis at its last entry, which spans all of its groups."""
    return cube.sums[tuple(slice(None) if c == column else -1 for c in cube.columns)]


def _brute_cube(table, columns, weights):
    """The summed-area table over `columns` of `table`, weighting row r by
    `weights[r]`, from Python loops: each row's group is its value's
    position among the column's keys, and entry (i_1, ..., i_k) sums the
    rows whose group on every column j is below i_j."""
    keys = [table.column(c).index.keys.tolist() for c in columns]
    groups = [[ks.index(v) for v in table.column(c).values.tolist()]
              for c, ks in zip(columns, keys)]
    shape = tuple(len(ks) + 1 for ks in keys)
    cube = np.zeros(shape, dtype=np.int64)
    for at in itertools.product(*(range(n) for n in shape)):
        cube[at] = sum(int(w) for r, w in enumerate(weights)
                       if all(g[r] < i for g, i in zip(groups, at)))
    return cube


def _weighted_cubes(db):
    """(table, key) per side of a declared fk edge whose other side is an
    identity key of a table with a cube: `key.cube` is that table's cube
    weighted by `key.fanout`. Every other key carries no cube."""
    for e in db.fk_edges:
        keys = db.join_keys(e.child, e.parent)
        for (t, _), key, other in zip((e.child, e.parent), keys, keys[::-1]):
            assert (other.cube is None) == (not key.identity or db.cubes[t] is None)
            if other.cube is not None:
                yield t, other


def _cube_sets(db):
    """(table, per-row weights, cube) for every cube of `db`: each table's
    unweighted one, and the weighted ones (`_weighted_cubes`) over it."""
    for name, table in db.tables.items():
        if db.cubes[name] is not None:
            yield name, np.ones(table.row_count, dtype=np.int64), db.cubes[name]
    for t, key in _weighted_cubes(db):
        yield t, key.fanout, key.cube


class TestFanoutPrefix:
    """A table whose attribute columns have no more cells than it has rows
    carries one prefix-sum cube over all their value groups
    (`storage.Cube`), counting rows, in `Database.cubes`, and, when the
    table has an identity key, one per key joined to it, weighting each
    row by that key's fanout (`JoinKey.cube`). Every 1-D marginal of a
    weighted cube is the old per-column prefix sums of the fanout. Any
    other table has no cube."""

    @pytest.mark.parametrize("kind, arrays", [
        # Five edges into `title.id`, an identity key under dense, offset
        # and joint unique coding alike, and two attribute columns of
        # `title`: ten marginals (offset and sparse keys on 1,000 titles,
        # enough rows for title's 7 x 141 cells). In the hand-built star,
        # `p.id` is the identity for `a` and `b`; `s.id`, dense codes 0 and
        # 3000 in the key space it shares with `x` and `y`, is not.
        ("reference", 10), ("offset", 10), ("sparse", 10), ("hand_star", 2),
    ])
    def test_equal_to_per_value_sums(self, kind, arrays):
        if kind == "reference":
            db = generate_synthetic_db()
        elif kind == "hand_star":
            db = _hand_star()
        else:
            base = generate_synthetic_db(
                SynthConfig(rows={**SMALL_ROWS, "title": 1000}, rho=0.5), seed=11)
            db = _offset_keys(base, 1 if kind == "offset" else 10**12)
        seen = 0
        for t, key in _weighted_cubes(db):
            attrs = [c for c in db.table(t).columns if c.index is not None]
            # Laid out as the table's unweighted cube, over all its columns.
            assert key.cube.columns == db.cubes[t].columns == tuple(c.name for c in attrs)
            for c in attrs:
                for weights, cube in ((key.fanout, key.cube), (None, db.cubes[t])):
                    prefix = _marginal(cube, c.name)
                    assert prefix.dtype == np.int64 and not prefix.flags.writeable
                    assert prefix.size == c.index.keys.size + 1
                    # A dense value index keys every value of its span, empty
                    # groups included, whose entries repeat the one before.
                    sizes = np.diff(c.index.groups.offsets)
                    assert not np.diff(prefix)[sizes == 0].any()
                    nonempty = np.flatnonzero(sizes) + 1
                    if weights is None:
                        weights = np.ones(c.size, dtype=np.int64)
                    np.testing.assert_array_equal(
                        prefix[np.concatenate(([0], nonempty))], _brute_prefix(weights, c.values)
                    )
                seen += 1
        assert seen == arrays

    def test_reference_layout(self):
        # One cube per table over all its attribute columns, the cell
        # count at most the row count: 7 x 141 for `title`, 200 x 4 for
        # `movie_companies` and 1000 x 12 for `cast_info`; 172,504 bytes
        # with title's five weighted cubes, on the five child keys.
        db = generate_synthetic_db()
        shapes = {name: (c.columns, c.sums.shape) for name, c in db.cubes.items()}
        assert shapes == {
            "title": (("kind_id", "production_year"), (8, 142)),
            "movie_companies": (("company_id", "company_type_id"), (201, 5)),
            "movie_info": (("info_type_id",), (114,)),
            "movie_info_idx": (("info_type_id",), (114,)),
            "movie_keyword": (("keyword_id",), (501,)),
            "cast_info": (("person_id", "role_id"), (1001, 13)),
        }
        weighted = list(_weighted_cubes(db))
        assert [(t, key.cube.sums.shape) for t, key in weighted] == [("title", (8, 142))] * 5
        assert all(not key.identity for _, key in weighted)
        sets = list(_cube_sets(db))
        assert sum(c.sums.nbytes for _, _, c in sets) == 172_504
        for _, weights, c in sets:
            assert c.sums[(-1,) * c.sums.ndim] == weights.sum()

    @pytest.mark.parametrize("rows", [11, 12])
    def test_cells_past_row_count_build_no_cube(self, rows):
        # Columns of 3 and 4 keys share one cube of 12 cells from 12 rows
        # on, whose cells equal Python sums, weighted by a child's fanout
        # too; below, `p` has no cube at all. Counts match the nested-loop
        # oracle either way: two predicates on one column or on two, with
        # and without the child, which joins through `p`'s identity key.
        ids = np.arange(rows)
        parent = Table("p", [Column("id", "pk", ids), Column("a", "attr", ids % 3),
                             Column("b", "attr", (ids * 7) % 4 * 10**9)])
        fks = np.array([0, 0, 1, 5, 5, 5, rows - 1])
        db = Database([parent, Table("c", [Column("id", "pk", np.arange(fks.size)),
                                           Column("pid", "fk", fks, ref=("p", "id"))])])
        sets = [(w, c) for t, w, c in _cube_sets(db) if t == "p"]
        assert len(sets) == (2 if rows >= 12 else 0)
        for weights, cube in sets:
            assert cube.columns == ("a", "b")
            np.testing.assert_array_equal(cube.sums, _brute_cube(parent, ("a", "b"), weights))
        for text in ("p p##", "c c,p p#c.pid=p.id#"):
            for predicates in ("p.a,<,2,p.a,>,0", "p.a,>,0,p.b,<,2000000000", "p.b,=,0"):
                spec, _ = parse_query(text + predicates)
                assert true_cardinality(db, spec) == nested_loop_count(db, spec), text + predicates

    def test_sums_past_float_exact_limit(self, monkeypatch):
        # A weighted chunk whose float64 sums could reach 2**53 is summed
        # by integer accumulation. No fanout held in memory comes near, so
        # the limit is lowered to drive the hand-built stars' builds past
        # it: they run no weighted float64 bincount, and their cubes equal
        # the float64 build's and Python sums.
        bincount, weighted = np.bincount, []
        monkeypatch.setattr(
            np, "bincount", lambda *a, **k: weighted.append("weights" in k) or bincount(*a, **k)
        )
        builds = (_hand_star, lambda: _hand_star(reverse=True))
        floats = [list(_cube_sets(build())) for build in builds]
        assert any(weighted)
        weighted.clear()
        monkeypatch.setattr(storage, "_FLOAT_EXACT_LIMIT", 2)
        for build, want in zip(builds, floats):
            db = build()
            sets = list(_cube_sets(db))
            assert len(sets) == len(want)
            for (t, weights, cube), (_, _, float_cube) in zip(sets, want):
                np.testing.assert_array_equal(cube.sums, float_cube.sums)
                np.testing.assert_array_equal(
                    cube.sums, _brute_cube(db.table(t), cube.columns, weights))
        assert weighted and not any(weighted)


class TestRangePrimaryKeys:
    """A primary key whose values are lo..lo+n-1 in row order is held as
    that range, with no buffer, and reads as a stored one."""

    @pytest.mark.parametrize("lo", [0, 1, -(2**40), 2**62])
    def test_reads_as_stored(self, lo, tmp_path, monkeypatch):
        def build():
            values = np.arange(lo, lo + 50, dtype=np.int64)
            return Database([Table("t", [Column("id", "pk", values),
                                         Column("v", "attr", values % 7)])])

        held = build()
        with monkeypatch.context() as m:
            m.setattr(storage, "_is_range", lambda *a: False)
            stored = build()
        h, s = held.table("t").column("id"), stored.table("t").column("id")
        assert h.data is None and h.base == lo and s.data is not None
        assert (h.lo, h.hi, h.distinct_count, h.size) == (s.lo, s.hi, s.distinct_count, s.size)
        assert h.values.dtype == np.int64
        np.testing.assert_array_equal(h.values, s.values)
        for rows in (np.array([0, 49, 7, 7], dtype=np.int32), np.arange(50)[::-3]):
            before = rows.copy()
            got = h.take(rows)
            assert got.dtype == np.int64 and not np.shares_memory(got, rows)
            np.testing.assert_array_equal(got, s.take(rows))
            np.testing.assert_array_equal(rows, before)
        a, b = (draw_sample(db.table("t"), 20, seed=3) for db in (held, stored))
        np.testing.assert_array_equal(a.row_indices, b.row_indices)
        for name in a.rows:
            assert a.rows[name].dtype == b.rows[name].dtype
            np.testing.assert_array_equal(a.rows[name], b.rows[name])
        for db, name in ((held, "held"), (stored, "stored")):
            save_database(db, tmp_path / name)
        for f in ("schema.json", "t.csv"):
            assert (tmp_path / "held" / f).read_bytes() == (tmp_path / "stored" / f).read_bytes()

    @pytest.mark.parametrize(
        "values", [[1, 2, 4], [2, 1, 3], [0, 1, 2, 3, 5, 4], [7], []],
        ids=["gap", "out_of_order", "swapped_tail", "single_row", "empty"])
    def test_others_stay_stored(self, values):
        column = Column("id", "pk", np.array(values, dtype=np.int64))
        assert column.data is not None and column.base is None
        assert column.values.tolist() == values

    def test_synthetic_ids(self, small_db):
        # The children's ids are ranges; `title.id`, a dense fk edge's
        # parent, is held as the edge's codes.
        for name in small_db.table_names():
            column = small_db.table(name).column("id")
            assert column.base == 1
            if name == "title":
                assert column.data is small_db.join_keys(
                    ("title", "id"), ("cast_info", "movie_id"))[0].codes
            else:
                assert column.data is None
            np.testing.assert_array_equal(column.values, np.arange(1, column.size + 1))


class TestKeyColumnsHeldOnce:
    """A key column of a dense-coded fk edge is stored only as the edge's
    codes, its values derived where they are read; they read as before."""

    def test_dense_edges_hold_codes(self, small_db):
        for e in small_db.fk_edges:
            child, parent = small_db.join_keys(e.child, e.parent)
            for key, (t, c) in ((child, e.child), (parent, e.parent)):
                column = small_db.table(t).column(c)
                assert key.base == column.base == 1
                assert key.codes is column.data
                assert column.data.dtype == column.values.dtype == np.int64

    def test_sparse_space_keeps_its_arrays(self):
        # A key space sparse for all of its columns codes by rank: every
        # column keeps its values, and the keys their own codes.
        db = _sparse_star()
        q_id = db.table("q").column("id")
        for t, values in (("c", [0, 10**6, 0]), ("d", [10**6, 0])):
            fk = db.table(t).column("fk")
            assert fk.base is None and fk.data.tolist() == values
            child, parent = db.join_keys((t, "fk"), ("q", "id"))
            assert child.base is parent.base is None
            assert not np.shares_memory(child.codes, fk.data)
            assert not np.shares_memory(parent.codes, q_id.data)
        assert q_id.base is None and q_id.values.tolist() == [0, 10**6]
        # In the hand-built star, x's one row would leave s.id sparse, but
        # y's rows make its space dense: all three are held as codes, base 0.
        db = _hand_star()
        s_id = db.table("s").column("id")
        for t in "xy":
            child, parent = db.join_keys((t, "fk"), ("s", "id"))
            assert child.codes is db.table(t).column("fk").data and parent.codes is s_id.data
        assert s_id.base == 0 and s_id.values.tolist() == [0, 3000]

    @staticmethod
    def _chain(reverse):
        """`c.id` 10..13 (a range), `b.x` fk -> `c.id` without the value 10,
        and `a.bx` fk -> `b.x`: `b.x` is a child in c.id's key space, base
        10, and the parent of its own, base 11. `reverse` lists the tables
        as a, b, c, so b.x's own space is coded first."""
        tables = [
            Table("c", [Column("id", "pk", [10, 11, 12, 13]), Column("k", "attr", [1, 2, 1, 2])]),
            Table("b", [Column("id", "pk", np.arange(6)),
                        Column("x", "fk", [11, 13, 11, 12, 13, 13], ref=("c", "id")),
                        Column("v", "attr", [0, 1, 1, 0, 2, 1])]),
            Table("a", [Column("id", "pk", np.arange(7)),
                        Column("bx", "fk", [13, 11, 11, 12, 13, 12, 11], ref=("b", "x")),
                        Column("w", "attr", [1, 2, 3, 1, 2, 3, 1])]),
        ]
        return Database(tables[::-1] if reverse else tables)

    @pytest.mark.parametrize("reverse", [False, True], ids=["c_first", "a_first"])
    def test_column_in_two_spaces(self, reverse):
        # b.x is held as the codes of the space coded first; its key in the
        # other space, of another base, keeps its own codes.
        db = self._chain(reverse)
        b_x = db.table("b").column("x")
        child, _ = db.join_keys(("b", "x"), ("c", "id"))
        parent, _ = db.join_keys(("b", "x"), ("a", "bx"))
        assert (child.base, parent.base) == (10, 11)
        held, other = (parent, child) if reverse else (child, parent)
        assert b_x.base == held.base and b_x.data is held.codes
        assert not np.shares_memory(other.codes, b_x.data)
        assert b_x.values.tolist() == [11, 13, 11, 12, 13, 13]
        indexes = build_join_indexes(db)
        assert indexes[(("c", "id"), ("b", "x"))] is not indexes[(("a", "bx"), ("b", "x"))]
        samples = {name: draw_sample(db.table(name), db.table(name).row_count, seed=0)
                   for name in db.table_names()}
        for text in ("a a,b b,c c#a.bx=b.x,b.x=c.id#",
                     "a a,b b,c c#a.bx=b.x,b.x=c.id#c.k,=,1",
                     "a a,b b,c c#a.bx=b.x,b.x=c.id#a.w,<,3,b.v,>,0",
                     "b b,c c#b.x=c.id#b.v,=,1",
                     "a a,b b#a.bx=b.x#a.w,>,1"):
            spec, _ = parse_query(text)
            assert true_cardinality(db, spec) == nested_loop_count(db, spec) > 0, text
            want, path = loop_ibjs_estimate(db, samples, spec)
            assert path == "walk" and ibjs_estimate(db, samples, indexes, spec) == want, text

    def test_values_samples_and_files_as_stored(self, tmp_path, small_db):
        # Digests recorded while every column was stored as its values.
        digest = hashlib.sha256()
        for name in small_db.table_names():
            sample = draw_sample(small_db.table(name), 40, seed=5)
            for c, v in sample.rows.items():
                np.testing.assert_array_equal(
                    v, small_db.column_values(name, c)[sample.row_indices])
                digest.update(f"{name}.{c}:{v.dtype.str}:".encode())
                digest.update(v.tobytes())
        assert digest.hexdigest() == (
            "32db5f2b19d2a30c66c41321747d9a8e51665efda417b260b02ea1b83099944b"
        )
        save_database(small_db, tmp_path / "db")
        digest = hashlib.sha256()
        for path in sorted((tmp_path / "db").iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == (
            "f8dc7a9a37428e4f9e73d6473b4023296495d9286cd95f1d5e133de19a22e967"
        )

    def test_second_database_same_keys(self, small_db):
        again = Database(list(small_db.tables.values()))
        for e in small_db.fk_edges:
            for got, want in zip(again.join_keys(e.child, e.parent),
                                 small_db.join_keys(e.child, e.parent)):
                assert got.codes is want.codes
                np.testing.assert_array_equal(got.fanout, want.fanout)
                assert (got.base, got.matches_once, got.identity, got.max_fanout) == (
                    want.base, want.matches_once, want.identity, want.max_fanout)

    def test_build_peak_budget(self):
        # tracemalloc peak of building the reference database: 29.34 MiB, in
        # join coding and grouping (the generator's is 25.2 MiB, 1 MiB of it
        # the guide table of the parent draws; 24.2 MiB without it), with the
        # child ids held as ranges and the grouped codes gathered in chunks
        # from one int32 copy of each key's codes; 32.6 MiB with the ids stored
        # and no grouped codes, in the generator, with join coding's at
        # 32.3 MiB; 34.6 MiB while each later edge into `title.id` recoded
        # its values, and 44.4 MiB with
        # every key column stored as values and as codes and the generator's
        # temporaries kept to the end of their functions.
        tracemalloc.start()
        try:
            generate_synthetic_db()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 35 * 2**20


class TestPersistence:
    def test_db_round_trip(self, tmp_path, small_db):
        save_database(small_db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        assert loaded.table_names() == small_db.table_names()
        for tname in small_db.table_names():
            for ca, cb in zip(small_db.table(tname).columns, loaded.table(tname).columns):
                assert ca.kind == cb.kind and ca.ref == cb.ref
                np.testing.assert_array_equal(ca.values, cb.values)
        assert set(e.key for e in loaded.fk_edges) == set(e.key for e in small_db.fk_edges)

    def test_samples_round_trip(self, tmp_path, small_db):
        samples = {n: draw_sample(small_db.table(n), 40, seed=5) for n in small_db.table_names()}
        save_samples(samples, tmp_path / "s.json")
        loaded = load_samples(tmp_path / "s.json", small_db)
        for name in samples:
            np.testing.assert_array_equal(loaded[name].row_indices, samples[name].row_indices)
            for col in samples[name].rows:
                np.testing.assert_array_equal(loaded[name].rows[col], samples[name].rows[col])

    def test_synth_config_file(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("# comment\nrows.title = 123\nrho = 0.25\nseed = 42\n")
        cfg, seed = load_synth_config(p)
        assert cfg.rows["title"] == 123
        assert cfg.rho == 0.25
        assert seed == 42

    def test_synth_config_rejects_garbage(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("nonsense\n")
        with pytest.raises(ParseError):
            load_synth_config(p)


class TestAttributeNarrowing:
    """Attribute columns are stored as the narrowest of int16 / int32 /
    int64 that holds their values; key columns stay int64."""

    @pytest.mark.parametrize(
        "values, dtype",
        [
            ([-32768, 32767], np.int16),
            ([0, 32768], np.int32),
            ([-32769, 0], np.int32),
            ([-(2**31), 2**31 - 1], np.int32),
            ([0, 2**31], np.int64),
            ([-(2**31) - 1, 0], np.int64),
            ([-(2**63), 2**63 - 1], np.int64),
        ],
        ids=["int16_bounds", "above_int16", "below_int16", "int32_bounds",
             "above_int32", "below_int32", "int64_bounds"],
    )
    def test_boundaries(self, values, dtype):
        column = Column("x", "attr", values)
        assert column.values.dtype == dtype
        assert column.values.tolist() == values

    def test_keys_stay_int64(self):
        parent = Table("p", [Column("id", "pk", [1, 2])])
        child = Table("c", [Column("id", "pk", [1, 2, 3]),
                            Column("pid", "fk", [1, 1, 2], ref=("p", "id"))])
        Database([parent, child])
        for column in parent.columns + child.columns:
            assert column.values.dtype == np.int64

    def test_empty_table_builds(self):
        table = Table("t", [Column("id", "pk", []), Column("x", "attr", [])])
        assert table.row_count == 0
        assert Database([table]).attr_columns("t") == ("x",)

    def test_synthetic_columns(self, small_db):
        for table in small_db.tables.values():
            for column in table.columns:
                if column.kind != "attr":
                    assert column.values.dtype == np.int64
                    continue
                fits = [d for d in (np.int16, np.int32, np.int64)
                        if np.iinfo(d).min <= column.lo and column.hi <= np.iinfo(d).max]
                assert column.values.dtype == fits[0]

    def test_samples_inherit_dtype(self, small_db):
        for name in small_db.table_names():
            sample = draw_sample(small_db.table(name), 40, seed=5)
            for column in small_db.table(name).columns:
                assert sample.rows[column.name].dtype == column.values.dtype

    def test_save_load_is_byte_identical(self, tmp_path, small_db):
        wide = Table(
            "w",
            [
                Column("id", "pk", [1, 2, 3]),
                Column("a16", "attr", [-32768, 0, 32767]),
                Column("a32", "attr", [-(2**31), 32768, 2**31 - 1]),
                Column("a64", "attr", [-(2**63), 2**31, 2**63 - 1]),
            ],
        )
        db = Database(list(small_db.tables.values()) + [wide])
        save_database(db, tmp_path / "a")
        loaded = load_database(tmp_path / "a")
        save_database(loaded, tmp_path / "b")
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert [c.values.dtype for c in loaded.table("w").columns] == [
            np.int64, np.int16, np.int32, np.int64]


class TestTableInvariants:
    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [Column("id", "pk", [1, 2]), Column("x", "attr", [1])])

    def test_exactly_one_pk(self):
        with pytest.raises(SchemaError):
            Table("t", [Column("a", "attr", [1])])

    def test_duplicate_pk_values_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [Column("id", "pk", [1, 1])])

    def test_integrity_enforced(self):
        parent = Table("p", [Column("id", "pk", [1, 2])])
        child = Table(
            "c",
            [
                Column("id", "pk", [1, 2, 3]),
                Column("pid", "fk", [1, 1, 9], ref=("p", "id")),
            ],
        )
        with pytest.raises(SchemaError):
            Database([parent, child])

    @pytest.mark.parametrize("bad", [0, 3, 9], ids=["below", "hole", "above"])
    def test_integrity_enforced_on_later_edges(self, bad):
        # Every child of p.id is coded in its key space, which spans the
        # children's values too; a key outside the parent's ids still fails,
        # on the edge that holds it.
        def child(name, fks):
            return Table(name, [Column("id", "pk", np.arange(len(fks))),
                                Column("pid", "fk", fks, ref=("p", "id"))])

        parent = Table("p", [Column("id", "pk", [1, 2, 4])])
        with pytest.raises(SchemaError, match="c2.pid"):
            Database([parent, child("c1", [1, 4, 2]), child("c2", [2, bad, 1])])
