import gc
import hashlib
import itertools
import operator
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from helpers import code_join_keys, fk_forests, join_queries, nested_loop_count
from hypothesis import given, settings
from hypothesis import strategies as st

from cardlab import executor
from cardlab.baselines import ibjs_estimate, rs_estimate
from cardlab.errors import ParseError, ValidationError
from cardlab.executor import (
    Box,
    IndexRange,
    _count_from,
    _selected,
    bitmap_to_hex,
    eval_predicates_on_sample,
    hex_to_bitmap,
    key_sums,
    label_workload,
    predicate_mask,
    query_bitmaps,
    read_labeled_corpus,
    select,
    true_cardinality,
    write_labeled_corpus,
)
from cardlab.query import (
    JoinEdge,
    Predicate,
    QuerySpec,
    TableRef,
    database_errors,
    format_query,
    generate_workload,
    parse_query,
)
from cardlab.storage import (
    KIND_ATTR,
    Column,
    Database,
    SynthConfig,
    Table,
    DEFAULT_SAMPLE_SIZE,
    build_join_indexes,
    draw_all_samples,
    generate_synthetic_db,
    load_samples,
    save_samples,
)

ROWS = {
    "title": 200,
    "movie_companies": 300,
    "movie_info": 300,
    "movie_info_idx": 300,
    "movie_keyword": 300,
    "cast_info": 300,
}


@pytest.fixture(scope="module")
def db():
    return generate_synthetic_db(SynthConfig(rows=ROWS, rho=0.6), seed=31)


@pytest.fixture(scope="module")
def samples(db):
    return draw_all_samples(db, 50, seed=5)


def match_sums(keys, weights, probes, bound=9):
    """Per-probe sum of the weights of the rows whose key equals the probe."""
    key, probe = code_join_keys(keys, probes)
    sums, sums_bound = key_sums(key, weights, bound)
    assert (sums <= sums_bound).all()
    return sums[probe.codes]


def dict_match_sums(keys, weights, probes):
    table = {}
    for k, w in zip(keys.tolist(), weights.tolist()):
        table[k] = table.get(k, 0) + w
    return [table.get(p, 0) for p in probes.tolist()]


class TestMatchSums:
    # Dense keys are coded by offset, 10**12-spread ones by a joint unique
    # (and, with 200 draws, are unique keys, summed by bincount too); the
    # 2000-spread keys repeat at most twice.
    @pytest.mark.parametrize("spread", [50, 2000, 10**12])
    def test_dict_oracle(self, spread):
        rng = np.random.default_rng(spread % 97)
        keys = rng.integers(0, spread, size=200) - spread // 2
        probes = rng.integers(0, spread, size=300) - spread // 2
        weights = rng.integers(0, 10, size=200)
        for w in (weights, weights > 4):
            expected = dict_match_sums(keys, w.astype(np.int64), probes)
            assert match_sums(keys, w, probes).tolist() == expected
        expected = dict_match_sums(keys, np.ones(200, dtype=np.int64), probes)
        assert match_sums(keys, None, probes).tolist() == expected

    @pytest.mark.parametrize(
        "keys, identity, unique",
        [
            (np.arange(200), True, True),
            (np.random.default_rng(1).permutation(200), False, True),
            (np.random.default_rng(2).integers(0, 60, size=200), False, False),
        ],
        ids=["identity", "unique", "repeated"],
    )
    def test_every_branch(self, keys, identity, unique):
        # Probes stay inside the key range, so the arange keeps its
        # identity coding, where a mask is its own sums; unique and
        # repeated keys take compress-and-count for a boolean mask and
        # bincount for integer weights.
        rng = np.random.default_rng(3)
        probes = rng.integers(0, 60, size=300)
        key, _ = code_join_keys(keys, probes)
        assert (key.identity, key.max_fanout <= 1) == (identity, unique)
        weights = rng.integers(0, 10, size=200)
        for w in (weights, weights > 4):
            expected = dict_match_sums(keys, w.astype(np.int64), probes)
            assert match_sums(keys, w, probes, bound=10).tolist() == expected
        sums, _ = key_sums(key, weights > 4, 1)
        assert sums.dtype == (bool if identity else np.int64)

    def test_empty_keys(self):
        out = match_sums(np.empty(0, np.int64), np.empty(0, np.int64), np.arange(5))
        np.testing.assert_array_equal(out, np.zeros(5, dtype=np.int64))

    def test_exact_past_float_precision(self):
        # Sums above 2**53 leave bincount's float64 path for exact integers.
        keys = np.array([3, 3, 3, 7, 7])
        weights = 2**55 + np.array([1, 2, 3, 4, 5])
        got = match_sums(keys, weights, np.array([3, 7, 5]), bound=2**56)
        assert got.tolist() == dict_match_sums(keys, weights, np.array([3, 7, 5]))


_PY_OPS = {"=": operator.eq, "<": operator.lt, ">": operator.gt}


def _title_ids(db, permute):
    """`db`, or with permuted title rows, so that title ids are coded as
    dense codes in another row order rather than as the identity."""
    if permute:
        order = np.random.default_rng(34).permutation(db.table("title").row_count)
        db = Database(
            [
                Table(t.name, [Column(c.name, c.kind, c.values[order], ref=c.ref)
                               for c in t.columns])
                if t.name == "title" else t
                for t in db.tables.values()
            ]
        )
    title_id = db.join_keys(("title", "id"), ("movie_keyword", "movie_id"))[0]
    assert title_id.identity != permute
    return db


#: `_ROW_ID_SHARE` values under which every selection is a mask (unless
#: empty) or every selection is row ids.
MASKS, ROW_IDS = 0.0, 1.0


def _listed(db, table, predicates):
    """`select`'s selection, with a box's rows listed (`Box.rows`) under
    the row-id share in force."""
    sel = select(db, table, predicates)
    return sel.rows() if isinstance(sel, Box) else sel


def _count_at(db, spec, root, share):
    """The count of `spec` rooted at `root`, through the function
    `true_cardinality` uses for its chosen root, with every alias selected
    and listed under the row-id share `share`."""
    with mock.patch.object(executor, "_ROW_ID_SHARE", share):
        sels = {
            a: _listed(db, db.table(spec.table_of(a)), spec.predicates_of(a))
            for a in spec.aliases
        }
    for a, sel in sels.items():
        table, predicates = db.table(spec.table_of(a)), spec.predicates_of(a)
        if len(predicates) == 1:
            # A single predicate selects its value-index range, whatever
            # the share, excluded when it keeps more than half the rows.
            assert isinstance(sel, IndexRange)
            assert sel.excluded == (2 * sel.size > table.row_count)
        elif sel is not None and share == ROW_IDS:
            assert sel.dtype != bool
        elif sel is not None and share == MASKS:  # an empty range gives row ids
            assert sel.dtype == bool or not sel.size
    selected = _selected(db.table(spec.table_of(root)), sels[root])
    return _count_from(db, spec, sels, root, selected)


_OVERFLOW_N = 60_000


def _overflow_star():
    """One parent row and four 60k-row children all referencing it, plus
    `star(k, filtered)`: the k-child star query, each child filtered by
    `filtered` predicates (none, one or two) that every row passes. One
    predicate selects a value-index range, two a mask or row ids."""
    children = [
        Table(
            f"c{i}",
            [
                Column("id", "pk", np.arange(_OVERFLOW_N)),
                Column("pid", "fk", np.ones(_OVERFLOW_N, dtype=np.int64), ref=("p", "id")),
                Column("x", "attr", np.zeros(_OVERFLOW_N, dtype=np.int64)),
            ],
        )
        for i in range(4)
    ]
    db = Database([Table("p", [Column("id", "pk", [1])])] + children)

    def star(k, filtered=0):
        passing = (("<", 1), (">", -1))[:filtered]
        return QuerySpec(
            (TableRef("p", "p"),) + tuple(TableRef(f"c{i}", f"c{i}") for i in range(k)),
            tuple(JoinEdge((f"c{i}", "pid"), ("p", "id")) for i in range(k)),
            tuple(Predicate(f"c{i}", "x", op, v) for i in range(k) for op, v in passing),
        )

    return db, star


class TestTrueCardinality:
    def test_two_table_hand_count(self):
        parent = Table("p", [Column("id", "pk", [1, 2])])
        child = Table(
            "c",
            [
                Column("id", "pk", [10, 11, 12]),
                Column("pid", "fk", [1, 1, 2], ref=("p", "id")),
            ],
        )
        db = Database([parent, child])
        spec = QuerySpec(
            (TableRef("p", "p"), TableRef("c", "c")),
            (JoinEdge(("c", "pid"), ("p", "id")),),
        )
        assert true_cardinality(db, spec) == 3

    def test_single_table_predicate(self):
        t = Table("t", [Column("id", "pk", [0, 1, 2]), Column("x", "attr", [5, 11, 12])])
        db = Database([t])
        spec = QuerySpec((TableRef("t", "t"),), (), (Predicate("t", "x", ">", 10),))
        assert true_cardinality(db, spec) == 2

    def test_empty_result(self):
        t = Table("t", [Column("id", "pk", [0, 1]), Column("x", "attr", [5, 6])])
        db = Database([t])
        spec = QuerySpec((TableRef("t", "t"),), (), (Predicate("t", "x", "=", 99),))
        assert true_cardinality(db, spec) == 0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("title t##t.id,<,17", r"predicate t\.id,<,17 targets a key column"),
            ("movie_keyword mk,title t#mk.movie_id=t.id#t.id,>,480,mk.movie_id,<,495",
             "targets a key column"),
            ("movie_info mi,movie_keyword mk#mi.movie_id=mk.movie_id#mi.movie_id,<,40",
             r"predicate mi\.movie_id,<,40 targets a key column"),
            ("movie_info mi,movie_keyword mk#mi.movie_id=mk.movie_id#",
             r"join movie_info\.movie_id=movie_keyword\.movie_id does not follow a declared"),
            ("movie_info mi,movie_keyword mk#mi.movie_id=mk.movie_id#mi.info_type_id,=,99999",
             r"join movie_info\.movie_id=movie_keyword\.movie_id does not follow a declared"),
            ("movie_keyword mk,title t#mk.movie_id=t.id#mk.keyword_id,=,99999,t.id,<,5",
             r"predicate t\.id,<,5 targets a key column"),
        ],
        ids=["pk_predicate", "fk_predicates", "undeclared_pair", "undeclared_join",
             "undeclared_join_empty_alias", "pk_predicate_after_empty_alias"],
    )
    def test_unvalidated_queries_raise(self, db, text, message):
        # Counting serves the language `query.validate` accepts: a
        # predicate on a key column and a join off the declared fk edges
        # raise rather than count, even when an alias selects no row.
        spec, _ = parse_query(text)
        assert database_errors(spec, db)
        with pytest.raises(ValidationError, match=message):
            true_cardinality(db, spec)

    def test_nested_loop_oracle(self, db):
        workload = generate_workload(db, 60, 2, seed=13)
        for spec in workload:
            assert true_cardinality(db, spec) == nested_loop_count(db, spec)

    def test_oracle_on_deeper_joins(self, db):
        workload = [q for q in generate_workload(db, 30, 4, seed=14) if len(q.joins) >= 3]
        assert workload
        for spec in workload:
            assert true_cardinality(db, spec) == nested_loop_count(db, spec)

    @pytest.mark.parametrize("scale", [1, 10**12])
    def test_oracle_on_offset_and_sparse_keys(self, scale):
        """Keys shifted negative (dense offset coding) and also spread by
        10**12 (joint unique coding), against the nested-loop oracle."""
        rows = {name: 40 if name == "title" else 60 for name in ROWS}
        base = generate_synthetic_db(SynthConfig(rows=rows, rho=0.6), seed=32)
        shift = -(10**17)
        moved = Database(
            [
                Table(
                    t.name,
                    [
                        Column(
                            c.name,
                            c.kind,
                            c.values if c.kind == KIND_ATTR else c.values * scale + shift,
                            ref=c.ref,
                        )
                        for c in t.columns
                    ],
                )
                for t in base.tables.values()
            ]
        )
        workload = generate_workload(moved, 40, 4, seed=33)
        assert {len(q.joins) for q in workload} == {0, 1, 2, 3, 4}
        for spec in workload:
            assert true_cardinality(moved, spec) == nested_loop_count(moved, spec)
            assert true_cardinality(moved, spec) == true_cardinality(base, spec)

    def test_int64_overflow_raises(self):
        # One parent row and four 60k-row children: the 4-join count is
        # 60000**4 > 2**63, the 3-join count 60000**3 fits.
        db, star = _overflow_star()
        assert true_cardinality(db, star(3)) == _OVERFLOW_N**3
        with pytest.raises(ValidationError, match="int64"):
            true_cardinality(db, star(4))

    def test_int64_overflow_raises_filtered(self):
        # With every child filtered (by predicates that keep all rows), the
        # root is a child. Under one predicate the others send their
        # fanouts less their (empty) excluded ranges, and the root's
        # all-rows bound passes 2**63, so it counts its kept rows; under two
        # they send boolean masks through compress-and-count. The bound
        # must catch the same overflow either way.
        db, star = _overflow_star()
        for filtered in (1, 2):
            assert true_cardinality(db, star(3, filtered)) == _OVERFLOW_N**3
            with pytest.raises(ValidationError, match="int64"):
                true_cardinality(db, star(4, filtered))

    def test_int64_overflow_raises_row_ids(self):
        # Every child selected as row ids: the root is a child, the other
        # children send bincounts of their selected rows' codes, and the
        # same bound must raise.
        db, star = _overflow_star()
        with mock.patch.object(executor, "_ROW_ID_SHARE", ROW_IDS):
            assert true_cardinality(db, star(3, filtered=2)) == _OVERFLOW_N**3
            with pytest.raises(ValidationError, match="int64"):
                true_cardinality(db, star(4, filtered=2))

    @pytest.mark.parametrize("root", ["p", "c0"], ids=["row_id_leaves", "row_id_root"])
    def test_int64_overflow_raises_filtered_row_ids(self, root):
        # Row-id children as the leaves under the unfiltered parent, and
        # one of them as the root gathering at its selected rows.
        db, star = _overflow_star()
        assert _count_at(db, star(3, filtered=2), root, ROW_IDS) == _OVERFLOW_N**3
        with pytest.raises(ValidationError, match="int64"):
            _count_at(db, star(4, filtered=2), root, ROW_IDS)

    def test_complement_root_past_int64_bound(self):
        # The root c0 keeps 36000 of its 60000 rows, more than half, so it
        # selects its excluded range. Its all-rows total, 60000**4, would
        # pass 2**63, but its count, 36000 * 60000**3, fits: it counts its
        # kept rows and returns the exact count. Keeping 48000 rows raises.
        db, star = _overflow_star()
        x = np.arange(_OVERFLOW_N) % 5
        db = Database([
            Table(t.name, [Column("x", "attr", x) if c.name == "x" and t.name == "c0" else c
                           for c in t.columns])
            for t in db.tables.values()
        ])
        for literal, kept in ((3, 36_000), (4, 48_000)):
            spec = replace(star(4), predicates=(Predicate("c0", "x", "<", literal),))
            sel = select(db, db.table("c0"), spec.predicates)
            assert isinstance(sel, IndexRange) and sel.excluded and sel.size == kept
            if kept * _OVERFLOW_N**3 < 2**63:
                assert true_cardinality(db, spec) == kept * _OVERFLOW_N**3
                assert _count_at(db, spec, "c0", MASKS) == kept * _OVERFLOW_N**3
            else:
                with pytest.raises(ValidationError, match="int64"):
                    true_cardinality(db, spec)

    def test_snowflake_chain_from_every_root(self):
        # d -> c -> b -> a, each table's `fk` referencing the next table's
        # id, except d's, which references c's `fk`: a key that repeats on
        # both sides. Rooted at a, d's sums pass three levels up, and c
        # sends integer weights through a non-unique key.
        rng = np.random.default_rng(43)

        def table(name, n, fk=None):
            columns = [Column("id", "pk", np.arange(1, n + 1)),
                       Column("v", "attr", rng.permutation(n)),
                       Column("m", "attr", rng.integers(0, 3, n))]
            if fk is not None:
                ref, values = fk
                columns.append(Column("fk", "fk", rng.choice(values, n), ref=ref))
            return Table(name, columns)

        a = table("a", 6)
        b = table("b", 10, (("a", "id"), np.arange(1, 7)))
        c = table("c", 14, (("b", "id"), np.arange(1, 11)))
        d = table("d", 18, (("c", "fk"), c.column("fk").values))
        db = Database([a, b, c, d])
        joins = (JoinEdge(("b", "fk"), ("a", "id")), JoinEdge(("c", "fk"), ("b", "id")),
                 JoinEdge(("d", "fk"), ("c", "fk")))
        refs = tuple(TableRef(t, t) for t in "abcd")
        # Per alias: none, kept rows, excluded rows, several predicates.
        options = ((), (("v", "<", 2),), (("v", ">", 1),), (("v", ">", 0), ("m", "<", 2)))
        sent = []

        def spy(key, weights, bound, rows=None):
            sent.append(key.max_fanout > 1 and weights is not None and weights.dtype != bool)
            return key_sums(key, weights, bound, rows)

        with mock.patch.object(executor, "key_sums", spy):
            for chosen in itertools.product(options, repeat=4):
                predicates = tuple(Predicate(alias, *p) for alias, ps in zip("abcd", chosen)
                                   for p in ps)
                spec = QuerySpec(refs, joins, predicates)
                expected = nested_loop_count(db, spec)
                assert true_cardinality(db, spec) == expected, format_query(spec)
                for root in "abcd":
                    for share in (MASKS, ROW_IDS):
                        assert _count_at(db, spec, root, share) == expected, (
                            format_query(spec), root, share)
        assert any(sent)

    @pytest.mark.parametrize("permute_title", [False, True], ids=["identity", "permuted"])
    def test_any_root_gives_the_count(self, db, permute_title):
        """Rooting the join tree at any alias gives the oracle's count, with
        title ids coded as the identity and, permuted, as dense codes in
        another row order, and with every selection a mask or row ids."""
        db = _title_ids(db, permute_title)
        workload = generate_workload(db, 25, 4, seed=35)
        assert {len(q.joins) for q in workload} == {0, 1, 2, 3, 4}
        for spec in workload:
            expected = nested_loop_count(db, spec)
            for root in spec.aliases:
                for share in (MASKS, ROW_IDS):
                    assert _count_at(db, spec, root, share) == expected, (
                        format_query(spec), root, share)
            assert true_cardinality(db, spec) == expected

    @pytest.mark.parametrize("permute_title", [False, True], ids=["identity", "permuted"])
    @pytest.mark.parametrize("literal, selected", [(10**6, "none"), (-1, "all")])
    def test_root_selects_none_or_all(self, db, permute_title, literal, selected):
        """A root whose mask selects none or all of its rows, gathering
        through title ids (identity or dense codes) or movie_keyword's
        movie_id codes, with the other alias filtered or not."""
        db = _title_ids(db, permute_title)
        column = {"t": "kind_id", "mk": "keyword_id"}
        other_filter = {"t": Predicate("mk", "keyword_id", "<", 250),
                        "mk": Predicate("t", "kind_id", "<", 4)}
        for root in ("t", "mk"):
            for other_filtered in (False, True):
                spec = QuerySpec(
                    (TableRef("movie_keyword", "mk"), TableRef("title", "t")),
                    (JoinEdge(("mk", "movie_id"), ("t", "id")),),
                    (Predicate(root, column[root], ">", literal),)
                    + ((other_filter[root],) if other_filtered else ()),
                )
                expected = nested_loop_count(db, spec)
                assert (expected == 0) == (selected == "none")
                for share in (MASKS, ROW_IDS):
                    assert _count_at(db, spec, root, share) == expected, (
                        format_query(spec), root, share)
                assert true_cardinality(db, spec) == expected

    @pytest.mark.parametrize("literal", [40000, -(2**40), 2**70])
    def test_literal_outside_column_dtype(self, db, samples, literal):
        """Literals beyond an int16 column's range compare exactly: counts
        equal the nested-loop oracle's and those with the literal clamped
        to [min - 1, max + 1], sample bitmaps a row-by-row evaluation in
        Python integers."""
        rng = np.random.default_rng(38)
        workload = generate_workload(db, 8, 2, seed=37)
        assert {len(q.joins) for q in workload} == {0, 1, 2}
        for spec in workload:
            alias = spec.aliases[int(rng.integers(len(spec.aliases)))]
            table = spec.table_of(alias)
            attrs = db.attr_columns(table)
            col = attrs[int(rng.integers(len(attrs)))]
            assert db.column_values(table, col).dtype == np.int16
            s = db.table(table).column(col)
            for op in ("=", "<", ">"):
                wide = QuerySpec(spec.tables, spec.joins,
                                 spec.predicates + (Predicate(alias, col, op, literal),))
                clamped_literal = min(max(literal, s.lo - 1), s.hi + 1)
                clamped = QuerySpec(spec.tables, spec.joins,
                                    spec.predicates + (Predicate(alias, col, op, clamped_literal),))
                count = true_cardinality(db, wide)
                assert count == nested_loop_count(db, wide) == true_cardinality(db, clamped)
                sample = samples[table]
                bitmap = query_bitmaps(wide, samples)[alias]
                assert bitmap.tolist() == [
                    all(_PY_OPS[p.op](int(sample.rows[p.column][i]), p.literal)
                        for p in wide.predicates_of(alias))
                    for i in range(sample.size)
                ]

    def test_leaves_database_unchanged(self, db, samples):
        # Counting hands key arrays, fanouts and masks on without copies.
        edges = [(e.child, e.parent) for e in db.fk_edges]
        before = [
            [a.copy() for k in db.join_keys(*e) for a in (k.codes, k.fanout)] for e in edges
        ]
        values = {(t.name, c.name): c.values.copy() for t in db.tables.values()
                  for c in t.columns}
        label_workload(db, generate_workload(db, 60, 4, seed=36), samples)
        for e, arrays in zip(edges, before):
            after = [a for k in db.join_keys(*e) for a in (k.codes, k.fanout)]
            for x, y in zip(arrays, after):
                np.testing.assert_array_equal(x, y)
        for (t, c), v in values.items():
            np.testing.assert_array_equal(db.column_values(t, c), v)

    def test_leaves_no_reference_cycles(self, db):
        # Per-alias masks are full-length arrays; garbage in a reference
        # cycle would hold them until the next collection.
        workload = [q for q in generate_workload(db, 20, 4, seed=17) if q.joins]
        assert workload
        gc.collect()
        gc.disable()
        try:
            for spec in workload:
                true_cardinality(db, spec)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_adding_predicate_never_increases(self, db):
        rng = np.random.default_rng(15)
        workload = generate_workload(db, 40, 2, seed=16)
        for spec in workload:
            base = true_cardinality(db, spec)
            alias = spec.aliases[int(rng.integers(len(spec.aliases)))]
            table = spec.table_of(alias)
            attrs = db.attr_columns(table)
            col = attrs[int(rng.integers(len(attrs)))]
            vals = db.column_values(table, col)
            extra = Predicate(alias, col, "<", int(vals[rng.integers(vals.size)]))
            tightened = QuerySpec(spec.tables, spec.joins, spec.predicates + (extra,))
            assert true_cardinality(db, tightened) <= base


_INT16 = np.iinfo(np.int16)
_EDGE_LITERALS = (int(_INT16.min) - 1, int(_INT16.min), int(_INT16.min) + 1,
                  int(_INT16.max) - 1, int(_INT16.max), int(_INT16.max) + 1,
                  -(2**40), 2**70, -(2**63) - 1, 2**63)


@pytest.fixture(scope="module")
def edge_db():
    """A small star whose title.production_year takes int16 boundary
    values and whose cast_info.person_id spans more than 2**16 (an int32
    column, value-indexed through `np.unique` codes)."""
    rows = {name: 30 if name == "title" else 45 for name in ROWS}
    base = generate_synthetic_db(SynthConfig(rows=rows, rho=0.6), seed=39)
    rng = np.random.default_rng(40)
    edges = np.array([_INT16.min, _INT16.min + 1, -1, 0, 1, _INT16.max - 1, _INT16.max])
    replace = {
        ("title", "production_year"): lambda v: rng.choice(edges, size=v.size),
        ("cast_info", "person_id"): lambda v: v.astype(np.int64) * 100,
    }
    db = Database([
        Table(t.name, [
            Column(c.name, c.kind, replace.get((t.name, c.name), lambda v: v)(c.values),
                   ref=c.ref)
            for c in t.columns
        ])
        for t in base.tables.values()
    ])
    assert db.column_values("title", "production_year").dtype == np.int16
    assert db.column_values("cast_info", "person_id").dtype == np.int32
    return db


@st.composite
def edge_queries(draw, db):
    """0-4 joins around title, 0-3 predicates per alias whose literals
    lie at, inside and outside the column's range and at int16 bounds."""
    children = [n for n in sorted(ROWS) if n != "title"]
    k = draw(st.integers(0, 4))
    if k:
        tables = ["title"] + draw(st.permutations(children))[:k]
    else:
        tables = [draw(st.sampled_from(sorted(ROWS)))]
    refs = tuple(TableRef(t, f"a{i}") for i, t in enumerate(tables))
    joins = tuple(JoinEdge((r.alias, "movie_id"), ("a0", "id")) for r in refs[1:])
    preds = []
    for r in refs:
        for _ in range(draw(st.integers(0, 3))):
            column = draw(st.sampled_from(db.attr_columns(r.table)))
            s = db.table(r.table).column(column)
            literal = draw(st.one_of(
                st.sampled_from((s.lo - 1, s.lo, s.lo + 1, s.hi - 1, s.hi, s.hi + 1)),
                st.integers(s.lo, s.hi),
                st.sampled_from(_EDGE_LITERALS),
            ))
            preds.append(Predicate(r.alias, column, draw(st.sampled_from("=<>")), literal))
    return QuerySpec(refs, joins, tuple(preds))


class TestSelectionPaths:
    """Row-id and mask selections, mixed as the row-id share picks them,
    count as the nested-loop oracle does."""

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(data=st.data(), share=st.sampled_from([MASKS, executor._ROW_ID_SHARE, ROW_IDS]))
    def test_matches_nested_loop(self, edge_db, data, share):
        spec = data.draw(edge_queries(edge_db))
        expected = nested_loop_count(edge_db, spec)
        with mock.patch.object(executor, "_ROW_ID_SHARE", share):
            assert true_cardinality(edge_db, spec) == expected, format_query(spec)
        for root in spec.aliases:
            assert _count_at(edge_db, spec, root, share) == expected, (format_query(spec), root)

    @pytest.mark.parametrize("share", [MASKS, ROW_IDS])
    def test_selects_as_a_scan(self, edge_db, share):
        # Every operator at every boundary literal of every attribute
        # column selects the rows a Python scan does, empty or not: alone,
        # as an index range whatever the share, and with a predicate that
        # every row passes, as the row ids or mask the share picks.
        for t in edge_db.tables.values():
            for name in edge_db.attr_columns(t.name):
                s = t.column(name)
                values = s.values.tolist()
                for literal in (s.lo - 1, s.lo, s.hi, s.hi + 1) + _EDGE_LITERALS:
                    for op in "=<>":
                        with mock.patch.object(executor, "_ROW_ID_SHARE", share):
                            sel = select(edge_db, t, (Predicate("x", name, op, literal),))
                        # Its value-index run holds the selected rows, and
                        # the rows around it the others.
                        assert isinstance(sel, IndexRange)
                        assert sel.excluded == (2 * sel.size > t.row_count)
                        rows = s.index.groups.rows
                        got = np.sort(replace(sel, excluded=False).slice(rows))
                        left_out = np.sort(replace(sel, excluded=True).slice(rows))
                        want = [i for i, v in enumerate(values) if _PY_OPS[op](v, literal)]
                        assert got.tolist() == want, (t.name, name, op, literal)
                        assert left_out.tolist() == sorted(set(range(t.row_count)) - set(want))
                        passing = Predicate("x", name, ">", s.lo - 1)
                        with mock.patch.object(executor, "_ROW_ID_SHARE", share):
                            sel = _listed(edge_db, t, (Predicate("x", name, op, literal), passing))
                        assert (sel.dtype == bool) == (share == MASKS and bool(want))
                        got = np.flatnonzero(sel) if sel.dtype == bool else np.sort(sel)
                        assert got.tolist() == want, (t.name, name, op, literal)

    @pytest.mark.parametrize("literals", ["shares", "outside", "equal"])
    def test_single_predicate_forms(self, share_db, literals):
        """One predicate on one alias at a time, at kept shares of 0, just
        under, at and just over one half, and 1 (`<`, `>`), at literals
        outside the column's range, and at `=` keeping most rows (its
        excluded rows two ranges around the run), then on two aliases at
        once; every alias as root against the nested-loop oracle."""
        cases = _share_cases(share_db, literals)
        for tables, joins in _SHARE_SHAPES:
            refs = tuple(TableRef(t, t) for t in tables)
            edges = tuple(JoinEdge((a, ac), (b, bc)) for (a, ac), (b, bc) in joins)
            singles = [(Predicate(t, column, op, v),)
                       for t in tables for column, op, v in cases[t]]
            pairs = [a + b for a, b in zip(singles, singles[len(singles) // 2:])
                     if a[0].alias != b[0].alias]
            for predicates in singles + pairs:
                spec = QuerySpec(refs, edges, predicates)
                expected = nested_loop_count(share_db, spec)
                assert true_cardinality(share_db, spec) == expected, format_query(spec)
                for root in spec.aliases:
                    for share in (MASKS, ROW_IDS):
                        assert _count_at(share_db, spec, root, share) == expected, (
                            format_query(spec), root, share)

    def test_unique_key_excluded_leaf(self):
        # b, a leaf whose predicate keeps most of its rows, sends its
        # complement through a unique fk into a's ids, even numbers that
        # leave gaps in a dense span: codes no b row holds (a's ids 0 and
        # 2, and every odd code) must send zero, not one, to the root a.
        a = Table("a", [Column("id", "pk", 2 * np.arange(12)),
                        Column("v", "attr", np.arange(12) % 3)])
        b = Table("b", [Column("id", "pk", np.arange(10)),
                        Column("aid", "fk", 2 * np.arange(2, 12), ref=("a", "id")),
                        Column("v", "attr", np.arange(10))])
        db = Database([a, b])
        own, up = db.join_keys(("a", "id"), ("b", "aid"))
        assert own.base == up.base == 0 and not own.identity and up.max_fanout == 1
        for a_literal, literal in itertools.product((1, 3), (0, 3, 8)):
            spec = QuerySpec((TableRef("a", "a"), TableRef("b", "b")),
                             (JoinEdge(("b", "aid"), ("a", "id")),),
                             (Predicate("a", "v", "<", a_literal), Predicate("b", "v", ">", literal)))
            assert select(db, b, spec.predicates_of("b")).excluded == (literal < 4)
            expected = sum((i + 2) % 3 < a_literal for i in range(literal + 1, 10))
            assert true_cardinality(db, spec) == nested_loop_count(db, spec) == expected


@st.composite
def prefix_stars(draw):
    """A hand-built star around `p`, whose ids, offset by a drawn base, are
    an identity key. `p.d` is dense with empty value groups (even values
    only, so every odd value of its span keys an empty group) and `p.s`
    sparse (values 10**9 apart, coded by `np.unique`). Children: `c`,
    whose fks skip the ids past a drawn one and repeat others (p's key
    does not match once), and `o`, holding each id once in a drawn order
    (p's key matches once: `o` sends no sums)."""
    n = draw(st.integers(2, 10))
    ids = np.arange(n) + draw(st.sampled_from([0, 1, -(2**40)]))
    d = 2 * np.array(draw(st.permutations(
        [-2, n + 2] + draw(st.lists(st.integers(-2, n + 2), min_size=n - 2, max_size=n - 2)))))
    s = 10**9 * np.array(draw(st.permutations(
        [-2, 3] + draw(st.lists(st.integers(-2, 3), min_size=n - 2, max_size=n - 2)))))
    referenced = ids[: draw(st.integers(1, n))].tolist()
    fks = draw(st.lists(st.sampled_from(referenced), min_size=1, max_size=3 * n))
    order = draw(st.permutations(range(n)))

    def child(name, fk):
        return Table(name, [Column("id", "pk", np.arange(len(fk))),
                            Column("pid", "fk", fk, ref=("p", "id")),
                            Column("v", "attr", np.arange(len(fk)) % 3)])

    return Database([
        Table("p", [Column("id", "pk", ids), Column("d", "attr", d), Column("s", "attr", s)]),
        child("c", fks), child("o", ids[list(order)]),
    ])


@st.composite
def cube_stars(draw):
    """A hand-built star around `p`, whose ids, offset by a drawn base, are
    an identity key, and whose two columns share its cube: 27 cells for
    27 to 36 rows. `p.d` is dense with empty value groups (even values 0
    to 8 only: nine keys, four of them empty) and `p.s` sparse (three
    values 10**9 apart, coded by `np.unique`). Children: `c`, whose fks
    skip the ids past a drawn one and repeat others (p's key does not
    match once), with a dense `u` (1 to 3) and a sparse `w` (two values)
    sharing a cube from six rows on; and `o`, holding each id once in a
    drawn order, whose `u` and `w` take n distinct values each: n * n
    cells for n rows, so `o` has no cube."""
    n = draw(st.integers(27, 36))
    ids = np.arange(n) + draw(st.sampled_from([0, 1, -(2**40)]))

    def spread(values, size):
        """`size` values from `values`, each at least once, shuffled."""
        rest = draw(st.lists(st.sampled_from(values), min_size=size - len(values),
                             max_size=size - len(values)))
        return np.array(draw(st.permutations(list(values) + rest)), dtype=np.int64)

    referenced = ids[: draw(st.integers(1, n))].tolist()
    fks = np.array(draw(st.lists(st.sampled_from(referenced), min_size=6, max_size=2 * n)))
    order = np.array(draw(st.permutations(range(n))))
    return Database([
        Table("p", [Column("id", "pk", ids), Column("d", "attr", spread([0, 2, 4, 6, 8], n)),
                    Column("s", "attr", 10**9 * spread([-1, 0, 2], n))]),
        Table("c", [Column("id", "pk", np.arange(fks.size)),
                    Column("pid", "fk", fks, ref=("p", "id")),
                    Column("u", "attr", spread([1, 2, 3], fks.size)),
                    Column("w", "attr", 10**9 * spread([5, 7], fks.size))]),
        Table("o", [Column("id", "pk", np.arange(n)), Column("pid", "fk", ids[order], ref=("p", "id")),
                    Column("u", "attr", order), Column("w", "attr", 10**9 * order[::-1])]),
    ])


def _gathers(product) -> bool:
    """Whether `product`, a mock wrapping `executor._product`, multiplied
    any factor: a leaf with no factors calls it too, and it returns None."""
    return any(call.args[0] for call in product.call_args_list)


class TestPrefixSumRoot:
    """A root selecting one value-index range, joined only to an unfiltered
    leaf through its identity key, counts from the cube the leaf's fanout
    weights (`JoinKey.cube`) when its table has a cube (`cube_stars`): no
    gather, no sum, no excluded-range arithmetic. In `prefix_stars`, `p`'s
    columns have more cells than `p` has rows, so it has no cube, and such
    a root gathers at its selected rows."""

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(db=st.one_of(prefix_stars(), cube_stars()))
    def test_matches_nested_loop(self, db):
        p = db.table("p")
        assert p.column("d").index.keys.size > p.column("d").distinct_count  # empty groups
        assert p.column("s").index.keys.size == p.column("s").distinct_count  # np.unique
        cubed = db.cubes["p"] is not None
        for leaf in ("c", "o"):
            assert (db.join_keys(("p", "id"), (leaf, "pid"))[1].cube is not None) == cubed
        assert not db.join_keys(("p", "id"), ("c", "pid"))[0].matches_once
        excluded = set()
        for leaf in ("c", "o"):
            refs = (TableRef("p", "p"), TableRef(leaf, leaf))
            joins = (JoinEdge((leaf, "pid"), ("p", "id")),)
            for name in ("d", "s"):
                values = p.column(name).values.tolist()
                lo, hi = min(values), max(values)
                literals = {lo - 1, lo, hi, hi + 1, -(2**63) - 1, 2**63}
                literals |= set(values) | {v + 1 for v in values}
                for literal, op in itertools.product(sorted(literals), "=<>"):
                    spec = QuerySpec(refs, joins, (Predicate("p", name, op, literal),))
                    sel = select(db, p, spec.predicates)
                    expected = nested_loop_count(db, spec)
                    with mock.patch.object(executor, "_product", wraps=executor._product) as w:
                        assert true_cardinality(db, spec) == expected, format_query(spec)
                    # `o` meets each row of `p` once, so it sends no sums.
                    gathers = not cubed and leaf == "c" and sel.size > 0
                    assert _gathers(w) == gathers, format_query(spec)
                    if sel.size:
                        excluded.add(sel.excluded)
                    assert _count_at(db, spec, leaf, MASKS) == expected, format_query(spec)
                    # A filtered leaf sends sums that are not its fanout.
                    spec = replace(spec, predicates=spec.predicates + (
                        Predicate(leaf, db.attr_columns(leaf)[0], "<", 2),))
                    expected = nested_loop_count(db, spec)
                    assert _count_at(db, spec, "p", MASKS) == expected, format_query(spec)
        assert excluded == {False, True}

    @pytest.mark.parametrize("edges, predicates", [
        ((("t", "d"),), (("t", "v", "<", 3), ("d", "v", "<", 20))),  # filtered leaf
        ((("t", "d"), ("t", "c")), (("t", "v", "<", 3),)),  # two leaves
        ((("q", "c"),), (("q", "v", "<", 3),)),  # q.id: dense codes 0, 10, ..., 70
    ], ids=["filtered_leaf", "two_leaves", "not_identity"])
    def test_other_shapes_gather(self, share_db, edges, predicates):
        root = edges[0][0]
        aliases = sorted({a for e in edges for a in e})
        spec = QuerySpec(
            tuple(TableRef(a, a) for a in aliases),
            tuple(JoinEdge((leaf, f"{parent}id"), (parent, "id")) for parent, leaf in edges),
            tuple(Predicate(*p) for p in predicates),
        )
        with mock.patch.object(executor, "_product", wraps=executor._product) as w:
            assert _count_at(share_db, spec, root, MASKS) == nested_loop_count(share_db, spec)
        assert _gathers(w), format_query(spec)


def _conjunctions(db, table, data):
    """Conjunctions of two predicates on `table`'s columns `x` and `y`:
    both columns with literals below and above their ranges (every row),
    and inside them; each column twice, intersecting to a run, to an
    empty span and to one value; and two drawn from literals below,
    inside and above each range."""
    t = db.table(table)
    x, y = (c.name for c in t.columns if c.index is not None)
    literals = {}
    for name in (x, y):
        keys = t.column(name).index.keys.tolist()
        inside = keys[len(keys) // 2]
        literals[name] = (keys[0] - 1, keys[0], inside, keys[-1], keys[-1] + 1)
    (xlo, _, xin, _, xhi), (ylo, _, yin, _, yhi) = literals[x], literals[y]
    cases = [
        ((x, ">", xlo), (y, "<", yhi)),
        ((x, "=", xin), (y, ">", yin)),
        ((x, ">", xlo + 1), (x, "<", xhi - 1)),
        ((x, "<", xin), (x, ">", xin)),
        ((y, "=", yin), (y, "<", yhi)),
    ]
    for _ in range(2):
        cases.append(tuple(
            (name, data.draw(st.sampled_from("=<>")), data.draw(st.sampled_from(literals[name])))
            for name in data.draw(st.sampled_from([(x, y), (x, x), (y, x)]))
        ))
    return [tuple(Predicate(table, *p) for p in case) for case in cases]


#: Query shapes over `cube_stars`: its tables, each after the first joined
#: to `p.id`.
_CUBE_SHAPES = (("p",), ("c",), ("o",), ("p", "c"), ("p", "o"), ("p", "c", "o"))


class TestCubeBoxes:
    """Several predicates on a table with a cube select a `Box` whose row
    count the table's cube gives, and whose joined count, under one
    unfiltered leaf joined through the root's identity key, the cube that
    leaf's fanout weights gives. So a conjunction with no join, under a
    parent each of its rows meets once, or at such a root lists no row.
    On `o`, which has no cube, `_rows_in` lists them, on one column or
    two."""

    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(db=cube_stars(), data=st.data())
    def test_box_counts_match_nested_loop(self, db, data):
        assert db.cubes["p"].columns == ("d", "s")
        assert db.table("p").column("d").index.keys.size == 9  # empty groups
        assert db.table("p").column("s").index.keys.size == 3  # np.unique
        assert db.cubes["o"] is None
        assert db.join_keys(("p", "id"), ("c", "pid"))[1].cube.columns == ("d", "s")
        assert not db.join_keys(("p", "id"), ("c", "pid"))[0].matches_once
        assert db.join_keys(("p", "id"), ("o", "pid"))[0].matches_once
        for table in ("p", "c", "o"):
            for conjunction in _conjunctions(db, table, data):
                box = select(db, db.table(table), conjunction)
                assert isinstance(box, Box) == (table != "o")
                for tables in _CUBE_SHAPES:
                    if table not in tables:
                        continue
                    spec = QuerySpec(
                        tuple(TableRef(t, t) for t in tables),
                        tuple(JoinEdge((t, "pid"), ("p", "id")) for t in tables[1:]),
                        conjunction,
                    )
                    self._check(db, spec, isinstance(box, Box) and (
                        table == "p" or tables in (("c",), ("o",), ("p", table))))

    @staticmethod
    def _check(db, spec, lists_no_row):
        expected = nested_loop_count(db, spec)
        with mock.patch.object(executor, "_rows_in", wraps=executor._rows_in) as rows:
            assert true_cardinality(db, spec) == expected, format_query(spec)
        assert not (lists_no_row and rows.called), format_query(spec)
        # Selected as `true_cardinality` selects them, whatever the root.
        sels = {a: select(db, db.table(a), spec.predicates_of(a)) for a in spec.aliases}
        if not all(_selected(db.table(a), sel) for a, sel in sels.items()):
            return
        for root in spec.aliases:
            selected = _selected(db.table(root), sels[root])
            assert _count_from(db, spec, sels, root, selected) == expected, (
                format_query(spec), root)

    @pytest.mark.parametrize("s_literal", [1, 4])
    def test_box_off_the_root(self, s_literal):
        # `p`'s columns `d` (0-3) and `s` (0-4) share one cube of 20 cells
        # for its 20 rows. Under `c`, the larger filtered alias and so the
        # root, `p`'s conjunction selects a box, which lists its rows to
        # send its sums. `s > 4` keeps no row: the box is empty, and the
        # query counts 0 with no row listed and no sums sent.
        n = np.arange(20)
        db = Database([
            Table("p", [Column("id", "pk", n), Column("d", "attr", n % 4),
                        Column("s", "attr", n % 5)]),
            Table("c", [Column("id", "pk", np.arange(60)),
                        Column("pid", "fk", np.random.default_rng(47).integers(0, 20, 60),
                               ref=("p", "id")),
                        Column("v", "attr", np.arange(60))]),
        ])
        assert db.cubes["p"].columns == ("d", "s")
        spec = QuerySpec((TableRef("c", "c"), TableRef("p", "p")),
                         (JoinEdge(("c", "pid"), ("p", "id")),),
                         (Predicate("c", "v", "<", 50), Predicate("p", "d", "<", 2),
                          Predicate("p", "s", ">", s_literal)))
        box = select(db, db.table("p"), spec.predicates_of("p"))
        assert isinstance(box, Box) and (box.size == 0) == (s_literal == 4)
        expected = nested_loop_count(db, spec)
        with mock.patch.object(executor, "_sums_up", wraps=executor._sums_up) as sums_up, \
                mock.patch.object(executor, "_rows_in", wraps=executor._rows_in) as rows:
            assert true_cardinality(db, spec) == expected
        if box.size:
            assert [type(call.args[0]) for call in sums_up.call_args_list] == [Box]
            assert rows.call_count == 1
        else:
            assert expected == 0 and not sums_up.called and not rows.called


class TestDrawnSchemas:
    """Join trees (`helpers.join_queries`) over drawn fk forests
    (`helpers.fk_forests`): chains, parents with several children, children
    with two fks to one parent, several aliases of one table, identity and
    other keys, tables with and without a cube. The count, from every root
    under either row-id share, is the nested-loop oracle's."""

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_nested_loop(self, data):
        db = data.draw(fk_forests())
        spec = data.draw(join_queries(db))
        expected = nested_loop_count(db, spec)
        assert true_cardinality(db, spec) == expected, format_query(spec)
        sels = {a: select(db, db.table(spec.table_of(a)), spec.predicates_of(a))
                for a in spec.aliases}
        if not all(_selected(db.table(spec.table_of(a)), sel) for a, sel in sels.items()):
            return
        for root in spec.aliases:
            for share in (MASKS, ROW_IDS):
                assert _count_at(db, spec, root, share) == expected, (format_query(spec), root)


@pytest.fixture(scope="module")
def share_db():
    """Two parents, `t` (ids 1..12, an identity key) and `q` (ids 10, 20,
    ..., 80, densely coded but not the identity), and two children: `c`
    (20 rows) joins both, through two non-identity keys, and `d` (21 rows)
    joins `t`. Every table has `v`, its distinct row positions in a
    shuffled order, so `v < k` keeps k rows, and `m`, 5 in three rows of
    four and 1, 2, 8 or 9 elsewhere."""
    rng = np.random.default_rng(41)

    def table(name, n, ids=None, fks=()):
        m = rng.choice([1, 2, 8, 9], size=n)
        m[rng.permutation(n)[: 3 * n // 4]] = 5
        return Table(name, [
            Column("id", "pk", np.arange(1, n + 1) if ids is None else ids),
            *(Column(f"{ref}id", "fk", rng.choice(vals, size=n), ref=(ref, "id"))
              for ref, vals in fks),
            Column("v", "attr", rng.permutation(n)),
            Column("m", "attr", m),
        ])

    t_ids, q_ids = np.arange(1, 13), np.arange(10, 90, 10)
    return Database([
        table("t", 12), table("q", 8, ids=q_ids),
        table("c", 20, fks=(("t", t_ids), ("q", q_ids))),
        table("d", 21, fks=(("t", t_ids),)),
    ])


#: Query shapes over `share_db`: tables (each its own alias) and joins.
_SHARE_SHAPES = (
    (("t",), ()),
    (("c",), ()),
    (("t", "d"), ((("d", "tid"), ("t", "id")),)),
    (("c", "q"), ((("c", "qid"), ("q", "id")),)),
    (("c", "d", "t"), ((("d", "tid"), ("t", "id")), (("c", "tid"), ("t", "id")))),
    (("c", "q", "t"), ((("c", "tid"), ("t", "id")), (("c", "qid"), ("q", "id")))),
    (("c", "d", "q", "t"), ((("d", "tid"), ("t", "id")), (("c", "tid"), ("t", "id")),
                            (("c", "qid"), ("q", "id")))),
)


def _share_cases(db, literals):
    """Per table, (column, op, literal) cases of one kind."""
    cases = {}
    for name, t in db.tables.items():
        n = t.row_count
        if literals == "shares":
            # `v < k` keeps k rows and `v > k` keeps n - 1 - k.
            kept = (0, (n - 1) // 2, n // 2, n // 2 + 1, n)
            cases[name] = [("v", "<", k) for k in kept] + [("v", ">", n - 1 - k) for k in kept]
        elif literals == "outside":
            cases[name] = [("v", op, v) for op in "=<>" for v in (-1, n, -(2**40), 2**70)]
        else:
            cases[name] = [("m", "=", 5), ("m", "<", 6), ("m", ">", 1), ("m", "=", 1)]
    return cases

class TestSampleBitmaps:
    def test_no_predicates_all_ones(self, samples):
        bitmap = eval_predicates_on_sample(samples["title"], ())
        assert bitmap.all() and bitmap.size == 50

    def test_no_predicates_share_one_read_only_bitmap(self, db, samples, tmp_path):
        # Every alias without predicates gets its sample's one all-ones
        # bitmap, drawn or loaded, and no caller can write into it.
        spec, _ = parse_query(
            "title t,title u,movie_keyword mk#mk.movie_id=t.id,mk.movie_id=u.id#mk.keyword_id,<,9#"
        )
        save_samples(samples, tmp_path / "samples.json")
        for sample_set in (samples, load_samples(tmp_path / "samples.json", db)):
            bitmaps = query_bitmaps(spec, sample_set)
            shared = sample_set["title"].all_rows
            assert bitmaps["t"] is bitmaps["u"] is shared
            assert bitmaps["mk"] is not sample_set["movie_keyword"].all_rows
            assert shared.all() and shared.size == 50 and not shared.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                bitmaps["t"][0] = False
            assert shared.all()

    def test_absent_value_all_zeros(self, db, samples):
        # 9999 occurs nowhere in the column, so no sample row qualifies.
        bitmap = eval_predicates_on_sample(
            samples["title"], (Predicate("t", "production_year", "=", 9999),)
        )
        assert not bitmap.any()

    def test_popcount_matches_scan(self, db, samples):
        workload = generate_workload(db, 100, 2, seed=17)
        for spec in workload:
            for alias in spec.aliases:
                s = samples[spec.table_of(alias)]
                bitmap = eval_predicates_on_sample(s, spec.predicates_of(alias))
                expected = 0
                for i in range(s.size):
                    ok = True
                    for p in spec.predicates_of(alias):
                        v = s.rows[p.column][i]
                        ok &= {"=": v == p.literal, "<": v < p.literal, ">": v > p.literal}[p.op]
                    expected += bool(ok)
                assert int(bitmap.sum()) == expected

    def test_joins_do_not_affect_bitmaps(self, db, samples):
        joined, _ = parse_query(
            "title t,movie_companies mc#mc.movie_id=t.id#t.kind_id,=,3#"
        )
        single, _ = parse_query("title t##t.kind_id,=,3#")
        b_joined = query_bitmaps(joined, samples)
        b_single = query_bitmaps(single, samples)
        np.testing.assert_array_equal(b_joined["t"], b_single["t"])


class TestLabelWorkload:
    def test_empty_results_dropped_and_counted(self, db, samples):
        good, _ = parse_query("title t##t.production_year,>,1800#")
        bad, _ = parse_query("title t##t.production_year,=,9999#")
        labeled, dropped = label_workload(db, [good, bad], samples)
        assert len(labeled) == 1 and dropped == 1

    def test_labels_match_individual_calls(self, db, samples):
        workload = generate_workload(db, 50, 2, seed=18)
        labeled, _ = label_workload(db, workload, samples)
        for q in labeled:
            assert q.true_cardinality == true_cardinality(db, q.spec)
            assert q.true_cardinality >= 1

    def test_bitmaps_match_and_bounded(self, db, samples):
        workload = generate_workload(db, 50, 2, seed=19)
        labeled, _ = label_workload(db, workload, samples)
        for q in labeled:
            for alias, bitmap in q.bitmaps.items():
                assert 0 <= bitmap.sum() <= 50
                expected = eval_predicates_on_sample(
                    samples[q.spec.table_of(alias)], q.spec.predicates_of(alias)
                )
                np.testing.assert_array_equal(bitmap, expected)


@pytest.fixture(scope="module")
def reference():
    """300 generated 0-4-join queries on the reference database (default
    rows, rho 0.8, seed 101) and its default-size samples."""
    db = generate_synthetic_db(SynthConfig(rho=0.8), seed=101)
    samples = draw_all_samples(db, DEFAULT_SAMPLE_SIZE, seed=101)
    workload = generate_workload(db, 300, 4, seed=13)
    assert {len(q.joins) for q in workload} == {0, 1, 2, 3, 4}
    return db, samples, workload


class TestCorpusFiles:
    def test_hex_round_trip(self):
        rng = np.random.default_rng(0)
        for size in (1, 7, 8, 50, 64, 100):
            bits = rng.random(size) < 0.3
            assert (hex_to_bitmap(bitmap_to_hex(bits), size) == bits).all()

    @pytest.mark.parametrize("text, size, message", [
        ("ffffffff", 8, "bitmap holds 32 bits, expected 8"),
        ("ff", 5, "bitmap sets a pad bit, expected 5 bits"),
        ("0020", 13, "bitmap sets a pad bit, expected 13 bits"),
    ])
    def test_wrong_length_or_pad_bits(self, text, size, message):
        # Too many bytes, or a bit past `size` set: not what
        # `bitmap_to_hex` writes, which pads with zeros.
        with pytest.raises(ParseError, match=message):
            hex_to_bitmap(text, size)

    def test_bit_zero_is_sample_row_zero(self):
        bits = np.zeros(16, dtype=bool)
        bits[0] = True
        assert bitmap_to_hex(bits) == "0100"

    def test_corpus_round_trip(self, db, samples, tmp_path):
        workload = generate_workload(db, 30, 2, seed=21)
        labeled, _ = label_workload(db, workload, samples)
        cp, bp = tmp_path / "corpus.txt", tmp_path / "corpus.txt.bitmaps"
        write_labeled_corpus(labeled, cp, bp, sample_size=50)
        loaded, size = read_labeled_corpus(cp, bp)
        assert size == 50
        assert len(loaded) == len(labeled)
        for a, b in zip(labeled, loaded):
            assert a.spec == b.spec
            assert a.true_cardinality == b.true_cardinality
            for alias in a.bitmaps:
                np.testing.assert_array_equal(a.bitmaps[alias], b.bitmaps[alias])

    def test_missing_label_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("title t###\n")
        with pytest.raises(ParseError):
            read_labeled_corpus(p, tmp_path / "c.txt.bitmaps")

    def test_reference_corpus_pinned(self, reference, tmp_path):
        # Labeled and written with their bitmap sidecar; recorded while
        # single-predicate selections were counted through row-id gathers
        # and masks.
        db, samples, workload = reference
        labeled, dropped = label_workload(db, workload, samples)
        assert (len(labeled), dropped) == (247, 53)
        cp, bp = tmp_path / "c.txt", tmp_path / "c.txt.bitmaps"
        write_labeled_corpus(labeled, cp, bp, sample_size=DEFAULT_SAMPLE_SIZE)
        digest = hashlib.sha256(cp.read_bytes() + b"\0" + bp.read_bytes()).hexdigest()
        assert digest == "8bf64bc96102ef1e43cc42a2495c68b42a33ad6b6ff553a03ede40f47aa8effe"

    def test_reference_estimates_pinned(self, reference):
        # The RS and IBJS estimates of every query, as float64 bytes;
        # recorded while IBJS built its own adjacency for its walk.
        db, samples, workload = reference
        indexes = build_join_indexes(db)
        estimates = []
        for spec in workload:
            estimates += [rs_estimate(db, samples, spec),
                          ibjs_estimate(db, samples, indexes, spec)]
        digest = hashlib.sha256(np.array(estimates, dtype="<f8").tobytes()).hexdigest()
        assert digest == "98d2feaa5021e9443c407b87530e7c52b1dd6b63f8a6791bc9b87f40269ef8a1"

    def test_sidecar_length_mismatch(self, db, samples, tmp_path):
        workload = generate_workload(db, 5, 1, seed=22)
        labeled, _ = label_workload(db, workload, samples)
        cp, bp = tmp_path / "c.txt", tmp_path / "c.txt.bitmaps"
        write_labeled_corpus(labeled, cp, bp, sample_size=50)
        bp.write_text(bp.read_text().rstrip("\n").rsplit("\n", 1)[0] + "\n")
        with pytest.raises(ParseError):
            read_labeled_corpus(cp, bp)

    @pytest.fixture(scope="class")
    def written(self, db, samples, tmp_path_factory):
        """A small labeled corpus, written once: its queries and path."""
        labeled, _ = label_workload(db, generate_workload(db, 12, 2, seed=23), samples)
        cp = tmp_path_factory.mktemp("edits") / "c.txt"
        write_labeled_corpus(labeled, cp, f"{cp}.bitmaps", sample_size=50)
        return labeled, cp

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_one_token_edits(self, written, data):
        # Drop, duplicate or move one `alias:hex` token of one sidecar line:
        # a move reads the same bitmaps, a drop or a duplicate raises
        # ParseError, and no other exception escapes.
        labeled, cp = written
        bp = cp.with_name("edited.bitmaps")
        lines = cp.with_name("c.txt.bitmaps").read_text().splitlines()
        i = data.draw(st.integers(1, len(lines) - 1))
        tokens = lines[i].split(",")
        j = data.draw(st.integers(0, len(tokens) - 1))
        edit = data.draw(st.sampled_from(["drop", "duplicate", "move"]))
        token = tokens.pop(j) if edit != "duplicate" else tokens[j]
        if edit != "drop":
            tokens.insert(data.draw(st.integers(0, len(tokens))), token)
        lines[i] = ",".join(tokens)
        bp.write_text("\n".join(lines) + "\n")
        if edit != "move":
            with pytest.raises(ParseError):
                read_labeled_corpus(cp, bp)
            return
        loaded, _ = read_labeled_corpus(cp, bp)
        for a, b in zip(labeled, loaded):
            assert a.bitmaps.keys() == b.bitmaps.keys()
            for alias in a.bitmaps:
                np.testing.assert_array_equal(a.bitmaps[alias], b.bitmaps[alias])
