import hashlib

import numpy as np
import pytest
from helpers import content_order
from hypothesis import given, settings
from hypothesis import strategies as st

from cardlab.errors import GenerationError, ParseError
from cardlab.query import (
    JoinEdge,
    Predicate,
    QuerySpec,
    TableRef,
    _GenerationPlan,
    database_errors,
    default_aliases,
    format_query,
    generate_workload,
    parse_query,
    read_workload,
    validate,
    write_workload,
)
from cardlab.storage import SynthConfig, generate_synthetic_db

ROWS = {
    "title": 400,
    "movie_companies": 700,
    "movie_info": 700,
    "movie_info_idx": 700,
    "movie_keyword": 700,
    "cast_info": 700,
}


@pytest.fixture(scope="module")
def db():
    return generate_synthetic_db(SynthConfig(rows=ROWS, rho=0.5), seed=21)


@pytest.fixture(scope="module")
def reference_db():
    """The reference database: default rows, rho 0.8, seed 101."""
    return generate_synthetic_db(SynthConfig(rho=0.8), seed=101)


class TestParse:
    def test_direct_parse(self):
        spec, label = parse_query(
            "title t,movie_companies mc#mc.movie_id=t.id#t.production_year,>,2010#847"
        )
        assert spec.tables == (TableRef("movie_companies", "mc"), TableRef("title", "t"))
        assert spec.joins == (JoinEdge(("mc", "movie_id"), ("t", "id")),)
        assert spec.predicates == (Predicate("t", "production_year", ">", 2010),)
        assert label == 847

    def test_undeclared_alias_rejected(self):
        with pytest.raises(ParseError):
            parse_query("title t#mc.movie_id=t.id#t.production_year,>,2010#847")

    def test_empty_sets(self):
        spec, label = parse_query("title t###")
        assert spec.tables == (TableRef("title", "t"),)
        assert spec.joins == ()
        assert spec.predicates == ()
        assert label is None

    def test_three_field_line(self):
        spec, label = parse_query("title t##")
        assert label is None
        assert spec.joins == ()

    def test_bad_operator(self):
        with pytest.raises(ParseError):
            parse_query("title t##t.kind_id,!,3#")

    def test_bad_literal(self):
        with pytest.raises(ParseError):
            parse_query("title t##t.kind_id,=,three#")

    def test_disconnected_join_graph(self):
        with pytest.raises(ParseError):
            parse_query("title t,movie_companies mc,movie_info mi#mc.movie_id=t.id##")

    @pytest.mark.parametrize(
        "line",
        [
            # A swapped duplicate of one edge leaves mi isolated.
            "title t,movie_companies mc,movie_info mi#mc.movie_id=t.id,t.id=mc.movie_id##",
            # A self-join edge leaves mc isolated.
            "title t,movie_companies mc#t.id=t.kind_id##",
        ],
    )
    def test_tree_edge_count_but_disconnected(self, db, line):
        # Both pass the join-count check, so only connectivity rejects them.
        with pytest.raises(ParseError, match=r"^join graph is disconnected$"):
            parse_query(line)
        tables, joins, _ = line.split("#", 2)
        spec = QuerySpec(
            tuple(TableRef(*t.split()) for t in tables.split(",")),
            tuple(
                JoinEdge(*(tuple(side.split(".")) for side in j.split("=")))
                for j in joins.split(",")
            ),
        )
        assert validate(spec, db)[0] == "join graph is disconnected"

    def test_cross_product_rejected(self):
        with pytest.raises(ParseError):
            parse_query("title t,movie_companies mc###")

    def test_duplicate_alias_rejected(self):
        with pytest.raises(ParseError):
            parse_query("title t,movie_companies t###")


class TestFormat:
    def test_label_suffix(self):
        spec, _ = parse_query("title t###")
        assert format_query(spec, 42).endswith("#42")

    def test_round_trip_of_generated(self, db):
        rng = np.random.default_rng(0)
        plan = _GenerationPlan(db)
        for _ in range(100):
            spec = plan.draw(2, rng)
            again, label = parse_query(format_query(spec))
            assert again == spec
            assert label is None

    def test_insertion_order_irrelevant(self):
        kind = Predicate("t", "kind_id", "=", 3)
        year = Predicate("t", "production_year", ">", 2000)
        company = Predicate("mc", "company_id", "<", 9)
        a = QuerySpec(
            (TableRef("title", "t"), TableRef("movie_companies", "mc")),
            (JoinEdge(("mc", "movie_id"), ("t", "id")),),
            (kind, year, company),
        )
        b = QuerySpec(
            (TableRef("movie_companies", "mc"), TableRef("title", "t")),
            (JoinEdge(("mc", "movie_id"), ("t", "id")),),
            (year, company, kind, year),
        )
        assert a == b
        assert format_query(a) == format_query(b)
        assert hash(a) == hash(b) and repr(a) == repr(b)
        assert a.aliases == b.aliases == ("mc", "t")
        for spec in (a, b):
            assert spec.table_of("t") == "title" and spec.table_of("mc") == "movie_companies"
            assert spec.predicates_of("t") == (kind, year)
            assert spec.predicates_of("mc") == (company,)

    @given(label=st.integers(min_value=0, max_value=10**12))
    @settings(max_examples=50, deadline=None)
    def test_label_round_trip(self, label):
        spec, parsed = parse_query(format_query(QuerySpec((TableRef("title", "t"),)), label))
        assert parsed == label


class TestQuerySpecLookups:
    """QuerySpec resolves its aliases and per-alias predicates once, on
    construction; lookups of undeclared aliases keep their meaning."""

    def test_table_of_undeclared_alias_raises(self):
        spec = QuerySpec((TableRef("title", "t"),))
        assert spec.table_of("t") == "title"
        with pytest.raises(ParseError, match="alias 'x' not declared"):
            spec.table_of("x")

    def test_predicates_of_undeclared_alias(self, db):
        p = Predicate("x", "kind_id", "=", 1)
        spec = QuerySpec((TableRef("title", "t"),), (), (p, Predicate("t", "kind_id", "<", 2)))
        assert spec.predicates_of("x") == (p,)
        assert spec.predicates_of("t") == (Predicate("t", "kind_id", "<", 2),)
        assert spec.predicates_of("nobody") == ()
        assert validate(spec, db) == ["predicate x.kind_id,=,1 uses undeclared alias 'x'"]


@st.composite
def join_trees(draw):
    """A join tree over 1-7 aliases: each alias after the first joins an
    earlier one, through columns named from a small pool (so an alias
    often joins several neighbours through one column), written either
    way round."""
    n = draw(st.integers(1, 7))
    aliases = [f"a{i}" for i in draw(st.permutations(range(n)))]
    columns = st.sampled_from(["id", "x", "y"])
    joins = []
    for i in range(1, n):
        ends = [(aliases[draw(st.integers(0, i - 1))], draw(columns)), (aliases[i], draw(columns))]
        joins.append(JoinEdge(*(ends if draw(st.booleans()) else ends[::-1])))
    return QuerySpec(tuple(TableRef("t", a) for a in aliases), tuple(joins))


def neighbours(spec, alias):
    """(neighbour alias, own column, neighbour column) per join at alias,
    in `joins_of` order."""
    out = []
    for j in spec.joins_of(alias):
        own, other = (j.left, j.right) if j.left[0] == alias else (j.right, j.left)
        out.append((other[0], own[1], other[1]))
    return out


class TestWalk:
    @given(spec=join_trees())
    @settings(max_examples=200)
    def test_reaches_every_alias_once_from_any_root(self, spec):
        # Every alias has table `t`, so the content order sorts them by
        # their join ends, then by name; neighbours follow it.
        assert list(spec.content_order) == content_order(spec)
        rank = {a: i for i, a in enumerate(spec.content_order)}
        for alias in spec.aliases:
            ends = [(rank[other], own, other_col)
                    for other, own, other_col in neighbours(spec, alias)]
            assert ends == sorted(ends)
            assert set(spec.joins_of(alias)) == {
                j for j in spec.joins if alias in (j.left[0], j.right[0])
            }
        for root in spec.aliases:
            walk = spec.walk(root)
            assert len(walk) == len(spec.joins)
            seen, previous = [root], None
            for known, known_col, new, new_col in walk:
                # Each edge attaches a new alias to one already reached,
                # through one of the spec's joins. Breadth-first: aliases
                # are expanded in the order they were reached, each one's
                # neighbours in content order.
                assert known in seen and new not in seen
                assert (new, known_col, new_col) in neighbours(spec, known)
                step = (seen.index(known), rank[new], known_col, new_col)
                assert previous is None or step > previous
                previous = step
                seen.append(new)
            assert sorted(seen) == sorted(spec.aliases)

    def test_breadth_first_in_sorted_order(self):
        spec, _ = parse_query(
            "title t,movie_companies mc,movie_info mi,company_name cn"
            "#mc.movie_id=t.id,mi.movie_id=t.id,mc.company_id=cn.id##"
        )
        assert spec.joins_of("t") == (
            JoinEdge(("mc", "movie_id"), ("t", "id")),
            JoinEdge(("mi", "movie_id"), ("t", "id")),
        )
        assert spec.walk("cn") == [
            ("cn", "id", "mc", "company_id"),
            ("mc", "movie_id", "t", "id"),
            ("t", "id", "mi", "movie_id"),
        ]
        assert spec.walk("mi") == [
            ("mi", "movie_id", "t", "id"),
            ("t", "id", "mc", "movie_id"),
            ("mc", "company_id", "cn", "id"),
        ]


class TestGenerator:
    def test_zero_joins_forced(self, db):
        rng = np.random.default_rng(1)
        plan = _GenerationPlan(db)
        for _ in range(50):
            spec = plan.draw(0, rng)
            assert spec.joins == ()
            assert len(spec.tables) == 1

    def test_join_count_uniform(self, db):
        rng = np.random.default_rng(2)
        plan = _GenerationPlan(db)
        counts = np.zeros(3)
        trials = 10_000
        for _ in range(trials):
            counts[len(plan.draw(2, rng).joins)] += 1
        np.testing.assert_allclose(counts / trials, 1 / 3, atol=0.02)

    def test_literal_membership(self, db):
        rng = np.random.default_rng(3)
        plan = _GenerationPlan(db)
        for _ in range(200):
            spec = plan.draw(2, rng)
            for p in spec.predicates:
                values = db.column_values(spec.table_of(p.alias), p.column)
                assert p.literal in values

    def test_generated_queries_validate(self, db):
        rng = np.random.default_rng(4)
        plan = _GenerationPlan(db)
        for _ in range(200):
            assert validate(plan.draw(3, rng), db) == []

    def test_generator_uses_canonical_fk_orientation(self, db):
        rng = np.random.default_rng(5)
        plan = _GenerationPlan(db)
        child_cols = {(e.child[0], e.child[1]) for e in db.fk_edges}
        aliases = default_aliases(db)
        table_of_alias = {v: k for k, v in aliases.items()}
        for _ in range(100):
            for j in plan.draw(2, rng).joins:
                assert (table_of_alias[j.left[0]], j.left[1]) in child_cols

    def test_any_table_seeds_zero_join_queries(self, db):
        rng = np.random.default_rng(61)
        plan = _GenerationPlan(db)
        tables = {
            plan.draw(0, rng).tables[0].table for _ in range(200)
        }
        assert len(tables) == 6

    def test_max_joins_beyond_schema_errors(self, db):
        rng = np.random.default_rng(6)
        plan = _GenerationPlan(db)
        with pytest.raises(GenerationError):
            for _ in range(200):  # at some point a 6-join draw appears
                plan.draw(6, rng)


class TestWorkload:
    def test_unique_and_deterministic(self, db):
        w1 = generate_workload(db, 1000, 2, seed=7)
        w2 = generate_workload(db, 1000, 2, seed=7)
        strings = [format_query(q) for q in w1]
        assert len(set(strings)) == 1000
        assert strings == [format_query(q) for q in w2]

    def test_contains_deeper_joins(self, db):
        w = generate_workload(db, 300, 4, seed=8)
        joins = {len(q.joins) for q in w}
        assert 3 in joins and 4 in joins

    def test_file_round_trip(self, db, tmp_path):
        w = generate_workload(db, 50, 2, seed=9)
        path = tmp_path / "w.txt"
        write_workload(path, w)
        loaded = read_workload(path)
        assert [q for _, q, _ in loaded] == w
        assert [lineno for lineno, _, _ in loaded] == list(range(1, 51))

    def test_reference_workload_pinned(self, reference_db):
        # SHA-256 of the formatted lines of 400 0-4-join queries on the
        # reference database, recorded while every draw re-derived the
        # aliases, the fk frontier and the column values from the database.
        w = generate_workload(reference_db, 400, 4, seed=15)
        assert {len(q.joins) for q in w} == {0, 1, 2, 3, 4}
        text = "\n".join(format_query(q) for q in w)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5eb2c1efa0f4f354ef7164933cc4a86ce3a183020b98a2d3e7cfba08ecfce2a7"
        )

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("-- a comment\n\ntitle t###\n")
        assert len(read_workload(path)) == 1
        assert read_workload(path)[0][0] == 3


class TestValidate:
    def test_non_fk_join(self, db):
        spec = QuerySpec(
            (TableRef("movie_companies", "mc"), TableRef("movie_info", "mi")),
            (JoinEdge(("mc", "movie_id"), ("mi", "movie_id")),),
        )
        assert any("foreign key" in e for e in validate(spec, db))

    def test_predicate_on_key_column(self, db):
        spec = QuerySpec(
            (TableRef("title", "t"),),
            (),
            (Predicate("t", "id", "=", 1),),
        )
        assert any("key column" in e for e in validate(spec, db))

    def test_unknown_table(self, db):
        spec = QuerySpec((TableRef("nope", "n"),))
        assert any("unknown table" in e for e in validate(spec, db))

    def test_unknown_column(self, db):
        spec = QuerySpec((TableRef("title", "t"),), (), (Predicate("t", "zz", "=", 1),))
        assert any("unknown column" in e for e in validate(spec, db))

    def test_database_errors_of_a_parsed_spec_are_validate(self, db):
        # The CLI checks parsed specs with `database_errors` alone.
        spec, _ = parse_query("title t,movie_companies mc#mc.company_id=t.id#t.id,=,1,mc.zz,<,2#")
        assert database_errors(spec, db) == validate(spec, db) == [
            "join mc.company_id=t.id does not follow a declared foreign key",
            "unknown column movie_companies.zz in predicate mc.zz,<,2",
            "predicate t.id,=,1 targets a key column",
        ]

    def test_messages_and_their_order(self, db):
        spec = QuerySpec(
            (
                TableRef("title", "t"),
                TableRef("movie_companies", "mc"),
                TableRef("movie_info", "mi"),
                TableRef("nope", "n"),
            ),
            (
                JoinEdge(("mc", "movie_id"), ("t", "id")),
                JoinEdge(("mi", "movie_id"), ("mc", "movie_id")),
                JoinEdge(("n", "x"), ("t", "zz")),
            ),
            (
                Predicate("t", "id", "=", 1),
                Predicate("t", "zz", "<", 2),
                Predicate("mc", "company_id", ">", 3),
                Predicate("n", "x", "=", 4),
                Predicate("q", "y", "=", 5),
            ),
        )
        assert validate(spec, db) == [
            "predicate q.y,=,5 uses undeclared alias 'q'",
            "unknown table 'nope'",
            "join mi.movie_id=mc.movie_id does not follow a declared foreign key",
            "unknown column title.zz in join n.x=t.zz",
            "predicate t.id,=,1 targets a key column",
            "unknown column title.zz in predicate t.zz,<,2",
        ]
