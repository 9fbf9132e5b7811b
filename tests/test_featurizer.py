import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cardlab.errors import ValidationError
from cardlab.executor import label_workload, query_bitmaps
from cardlab.featurizer import (
    SAMPLE_MODES,
    EncodingCatalog,
    FeaturizedQuery,
    batch,
    build_catalog,
    denormalize_label,
    featurize,
    featurize_labeled,
    normalize_label,
)
from cardlab.query import LabeledQuery, generate_workload, parse_query
from cardlab.storage import SynthConfig, draw_all_samples, generate_synthetic_db
from helpers import padded_batch

ROWS = {
    "title": 300,
    "movie_companies": 500,
    "movie_info": 500,
    "movie_info_idx": 500,
    "movie_keyword": 500,
    "cast_info": 500,
}
S = 40


@pytest.fixture(scope="module")
def db():
    return generate_synthetic_db(SynthConfig(rows=ROWS, rho=0.5), seed=51)


@pytest.fixture(scope="module")
def samples(db):
    return draw_all_samples(db, S, seed=7)


@pytest.fixture(scope="module")
def corpus(db, samples):
    workload = generate_workload(db, 200, 2, seed=52)
    labeled, _ = label_workload(db, workload, samples)
    return labeled


@pytest.fixture(scope="module")
def catalog(db, corpus):
    return build_catalog(db, [q.true_cardinality for q in corpus], S, "bitmap")


def _catalog_with_bounds(db, log_min, log_max, mode="none", size=S):
    cat = build_catalog(db, [1, 10], size, mode)
    cat.label_log_min = log_min
    cat.label_log_max = log_max
    return cat


class TestCatalog:
    def test_log_bounds_from_labels(self, db):
        cat = build_catalog(db, [1, round(math.exp(10))], S, "none")
        assert cat.label_log_min == pytest.approx(0.0)
        assert cat.label_log_max == pytest.approx(10.0, abs=1e-4)

    def test_dictionary_sizes(self, db, catalog):
        assert len(catalog.table_index) == 6
        assert len(catalog.join_index) == 5
        assert len(catalog.column_index) == 9

    def test_deterministic_rebuild(self, db, corpus):
        labels = [q.true_cardinality for q in corpus]
        assert build_catalog(db, labels, S, "bitmap") == build_catalog(
            db, labels, S, "bitmap"
        )

    def test_degenerate_labels_rejected(self, db):
        with pytest.raises(ValueError):
            build_catalog(db, [5, 5], S, "none")

    def test_bad_labels_rejected(self, db):
        with pytest.raises(ValueError):
            build_catalog(db, [0, 10], S, "none")
        with pytest.raises(ValueError):
            build_catalog(db, [], S, "none")

    def test_json_round_trip(self, catalog):
        assert EncodingCatalog.from_json(catalog.to_json()) == catalog

    def test_widths(self, db):
        for mode, extra in (("none", 0), ("count", 1), ("bitmap", S)):
            cat = build_catalog(db, [1, 10], S, mode)
            assert cat.widths == (6 + extra, 5, 9 + 3 + 1)


class TestLabelNormalization:
    def test_endpoints(self, db, corpus):
        cat = build_catalog(db, [q.true_cardinality for q in corpus], S, "none")
        cards = [q.true_cardinality for q in corpus]
        assert normalize_label(min(cards), cat) == pytest.approx(0.0)
        assert normalize_label(max(cards), cat) == pytest.approx(1.0)

    def test_midpoint(self, db):
        cat = _catalog_with_bounds(db, 0.0, 10.0)
        assert normalize_label(math.exp(5), cat) == pytest.approx(0.5)

    def test_round_trip(self, db, catalog):
        rng = np.random.default_rng(8)
        lo = math.exp(catalog.label_log_min)
        hi = math.exp(catalog.label_log_max)
        cards = rng.uniform(lo, hi, size=100)
        for c in cards.tolist():
            back = denormalize_label(normalize_label(c, catalog), catalog)
            assert abs(back - c) / c <= 1e-9
        ys = np.array([normalize_label(c, catalog) for c in cards.tolist()])
        np.testing.assert_allclose(denormalize_label(ys, catalog), cards, rtol=1e-9)

    def test_clamp_counts_warnings(self, db):
        cat = _catalog_with_bounds(db, 0.0, 5.0)
        before = cat.clamp_warnings
        assert normalize_label(10**9, cat) == 1.0
        assert cat.clamp_warnings == before + 1

    def test_nonpositive_rejected(self, catalog):
        with pytest.raises(ValueError):
            normalize_label(0, catalog)


class TestFeaturize:
    def test_degenerate_single_table(self, db):
        cat = build_catalog(db, [1, 10], S, "none")
        spec, _ = parse_query("title t###")
        fq = featurize(LabeledQuery(spec, None, {}), cat)
        assert fq.table_elems.shape == (1, 6)
        assert fq.table_elems.sum() == 1.0
        np.testing.assert_array_equal(fq.join_elems, np.zeros((1, 5)))
        np.testing.assert_array_equal(fq.pred_elems, np.zeros((1, 13)))
        assert fq.label_norm is None

    def test_predicate_block_layout(self, db, samples):
        cat = build_catalog(db, [1, 10], S, "none")
        spec, _ = parse_query("title t##t.production_year,>,2010#")
        fq = featurize(LabeledQuery(spec, None, {}), cat)
        row = fq.pred_elems[0]
        col_block, op_block, literal = row[:9], row[9:12], row[-1]
        assert col_block[cat.column_index["title.production_year"]] == 1.0
        assert col_block.sum() == 1.0
        np.testing.assert_array_equal(op_block, [0.0, 0.0, 1.0])
        lo, hi = cat.column_bounds["title.production_year"]
        assert literal == pytest.approx((2010 - lo) / (hi - lo))

    def test_bitmap_mode_zero_tuple(self, db, catalog):
        spec, _ = parse_query("title t##t.production_year,=,9999#")
        bitmaps = {"t": np.zeros(S, dtype=bool)}
        fq = featurize(LabeledQuery(spec, None, bitmaps), catalog)
        onehot, sample_block = fq.table_elems[0, :6], fq.table_elems[0, 6:]
        assert onehot.sum() == 1.0
        assert not sample_block.any()

    def test_count_mode_scaling(self, db, corpus):
        cat = build_catalog(db, [q.true_cardinality for q in corpus], S, "count")
        q = corpus[0]
        fq = featurize(q, cat)
        for i, ref in enumerate(q.spec.tables):
            expected = q.bitmaps[ref.alias].sum() / S
            assert fq.table_elems[i, 6] == pytest.approx(expected)

    def test_missing_bitmap_rejected(self, db, catalog):
        spec, _ = parse_query("title t###")
        with pytest.raises(ValidationError):
            featurize(LabeledQuery(spec, None, {}), catalog)

    def test_catalog_drift_rejected(self, db):
        cat = build_catalog(db, [1, 10], S, "none")
        unknown_table, _ = parse_query("elsewhere e###")
        with pytest.raises(ValidationError):
            featurize(LabeledQuery(unknown_table, None, {}), cat)
        unknown_column, _ = parse_query("title t##t.zz,=,1#")
        with pytest.raises(ValidationError):
            featurize(LabeledQuery(unknown_column, None, {}), cat)

    @pytest.mark.parametrize("line, message", [
        ("elsewhere e###", "table 'elsewhere' not present in catalog"),
        ("title t,movie_companies mc#mc.company_id=t.id#", "join mc.company_id=t.id not present in catalog"),
        ("title t,movie_companies mc#t.id=mc.company_id#", "join t.id=mc.company_id not present in catalog"),
        ("title t##t.zz,=,1#", "column 'title.zz' not present in catalog"),
    ])
    def test_unknown_names_keep_their_messages(self, db, line, message):
        cat = build_catalog(db, [1, 10], S, "none")
        spec, _ = parse_query(line)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            featurize(LabeledQuery(spec, None, {}), cat)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            featurize_labeled([LabeledQuery(spec, 1, {})], cat)

    @settings(max_examples=200)
    @given(
        names=st.lists(st.text(".=ab", min_size=1, max_size=4), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_lookups_match_dotted_text(self, names, data):
        # The tuple-keyed lookups find what the dotted text finds in the
        # one-hot dictionaries, the written join orientation first, also
        # for names that hold `.` or `=`.
        pair = st.tuples(st.sampled_from(names), st.sampled_from(names))
        joins = data.draw(st.lists(st.tuples(pair, pair), max_size=6))
        columns = data.draw(st.lists(pair, max_size=6))
        join_index = {}
        for (lt, lc), (rt, rc) in joins:
            join_index.setdefault(f"{lt}.{lc}={rt}.{rc}", len(join_index))
        column_index = {}
        for t, c in columns:
            column_index.setdefault(f"{t}.{c}", len(column_index))
        cat = EncodingCatalog(
            table_index={}, join_index=join_index, column_index=column_index,
            column_bounds={k: (i, 2 * i) for k, i in column_index.items()},
            sample_size=0, sample_mode="none", label_log_min=0.0, label_log_max=1.0,
        )
        join_codes, column_codes = cat.lookups
        for lt, lc, rt, rc in itertools.product(names, repeat=4):
            want = join_index.get(f"{lt}.{lc}={rt}.{rc}")
            if want is None:
                want = join_index.get(f"{rt}.{rc}={lt}.{lc}")
            assert join_codes.get((lt, lc, rt, rc)) == want
        for t, c in itertools.product(names, repeat=2):
            code = column_index.get(f"{t}.{c}")
            want = None if code is None else (code, *cat.column_bounds[f"{t}.{c}"])
            assert column_codes.get((t, c)) == want

    def test_out_of_range_literal_clamped(self, db):
        cat = build_catalog(db, [1, 10], S, "none")
        spec, _ = parse_query("title t##t.production_year,>,99999#")
        fq = featurize(LabeledQuery(spec, None, {}), cat)
        assert fq.pred_elems[0, -1] == 1.0

    def test_injective_on_workload(self, db, corpus, catalog):
        seen = set()
        for q in corpus:
            fq = featurize(q, catalog)
            key = (
                fq.table_elems.tobytes(),
                fq.join_elems.tobytes(),
                fq.pred_elems.tobytes(),
            )
            assert key not in seen
            seen.add(key)


class TestBatch:
    def test_single_query_masks(self, db, corpus, catalog):
        fq = featurize(corpus[0], catalog)
        b = batch([fq])
        assert b.table_mask.sum() == fq.table_elems.shape[0]
        assert b.join_mask.all() and b.pred_mask.all()

    def test_padding_rule(self, db, catalog):
        one, _ = parse_query("title t##t.kind_id,=,1#")
        three, _ = parse_query(
            "title t##t.kind_id,=,1,t.kind_id,>,1,t.production_year,>,1990#"
        )
        ones = {"t": np.ones(S, dtype=bool)}
        b = batch(
            [
                featurize(LabeledQuery(one, None, ones), catalog),
                featurize(LabeledQuery(three, None, ones), catalog),
            ]
        )
        assert b.pred_feats.shape[1] == 3
        np.testing.assert_array_equal(b.pred_mask[0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(b.pred_mask[1], [1.0, 1.0, 1.0])
        assert not b.pred_feats[0, 1:].any()

    def test_mask_row_sums_at_least_one(self, corpus, catalog):
        b = featurize_labeled(corpus, catalog)
        for mask in (b.table_mask, b.join_mask, b.pred_mask):
            assert (mask.sum(axis=1) >= 1).all()

    def test_mixed_widths_rejected(self, db, corpus):
        cat_a = build_catalog(db, [1, 10], S, "bitmap")
        cat_b = build_catalog(db, [1, 10], S, "none")
        with pytest.raises(ValueError):
            batch([featurize(corpus[0], cat_a), featurize(corpus[1], cat_b)])

    def test_labels_and_cards_carried(self, corpus, catalog):
        for b in (
            featurize_labeled(corpus, catalog),
            batch([featurize(q, catalog) for q in corpus]),
        ):
            assert b.labels_norm is not None and b.cardinalities is not None
            assert len(b) == len(corpus)
            np.testing.assert_allclose(
                b.labels_norm[:5],
                [normalize_label(q.true_cardinality, catalog) for q in corpus[:5]],
            )
            np.testing.assert_array_equal(
                b.cardinalities, [q.true_cardinality for q in corpus]
            )
        unlabeled = [LabeledQuery(q.spec, None, q.bitmaps) for q in corpus[:3]]
        for b in (
            featurize_labeled(unlabeled, catalog),
            batch([featurize(q, catalog) for q in unlabeled]),
        ):
            assert b.labels_norm is None and b.cardinalities is None


_BATCH_ATTRS = (
    "table_feats", "table_mask", "join_feats", "join_mask",
    "pred_feats", "pred_mask", "labels_norm", "cardinalities",
)


def _selected(padded, idx):
    """The `padded_batch` attributes of the queries `idx`."""
    return {k: None if v is None else v[idx] for k, v in padded.items()}


def _assert_same_bytes(got, padded):
    for attr in _BATCH_ATTRS:
        have, want = getattr(got, attr), padded[attr]
        if want is None:
            assert have is None, attr
            continue
        assert have.shape == want.shape and have.dtype == want.dtype, attr
        assert have.tobytes() == want.tobytes(), attr


#: Entries of a column that holds 0 and 1 only, as values: -0.0 is 0 but
#: not its bytes, so a packer that held such a column as bits would fail.
_ZERO_ONE = st.sampled_from([0.0, -0.0, 1.0])


@st.composite
def _ragged_queries(draw):
    """1-5 featurized queries of 1-4 element rows per set, each column
    either 0/1 entries (`_ZERO_ONE`) or arbitrary float64, NaN and inf
    included; all labeled or none."""
    kinds = [draw(st.lists(st.booleans(), min_size=1, max_size=5)) for _ in range(3)]
    labeled = draw(st.booleans())
    fqs = []
    for _ in range(draw(st.integers(1, 5))):
        elems = []
        for zero_one in kinds:
            n = draw(st.integers(1, 4))
            elems.append(np.stack([
                draw(arrays(np.float64, n, elements=_ZERO_ONE if z else st.floats()))
                for z in zero_one
            ], axis=1))
        label = (draw(st.floats(0, 1)), draw(st.integers(1, 10**9))) if labeled else ()
        fqs.append(FeaturizedQuery(*elems, *label))
    return fqs


class TestPaddedReference:
    """`batch` and `featurize_labeled` against the zero-padding loop of
    `helpers.padded_batch`, and their selections against its slices."""

    @pytest.mark.parametrize("mode", SAMPLE_MODES)
    def test_whole_batches_and_selections(self, db, corpus, mode):
        cat = build_catalog(db, [q.true_cardinality for q in corpus], S, mode)
        fqs = [featurize(q, cat) for q in corpus]
        for kind in ("table", "join", "pred"):
            assert len({getattr(fq, f"{kind}_elems").shape[0] for fq in fqs}) > 1, kind
        padded = padded_batch(fqs)
        perm = np.random.default_rng(5).permutation(len(corpus))
        selections = (perm[:37], np.array([3, 3, 0]), slice(10, 60), slice(5, None, 7))
        for got in (batch(fqs), featurize_labeled(corpus, cat)):
            _assert_same_bytes(got, padded)
            for idx in selections:
                _assert_same_bytes(got.slice(idx), _selected(padded, idx))

    @pytest.mark.parametrize("mode", SAMPLE_MODES)
    def test_one_query_batches(self, db, corpus, mode):
        cat = build_catalog(db, [q.true_cardinality for q in corpus], S, mode)
        unlabeled = [LabeledQuery(q.spec, None, q.bitmaps) for q in corpus[:12]]
        for q in corpus[:12] + unlabeled:
            fq = featurize(q, cat)
            padded = padded_batch([fq])
            for got in (batch([fq]), featurize_labeled([q], cat)):
                _assert_same_bytes(got, padded)
                for idx in (np.array([0]), slice(0, 1)):
                    _assert_same_bytes(got.slice(idx), _selected(padded, idx))

    @given(_ragged_queries(), st.data())
    @settings(max_examples=60)
    def test_ragged_float_batches(self, fqs, data):
        # `batch` holds every column as float64 values, so any entries,
        # -0.0 and NaN payloads included, unpack to their own bytes.
        padded = padded_batch(fqs)
        got = batch(fqs)
        _assert_same_bytes(got, padded)
        n = len(fqs)
        ids = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=6)), dtype=int)
        step = slice(data.draw(st.integers(0, n)), None, data.draw(st.integers(1, 3)))
        for idx in (ids, step):
            _assert_same_bytes(got.slice(idx), _selected(padded, idx))


class TestPackedCorpus:
    """`featurize_labeled` holds the corpus as indices and packed bits; each
    selection unpacks to the bytes of the padded corpus sliced the same way."""

    @pytest.fixture(scope="class")
    def packed_and_padded(self, db, corpus):
        cards = [q.true_cardinality for q in corpus]
        out = {}
        for mode in SAMPLE_MODES:
            cat = build_catalog(db, cards, S, mode)
            out[mode] = (
                featurize_labeled(corpus, cat),
                padded_batch([featurize(q, cat) for q in corpus]),
            )
        return out

    @pytest.mark.parametrize("mode", SAMPLE_MODES)
    def test_selections_unpack_to_padded_bytes(self, packed_and_padded, mode):
        packed, padded = packed_and_padded[mode]
        n = len(packed)
        perm = np.random.default_rng(9).permutation(n)
        for idx in (np.arange(n), perm[:37], slice(10, 60), np.arange(0), slice(4, 4)):
            _assert_same_bytes(packed.slice(idx), _selected(padded, idx))
        # A slice of a slice selects from the first selection.
        _assert_same_bytes(
            packed.slice(perm).slice(slice(5, 20)), _selected(padded, perm[5:20])
        )

    @pytest.mark.parametrize("mode", SAMPLE_MODES)
    def test_minibatch_pads_to_corpus_longest_set(self, packed_and_padded, mode):
        packed, padded = packed_and_padded[mode]
        short = np.flatnonzero(padded["pred_mask"].sum(axis=1) == 1)[:8]
        assert short.size and padded["pred_feats"].shape[1] > 1
        mb = packed.slice(short)
        assert mb.pred_feats.shape[1] == padded["pred_feats"].shape[1]
        assert not mb.pred_mask[:, 1:].any()
        _assert_same_bytes(mb, _selected(padded, short))

    @pytest.mark.parametrize("mode", SAMPLE_MODES)
    def test_zero_join_and_zero_predicate_queries(self, db, samples, mode):
        texts = (
            "title t###",
            "title t##t.production_year,>,2000#",
            "title t,movie_companies mc#mc.movie_id=t.id##",
            "title t,movie_companies mc#mc.movie_id=t.id#t.kind_id,=,1,mc.company_type_id,<,2#",
        )
        queries = []
        for i, text in enumerate(texts):
            spec, _ = parse_query(text)
            queries.append(LabeledQuery(spec, 5 + i, query_bitmaps(spec, samples)))
        cat = build_catalog(db, [5, 8], S, mode)
        packed = featurize_labeled(queries, cat)
        padded = padded_batch([featurize(q, cat) for q in queries])
        # Empty sets hold one all-zero placeholder element.
        assert padded["join_mask"][0].tolist() == [1.0] and not padded["join_feats"][0].any()
        assert padded["pred_mask"][0].tolist() == [1.0, 0.0] and not padded["pred_feats"][0].any()
        _assert_same_bytes(packed.slice(np.arange(len(queries))), padded)
        repeat = np.array([0, 0, 2])
        _assert_same_bytes(packed.slice(repeat), _selected(padded, repeat))

    def test_slice_and_len_do_not_unpack(self, packed_and_padded):
        packed, _ = packed_and_padded["bitmap"]
        mb = packed.slice(np.arange(5))
        assert len(mb) == 5
        assert not {"_tables", "_joins", "_preds"} & vars(mb).keys()
        assert mb.table_feats is mb.table_feats  # kept after the first read

    def test_held_bytes_a_tenth_of_padded(self, packed_and_padded):
        packed, padded = packed_and_padded["bitmap"]
        padded_bytes = sum(padded[attr].nbytes for attr in _BATCH_ATTRS)
        assert packed.nbytes <= padded_bytes / 10

    def test_errors_match_featurize(self, db, catalog):
        spec, _ = parse_query("title t###")
        with pytest.raises(ValidationError, match="missing sample bitmap"):
            featurize_labeled([LabeledQuery(spec, 3, {})], catalog)
        with pytest.raises(ValueError, match="zero queries"):
            featurize_labeled([], catalog)
