import hashlib
import json
import struct
import time

import pytest
from helpers import read_report_csv

from cardlab.cli import main
from cardlab.evalkit import REPORT_FIELDS
from cardlab.featurizer import SAMPLE_MODES


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Tiny end-to-end run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    db = root / "db"
    samples = root / "samples.json"
    workload = root / "workload.txt"
    corpus = root / "corpus.txt"
    model = root / "model.bin"
    history = root / "history.csv"

    assert main([
        "synth-db", "--out", str(db),
        "--rows.title", "250",
        "--rows.movie_companies", "400", "--rows.movie_info", "400",
        "--rows.movie_info_idx", "400", "--rows.movie_keyword", "400",
        "--rows.cast_info", "400",
        "--rho", "0.7", "--seed", "3",
    ]) == 0
    assert main(["sample", "--db", str(db), "--size", "25", "--seed", "1",
                 "--out", str(samples)]) == 0
    assert main(["gen-workload", "--db", str(db), "--n", "220", "--max-joins", "2",
                 "--seed", "5", "--out", str(workload)]) == 0
    assert main(["label", "--db", str(db), "--workload", str(workload),
                 "--samples", str(samples), "--out", str(corpus)]) == 0
    assert main([
        "train", "--corpus", str(corpus), "--db", str(db), "--mode", "bitmap",
        "--d", "8", "--epochs", "3", "--batch", "64", "--lr", "0.001",
        "--loss", "qerr", "--seed", "7", "--out", str(model),
        "--history", str(history),
    ]) == 0
    return root, db, samples, workload, corpus, model, history


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        root, db, samples, workload, corpus, model, history = pipeline
        assert (db / "schema.json").exists() and (db / "title.csv").exists()
        assert samples.exists() and workload.exists()
        assert corpus.exists() and (root / "corpus.txt.bitmaps").exists()
        assert model.exists()
        assert history.read_text().startswith("epoch,train_loss,val_mean_qerror")

    def test_eval_model_writes_report(self, pipeline):
        root, db, samples, _, corpus, model, _ = pipeline
        report = root / "report_mscn.csv"
        assert main(["eval", "--model", str(model), "--workload", str(corpus),
                     "--db", str(db), "--samples", str(samples),
                     "--report", str(report)]) == 0
        rows = read_report_csv(report)
        assert rows[-1]["join_count"] == "overall"
        assert (root / "report_mscn.csv.json").exists()

    def test_baseline_reports_share_schema(self, pipeline):
        root, db, samples, _, corpus, _, _ = pipeline
        paths = {}
        for baseline in ("rs", "ibjs"):
            out = root / f"report_{baseline}.csv"
            assert main(["eval", "--baseline", baseline, "--workload", str(corpus),
                         "--db", str(db), "--samples", str(samples),
                         "--report", str(out)]) == 0
            paths[baseline] = read_report_csv(out)
        assert [list(r) for r in paths["rs"]] == [list(r) for r in paths["ibjs"]]
        assert list(paths["rs"][0]) == list(REPORT_FIELDS)

    def test_zero_tuple_flag(self, pipeline):
        root, db, samples, _, corpus, _, _ = pipeline
        out = root / "report_zt.csv"
        assert main(["eval", "--baseline", "rs", "--workload", str(corpus),
                     "--db", str(db), "--samples", str(samples),
                     "--zero-tuple-only", "--report", str(out)]) == 0
        rows = read_report_csv(out)
        assert rows[-1]["join_count"] == "overall"

    def test_predict_positive_in_range(self, pipeline, capsys):
        root, db, samples, _, _, model, _ = pipeline
        assert main(["predict", "--model", str(model), "--query", "title t###",
                     "--db", str(db), "--samples", str(samples)]) == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed > 0

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        root, db, samples, workload, corpus, model, _ = pipeline
        model2 = tmp_path / "model2.bin"
        assert main([
            "train", "--corpus", str(corpus), "--db", str(db), "--mode", "bitmap",
            "--d", "8", "--epochs", "3", "--batch", "64", "--lr", "0.001",
            "--loss", "qerr", "--seed", "7", "--out", str(model2),
        ]) == 0
        assert model.read_bytes() == model2.read_bytes()
        workload2 = tmp_path / "w2.txt"
        assert main(["gen-workload", "--db", str(db), "--n", "220", "--max-joins", "2",
                     "--seed", "5", "--out", str(workload2)]) == 0
        assert workload.read_text() == workload2.read_text()

    def test_tune_grid(self, pipeline, tmp_path):
        root, db, _, _, corpus, _, _ = pipeline
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"epochs": [1], "batch_size": [64], "d": [4, 8]}))
        out = tmp_path / "tune.csv"
        assert main(["tune", "--grid", str(grid), "--corpus", str(corpus),
                     "--db", str(db), "--mode", "bitmap", "--repeats", "1",
                     "--seed", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + two ranked configurations


class TestErrorPaths:
    def test_unknown_flag_is_usage_error(self):
        assert main(["gen-workload", "--nope", "1"]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("command", [
        ["label", "--workload", "w.txt", "--out", "o.txt"],
        ["eval", "--baseline", "rs", "--workload", "w.txt", "--report", "r.csv"],
    ], ids=["label", "eval"])
    def test_threads_flag_is_gone(self, command):
        # Labeling and evaluation run on one thread; the flag is unknown.
        argv = command + ["--db", "db", "--samples", "s.json", "--threads", "2"]
        assert main(argv) == 1

    def test_unmeetable_workload_stops_early(self, tmp_path, capsys):
        # Two rows per table allow a few hundred distinct 0-join queries.
        # The generator stops after RETRY_FACTOR duplicates in a row instead
        # of drawing until it has 100000.
        db = tmp_path / "db"
        rows = [f"--rows.{t}=2" for t in ("title", "movie_companies", "movie_info",
                                          "movie_info_idx", "movie_keyword", "cast_info")]
        assert main(["synth-db", "--out", str(db), *rows, "--seed", "3"]) == 0
        start = time.monotonic()
        assert main(["gen-workload", "--db", str(db), "--n", "100000", "--max-joins", "0",
                     "--seed", "5", "--out", str(tmp_path / "w.txt")]) == 2
        assert time.monotonic() - start < 10
        assert "duplicates" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["sample", "--db", str(tmp_path / "absent"), "--size", "5",
                     "--seed", "0", "--out", str(tmp_path / "s.json")]) == 2

    def test_oversized_sample_is_data_error(self, pipeline, tmp_path):
        _, db, *_ = pipeline
        assert main(["sample", "--db", str(db), "--size", "10000000",
                     "--seed", "0", "--out", str(tmp_path / "s.json")]) == 2

    def test_invalid_query_in_label_is_data_error(self, pipeline, tmp_path):
        _, db, samples, *_ = pipeline
        bad = tmp_path / "bad.txt"
        bad.write_text("title t##t.id,=,1#\n")
        assert main(["label", "--db", str(db), "--workload", str(bad),
                     "--samples", str(samples), "--out", str(tmp_path / "o.txt")]) == 2

    def test_train_without_sidecar_is_data_error(self, pipeline, tmp_path, capsys):
        # Every mode reads the sidecar, `none` too, for its sample size.
        _, db, *_ = pipeline
        corpus = tmp_path / "c.txt"
        corpus.write_text("title t###5\n")
        for mode in SAMPLE_MODES:
            assert main(["train", "--corpus", str(corpus), "--db", str(db),
                         "--mode", mode, "--epochs", "1", "--out",
                         str(tmp_path / "m.bin")]) == 2, mode
            assert f"missing bitmap sidecar {corpus}.bitmaps" in capsys.readouterr().err

    def test_corrupt_model_is_data_error(self, pipeline, tmp_path):
        _, db, samples, _, corpus, model, _ = pipeline
        bad = tmp_path / "bad.bin"
        bad.write_bytes(model.read_bytes()[:-4])
        assert main(["eval", "--model", str(bad), "--workload", str(corpus),
                     "--db", str(db), "--samples", str(samples),
                     "--report", str(tmp_path / "r.csv")]) == 2


def _edit_json(src, dst, edit):
    doc = json.loads(src.read_text())
    edit(doc)
    dst.write_text(json.dumps(doc))


def _edit_model_header(src, dst, edit):
    """Copy a model file with its JSON header edited and its checksum redone.
    `edit` changes the header in place, or returns a list to write instead."""
    data = src.read_bytes()
    (header_len,) = struct.unpack("<I", data[4:8])
    header = json.loads(data[8 : 8 + header_len])
    replaced = edit(header)
    if isinstance(replaced, list):
        header = replaced
    header_bytes = json.dumps(header, sort_keys=True).encode()
    payload = (
        data[:4] + struct.pack("<I", len(header_bytes)) + header_bytes
        + data[8 + header_len : -32]
    )
    dst.write_bytes(payload + hashlib.sha256(payload).digest())


def _missing_table(doc):
    doc["tables"].pop("title")


def _mixed_sizes(doc):
    doc["tables"]["title"].update(size=10, row_indices=list(range(10)))


class TestHostileInputs:
    """Malformed input files fail with exit code 2, never a traceback."""

    @pytest.mark.parametrize(
        "schema",
        [
            {"format_version": 1},
            {"format_version": 1, "tables": [{"name": "t"}]},
            {"format_version": 1, "tables": [{"columns": []}]},
            {"format_version": 1, "tables": [{"name": "t", "columns": [{"kind": "pk"}]}]},
            {"format_version": 1, "tables": [{"name": "t", "columns": [{"name": "id"}]}]},
            {"format_version": 1, "tables": 5},
            {"format_version": 1, "tables": [{"name": "t", "columns": 3}]},
        ],
        ids=["no_tables", "no_columns", "no_table_name", "no_column_name", "no_kind",
             "tables_not_list", "columns_not_list"],
    )
    def test_schema_missing_key(self, tmp_path, schema):
        db = tmp_path / "db"
        db.mkdir()
        (db / "schema.json").write_text(json.dumps(schema))
        (db / "t.csv").write_text("id\n1\n")
        assert main(["sample", "--db", str(db), "--size", "1", "--seed", "0",
                     "--out", str(tmp_path / "s.json")]) == 2

    @pytest.mark.parametrize(
        "table, columns, csv",
        [
            (7, ["id"], "db/7.csv"),
            ("", ["id"], "db/.csv"),
            ("../x", ["id"], "x.csv"),
            ("sub/t", ["id"], "db/sub/t.csv"),
            ("..", ["id"], "db/...csv"),
            ("t", ["id", 7], "db/t.csv"),
            ("t", ["id", ""], "db/t.csv"),
        ],
        ids=["int_table", "empty_table", "parent_dir_table", "subdir_table",
             "dotdot_table", "int_column", "empty_column"],
    )
    def test_schema_bad_name(self, tmp_path, table, columns, csv):
        # The file each name would be read from exists, so only the
        # name check stands between it and a traceback or a read
        # outside the database directory.
        db = tmp_path / "db"
        db.mkdir()
        schema = {"format_version": 1, "tables": [{"name": table, "columns": [
            {"name": c, "kind": "pk" if i == 0 else "attr"} for i, c in enumerate(columns)
        ]}]}
        (db / "schema.json").write_text(json.dumps(schema))
        (tmp_path / csv).parent.mkdir(exist_ok=True)
        header = ",".join(map(str, columns))
        (tmp_path / csv).write_text(f"{header}\n{','.join(['1'] * len(columns))}\n")
        assert main(["sample", "--db", str(db), "--size", "1", "--seed", "0",
                     "--out", str(tmp_path / "s.json")]) == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["tables"]["title"].update(size=3, row_indices=[5, 5]),
            lambda d: d["tables"]["title"].update(size=3, row_indices=[5, 6, 6]),
            lambda d: d["tables"]["title"].update(size=3),
            lambda d: d.pop("tables"),
            lambda d: d["tables"]["title"].pop("row_indices"),
            lambda d: d["tables"]["title"].pop("size"),
            lambda d: d["tables"]["title"].pop("seed"),
            lambda d: d["tables"]["title"].update(size=5, row_indices=[0.5, 1.7, 2.2, 3.9, 4.1]),
            lambda d: d["tables"]["title"].update(size=5, row_indices=[True, False, 2, 3, 4]),
            lambda d: d["tables"]["title"].update(size=5, row_indices=["0", "1", "2", "3", "4"]),
            lambda d: d["tables"]["title"].update(size=5, row_indices=[0, 1, 2, 3, 2**70]),
            lambda d: d["tables"]["title"].update(size=5.0, row_indices=[0, 1, 2, 3, 4]),
            lambda d: d["tables"]["title"].update(size=True, row_indices=[0]),
            lambda d: d["tables"]["title"].update(size="5", row_indices=[0, 1, 2, 3, 4]),
            lambda d: d["tables"]["title"].update(seed=1.5),
            lambda d: d["tables"]["title"].update(seed=True),
            lambda d: d["tables"]["title"].update(seed="1"),
            _missing_table,
            _mixed_sizes,
            lambda d: [t.update(size=0, row_indices=[]) for t in d["tables"].values()],
        ],
        ids=["duplicate_and_size", "duplicate", "size_mismatch", "no_tables",
             "no_row_indices", "no_size", "no_seed", "float_indices", "bool_indices",
             "string_indices", "index_beyond_int64", "float_size", "bool_size",
             "string_size", "float_seed", "bool_seed", "string_seed",
             "missing_table", "mixed_sizes", "empty_samples"],
    )
    def test_bad_samples(self, pipeline, tmp_path, edit):
        _, db, samples, _, corpus, *_ = pipeline
        bad = tmp_path / "samples.json"
        _edit_json(samples, bad, edit)
        assert main(["eval", "--baseline", "rs", "--workload", str(corpus),
                     "--db", str(db), "--samples", str(bad),
                     "--report", str(tmp_path / "r.csv")]) == 2

    @pytest.mark.parametrize(
        "edit, message",
        [(_missing_table, "no sample of table(s) ['title']"),
         (_mixed_sizes, "samples differ in size")],
        ids=["missing_table", "mixed_sizes"],
    )
    def test_label_rejects_bad_samples(self, pipeline, tmp_path, capsys, edit, message):
        # A missing table used to end `label` in a KeyError traceback, and
        # mixed sizes in a sidecar headed by the first table's size.
        _, db, samples, workload, *_ = pipeline
        bad = tmp_path / "samples.json"
        _edit_json(samples, bad, edit)
        out = tmp_path / "c.txt"
        assert main(["label", "--db", str(db), "--workload", str(workload),
                     "--samples", str(bad), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_corpus_line(self, pipeline, tmp_path, capsys):
        _, db, *_ = pipeline
        corpus = tmp_path / "c.txt"
        corpus.write_text("title t###5\ntitle t#t.id=t.id##5\n")
        assert main(["train", "--corpus", str(corpus), "--db", str(db), "--mode", "none",
                     "--epochs", "1", "--out", str(tmp_path / "m.bin")]) == 2
        assert f"{corpus}:2: 1 joins over 1 tables is not a join tree" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "hexpart, message",
        [("zz", "malformed hex bitmap 'zz'"), ("ff", "bitmap holds 8 bits, expected 25"),
         ("ffffffffff", "bitmap holds 40 bits, expected 25"),
         ("ffffffff", "bitmap sets a pad bit, expected 25 bits")],
        ids=["not_hex", "short", "long", "pad_bits"],
    )
    def test_bad_sidecar_bitmap(self, pipeline, tmp_path, capsys, hexpart, message):
        _, db, _, _, corpus, *_ = pipeline
        bad = tmp_path / "c.txt"
        bad.write_bytes(corpus.read_bytes())
        lines = (corpus.parent / "corpus.txt.bitmaps").read_text().splitlines()
        alias, _, _ = lines[2].split(",")[0].partition(":")
        lines[2] = ",".join([f"{alias}:{hexpart}"] + lines[2].split(",")[1:])
        sidecar = tmp_path / "c.txt.bitmaps"
        sidecar.write_text("\n".join(lines) + "\n")
        assert main(["train", "--corpus", str(bad), "--db", str(db), "--mode", "bitmap",
                     "--epochs", "1", "--out", str(tmp_path / "m.bin")]) == 2
        assert f"{sidecar}:3: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", [2**63, 2**70, -(2**63) - 1])
    def test_csv_cell_beyond_int64(self, pipeline, tmp_path, capsys, cell):
        _, db, *_ = pipeline
        bad = tmp_path / "db"
        bad.mkdir()
        for f in db.iterdir():
            (bad / f.name).write_bytes(f.read_bytes())
        lines = (bad / "title.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = lines[5].split(",")
        row[header.index("production_year")] = str(cell)
        lines[5] = ",".join(row)
        (bad / "title.csv").write_text("\n".join(lines) + "\n")
        assert main(["sample", "--db", str(bad), "--size", "1", "--seed", "0",
                     "--out", str(tmp_path / "s.json")]) == 2
        assert "title.csv:6" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", ["rs", "ibjs", "model"])
    @pytest.mark.parametrize(
        "line, message",
        [
            ("nosuch n###5", "unknown table 'nosuch'"),
            ("title t##t.nosuch,=,3#5", "unknown column title.nosuch"),
            ("title t##t.id,=,3#5", "predicate t.id,=,3 targets a key column"),
            ("title t###", "missing cardinality"),
            ("title t###0", "cardinality 0 is below 1"),
        ],
        ids=["unknown_table", "unknown_column", "key_column", "no_label", "zero_label"],
    )
    def test_bad_eval_query(self, pipeline, tmp_path, capsys, estimator, line, message):
        # Evaluation validates every query against the database, as labeling
        # does, and fails on the bad line's number, not with a traceback or
        # an undefined q-error.
        _, db, samples, *_, model, _ = pipeline
        workload = tmp_path / "w.txt"
        workload.write_text(f"-- a comment, a good query, a blank\ntitle t###7\n\n{line}\n")
        flags = ["--model", str(model)] if estimator == "model" else ["--baseline", estimator]
        assert main(["eval", *flags, "--workload", str(workload),
                     "--db", str(db), "--samples", str(samples),
                     "--report", str(tmp_path / "r.csv")]) == 2
        assert f"{workload}:4: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([1], "must be an object"),
            ({"epochs": [1.5], "batch_size": [64], "d": [4]}, "'epochs' list of positive"),
            ({"epochs": "ab", "batch_size": [64], "d": [4]}, "'epochs' list of positive"),
            ({"epochs": [1], "batch_size": [64], "d": [True]}, "'d' list of positive"),
            ({"epochs": [1], "batch_size": [[64]], "d": [4]}, "'batch_size' list of positive"),
            ({"epochs": [1], "batch_size": [64], "d": [4], "lr": [0.1]}, "unknown keys ['lr']"),
        ],
        ids=["list", "float_epochs", "string_epochs", "bool_d", "nested_batch", "unknown_key"],
    )
    def test_bad_tune_grid(self, pipeline, tmp_path, capsys, grid, message):
        _, db, _, _, corpus, *_ = pipeline
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        assert main(["tune", "--grid", str(path), "--corpus", str(corpus), "--db", str(db),
                     "--repeats", "1", "--out", str(tmp_path / "t.csv")]) == 2
        assert message in capsys.readouterr().err

    def test_tune_zero_repeats(self, pipeline, tmp_path, capsys):
        # Zero repeats used to rank every configuration by the mean of no
        # runs, a nan.
        _, db, _, _, corpus, *_ = pipeline
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"epochs": [1], "batch_size": [64], "d": [4]}))
        assert main(["tune", "--grid", str(path), "--corpus", str(corpus), "--db", str(db),
                     "--repeats", "0", "--out", str(tmp_path / "t.csv")]) == 2
        assert "repeats must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "tune"])
    @pytest.mark.parametrize("frac", ["-1", "0"])
    def test_bad_val_frac(self, pipeline, tmp_path, capsys, command, frac):
        # A fraction outside (0, 1) used to train on a one-query
        # validation set without a word.
        _, db, _, _, corpus, *_ = pipeline
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"epochs": [1], "batch_size": [64], "d": [4]}))
        extra = ["--epochs", "1"] if command == "train" else ["--grid", str(path)]
        assert main([command, "--corpus", str(corpus), "--db", str(db), "--val-frac", frac,
                     *extra, "--out", str(tmp_path / "out")]) == 2
        assert f"validation fraction {float(frac)} must lie in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h["hyperparams"].update(dropout=0.5),
            lambda h: h["hyperparams"].pop("lr"),
            lambda h: h["hyperparams"].update(d=0),
            lambda h: h.pop("hyperparams"),
            lambda h: h["catalog"].pop("sample_mode"),
            lambda h: h["catalog"].update(sample_size="25"),
            lambda h: h["catalog"].update(label_log_min="0"),
            lambda h: h["catalog"]["column_bounds"].update({"title.kind_id": [1]}),
            lambda h: h["catalog"].update(
                join_index={k: str(v) for k, v in h["catalog"]["join_index"].items()}
            ),
            lambda h: [h],
            lambda h: h.update(params=5),
            lambda h: h["params"][0].update(shape="ab"),
            lambda h: h["hyperparams"].update(d="8"),
            lambda h: h["catalog"].update(op_index={"=": 2, "<": 0, ">": 1}),
            lambda h: h["catalog"].pop("op_index"),
            lambda h: h["catalog"]["column_bounds"].update(
                {"title.production_year": [2020, 1880]}
            ),
        ],
        ids=["unknown_key", "missing_key", "bad_value", "no_hyperparams",
             "catalog_missing_key", "string_sample_size", "string_label_log_min",
             "short_column_bounds", "string_join_index", "header_list", "params_int",
             "string_shape", "string_d", "permuted_op_index", "missing_op_index",
             "swapped_column_bounds"],
    )
    def test_bad_model_header(self, pipeline, tmp_path, capsys, edit):
        # The eight edits from string_sample_size to string_d once escaped
        # `eval` and `predict` as tracebacks; the two op_index edits loaded,
        # and the model was scored with the package's operator order; with
        # swapped bounds every literal of the column was scored as 0.5.
        _, db, samples, _, corpus, model, _ = pipeline
        bad = tmp_path / "model.bin"
        _edit_model_header(model, bad, edit)
        query = corpus.read_text().splitlines()[0].rpartition("#")[0] + "#"
        for command in (
            ["eval", "--workload", str(corpus), "--report", str(tmp_path / "r.csv")],
            ["predict", "--query", query],
        ):
            assert main([*command, "--model", str(bad), "--db", str(db),
                         "--samples", str(samples)]) == 2
            err = capsys.readouterr().err
            assert any(line.startswith("error: ") for line in err.splitlines())
