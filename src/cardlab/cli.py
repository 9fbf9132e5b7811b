"""Command-line pipeline: synthesize, sample, generate, label, train,
evaluate, predict, tune.

Every stage takes explicit `--seed` flags and never consults the clock, so
reruns produce byte-identical outputs. Exit codes: 0 success, 1 usage
error, 2 data/validation error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import evalkit, executor, mscn, query, storage
from .errors import CardlabError, UsageError, ValidationError
from .featurizer import SAMPLE_MODES, build_catalog, featurize_labeled

logger = logging.getLogger(__name__)

_LOSS_FLAGS = {"qerr": "mean_qerror", "mse": "mse", "gqerr": "geometric_qerror"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cardlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-db", help="generate the synthetic star-schema database")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="key/value config file (rows.<table>, rho, seed)")
    for table in storage.DEFAULT_ROWS:
        p.add_argument(f"--rows.{table}", type=int, dest=f"rows_{table}")
    p.add_argument("--rho", type=float, default=None, help="correlation strength in [0,1]")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth_db)

    p = sub.add_parser("sample", help="draw materialized samples for every table")
    p.add_argument("--db", required=True)
    p.add_argument("--size", type=int, default=storage.DEFAULT_SAMPLE_SIZE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("gen-workload", help="generate a unique random workload")
    p.add_argument("--db", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-joins", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_workload)

    p = sub.add_parser("label", help="annotate a workload with true cardinalities")
    p.add_argument("--db", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True, help="labeled corpus (bitmaps in OUT.bitmaps)")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="train an estimation model on a labeled corpus")
    p.add_argument("--corpus", required=True, help="labeled corpus (reads CORPUS.bitmaps)")
    p.add_argument("--db", required=True)
    p.add_argument("--mode", choices=SAMPLE_MODES, default="bitmap")
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--loss", choices=sorted(_LOSS_FLAGS), default="qerr")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--val-frac", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.add_argument("--history", help="optional per-epoch history CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model or baseline on a labeled workload")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model")
    group.add_argument("--baseline", choices=("rs", "ibjs"))
    p.add_argument("--workload", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--zero-tuple-only", action="store_true")
    p.add_argument("--report", required=True, help="CSV report (JSON mirror at REPORT.json)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="estimate one query's cardinality")
    p.add_argument("--model", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--samples")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("tune", help="grid-search hyperparameters")
    p.add_argument("--grid", required=True, help="JSON with epochs/batch_size/d lists")
    p.add_argument("--corpus", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--mode", choices=SAMPLE_MODES, default="bitmap")
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--loss", choices=sorted(_LOSS_FLAGS), default="qerr")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--val-frac", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tune)

    return parser


def cmd_synth_db(args) -> int:
    if args.config:
        config, file_seed = storage.load_synth_config(args.config)
    else:
        config, file_seed = storage.SynthConfig(), None
    for table in storage.DEFAULT_ROWS:
        value = getattr(args, f"rows_{table}")
        if value is not None:
            config.rows[table] = value
    if args.rho is not None:
        config.rho = args.rho
    config = storage.SynthConfig(rows=config.rows, rho=config.rho)
    seed = args.seed if args.seed is not None else (file_seed or 0)
    db = storage.generate_synthetic_db(config, seed=seed)
    storage.save_database(db, args.out)
    total = sum(t.row_count for t in db.tables.values())
    print(f"wrote {len(db.tables)} tables ({total} rows) to {args.out}")
    return 0


def cmd_sample(args) -> int:
    db = storage.load_database(args.db)
    samples = storage.draw_all_samples(db, args.size, args.seed)
    storage.save_samples(samples, args.out)
    print(f"wrote samples of size {args.size} for {len(samples)} tables to {args.out}")
    return 0


def cmd_gen_workload(args) -> int:
    db = storage.load_database(args.db)
    workload = query.generate_workload(db, args.n, args.max_joins, args.seed)
    query.write_workload(args.out, workload)
    print(f"wrote {len(workload)} unique queries to {args.out}")
    return 0


def _read_valid_workload(path, db, *, labeled: bool):
    """The (spec, label) pairs of a workload file, each query validated
    against `db` (`read_workload` has run its structural checks). With
    `labeled`, each must carry a cardinality of at least 1, where q-error
    is defined. Errors name the file and line."""
    out = []
    for lineno, spec, label in query.read_workload(path):
        errors = query.database_errors(spec, db)
        if labeled and label is None:
            errors.append("missing cardinality")
        elif labeled and label < 1:
            errors.append(f"cardinality {label} is below 1, where q-error is undefined")
        if errors:
            raise ValidationError(f"{path}:{lineno}: {'; '.join(errors)}")
        out.append((spec, label))
    return out


def cmd_label(args) -> int:
    db = storage.load_database(args.db)
    samples = storage.load_samples(args.samples, db)
    specs = [spec for spec, _ in _read_valid_workload(args.workload, db, labeled=False)]
    labeled, dropped = executor.label_workload(db, specs, samples)
    size = next(iter(samples.values())).size
    executor.write_labeled_corpus(
        labeled, args.out, f"{args.out}.bitmaps", sample_size=size
    )
    print(f"labeled {len(labeled)} queries, dropped {dropped} with empty results")
    return 0


def _load_training_batches(args):
    """Shared by train/tune: corpus -> (train batch, val batch, catalog)."""
    if not 0 < args.val_frac < 1:
        raise ValidationError(f"validation fraction {args.val_frac} must lie in (0, 1)")
    db = storage.load_database(args.db)
    corpus, size = executor.read_labeled_corpus(args.corpus, f"{args.corpus}.bitmaps")
    if not corpus:
        raise ValidationError(f"{args.corpus}: empty corpus")
    catalog = build_catalog(db, [q.true_cardinality for q in corpus], size, args.mode)
    full = featurize_labeled(corpus, catalog)
    rng = np.random.default_rng([args.seed, 2])
    perm = rng.permutation(len(corpus))
    n_val = max(1, round(len(corpus) * args.val_frac))
    if n_val >= len(corpus):
        raise ValidationError("validation fraction leaves no training data")
    return full.slice(perm[n_val:]), full.slice(perm[:n_val]), catalog


def cmd_train(args) -> int:
    train_batch, val_batch, catalog = _load_training_batches(args)
    hp = mscn.Hyperparams(
        d=args.d,
        epochs=args.epochs,
        batch_size=args.batch,
        lr=args.lr,
        loss_kind=_LOSS_FLAGS[args.loss],
        seed=args.seed,
    )
    model, history = mscn.train(train_batch, val_batch, catalog, hp)
    mscn.save_model(model, args.out)
    if args.history:
        lines = ["epoch,train_loss,val_mean_qerror"]
        lines += [
            f"{h['epoch']},{h['train_loss']!r},{h['val_mean_qerror']!r}"
            for h in history
        ]
        Path(args.history).write_text("\n".join(lines) + "\n", encoding="utf-8")
    final = history[-1]
    print(
        f"trained {args.epochs} epochs on {len(train_batch)} queries;"
        f" final validation mean q-error {final['val_mean_qerror']:.3f};"
        f" model written to {args.out}"
    )
    return 0


def cmd_eval(args) -> int:
    db = storage.load_database(args.db)
    samples = storage.load_samples(args.samples, db)
    workload = [
        query.LabeledQuery(spec, label, executor.query_bitmaps(spec, samples))
        for spec, label in _read_valid_workload(args.workload, db, labeled=True)
    ]
    if args.model:
        estimator = mscn.load_model(args.model)
        if estimator.catalog.sample_mode != "none":
            size = next(iter(samples.values())).size
            if size != estimator.catalog.sample_size:
                raise ValidationError(
                    f"sample size {size} != model's {estimator.catalog.sample_size}"
                )
    else:
        estimator = args.baseline
    rows = evalkit.run_eval(
        estimator, workload, db, samples, zero_tuple_only=args.zero_tuple_only
    )
    evalkit.write_report_csv(rows, args.report)
    evalkit.write_report_json(rows, f"{args.report}.json")
    overall = rows[-1]
    if overall["n"]:
        print(
            f"{overall['estimator']}: n={overall['n']}"
            f" median={overall['median']:.3g} p95={overall['p95']:.3g}"
            f" max={overall['max']:.3g} mean={overall['mean']:.3g}"
        )
    else:
        print(f"{overall['estimator']}: empty workload subset")
    return 0


def cmd_predict(args) -> int:
    db = storage.load_database(args.db)
    model = mscn.load_model(args.model)
    samples = None
    if args.samples:
        samples = storage.load_samples(args.samples, db)
    spec, _ = query.parse_query(args.query)
    estimate = mscn.predict(model, spec, db, samples)
    print(f"{estimate!r}")
    return 0


def cmd_tune(args) -> int:
    space = json.loads(Path(args.grid).read_text(encoding="utf-8"))
    train_batch, val_batch, catalog = _load_training_batches(args)
    rows = evalkit.grid_search(
        space,
        args.lr,
        train_batch,
        val_batch,
        catalog,
        repeats=args.repeats,
        seed=args.seed,
        loss_kind=_LOSS_FLAGS[args.loss],
    )
    evalkit.write_grid_csv(rows, args.out)
    best = rows[0]
    print(
        f"best configuration: epochs={best['epochs']} batch_size={best['batch_size']}"
        f" d={best['d']} (mean validation q-error {best['mean_val_qerror']:.3f})"
    )
    return 0


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (CardlabError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
