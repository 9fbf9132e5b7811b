"""q-error metrics, percentile reports, per-join-count evaluation, and the
hyperparameter grid search.

Percentiles use linear interpolation between order statistics (numpy's
default, a.k.a. type 7), fixed and documented so report tables are
reproducible. Report rows carry `estimator,join_count,n,median,p25,p75,
p90,p95,p99,max,mean`; the CSV and JSON emissions mirror each other.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
from pathlib import Path

import numpy as np

from .baselines import ibjs_estimate, rs_estimate
from .featurizer import EncodingCatalog, PackedCorpus
from .mscn import Hyperparams, MscnModel, predict_labeled, train
from .query import LabeledQuery
from .storage import Database, build_join_indexes, is_int

logger = logging.getLogger(__name__)

REPORT_FIELDS = (
    "estimator",
    "join_count",
    "n",
    "median",
    "p25",
    "p75",
    "p90",
    "p95",
    "p99",
    "max",
    "mean",
)

_PERCENTILES = {"median": 50, "p25": 25, "p75": 75, "p90": 90, "p95": 95, "p99": 99}


def qerror(estimate: float, truth: float) -> float:
    """max(estimate/truth, truth/estimate); >= 1, symmetric, 1 iff equal."""
    if estimate <= 0 or truth <= 0:
        raise ValueError(f"q-error needs positive inputs, got ({estimate}, {truth})")
    return max(estimate / truth, truth / estimate)


def report(errors) -> dict[str, float]:
    """Summary statistics of a nonempty q-error list."""
    arr = np.asarray(errors, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot report on an empty error list")
    out = {name: float(np.percentile(arr, q)) for name, q in _PERCENTILES.items()}
    out["max"] = float(arr.max())
    out["mean"] = float(arr.mean())
    return out


def is_zero_tuple(query: LabeledQuery) -> bool:
    """True when some base table that carries predicates has an all-zero
    sample bitmap (sampling-based extrapolation has nothing to work with)."""
    for alias in query.spec.aliases:
        if not query.spec.predicates_of(alias):
            continue
        bitmap = query.bitmaps.get(alias)
        if bitmap is not None and not bitmap.any():
            return True
    return False


def run_eval(
    estimator,
    workload: list[LabeledQuery],
    db: Database,
    samples,
    indexes=None,
    *,
    zero_tuple_only: bool = False,
    name: str | None = None,
) -> list[dict]:
    """Report rows grouped by join count plus an overall row.

    `estimator` is an MscnModel, the string "rs" or "ibjs", or a callable
    LabeledQuery -> float. The rows name it `name`, or else "mscn", the
    string itself, or "custom". With `zero_tuple_only` the workload is
    first restricted to queries whose predicated base tables all miss the
    sample; an empty subset yields a single overall row with n=0.
    """
    if not name:
        if isinstance(estimator, MscnModel):
            name = "mscn"
        else:
            name = estimator if isinstance(estimator, str) else "custom"
    if zero_tuple_only:
        workload = [q for q in workload if is_zero_tuple(q)]
    if not workload:
        return [{"estimator": name, "join_count": "overall", "n": 0}]
    if isinstance(estimator, MscnModel):
        estimates = predict_labeled(estimator, workload)
    elif estimator == "rs":
        estimates = np.array([rs_estimate(db, samples, q.spec) for q in workload])
    elif estimator == "ibjs":
        if indexes is None:
            indexes = build_join_indexes(db)
        estimates = np.array([ibjs_estimate(db, samples, indexes, q.spec) for q in workload])
    elif callable(estimator):
        estimates = np.array([estimator(q) for q in workload])
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    truths = np.array([q.true_cardinality for q in workload], dtype=np.float64)
    errors = np.maximum(estimates / truths, truths / estimates)
    join_counts = np.array([len(q.spec.joins) for q in workload])
    rows = []
    for jc in sorted(set(join_counts.tolist())):
        mask = join_counts == jc
        rows.append(
            {"estimator": name, "join_count": str(jc), "n": int(mask.sum())}
            | report(errors[mask])
        )
    rows.append(
        {"estimator": name, "join_count": "overall", "n": len(workload)}
        | report(errors)
    )
    return rows


def write_report_csv(rows: list[dict], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(REPORT_FIELDS)
        for row in rows:
            writer.writerow([_format_cell(row.get(field)) for field in REPORT_FIELDS])


def write_report_json(rows: list[dict], path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


_GRID_KEYS = ("epochs", "batch_size", "d")


def grid_search(
    space: dict,
    lr: float,
    train_batch: PackedCorpus,
    val_batch: PackedCorpus,
    catalog: EncodingCatalog,
    *,
    repeats: int = 3,
    seed: int = 0,
    loss_kind: str = "mean_qerror",
) -> list[dict]:
    """Train `repeats` models per (epochs, batch_size, d) configuration with
    derived seeds and rank configurations by mean final validation q-error.
    `space` maps each of the three names to a nonempty list of positive
    integers (booleans are not integers here) and names nothing else."""
    if not isinstance(space, dict):
        raise ValueError("grid space must be an object of epochs/batch_size/d lists")
    unknown = sorted(set(space) - set(_GRID_KEYS))
    if unknown:
        raise ValueError(f"grid space has unknown keys {unknown}")
    for key in _GRID_KEYS:
        values = space.get(key)
        if not (
            isinstance(values, list)
            and values
            and all(is_int(v) and v >= 1 for v in values)
        ):
            raise ValueError(f"grid space needs a nonempty {key!r} list of positive integers")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    configs = list(
        itertools.product(space["epochs"], space["batch_size"], space["d"])
    )
    results = []
    for ci, (epochs, batch_size, d) in enumerate(configs):
        seeds, errors = [], []
        for r in range(repeats):
            derived = seed * 1_000_003 + ci * 1_009 + r
            hp = Hyperparams(
                d=d,
                epochs=epochs,
                batch_size=batch_size,
                lr=lr,
                loss_kind=loss_kind,
                seed=derived,
            )
            _, history = train(train_batch, val_batch, catalog, hp)
            seeds.append(derived)
            errors.append(history[-1]["val_mean_qerror"])
            logger.info(
                "grid config %d/%d (epochs=%d batch=%d d=%d) repeat %d: val q-error %.3f",
                ci + 1,
                len(configs),
                epochs,
                batch_size,
                d,
                r + 1,
                errors[-1],
            )
        results.append(
            {
                "epochs": epochs,
                "batch_size": batch_size,
                "d": d,
                "seeds": seeds,
                "val_mean_qerrors": errors,
                "mean_val_qerror": float(np.mean(errors)),
            }
        )
    results.sort(key=lambda row: row["mean_val_qerror"])
    return results


def write_grid_csv(rows: list[dict], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(
            ["epochs", "batch_size", "d", "seeds", "val_mean_qerrors", "mean_val_qerror"]
        )
        for row in rows:
            writer.writerow(
                [
                    row["epochs"],
                    row["batch_size"],
                    row["d"],
                    " ".join(str(s) for s in row["seeds"]),
                    " ".join(repr(e) for e in row["val_mean_qerrors"]),
                    repr(row["mean_val_qerror"]),
                ]
            )
