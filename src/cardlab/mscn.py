"""Multi-set convolutional network for cardinality estimation.

Three per-element two-layer modules (tables, joins, predicates) are
averaged over their sets with masking, concatenated, and fed through a
sigmoid-terminated output module, so predictions live in (0, 1) and map
back to cardinalities through the invertible label normalization.

Training minimizes, in normalized log space, one of: mean q-error
exp(k|y - t|) (algebraically the factor max(est/truth, truth/est), since
the normalization is affine in ln c), plain MSE, or the log of the
geometric mean q-error k|y - t|. Optimization is mini-batch Adam, fully
deterministic per seed; the last-epoch model is kept.
"""

from __future__ import annotations

import hashlib
import json
import logging
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ModelFormatError, ValidationError
from .executor import query_bitmaps
from .featurizer import (
    EncodingCatalog,
    FeaturizedBatch,
    batch as make_batch,
    denormalize_label,
    featurize,
)
from .neural import (
    AdamState,
    Dense2,
    adam_step,
    init_params,
    masked_mean_pool,
    masked_mean_pool_backward,
    mlp2_backward,
    mlp2_forward,
)
from .query import LabeledQuery, QuerySpec, validate

logger = logging.getLogger(__name__)

LOSS_KINDS = ("mean_qerror", "mse", "geometric_qerror")

MODEL_MAGIC = b"CLM1"
MODEL_FORMAT_VERSION = 1

_SET_NAMES = ("tables", "joins", "preds")
_FIELDS = ("w1", "b1", "w2", "b2")


@dataclass
class Hyperparams:
    """Desk-scale defaults; `paper_scale` gives the full-size configuration."""

    d: int = 64
    epochs: int = 100
    batch_size: int = 256
    lr: float = 0.001
    loss_kind: str = "mean_qerror"
    seed: int = 0

    def __post_init__(self):
        if min(self.d, self.epochs, self.batch_size) < 1 or self.lr <= 0:
            raise ValueError("hyperparameters must be positive")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")

    @classmethod
    def paper_scale(cls, **overrides) -> "Hyperparams":
        base = dict(d=256, epochs=100, batch_size=1024, lr=0.001)
        base.update(overrides)
        return cls(**base)


@dataclass
class MscnModel:
    tables_mlp: Dense2
    joins_mlp: Dense2
    preds_mlp: Dense2
    out_mlp: Dense2
    catalog: EncodingCatalog
    hyperparams: Hyperparams

    def __post_init__(self):
        widths = {
            "tables": (self.tables_mlp.in_dim, self.catalog.table_width),
            "joins": (self.joins_mlp.in_dim, self.catalog.join_width),
            "preds": (self.preds_mlp.in_dim, self.catalog.pred_width),
            "out": (self.out_mlp.in_dim, 3 * self.hyperparams.d),
        }
        for name, (got, want) in widths.items():
            if got != want:
                raise ValueError(f"{name} module width {got} != expected {want}")
        if self.out_mlp.out_dim != 1:
            raise ValueError("output module must produce a scalar")

    def modules(self) -> dict[str, Dense2]:
        return {
            "tables": self.tables_mlp,
            "joins": self.joins_mlp,
            "preds": self.preds_mlp,
            "out": self.out_mlp,
        }


def param_dict(model: MscnModel) -> dict[str, np.ndarray]:
    """Flat name -> array view of all parameters, in serialization order."""
    return {
        f"{name}.{field}": getattr(module, field)
        for name, module in model.modules().items()
        for field in _FIELDS
    }


def init_model(catalog: EncodingCatalog, hp: Hyperparams) -> MscnModel:
    modules = init_params(
        [catalog.table_width, catalog.join_width, catalog.pred_width, 3 * hp.d],
        hp.d,
        seed=[hp.seed, 0],
        out_dims=[hp.d, hp.d, hp.d, 1],
    )
    return MscnModel(*modules, catalog=catalog, hyperparams=hp)


def forward(model: MscnModel, batch: FeaturizedBatch):
    """Predictions in (0, 1) plus the cache needed for backward."""
    caches = {}
    pooled = []
    sets = (
        ("tables", batch.table_feats, batch.table_mask, model.tables_mlp),
        ("joins", batch.join_feats, batch.join_mask, model.joins_mlp),
        ("preds", batch.pred_feats, batch.pred_mask, model.preds_mlp),
    )
    for name, feats, mask, module in sets:
        elems, cache = mlp2_forward(feats, module, final="relu")
        caches[name] = (cache, mask)
        pooled.append(masked_mean_pool(elems, mask))
    merged = np.concatenate(pooled, axis=-1)
    out, out_cache = mlp2_forward(merged, model.out_mlp, final="sigmoid")
    caches["out"] = out_cache
    return out[..., 0], caches


def backward(model: MscnModel, caches, d_y: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients given dL/dy."""
    grads: dict[str, np.ndarray] = {}
    d_merged, g_out = mlp2_backward(d_y[..., None], caches["out"], model.out_mlp)
    for field in _FIELDS:
        grads[f"out.{field}"] = getattr(g_out, field)
    d = model.hyperparams.d
    for i, name in enumerate(_SET_NAMES):
        cache, mask = caches[name]
        d_pooled = d_merged[..., i * d : (i + 1) * d]
        d_elems = masked_mean_pool_backward(d_pooled, mask)
        # The set modules' inputs are features, so no input gradient.
        _, g = mlp2_backward(d_elems, cache, model.modules()[name], input_grad=False)
        for field in _FIELDS:
            grads[f"{name}.{field}"] = getattr(g, field)
    return grads


def loss_and_grad(y: np.ndarray, labels: np.ndarray, kind: str, k: float):
    """Scalar loss and dL/dy. `k` is the log-label range; at y == label the
    subgradient is zero."""
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(labels))):
        raise ValueError("non-finite values in loss input")
    delta = y - labels
    n = y.size
    if kind == "mean_qerror":
        e = np.exp(k * np.abs(delta))
        return float(e.mean()), (k / n) * np.sign(delta) * e
    if kind == "mse":
        return float((delta**2).mean()), (2.0 / n) * delta
    if kind == "geometric_qerror":
        return float(k * np.abs(delta).mean()), (k / n) * np.sign(delta)
    raise ValueError(f"unknown loss kind {kind!r}")


def predict_batch(
    model: MscnModel, batch: FeaturizedBatch, chunk: int = 4096
) -> np.ndarray:
    """Denormalized cardinality estimates for a featurized batch."""
    outputs = []
    for start in range(0, len(batch), chunk):
        idx = np.arange(start, min(start + chunk, len(batch)))
        y, _ = forward(model, batch.slice(idx))
        outputs.append(y)
    return denormalize_label(np.concatenate(outputs), model.catalog)


def validation_mean_qerror(model: MscnModel, batch: FeaturizedBatch) -> float:
    est = predict_batch(model, batch)
    if batch.cardinalities is not None:
        truth = batch.cardinalities
    else:
        truth = denormalize_label(batch.labels_norm, model.catalog)
    return float(np.maximum(est / truth, truth / est).mean())


def train(
    train_batch: FeaturizedBatch,
    val_batch: FeaturizedBatch,
    catalog: EncodingCatalog,
    hp: Hyperparams,
) -> tuple[MscnModel, list[dict]]:
    """Mini-batch shuffled Adam for hp.epochs; returns the last-epoch model
    and a per-epoch history of train loss and validation mean q-error."""
    if train_batch.labels_norm is None or val_batch.labels_norm is None:
        raise ValueError("training requires normalized labels")
    model = init_model(catalog, hp)
    params = param_dict(model)
    state = AdamState.init_like(params)
    shuffle_rng = np.random.default_rng([hp.seed, 1])
    k = catalog.label_log_range
    n = len(train_batch)
    history: list[dict] = []
    for epoch in range(1, hp.epochs + 1):
        perm = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, hp.batch_size):
            idx = perm[start : start + hp.batch_size]
            mb = train_batch.slice(idx)
            y, caches = forward(model, mb)
            loss, d_y = loss_and_grad(y, mb.labels_norm, hp.loss_kind, k)
            grads = backward(model, caches, d_y)
            adam_step(params, grads, state, hp.lr)
            epoch_loss += loss * idx.size
        val_q = validation_mean_qerror(model, val_batch)
        history.append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss / n,
                "val_mean_qerror": val_q,
            }
        )
        if epoch % 10 == 0 or epoch == 1:
            logger.info(
                "epoch %d/%d train_loss=%.4f val_mean_qerror=%.4f",
                epoch,
                hp.epochs,
                history[-1]["train_loss"],
                val_q,
            )
    return model, history


def predict(model: MscnModel, spec: QuerySpec, db, samples) -> float:
    """Featurize one query (evaluating its predicates on the materialized
    samples when the model uses sample features) and estimate it."""
    errors = validate(spec, db)
    if errors:
        raise ValidationError("; ".join(errors))
    bitmaps = {}
    if model.catalog.sample_mode != "none":
        if samples is None:
            raise ValidationError("model requires materialized samples")
        bitmaps = query_bitmaps(spec, samples)
    fq = featurize(LabeledQuery(spec, None, bitmaps), model.catalog)
    return float(predict_batch(model, make_batch([fq]))[0])


def predict_labeled(model: MscnModel, queries: list[LabeledQuery]) -> np.ndarray:
    """Estimates for already-labeled queries, reusing their bitmaps."""
    return predict_batch(
        model, make_batch([featurize(q, model.catalog) for q in queries])
    )


# ---------------------------------------------------------------------------
# Persistence: magic | header length | header JSON | little-endian float64
# parameter blob in manifest order | sha256 of everything before it.
# ---------------------------------------------------------------------------


def save_model(model: MscnModel, path: str | Path) -> None:
    params = param_dict(model)
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "hyperparams": asdict(model.hyperparams),
        "catalog": json.loads(model.catalog.to_json()),
        "params": [{"name": k, "shape": list(v.shape)} for k, v in params.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = b"".join(
        np.ascontiguousarray(v, dtype="<f8").tobytes() for v in params.values()
    )
    payload = MODEL_MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes + blob
    Path(path).write_bytes(payload + hashlib.sha256(payload).digest())


def load_model(path: str | Path) -> MscnModel:
    data = Path(path).read_bytes()
    if len(data) < 44 or data[:4] != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: not a model file")
    payload, digest = data[:-32], data[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise ModelFormatError(f"{path}: checksum mismatch (corrupt or truncated)")
    (header_len,) = struct.unpack("<I", payload[4:8])
    header = json.loads(payload[8 : 8 + header_len].decode("utf-8"))
    if header.get("format_version") != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: format_version {header.get('format_version')} unsupported"
        )
    missing = {"catalog", "hyperparams", "params"} - set(header)
    if missing:
        raise ModelFormatError(f"{path}: header lacks {sorted(missing)}")
    catalog = EncodingCatalog.from_json(json.dumps(header["catalog"]))
    raw_hp = header["hyperparams"]
    names = {f.name for f in fields(Hyperparams)}
    if not isinstance(raw_hp, dict) or set(raw_hp) != names:
        raise ModelFormatError(f"{path}: hyperparams must have exactly {sorted(names)}")
    try:
        hp = Hyperparams(**raw_hp)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    arrays: dict[str, np.ndarray] = {}
    offset = 8 + header_len
    for item in header["params"]:
        shape = tuple(item["shape"])
        count = int(np.prod(shape)) if shape else 1
        end = offset + 8 * count
        if end > len(payload):
            raise ModelFormatError(f"{path}: parameter blob shorter than manifest")
        arrays[item["name"]] = (
            np.frombuffer(payload[offset:end], dtype="<f8").reshape(shape).copy()
        )
        offset = end
    modules = {}
    for name in ("tables", "joins", "preds", "out"):
        try:
            modules[name] = Dense2(*(arrays[f"{name}.{f}"] for f in _FIELDS))
        except KeyError as missing:
            raise ModelFormatError(f"{path}: missing parameter {missing}") from None
    return MscnModel(
        modules["tables"],
        modules["joins"],
        modules["preds"],
        modules["out"],
        catalog=catalog,
        hyperparams=hp,
    )
