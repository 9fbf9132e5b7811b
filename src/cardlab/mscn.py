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

The set modules see padded batches but compute on the real elements, by
one path for every batch: one pool, one cache form and one backward.
`_set_forward` states the one rounding rule that picks the shape of the
forward products. Backward keeps three products in the padded shape, with
zeros scattered into the padding rows, because that shape sets how BLAS
rounds them (`_set_backward`). So outputs, gradients and saved models are
the same to the bit as those of the dense kernel that runs every padded
element (kept in the tests as the reference). Backward builds the padded
scratch arrays g2, h and g1 one after another and drops each after its
last product, so at most two of these (B * L, d) arrays live at once.
Training updates all parameters with one Adam step over a single flat
vector that the module arrays are views of.

Every batch is a `featurizer.PackedCorpus` that one packer builds from
element rows written by the one encoder, of a labeled corpus
(`featurize_labeled`, 64 queries at a time) or of any featurized queries
(`batch`). The train/validation split and every minibatch select query
ids, and each minibatch or prediction chunk unpacks on first read into
zero-padded arrays, each set padded to the longest set of its kind in the
whole batch: a slice of the whole batch's padded arrays. So every product
sees the same operands and shapes, and the models are the same bits. A
forward run for prediction (`predict_batch`, and so validation) keeps no
module cache: each goes once its set is pooled.

`predict` estimates one query with as few numpy calls as keep these bits.
Its set modules build no cache, and each set's mean is written into one
pooled vector. After the output module's last product, the bias, sigmoid
and denormalization of the one output run on Python floats
(`neural.sigmoid_float`, and `denormalize_label`, which takes a float as
it takes an array): the same IEEE operations in the same order. Both
exponentials stay `np.exp`, since `math.exp` need not round as numpy's
does, so the estimate keeps the bits of `predict_batch` on the one-query
batch.
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
    PackedCorpus,
    denormalize_label,
    featurize,
    featurize_labeled,
)
from .neural import (
    AdamState,
    Dense2,
    Mlp2Cache,
    adam_step,
    init_params,
    mlp2_backward,
    mlp2_forward,
    relu_layer,
    sigmoid_float,
)
from .query import LabeledQuery, QuerySpec, validate

logger = logging.getLogger(__name__)

LOSS_KINDS = ("mean_qerror", "mse", "geometric_qerror")

MODEL_MAGIC = b"CLM1"
MODEL_FORMAT_VERSION = 1

_SET_NAMES = ("tables", "joins", "preds")
_PREDICT_CHUNK = 4096  # queries per forward run of `predict_batch`
_FIELDS = ("w1", "b1", "w2", "b2")

# JSON types of a model header's `Hyperparams` fields, by annotation.
_HEADER_TYPES = {"int": int, "float": (int, float), "str": str}


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
        if min(self.d, self.epochs, self.batch_size) < 1 or not self.lr > 0:
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


def _module_widths(catalog: EncodingCatalog, hp: Hyperparams) -> tuple[list[int], list[int]]:
    """Input and output widths of the tables, joins, predicates and output
    modules, in that order."""
    d = hp.d
    return [*catalog.widths, 3 * d], [d, d, d, 1]


def _param_shapes(catalog: EncodingCatalog, hp: Hyperparams) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter `init_model` makes, in serialization
    order; `load_model` accepts only these."""
    d = hp.d
    return {
        f"{name}.{field}": shape
        for name, w, o in zip((*_SET_NAMES, "out"), *_module_widths(catalog, hp))
        for field, shape in zip(_FIELDS, ((w, d), (d,), (d, o), (o,)))
    }


def init_model(catalog: EncodingCatalog, hp: Hyperparams) -> MscnModel:
    in_dims, out_dims = _module_widths(catalog, hp)
    modules = init_params(in_dims, hp.d, seed=[hp.seed, 0], out_dims=out_dims)
    return MscnModel(*modules, catalog=catalog, hyperparams=hp)


@dataclass
class _SetCache:
    """What `backward` needs of one set module's forward pass: `mlp` holds
    the real elements' activations, except `mlp.x`, which keeps the padded
    input rows for the first-layer weight gradient."""

    mlp: Mlp2Cache
    mask: np.ndarray  # (B, L) of 0/1
    rows: np.ndarray  # flat indices of the real elements
    counts: np.ndarray  # (B,) real elements per set


def _head(model: MscnModel, pooled: list[np.ndarray]):
    """Output module on the concatenated set means: predictions in (0, 1)
    and the module's cache."""
    merged = np.concatenate(pooled, axis=-1)
    out, cache = mlp2_forward(merged, model.out_mlp, final="sigmoid")
    return out[..., 0], cache


def _set_forward(feats: np.ndarray, mask: np.ndarray, module: Dense2):
    """Mean of the module's outputs over each set's real elements.

    The rounding rule: the products run on the real rows, `x[rows]`, as one
    matrix, except when the set kind has length 1 or the batch holds a
    single real element. Then they run on the padded stack (B, L, width),
    as the dense kernel forms them, and only the real rows' activations are
    kept. numpy multiplies a stacked (B, 1, width) input one row at a time,
    and a lone real row by gemv, and either rounds unlike the same rows
    inside one gemm. Both cases then share the rest: the pool scatters the
    real outputs into zeros of the padded shape and sums slot by slot,
    which adds the same values in the same order as the masked mean pool
    of the dense outputs, so the result is the same to the bit."""
    b, length, width = feats.shape
    if not ((mask == 0) | (mask == 1)).all():
        raise ValueError("set masks must hold only 0 and 1")
    counts = mask.sum(axis=-1)
    if np.any(counts == 0):
        raise ValueError("every set needs at least one unmasked element")
    x = feats.reshape(-1, width)
    rows = np.flatnonzero(mask)
    if length == 1 or rows.size == 1:
        elems, cache = mlp2_forward(feats, module, final="relu")
        cache.h = cache.h.reshape(-1, module.hidden)[rows]
        elems = cache.out = elems.reshape(-1, module.out_dim)[rows]
    else:
        elems, cache = mlp2_forward(x[rows], module, final="relu")
    cache.x = x
    padded = np.zeros((x.shape[0], module.out_dim))
    padded[rows] = elems
    pooled = padded.reshape(b, length, module.out_dim).sum(axis=1) / counts[:, None]
    return pooled, _SetCache(cache, mask, rows, counts)


def _set_backward(d_pooled: np.ndarray, sc: _SetCache, module: Dense2) -> Dense2:
    """Parameter gradients of one set module given dL/d(pooled).

    One path serves both cases of `_set_forward`'s rounding rule: either
    way the cache holds the real rows' activations and the padded input
    rows. The element-wise work runs on the real rows. Three products keep
    the padded shape because their rounding depends on it: the weight
    gradients `x.T @ g1` and `h.T @ g2` sum over all B * L rows (the padding
    rows scattered in as zeros add nothing, but the row count sets how BLAS
    splits the sum), and the padded hidden gradient (`d_pre1` before its
    ReLU mask) is one product per set, as the dense kernel computes it. The
    set inputs are features, so there is no input gradient."""
    cache, rows = sc.mlp, sc.rows
    b, length = sc.mask.shape
    n = cache.x.shape[0]
    # Each array goes right after its last use, so at most two of the
    # padded scratch arrays live at once (module docstring).
    d_pre2 = (d_pooled / sc.counts[:, None])[rows // length] * (cache.out > 0)
    d_b2 = d_pre2.sum(axis=0)
    g2 = np.zeros((n, module.out_dim))
    g2[rows] = d_pre2
    del d_pre2
    h = np.zeros((n, module.hidden))
    h[rows] = cache.h
    d_w2 = h.T @ g2
    del h
    d_pre1 = g2.reshape(b, length, module.out_dim) @ module.w2.T
    d_pre1 = d_pre1.reshape(n, module.hidden)[rows]
    del g2
    d_pre1 *= cache.h > 0
    d_b1 = d_pre1.sum(axis=0)
    g1 = np.zeros((n, module.hidden))
    g1[rows] = d_pre1
    del d_pre1
    return Dense2(cache.x.T @ g1, d_b1, d_w2, d_b2)


def forward(model: MscnModel, batch: PackedCorpus):
    """Predictions in (0, 1) plus the cache needed for backward. Masks must
    hold only 0 and 1, with at least one 1 per set."""
    caches = {}
    return _forward(model, batch, caches), caches


def _forward(model: MscnModel, batch: PackedCorpus, caches: dict | None = None) -> np.ndarray:
    """Predictions in (0, 1). Each module's cache goes into `caches`, or,
    without it (prediction), is dropped as soon as its output is pooled."""
    pooled = []
    sets = (
        ("tables", batch.table_feats, batch.table_mask, model.tables_mlp),
        ("joins", batch.join_feats, batch.join_mask, model.joins_mlp),
        ("preds", batch.pred_feats, batch.pred_mask, model.preds_mlp),
    )
    for name, feats, mask, module in sets:
        p, cache = _set_forward(feats, mask, module)
        if caches is not None:
            caches[name] = cache
        del cache
        pooled.append(p)
    y, cache = _head(model, pooled)
    if caches is not None:
        caches["out"] = cache
    return y


def backward(model: MscnModel, caches, d_y: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients given dL/dy."""
    grads: dict[str, np.ndarray] = {}
    d_merged, g_out = mlp2_backward(d_y[..., None], caches["out"], model.out_mlp)
    for field in _FIELDS:
        grads[f"out.{field}"] = getattr(g_out, field)
    d = model.hyperparams.d
    for i, name in enumerate(_SET_NAMES):
        d_pooled = d_merged[..., i * d : (i + 1) * d]
        g = _set_backward(d_pooled, caches[name], model.modules()[name])
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


def predict_batch(model: MscnModel, batch: PackedCorpus) -> np.ndarray:
    """Denormalized cardinality estimates for a featurized batch,
    `_PREDICT_CHUNK` queries at a time: an empty float64 array for an empty
    one."""
    if not len(batch):
        return np.empty(0)
    outputs = []
    for start in range(0, len(batch), _PREDICT_CHUNK):
        outputs.append(_forward(model, batch.slice(slice(start, start + _PREDICT_CHUNK))))
    return denormalize_label(np.concatenate(outputs), model.catalog)


def validation_mean_qerror(model: MscnModel, batch: PackedCorpus) -> float:
    """Mean q-error of the estimates against the batch's true counts."""
    if batch.cardinalities is None:
        raise ValueError("validation needs the true counts of its queries")
    if not len(batch):
        raise ValueError("validation needs at least one query; the batch is empty")
    est = predict_batch(model, batch)
    truth = batch.cardinalities
    return float(np.maximum(est / truth, truth / est).mean())


def _flatten_params(model: MscnModel) -> np.ndarray:
    """Copy the parameters into one float64 vector, in serialization order,
    and make every module array a view into it, so that one Adam update
    covers them all. Adam works element by element, so the update is the
    same to the bit as one per array."""
    flat = np.concatenate([p.ravel() for p in param_dict(model).values()])
    offset = 0
    for module in model.modules().values():
        for field in _FIELDS:
            shape = getattr(module, field).shape
            size = int(np.prod(shape))
            setattr(module, field, flat[offset : offset + size].reshape(shape))
            offset += size
    return flat


def train(
    train_batch: PackedCorpus,
    val_batch: PackedCorpus,
    catalog: EncodingCatalog,
    hp: Hyperparams,
) -> tuple[MscnModel, list[dict]]:
    """Mini-batch shuffled Adam for hp.epochs; returns the last-epoch model
    and a per-epoch history of train loss and validation mean q-error."""
    if train_batch.labels_norm is None or val_batch.labels_norm is None:
        raise ValueError("training requires normalized labels")
    for name, b in (("training", train_batch), ("validation", val_batch)):
        if not len(b):
            raise ValueError(f"the {name} batch is empty")
    model = init_model(catalog, hp)
    names = list(param_dict(model))
    params = {"flat": _flatten_params(model)}
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
            flat_grad = np.concatenate([grads[name].ravel() for name in names])
            if not np.isfinite(flat_grad).all():
                bad = next(name for name in names if not np.isfinite(grads[name]).all())
                raise ValueError(f"non-finite gradient for {bad!r}")
            adam_step(params, {"flat": flat_grad}, state, hp.lr)
            epoch_loss += loss * idx.size
            # Freed here, not when the next step rebinds the names, so the
            # next forward's caches never live beside this step's.
            del mb, y, caches, d_y, grads, flat_grad
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
    samples when the model uses sample features) and estimate it.

    One query has no padding, so the set modules run on its element
    matrices as they are, with no batch axis and no cache, each layer
    through `neural.relu_layer`, as in `mlp2_forward`. Each set's mean, the
    sum of its rows over their count, goes straight into its third of one
    (3d,) vector. Under `_set_forward`'s rounding rule a one-query batch
    multiplies the same (L, width) matrix, or the same lone row, with the
    same kernel, and sums the same rows in the same order; numpy
    multiplies the pooled (3d,) vector as the (1, 3d) row. The output
    module's first layer and its 1-wide second product stay numpy calls;
    the bias of that one value, the sigmoid (`sigmoid_float`) and the
    denormalization run on Python floats, with both exponentials left to
    `np.exp` so that they round as the batch path's. So the estimate is
    the same to the bit as `predict_batch` on the one-query batch."""
    errors = validate(spec, db)
    if errors:
        raise ValidationError("; ".join(errors))
    bitmaps = {}
    if model.catalog.sample_mode != "none":
        if samples is None:
            raise ValidationError("model requires materialized samples")
        bitmaps = query_bitmaps(spec, samples)
    fq = featurize(LabeledQuery(spec, None, bitmaps), model.catalog)
    d = model.hyperparams.d
    pooled = np.empty(3 * d)
    sets = (
        (fq.table_elems, model.tables_mlp),
        (fq.join_elems, model.joins_mlp),
        (fq.pred_elems, model.preds_mlp),
    )
    for i, (elems, module) in enumerate(sets):
        out = relu_layer(relu_layer(elems, module.w1, module.b1), module.w2, module.b2)
        np.divide(out.sum(axis=0), len(out), out=pooled[i * d : (i + 1) * d])
    head = model.out_mlp
    h = relu_layer(pooled, head.w1, head.b1)
    z = (h @ head.w2).item() + head.b2.item()
    return float(denormalize_label(sigmoid_float(z), model.catalog))


def predict_labeled(model: MscnModel, queries: list[LabeledQuery]) -> np.ndarray:
    """Estimates for already-labeled queries, reusing their bitmaps."""
    return predict_batch(model, featurize_labeled(queries, model.catalog))


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
    if not isinstance(header, dict):
        raise ModelFormatError(f"{path}: header is not a JSON object")
    if header.get("format_version") != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: format_version {header.get('format_version')} unsupported"
        )
    missing = {"catalog", "hyperparams", "params"} - set(header)
    if missing:
        raise ModelFormatError(f"{path}: header lacks {sorted(missing)}")
    try:
        catalog = EncodingCatalog.from_json(json.dumps(header["catalog"]))
    except (ValidationError, ValueError) as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    raw_hp = header["hyperparams"]
    names = {f.name for f in fields(Hyperparams)}
    if not isinstance(raw_hp, dict) or set(raw_hp) != names:
        raise ModelFormatError(f"{path}: hyperparams must have exactly {sorted(names)}")
    for f in fields(Hyperparams):
        value = raw_hp[f.name]
        if isinstance(value, bool) or not isinstance(value, _HEADER_TYPES[f.type]):
            raise ModelFormatError(f"{path}: hyperparams.{f.name} must be {f.type}, not {value!r}")
    try:
        hp = Hyperparams(**raw_hp)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    shapes = _param_shapes(catalog, hp)
    if header["params"] != [{"name": k, "shape": list(v)} for k, v in shapes.items()]:
        raise ModelFormatError(f"{path}: params do not match the catalog and hyperparams")
    arrays = []
    offset = 8 + header_len
    for shape in shapes.values():
        end = offset + 8 * int(np.prod(shape))
        if end > len(payload):
            raise ModelFormatError(f"{path}: parameter blob shorter than manifest")
        arrays.append(np.frombuffer(payload[offset:end], dtype="<f8").reshape(shape).copy())
        offset = end
    modules = [Dense2(*arrays[i : i + len(_FIELDS)]) for i in range(0, len(arrays), len(_FIELDS))]
    return MscnModel(*modules, catalog=catalog, hyperparams=hp)
