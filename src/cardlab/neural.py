"""Minimal numerical kernel: two-layer dense modules with hand-derived
backpropagation, masked average pooling and Adam. Everything is float64;
determinism beats speed at this model size.

The modules take any leading axes, and how some products round depends
on their shape: numpy multiplies a single row by gemv rather than gemm; a
stacked (B, L, d) input times a transposed weight rounds differently from
the same rows as one (B * L, d) product; and BLAS splits a weight
gradient's sum over rows by the row count. `mscn` runs the set modules on
real elements only where the shape leaves the rounding unchanged and keeps
the padded shape elsewhere, and pools with a scatter of its own. The
masked mean pool and its backward serve only the dense reference kernel
of the tests and the traced replay of the benchmark.

A module's forward pass adds each bias and applies each ReLU in place, and
its cache holds only the input, the hidden activations and the output.
Backward reads each ReLU's derivative from that ReLU's output, since
max(v, 0) > 0 exactly when v > 0, so no pre-activation is kept; it writes
into no cache array, so one cache can be differentiated more than once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Dense2:
    """Parameters of a two-layer fully-connected module."""

    w1: np.ndarray  # (in_dim, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, out_dim)
    b2: np.ndarray  # (out_dim,)

    @property
    def in_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    @property
    def out_dim(self) -> int:
        return self.w2.shape[1]


def init_dense2(
    in_dim: int, hidden: int, out_dim: int, rng: np.random.Generator
) -> Dense2:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    bound1 = 1.0 / np.sqrt(in_dim)
    bound2 = 1.0 / np.sqrt(hidden)
    return Dense2(
        w1=rng.uniform(-bound1, bound1, size=(in_dim, hidden)),
        b1=np.zeros(hidden),
        w2=rng.uniform(-bound2, bound2, size=(hidden, out_dim)),
        b2=np.zeros(out_dim),
    )


def init_params(in_dims, d: int, seed, out_dims=None) -> list[Dense2]:
    """One Dense2 per input width, drawn from a single seeded stream."""
    if d < 1:
        raise ValueError("hidden width must be >= 1")
    if out_dims is None:
        out_dims = [d] * len(in_dims)
    rng = np.random.default_rng(seed)
    return [
        init_dense2(in_dim, d, out_dim, rng)
        for in_dim, out_dim in zip(in_dims, out_dims)
    ]


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive value cannot overflow: 1 / (1 + e^-x) for x >= 0
    # and e^x / (1 + e^x) below, from the one exponential and one division.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid_float(z: float) -> float:
    """`sigmoid` of one Python float, with the bits of `sigmoid(np.array([z]))`:
    the same operations in the same order, on floats, which spares one
    estimate the array calls. The exponential stays `np.exp`, since
    `math.exp` need not round as numpy's does."""
    e = np.exp(-abs(z)).item()
    return (1.0 if z >= 0 else e) / (1.0 + e)


@dataclass
class Mlp2Cache:
    x: np.ndarray
    h: np.ndarray
    out: np.ndarray
    final: str


def mlp2_forward(
    x: np.ndarray, p: Dense2, final: str = "relu"
) -> tuple[np.ndarray, Mlp2Cache]:
    """ReLU(x W1 + b1) through the second layer with `final` activation
    ("relu" or "sigmoid"). Leading axes are arbitrary."""
    if x.shape[-1] != p.in_dim:
        raise ValueError(f"input width {x.shape[-1]} != {p.in_dim}")
    h = relu_layer(x, p.w1, p.b1)
    if final == "relu":
        out = relu_layer(h, p.w2, p.b2)
    elif final == "sigmoid":
        out = h @ p.w2
        out += p.b2
        out = sigmoid(out)
    else:
        raise ValueError(f"unknown final activation {final!r}")
    return out, Mlp2Cache(x, h, out, final)


def relu_layer(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ReLU(x w + b), with the bias added and the ReLU applied in place. The
    one definition of a ReLU layer's operations and their order, which
    `mlp2_forward` and `mscn.predict` share."""
    h = x @ w
    h += b
    np.maximum(h, 0.0, out=h)
    return h


def mlp2_backward(d_out: np.ndarray, cache: Mlp2Cache, p: Dense2) -> tuple[np.ndarray, Dense2]:
    """Gradient w.r.t. input and parameters given dL/d(out)."""
    if cache.final == "relu":
        d_pre2 = d_out * (cache.out > 0)
    else:
        d_pre2 = d_out * cache.out * (1.0 - cache.out)
    h2 = cache.h.reshape(-1, p.hidden)
    g2 = d_pre2.reshape(-1, p.out_dim)
    d_w2 = h2.T @ g2
    d_b2 = g2.sum(axis=0)
    d_pre1 = d_pre2 @ p.w2.T
    d_pre1 *= cache.h > 0
    x2 = cache.x.reshape(-1, p.in_dim)
    g1 = d_pre1.reshape(-1, p.hidden)
    d_w1 = x2.T @ g1
    d_b1 = g1.sum(axis=0)
    return d_pre1 @ p.w1.T, Dense2(d_w1, d_b1, d_w2, d_b2)


def masked_mean_pool(elements: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Average of rows with mask 1 over the second-to-last axis.

    elements: (..., L, d); mask: (..., L), each slice must have >= 1 one.
    """
    counts = mask.sum(axis=-1)
    if np.any(counts == 0):
        raise ValueError("masked_mean_pool requires at least one unmasked element")
    summed = (elements * mask[..., None]).sum(axis=-2)
    return summed / counts[..., None]


def masked_mean_pool_backward(
    d_pooled: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    counts = mask.sum(axis=-1)
    return d_pooled[..., None, :] * mask[..., None] / counts[..., None, None]


@dataclass
class AdamState:
    """First/second moment accumulators shaped like the parameter dict."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def init_like(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """Standard bias-corrected Adam update, in place. Fails fast on
    non-finite gradients."""
    for key, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for {key!r}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    for key, g in grads.items():
        m = state.m[key]
        v = state.v[key]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        params[key] -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return params, state

