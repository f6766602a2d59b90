"""Reference code the tests check the package against.

Finite-difference gradient checking; the small tape ops that only
reference chains and tests use, among them the broadcasting ``add``,
``mul_const``, ``reduce_sum`` and ``softmax`` that the package's fused
``residual`` and ``batch_loss`` records and ``segment_softmax`` replaced;
the op chains that the embedding tier's fused records replaced; and the
keep-everything records that the encoder's lean records replaced.  Every
op here is built on ``record_op``, so it records on the same tape as the
package's own primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import math

import numpy as np

from abanet.encoder import survival_probability
from abanet.errors import ConfigError, ShapeError
from abanet.params import ParamStore
from abanet.tensor import (
    Tape,
    Tensor,
    _sigmoid,
    concat,
    matmul,
    record_op,
    reshape,
    segment_bounds,
)

# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    per_param: dict[str, float]
    tolerance: float

    @property
    def max_rel_error(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def lines(self) -> list[str]:
        out = []
        for name, err in sorted(self.per_param.items()):
            status = "ok" if err < self.tolerance else "FAIL"
            out.append(f"{status}  {name}  max_rel_err={err:.3e}")
        return out


def fd_gradient(f: Callable[[], Tensor], tensor: Tensor, epsilon: float) -> np.ndarray:
    """Central finite differences of scalar ``f`` w.r.t. every element."""
    base = tensor.data
    grad = np.zeros_like(base)
    flat = base.ravel()
    for idx in range(flat.size):
        orig = flat[idx]
        plus = base.copy()
        plus.ravel()[idx] = orig + epsilon
        tensor.data = plus
        f_plus = float(f().data)
        minus = base.copy()
        minus.ravel()[idx] = orig - epsilon
        tensor.data = minus
        f_minus = float(f().data)
        grad.ravel()[idx] = (f_plus - f_minus) / (2.0 * epsilon)
    tensor.data = base
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray,
                   rel_floor: float = 1e-3) -> np.ndarray:
    """Elementwise |analytic - numeric| / max(|analytic|, |numeric|, rel_floor).

    The floor keeps near-zero gradients from dividing by noise.
    """
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), rel_floor)
    return np.abs(analytic - numeric) / denom


def grad_check(f: Callable[[], Tensor], params: ParamStore, *,
               epsilon: float = 1e-3, tolerance: float = 1e-3,
               rel_floor: float = 1e-3) -> GradCheckReport:
    """Compare tape gradients of scalar ``f()`` against central differences.

    ``f`` must close over the store's tensors and be deterministic.
    The per-element error is ``relative_error``.  Every trainable
    parameter must be float64.
    """
    for name, tensor in params.trainable():
        if tensor.data.dtype != np.float64:
            raise ConfigError(
                f"grad_check requires float64 parameters; {name} is {tensor.data.dtype}")

    with Tape() as tape:
        loss = f()
    if loss.size != 1:
        raise ShapeError(f"grad_check needs a scalar function, got {loss.shape}")
    grads = tape.gradients(loss)

    report: dict[str, float] = {}
    for name, tensor in params.trainable():
        analytic = grads.get(id(tensor))
        if analytic is None:
            analytic = np.zeros_like(tensor.data)
        numeric = fd_gradient(f, tensor, epsilon)
        rel = relative_error(analytic, numeric, rel_floor)
        report[name] = float(rel.max()) if rel.size else 0.0
    return GradCheckReport(per_param=report, tolerance=tolerance)


# ---------------------------------------------------------------------------
# Small tape ops
# ---------------------------------------------------------------------------

def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    return record_op("add", out, (a, b), lambda g: (
        _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul_const(a: Tensor, c: np.ndarray) -> Tensor:
    """a * c where c carries no gradient; c is cast to a's dtype."""
    c = np.asarray(c, dtype=a.data.dtype)
    return record_op("mul_const", a.data * c, (a,),
                     lambda g: (_unbroadcast(g * c, a.shape),))


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return record_op("sum", out, (a,), bw)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``."""
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return record_op("softmax", out, (x,), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    return record_op("sub", out, (a, b), lambda g: (
        _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    return record_op("mul", out, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)))


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    return record_op("transpose", a.data.T.copy(), (a,), lambda g: (g.T,))


def slice_axis(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = a.data[index].copy()

    def bw(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return record_op("slice", out, (a,), bw)


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]`` with scatter-add backward into the table."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"gather_rows: id out of range [0, {table.shape[0]}) in {ids!r}")
    out = table.data[ids]

    def bw(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        return (full,)

    return record_op("gather", out, (table,), bw)


def reduce_max(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis; gradient routes to the first argmax per slice."""
    out = a.data.max(axis=axis, keepdims=keepdims)
    arg = a.data.argmax(axis=axis)

    def bw(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        full = np.zeros_like(a.data)
        np.put_along_axis(full, np.expand_dims(arg, axis), gg, axis=axis)
        return (full,)

    return record_op("max", out, (a,), bw)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return record_op("exp", out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    return record_op("log", np.log(a.data), (a,), lambda g: (g / a.data,))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return record_op("tanh", out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)
    return record_op("sigmoid", out, (a,), lambda g: (g * out * (1.0 - out),))


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    return record_op("relu", out, (a,), lambda g: (g * (a.data > 0),))


# ---------------------------------------------------------------------------
# The op chains the embedding tier's fused records replaced
# ---------------------------------------------------------------------------

def chain_embed_chars(char_ids: np.ndarray, char_table: Tensor, filters: Tensor,
                      *, kernel: int) -> Tensor:
    """Char CNN as kernel row gathers, a concat, a matmul and a max."""
    n, c_max = char_ids.shape
    positions = c_max - kernel + 1
    windows = []
    for tau in range(kernel):
        span = char_ids[:, tau:tau + positions].reshape(-1)
        windows.append(gather_rows(char_table, span))  # [n*positions, char_dim]
    stacked = concat(windows, axis=1)                  # [n*positions, kernel*char_dim]
    activations = matmul(stacked, filters)             # [n*positions, d_char]
    per_word = reshape(activations, (n, positions, filters.shape[1]))
    return reduce_max(per_word, axis=1)


def chain_embed_features(pos_ids: np.ndarray, ner_ids: np.ndarray,
                         rule_ids: np.ndarray, pos_table: Tensor,
                         ner_table: Tensor, rule_table: Tensor) -> Tensor:
    """POS/NER/rule features as three row gathers and a concat."""
    return concat([gather_rows(pos_table, pos_ids), gather_rows(ner_table, ner_ids),
                   gather_rows(rule_table, rule_ids)], axis=1)


def chain_highway(x: Tensor,
                  layers: Sequence[tuple[Tensor, Tensor, Tensor, Tensor]]) -> Tensor:
    """Highway layers as ten tape ops each: two affine maps, tanh,
    sigmoid, and the gated sum g * t + (1 - g) * x."""
    out = x
    for wt, bt, wg, bg in layers:
        t = tanh(add(matmul(out, wt), bt))
        g = sigmoid(add(matmul(out, wg), bg))
        carry = sub(Tensor(1.0, dtype=g.data.dtype), g)
        out = add(mul(g, t), mul(carry, out))
    return out


# ---------------------------------------------------------------------------
# The keep-everything records the encoder's lean records replaced
# ---------------------------------------------------------------------------
# Each keeps every array its forward made, as the package did before its
# backwards kept only what they read.  They draw from the rng in the same
# order as the package, so seeded runs of both must agree bit for bit.

def keep_all_dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout as one ``mul_const`` of a float mask."""
    if rate <= 0.0:
        return a
    if rate >= 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    return mul_const(a, (rng.random(a.shape) < keep).astype(a.data.dtype) / keep)


def keep_all_layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
                        eps: float = 1e-6) -> Tensor:
    """Layer norm that keeps the normalised [n, d] copy for its backward."""
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    normed = centered / std
    out = normed * gain.data + bias.data

    def bw(g):
        dn = g * gain.data
        dx = (dn - dn.mean(axis=-1, keepdims=True)
              - normed * (dn * normed).mean(axis=-1, keepdims=True)) / std
        return (dx, _unbroadcast(g * normed, gain.shape), _unbroadcast(g, bias.shape))

    return record_op("layer_norm", out, (x, gain, bias), bw)


def keep_all_depthwise_conv1d(x: Tensor, kernel: Tensor,
                              lengths: Sequence[int] | None = None) -> Tensor:
    """Per-segment depthwise convolution that keeps its zero-padded input."""
    k, d = kernel.shape
    n = x.shape[0]
    pad = k // 2
    placed = [(start + pad * s, start, stop)
              for s, (start, stop) in enumerate(segment_bounds(lengths, n))]
    m = n + pad * (len(placed) - 1)

    def gather(rows: np.ndarray, first: int) -> np.ndarray:
        if len(placed) == 1:
            return rows[first:first + n]
        return np.concatenate([rows[first + at:first + at + stop - start]
                               for at, start, stop in placed])

    xp = np.zeros((m + k - 1, d), dtype=x.data.dtype)
    for at, start, stop in placed:
        xp[pad + at:pad + at + stop - start] = x.data[start:stop]
    full = np.zeros((m, d), dtype=x.data.dtype)
    for tau in range(k):
        full += xp[tau:tau + m] * kernel.data[tau]
    out = gather(full, 0)

    def bw(g):
        dk = np.empty_like(kernel.data)
        gfull = np.zeros((m, d), dtype=g.dtype)
        for at, start, stop in placed:
            gfull[at:at + stop - start] = g[start:stop]
        gp = np.zeros_like(xp)
        for tau in range(k):
            dk[tau] = (xp[tau:tau + m] * gfull).sum(axis=0)
            gp[tau:tau + m] += gfull * kernel.data[tau]
        return (gather(gp, pad), dk)

    return record_op("depthwise_conv1d", out, (x, kernel), bw)


def keep_all_self_attention(x: Tensor, lengths: Sequence[int] | None,
                            num_heads: int, wq: Tensor, wk: Tensor, wv: Tensor,
                            wo: Tensor) -> Tensor:
    """Packed self-attention whose record keeps every segment's
    [h, n_s, n_s] probabilities for its backward."""
    n, d = x.shape
    bounds = segment_bounds(lengths, n)
    head_dim = d // num_heads
    scale = 1.0 / math.sqrt(head_dim)
    q, k, v = matmul(x, wq), matmul(x, wk), matmul(x, wv)

    def heads(a: np.ndarray) -> np.ndarray:
        return a.reshape(n, num_heads, head_dim).transpose(1, 0, 2)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    out = np.empty((n, d), dtype=q.data.dtype)
    out_h = heads(out)
    blocks = []
    for start, stop in bounds:
        seg = slice(start, stop)
        probs = np.matmul(qh[:, seg], kh[:, seg].transpose(0, 2, 1))
        probs *= scale
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        np.matmul(probs, vh[:, seg], out=out_h[:, seg])
        blocks.append(probs)

    def bw(g):
        gh = heads(g)
        dq, dk, dv = (np.empty((n, d), dtype=g.dtype) for _ in range(3))
        dq_h, dk_h, dv_h = heads(dq), heads(dk), heads(dv)
        for (start, stop), probs in zip(bounds, blocks):
            seg = slice(start, stop)
            np.matmul(probs.transpose(0, 2, 1), gh[:, seg], out=dv_h[:, seg])
            ds = np.matmul(gh[:, seg], vh[:, seg].transpose(0, 2, 1))
            ds -= (ds * probs).sum(axis=-1, keepdims=True)
            ds *= probs
            np.matmul(ds, kh[:, seg], out=dq_h[:, seg])
            np.matmul(ds.transpose(0, 2, 1), qh[:, seg], out=dk_h[:, seg])
        dq *= scale
        dk *= scale
        return dq, dk, dv

    attended = record_op("self_attention", out, (q, k, v), bw)
    return matmul(attended, wo)


def chain_feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
                       b2: Tensor) -> Tensor:
    """The feed-forward layer as five tape ops."""
    return add(matmul(relu(add(matmul(x, w1), b1)), w2), b2)


def keep_all_residual_sublayer(x: Tensor, f: Callable[[Tensor], Tensor], *,
                               layer_index: int, total_layers: int,
                               survival_end: float, gain: Tensor, bias: Tensor,
                               training: bool,
                               rng: np.random.Generator | None = None,
                               dropout_rate: float = 0.0) -> Tensor:
    """x + f(layernorm(x)) under stochastic depth, with dropout as its own
    ``mul_const`` record and the residual as an ``add``."""
    p = survival_probability(layer_index, total_layers, survival_end)
    if training:
        if rng.random() >= p:
            return x
        branch = f(keep_all_layer_norm(x, gain, bias))
        if dropout_rate > 0.0:
            branch = keep_all_dropout(branch, dropout_rate, rng)
        return add(x, branch)
    branch = f(keep_all_layer_norm(x, gain, bias))
    return add(x, mul_const(branch, np.asarray(p)))
