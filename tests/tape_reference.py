"""Reference code the tests check the package against.

Finite-difference gradient checking, ``tape_grads``, ``capture_tapes``
and the keep-everything sweep ``keep_all_gradients``; the small tape ops that only reference chains and
tests use, among them the broadcasting ``add``, ``mul_const``,
``reduce_sum`` and ``softmax`` that the package's fused sublayer,
``batch_loss`` and ``weight_decay`` records and ``segment_softmax`` replaced, and the
``stack`` and ``dropout`` records that ``assemble_hos``'s record and the
masks drawn inside the layers replaced; each of the encoder's numpy
helpers recorded as a tape op of its own; the op chains that the
embedding tier's fused records, ``assemble_hos`` and the encoder's
``capsule`` and ``self_attention`` branches replaced; and the
keep-everything records that the encoder's and the char CNN's lean
records replaced, among them the ``layer_norm`` → branch → residual
sublayer that one record per sublayer replaced. Every op here is built
on ``record_op``, so it records on the same tape as the package's own
primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import math

import numpy as np

import abanet.encoder as encoder
import abanet.model as model_module
from abanet.attention import COMPONENT_NAMES
from abanet.config import CapsuleConfig
from abanet.encoder import survival_probability
from abanet.errors import ConfigError, ShapeError
from abanet.params import ParamStore
from abanet.tensor import (
    Tape,
    Tensor,
    _sigmoid,
    concat,
    dropout_mask,
    dropout_scale,
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


def tape_grads(build: Callable[[], Tensor], tensors: Sequence[Tensor]) -> list:
    """Run ``build()`` under a tape and sweep back from its scalar result:
    the gradient of each of ``tensors``, None where none reaches it."""
    with Tape() as tape:
        loss = build()
    grads = tape.gradients(loss)
    return [grads.get(id(t)) for t in tensors]


def keep_all_gradients(tape: Tape, loss: Tensor) -> dict:
    """The sweep before gradient freeing: every gradient stays in the map,
    and every record keeps its backward, so it must run before the tape's
    own sweep releases them."""
    grads = {id(loss): np.ones_like(loss.data)}
    for _, out, parents, backward in reversed(tape._records):
        g = grads.get(id(out))
        if g is None:
            continue
        for parent, pg in zip(parents, backward(g)):
            if pg is None:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return grads


def capture_tapes(monkeypatch) -> list[Tape]:
    """Patch ``abanet.model.backward`` so that it appends each tape it
    sweeps to the returned list, then sweeps it as before; ``train_step``
    reaches the sweep through that module attribute."""
    tapes = []
    backward = model_module.backward

    def captured(tape, *args, **kwargs):
        tapes.append(tape)
        return backward(tape, *args, **kwargs)

    monkeypatch.setattr(model_module, "backward", captured)
    return tapes


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


def stack(parts: Sequence[Tensor]) -> Tensor:
    """Stack equally shaped tensors along a new leading axis: [G, ...].

    An all-zero row of the gradient goes back as None, so the sweep skips
    the branch that produced that part.
    """
    return record_op("stack", np.stack([p.data for p in parts]), parts,
                     lambda g: tuple(row if row.any() else None for row in g))


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout as a record of its own; identity when rate is 0."""
    if rate <= 0.0:
        return a
    kept = dropout_mask(a.shape, rate, rng)
    dtype = a.data.dtype
    return record_op("dropout", a.data * dropout_scale(kept, rate, dtype), (a,),
                     lambda g: (g * dropout_scale(kept, rate, dtype),))


# ---------------------------------------------------------------------------
# The op chains the embedding tier's and the HOS stack's fused records
# replaced
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


def chain_assemble_hos(raw: dict[str, Tensor],
                       projections: dict[str, Tensor]) -> Tensor:
    """``attention.assemble_hos`` as six ``matmul`` records and a ``stack``."""
    return stack([matmul(raw[name], projections[name]) for name in COMPONENT_NAMES])


# ---------------------------------------------------------------------------
# The encoder's numpy helpers as tape ops, and the op chains the encoder's
# capsule and self-attention branches replaced
# ---------------------------------------------------------------------------
# The encoder's numpy helpers, each recorded as a tape op of its own.  They
# call the helpers through the module, so a test that patches one there
# reaches these too.  A branch helper's backward takes its input back, as
# the package's sublayer record hands it over.

def squash(v: Tensor, eps: float = 1e-12) -> Tensor:
    out, grad = encoder._squash(v.data, eps)
    return record_op("squash", out, (v,), lambda g: (grad(g),))


def depthwise_conv1d(x: Tensor, kernel: Tensor,
                     lengths: Sequence[int] | None = None) -> Tensor:
    out, backward = encoder.depthwise_conv1d(x.data, kernel.data, lengths)
    return record_op("depthwise_conv1d", out, (x, kernel), backward)


def dynamic_routing(primary: Tensor, transform: Tensor, iterations: int,
                    coupling_log: list | None = None) -> Tensor:
    v, backward = encoder.dynamic_routing(primary.data, transform.data, iterations,
                                          coupling_log)
    return record_op("dynamic_routing", v, (primary, transform),
                     lambda g: backward(g, primary.data))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    out, normalise, backward = encoder.layer_norm(x.data, gain.data, bias.data, eps)
    return record_op("layer_norm", out, (x, gain, bias),
                     lambda g: backward(g, normalise(x.data)))


def conv_pri_dig_layer(x: Tensor, depthwise: Tensor, pointwise: Tensor,
                       transform: Tensor, caps: CapsuleConfig,
                       lengths: Sequence[int] | None = None) -> Tensor:
    out, backward = encoder.conv_pri_dig_layer(x.data, depthwise.data, pointwise.data,
                                               transform.data, caps, lengths)
    return record_op("capsule", out, (x, depthwise, pointwise, transform),
                     lambda g: backward(g, x.data))


def multi_head_self_attention(x: Tensor, lengths: Sequence[int] | None,
                              num_heads: int, wq: Tensor, wk: Tensor, wv: Tensor,
                              wo: Tensor) -> Tensor:
    out, backward = encoder.multi_head_self_attention(
        x.data, lengths, num_heads, wq.data, wk.data, wv.data, wo.data)
    return record_op("self_attention", out, (x, wq, wk, wv, wo),
                     lambda g: backward(g, x.data))


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    out, backward = encoder.feed_forward(x.data, w1.data, b1.data, w2.data, b2.data)
    return record_op("feed_forward", out, (x, w1, b1, w2, b2),
                     lambda g: backward(g, x.data))


def chain_conv_pri_dig_layer(x: Tensor, depthwise: Tensor, pointwise: Tensor,
                             transform: Tensor, caps: CapsuleConfig,
                             lengths: Sequence[int] | None = None) -> Tensor:
    """The capsule sublayer as six records: the depthwise convolution, the
    pointwise matmul, a reshape, the primary squash, the routing and a
    reshape."""
    n = x.shape[0]
    convolved = matmul(depthwise_conv1d(x, depthwise, lengths), pointwise)
    primary = squash(reshape(convolved, (n, caps.primary_count, caps.primary_dim)))
    digits = dynamic_routing(primary, transform, caps.routing_iterations)
    return reshape(digits, (n, caps.digit_count * caps.digit_dim))


def chain_self_attention(x: Tensor, lengths: Sequence[int] | None,
                         num_heads: int, wq: Tensor, wk: Tensor, wv: Tensor,
                         wo: Tensor) -> Tensor:
    """Packed self-attention as five records: the three projection
    matmuls, a ``self_attention`` record over q, k and v that keeps every
    segment's [h, n_s, n_s] probabilities for its backward, and the output
    matmul."""
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


# ---------------------------------------------------------------------------
# The keep-everything records the encoder's and the char CNN's lean records
# replaced
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


def keep_all_depthwise_conv1d(x: np.ndarray, kernel: np.ndarray,
                              lengths: Sequence[int] | None = None):
    """``encoder.depthwise_conv1d`` whose backward keeps the zero-padded
    input and scatters the gradient through the kernel, tap by tap."""
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

    xp = np.zeros((m + k - 1, d), dtype=x.dtype)
    for at, start, stop in placed:
        xp[pad + at:pad + at + stop - start] = x[start:stop]
    full = np.zeros((m, d), dtype=x.dtype)
    for tau in range(k):
        full += xp[tau:tau + m] * kernel[tau]

    def bw(g):
        dk = np.empty_like(kernel)
        gfull = np.zeros((m, d), dtype=g.dtype)
        for at, start, stop in placed:
            gfull[at:at + stop - start] = g[start:stop]
        gp = np.zeros_like(xp)
        for tau in range(k):
            dk[tau] = (xp[tau:tau + m] * gfull).sum(axis=0)
            gp[tau:tau + m] += gfull * kernel[tau]
        return gather(gp, pad), dk

    return gather(full, 0), bw


def keep_all_self_attention(x: Tensor, lengths: Sequence[int] | None,
                            num_heads: int, wq: Tensor, wk: Tensor, wv: Tensor,
                            wo: Tensor) -> Tensor:
    """Packed self-attention as one record over x and the projections,
    whose backward keeps the concatenated [d, 3d] projection, every
    segment's [h, n_s, n_s] probabilities and the attended values."""
    n, d = x.shape
    bounds = segment_bounds(lengths, n)
    head_dim = d // num_heads
    scale = 1.0 / math.sqrt(head_dim)
    w_qkv = np.concatenate([wq.data, wk.data, wv.data], axis=1)

    def heads(a: np.ndarray) -> np.ndarray:
        return a.reshape(n, -1, num_heads, head_dim).transpose(1, 2, 0, 3)

    qkv = x.data @ w_qkv
    qh, kh, vh = heads(qkv)
    attended = np.empty((n, d), dtype=qkv.dtype)
    attended_h = heads(attended)[0]
    blocks = []
    for start, stop in bounds:
        seg = slice(start, stop)
        probs = np.matmul(qh[:, seg], kh[:, seg].transpose(0, 2, 1))
        probs *= scale
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        np.matmul(probs, vh[:, seg], out=attended_h[:, seg])
        blocks.append(probs)

    def bw(g):
        gh = heads(g @ wo.data.T)[0]
        dqkv = np.empty((n, 3 * d), dtype=g.dtype)
        dq_h, dk_h, dv_h = heads(dqkv)
        for (start, stop), probs in zip(bounds, blocks):
            seg = slice(start, stop)
            np.matmul(probs.transpose(0, 2, 1), gh[:, seg], out=dv_h[:, seg])
            ds = np.matmul(gh[:, seg], vh[:, seg].transpose(0, 2, 1))
            ds -= (ds * probs).sum(axis=-1, keepdims=True)
            ds *= probs
            np.matmul(ds, kh[:, seg], out=dq_h[:, seg])
            np.matmul(ds.transpose(0, 2, 1), qh[:, seg], out=dk_h[:, seg])
        dqkv[:, :2 * d] *= scale
        dw = x.data.T @ dqkv
        return (dqkv @ w_qkv.T, dw[:, :d], dw[:, d:2 * d], dw[:, 2 * d:],
                attended.T @ g)

    return record_op("self_attention", attended @ wo.data, (x, wq, wk, wv, wo), bw)


def keep_all_embed_words(ids: np.ndarray, table: Tensor, rate: float = 0.0,
                         rng: np.random.Generator | None = None) -> Tensor:
    """``embedding.embed_words`` as the lookup, then ``keep_all_dropout``
    as a record of its own over that constant."""
    return keep_all_dropout(Tensor(table.data[ids]), rate, rng)


def keep_all_embed_chars(char_ids: np.ndarray, char_table: Tensor, filters: Tensor,
                         *, kernel: int, rate: float = 0.0,
                         rng: np.random.Generator | None = None) -> Tensor:
    """``embedding.embed_chars`` whose backward keeps the gathered
    [n * positions, kernel * char_dim] windows, followed by
    ``keep_all_dropout`` as a record of its own."""
    n, c_max = char_ids.shape
    positions = c_max - kernel + 1
    d_char = filters.shape[1]
    windows = np.lib.stride_tricks.sliding_window_view(char_ids, kernel, axis=1)
    stacked = char_table.data[windows].reshape(n * positions, -1)
    per_word = (stacked @ filters.data).reshape(n, positions, d_char)
    first_max = per_word.argmax(axis=1)[:, None, :]

    def bw(g):
        d_act = np.zeros((n, positions, d_char), dtype=g.dtype)
        np.put_along_axis(d_act, first_max, g[:, None, :], axis=1)
        d_act = d_act.reshape(n * positions, d_char)
        d_table = np.zeros_like(char_table.data)
        np.add.at(d_table, windows,
                  (d_act @ filters.data.T).reshape(*windows.shape, -1))
        return d_table, stacked.T @ d_act

    return keep_all_dropout(
        record_op("char_cnn", per_word.max(axis=1), (char_table, filters), bw), rate, rng)


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


# The package's own ``_branch``: tests put ``keep_all_branch`` in its place.
_package_branch = encoder._branch


def keep_all_branch(kind: str, name: str, store: ParamStore,
                    lengths: Sequence[int] | None, num_heads: int,
                    caps: CapsuleConfig):
    """``encoder._branch`` with a Tensor-level reference branch f(h,
    *weights) in place of the numpy helper: the capsule chain, the
    keep-everything attention record or the feed-forward chain."""
    record, _, weights = _package_branch(kind, name, store, lengths, num_heads, caps)
    branch = {
        "capsule": lambda h, *w: chain_conv_pri_dig_layer(h, *w, caps, lengths),
        "self_attention": lambda h, *w: keep_all_self_attention(h, lengths, num_heads, *w),
        "feed_forward": chain_feed_forward,
    }[record]
    return record, branch, weights


def keep_all_sublayer(x: Tensor, record: str, f: Callable[..., Tensor],
                      weights: Sequence[Tensor], **options) -> Tensor:
    """``keep_all_residual_sublayer`` called the way ``encoder.residual_sublayer``
    is, with the branch and weights of ``keep_all_branch``; the reference
    records no ``record`` of its own, so the fused record's name goes unused."""
    return keep_all_residual_sublayer(x, lambda h: f(h, *weights), **options)
