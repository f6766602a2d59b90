"""Residual encoder blocks: convolution+capsule routing, self-attention, FFN.

Each block b of a stack under prefix P adds the positional signal, then
runs ``num_conv_layers`` conv sublayers P.block{b}.conv{c} (weights .dw,
.pw, .caps), self-attention P.block{b}.attn (.wq, .wk, .wv, .wo) and a
feed-forward layer P.block{b}.ffn (.w1, .b1, .w2, .b2).  ``_sublayers``
lists this layout.  Every sublayer S runs as S(layernorm(x)) + x, with
gain and bias S.ln.gain and S.ln.bias, under stochastic depth; the
survival probability decays linearly with the global sublayer index
across the whole stack.

A stack runs on a pack: sequences joined into one [n, d] input, with
their lengths.  Only the positional signal, the depthwise convolution and
self-attention look across tokens, and each of them stays within its
segment; every other op works per token.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .config import CapsuleConfig, EncoderBlockConfig
from .errors import ConfigError, ShapeError
from .params import ParamStore, normal_init, ones_init, zeros_init
from .tensor import (
    Tensor,
    add_const,
    depthwise_conv1d,
    dropout_mask,
    dropout_scale,
    layer_norm,
    matmul,
    record_op,
    reshape,
    segment_bounds,
)

# Cached positional tables: one per width and power-of-two length.
POSITIONAL_CACHE_SIZE = 32


def positional_encoding(n: int, d: int,
                        lengths: Sequence[int] | None = None) -> np.ndarray:
    """Sinusoidal position table [n x d]; sin on even columns, cos on odd.

    A row does not depend on n, so this is a read-only view of the first
    n rows of a shared table whose length is n rounded up to a power of two.
    With ``lengths`` positions restart at each segment of the pack: row r
    is the table row of r's position within its segment.
    """
    if d % 2:
        raise ConfigError(f"positional encoding needs an even width, got {d}")
    bounds = segment_bounds(lengths, n)
    if len(bounds) == 1:
        return _sinusoid_table(1 << max(n - 1, 0).bit_length(), d)[:n]
    longest = max(stop - start for start, stop in bounds)
    positions = np.concatenate([np.arange(stop - start) for start, stop in bounds])
    return _sinusoid_table(1 << (longest - 1).bit_length(), d)[positions]


@lru_cache(maxsize=POSITIONAL_CACHE_SIZE)
def _sinusoid_table(rows: int, d: int) -> np.ndarray:
    positions = np.arange(rows)[:, None]
    frequencies = np.power(10000.0, -2.0 * np.arange(d // 2) / d)[None, :]
    angles = positions * frequencies
    table = np.zeros((rows, d))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    table.setflags(write=False)
    return table


def _squash(s: np.ndarray, eps: float = 1e-12):
    """Numpy squash of ``s`` along the last axis, plus its gradient map.

    Returns ``(v, grad)`` where ``grad`` maps dL/dv to dL/ds.
    """
    sq = (s * s).sum(axis=-1, keepdims=True)
    scale = np.sqrt(sq + eps) / (sq + 1.0)

    def grad(g: np.ndarray) -> np.ndarray:
        # v = s * scale(q) with q = |s|^2; scale'(q) = scale * (1/(2(q+eps)) - 1/(q+1))
        dscale = scale * (0.5 / (sq + eps) - 1.0 / (sq + 1.0))
        return g * scale + (2.0 * (g * s).sum(axis=-1, keepdims=True) * dscale) * s

    return s * scale, grad


def squash(v: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale vectors along the last axis to norm |v|^2/(1+|v|^2).

    Direction is preserved and the zero vector maps to zero; eps keeps
    the gradient finite there.
    """
    out, grad = _squash(v.data, eps)
    return record_op("squash", out, (v,), lambda g: (grad(g),))


def dynamic_routing(primary: Tensor, transform: Tensor, iterations: int,
                    coupling_log: list | None = None) -> Tensor:
    """Routing-by-agreement from primary to digit capsules, per position.

    Prediction vectors are u_hat[n,i,j,:] = transform[i,j] @ primary[n,i,:].
    Every iteration runs outside the tape.  The backward pass treats the
    last iteration's couplings c as constants: it differentiates
    v = squash(sum_i c_ij * u_hat_ij) through the prediction vectors and
    that final squash only.  The gradient is therefore exact only at
    ``iterations=1``; with more, the dependence of c on u_hat is dropped.

    Layouts: the transform is read as rows W[i, p, j*q]; u_hat is built
    as one GEMM per primary capsule, [i, n, p] @ [i, p, j*q], and read
    through a strided [n, j, i, q] view; logits and couplings are
    [n, j, i], so every contraction is one batched ``np.matmul``.

    Step 0 is closed-form: its couplings are exactly 1/J, so its
    s = primary[n, i*p] @ W[i*p, j*q] / J is one GEMM.  u_hat is first
    needed for the agreement after step 0, so ``iterations=1`` never
    builds it.  The coupling softmax over j shifts every logit by their
    one largest value when the logits span less than log(eps / tiny) of
    the dtype, so each weight within eps of its row's largest stays a
    normal number; wider logits are shifted by each (n, i) maximum over j.

    ``coupling_log`` receives each iteration's couplings as [n, i, j].
    """
    if iterations < 1:
        raise ConfigError(f"routing needs at least one iteration, got {iterations}")
    pc, dc, pd, dd = transform.shape
    if primary.ndim != 3 or primary.shape[1:] != (pc, pd):
        raise ShapeError(
            f"dynamic_routing: primary {primary.shape} does not match "
            f"transform {transform.shape}")
    n = primary.shape[0]
    dtype = np.result_type(primary.data, transform.data)
    uniform = 1.0 / dc
    rows = transform.data.transpose(0, 2, 1, 3).reshape(pc, pd, dc * dd)
    s = np.matmul(primary.data.reshape(n, pc * pd), rows.reshape(pc * pd, dc * dd))
    s *= uniform
    couplings = np.broadcast_to(dtype.type(uniform), (n, dc, pc))
    if coupling_log is not None:
        coupling_log.append(couplings.transpose(0, 2, 1).copy())
    v, squash_grad = _squash(s.reshape(n, dc, dd))
    if iterations > 1:
        u_hat = (np.matmul(primary.data.transpose(1, 0, 2), rows)
                 .reshape(pc, n, dc, dd).transpose(1, 2, 0, 3))
        logits = np.zeros((n, dc, pc), dtype=dtype)
        agreement = np.empty((n, dc, pc, 1), dtype=dtype)
        ones = np.ones((1, dc), dtype=dtype)
        finfo = np.finfo(dtype)
        shared_shift_span = math.log(finfo.eps / finfo.tiny)
        for _ in range(1, iterations):
            np.matmul(u_hat, v[..., None], out=agreement)
            logits += agreement[..., 0]
            top = logits.max()
            if top - logits.min() < shared_shift_span:
                couplings = logits - top
            else:
                couplings = logits - logits.max(axis=1, keepdims=True)
            np.exp(couplings, out=couplings)
            couplings /= np.matmul(ones, couplings)
            if coupling_log is not None:
                coupling_log.append(couplings.transpose(0, 2, 1).copy())
            s = np.matmul(couplings[:, :, None, :], u_hat)[:, :, 0]
            v, squash_grad = _squash(s)

    def bw(g):
        # du_hat laid out [i, n, j*q]: both gradients are then batched over i.
        # The product is written straight into a C-contiguous [i, n, j, q]
        # buffer, so the flattening reshape is a view, not a copy.
        ds = squash_grad(g)
        buf = np.empty((pc, n, dc, dd), dtype=np.result_type(couplings, ds))
        np.multiply(couplings.transpose(2, 0, 1)[..., None], ds[None], out=buf)
        du_hat = buf.reshape(pc, n, dc * dd)
        t_rows = transform.data.transpose(0, 1, 3, 2).reshape(pc, dc * dd, pd)
        dprimary = np.matmul(du_hat, t_rows).transpose(1, 0, 2)
        dtransform = np.matmul(primary.data.transpose(1, 2, 0), du_hat)
        return (dprimary,
                dtransform.reshape(pc, pd, dc, dd).transpose(0, 2, 1, 3))

    return record_op("dynamic_routing", v, (primary, transform), bw)


def conv_pri_dig_layer(x: Tensor, depthwise: Tensor, pointwise: Tensor,
                       transform: Tensor, caps: CapsuleConfig,
                       lengths: Sequence[int] | None = None) -> Tensor:
    """Separable convolution (per segment), primary capsules, routing,
    flattened digits."""
    n, width = x.shape
    if caps.primary_count * caps.primary_dim != width:
        raise ShapeError(
            f"width {width} does not tile into {caps.primary_count} capsules "
            f"of dim {caps.primary_dim}")
    convolved = matmul(depthwise_conv1d(x, depthwise, lengths), pointwise)
    primary = squash(reshape(convolved, (n, caps.primary_count, caps.primary_dim)))
    digits = dynamic_routing(primary, transform, caps.routing_iterations)
    return reshape(digits, (n, caps.digit_count * caps.digit_dim))


def multi_head_self_attention(x: Tensor, lengths: Sequence[int] | None,
                              num_heads: int, wq: Tensor, wk: Tensor, wv: Tensor,
                              wo: Tensor) -> Tensor:
    """Scaled dot-product self-attention within each segment of a pack.

    ``lengths`` splits the n rows into segments (None: one segment), and
    no token attends across a boundary.  All heads and segments run as one
    ``self_attention`` record over [h, n, d_h] views of the projections:
    each segment is a dense [h, n_s, n_s] block.  The backward keeps no
    block: it recomputes each segment's probabilities from the queries
    and keys, one segment at a time, with the forward's own ops.
    """
    n, d = x.shape
    if d % num_heads:
        raise ConfigError(f"width {d} is not divisible by {num_heads} heads")
    bounds = segment_bounds(lengths, n)
    head_dim = d // num_heads
    scale = 1.0 / math.sqrt(head_dim)   # a Python float keeps float32 inputs float32
    q = matmul(x, wq)
    k = matmul(x, wk)
    v = matmul(x, wv)

    def heads(a: np.ndarray) -> np.ndarray:
        return a.reshape(n, num_heads, head_dim).transpose(1, 0, 2)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)

    def probabilities(seg: slice) -> np.ndarray:
        # Softmax in place in one [h, n_s, n_s] buffer: large temporaries
        # cost page faults at passage lengths.
        probs = np.matmul(qh[:, seg], kh[:, seg].transpose(0, 2, 1))
        probs *= scale
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        return probs

    out = np.empty((n, d), dtype=q.data.dtype)
    out_h = heads(out)
    for start, stop in bounds:
        seg = slice(start, stop)
        np.matmul(probabilities(seg), vh[:, seg], out=out_h[:, seg])

    def bw(g):
        gh = heads(g)
        dq, dk, dv = (np.empty((n, d), dtype=g.dtype) for _ in range(3))
        dq_h, dk_h, dv_h = heads(dq), heads(dk), heads(dv)
        for start, stop in bounds:
            seg = slice(start, stop)
            probs = probabilities(seg)
            np.matmul(probs.transpose(0, 2, 1), gh[:, seg], out=dv_h[:, seg])
            # dS = A * (dA - sum(dA * A)), built in the dA buffer.
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


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x w1 + b1) w2 + b2 as one record that keeps only the hidden
    activation; the ReLU gradient passes where it is positive."""
    hidden = np.maximum(x.data @ w1.data + b1.data, 0.0)

    def bw(g):
        dpre = (g @ w2.data.T) * (hidden > 0)
        return (dpre @ w1.data.T, x.data.T @ dpre, dpre.sum(axis=0),
                hidden.T @ g, g.sum(axis=0))

    return record_op("feed_forward", hidden @ w2.data + b2.data,
                     (x, w1, b1, w2, b2), bw)


def survival_probability(layer_index: int, total_layers: int,
                         survival_end: float) -> float:
    """Linear decay from ~1 at the first sublayer to survival_end at the last."""
    if not 0.0 < survival_end <= 1.0:
        raise ConfigError(f"survival probability must be in (0, 1], got {survival_end}")
    return 1.0 - (layer_index / total_layers) * (1.0 - survival_end)


def residual_sublayer(x: Tensor, f: Callable[[Tensor], Tensor], *,
                      layer_index: int, total_layers: int, survival_end: float,
                      gain: Tensor, bias: Tensor, training: bool,
                      rng: np.random.Generator | None = None,
                      dropout_rate: float = 0.0) -> Tensor:
    """x + f(layernorm(x)), skipped stochastically during training.

    Every mode records one ``residual`` record, x + branch * s, whose
    backward is (g, g * s).  Training keeps the branch with probability
    p_l, and s is the inverted-dropout scale of the branch (1 with no
    dropout), rebuilt in the backward from the kept bool mask; evaluation
    always keeps the branch, with s = p_l.
    """
    p = survival_probability(layer_index, total_layers, survival_end)
    if training:
        if rng is None:
            raise ConfigError("training-mode residual_sublayer needs an rng")
        if rng.random() >= p:
            return x
        p = 1.0   # a kept branch counts in full
    branch = f(layer_norm(x, gain, bias))
    dtype = branch.data.dtype
    kept = (dropout_mask(branch.shape, dropout_rate, rng)
            if training and dropout_rate > 0.0 else None)

    def scale():
        if kept is None:
            return np.asarray(p, dtype=dtype)
        return dropout_scale(kept, dropout_rate, dtype)

    return record_op("residual", x.data + branch.data * scale(), (x, branch),
                     lambda g: (g, g * scale()))


# ---------------------------------------------------------------------------
# Stacks
# ---------------------------------------------------------------------------

def _sublayers(prefix: str, block: EncoderBlockConfig) -> list[tuple[str, str]]:
    """The stack's sublayers in order, as (kind, parameter prefix)."""
    return [(kind, f"{prefix}.block{b}.{name}")
            for b in range(block.num_blocks)
            for kind, name in [*(("conv", f"conv{c}") for c in range(block.num_conv_layers)),
                               ("attn", "attn"), ("ffn", "ffn")]]


def build_encoder_stack(store: ParamStore, prefix: str, *, d: int,
                        ffn_hidden: int, block: EncoderBlockConfig,
                        caps: CapsuleConfig, rng: np.random.Generator,
                        trainable: bool = True) -> None:
    """Register every parameter of a stack, sublayer by sublayer: the
    sublayer's weights, then its layer norm's gain and bias."""
    weights = {
        "conv": [("dw", (block.kernel, d), None), ("pw", (d, d), None),
                 ("caps", (caps.primary_count, caps.digit_count,
                           caps.primary_dim, caps.digit_dim), normal_init(0.2))],
        "attn": [(name, (d, d), None) for name in ("wq", "wk", "wv", "wo")],
        "ffn": [("w1", (d, ffn_hidden), None), ("b1", (ffn_hidden,), zeros_init),
                ("w2", (ffn_hidden, d), None), ("b2", (d,), zeros_init)],
    }
    norm = [("ln.gain", (d,), ones_init), ("ln.bias", (d,), zeros_init)]
    for kind, name in _sublayers(prefix, block):
        for suffix, shape, init in weights[kind] + norm:
            store.create(f"{name}.{suffix}", shape, init, rng=rng, trainable=trainable)


def _branch(kind: str, name: str, store: ParamStore, lengths: Sequence[int] | None,
            num_heads: int, caps: CapsuleConfig) -> Callable[[Tensor], Tensor]:
    """The function sublayer ``name`` applies to its normalized input."""
    def get(*suffixes: str) -> list[Tensor]:
        return [store.get(f"{name}.{suffix}") for suffix in suffixes]

    if kind == "conv":
        return lambda h: conv_pri_dig_layer(h, *get("dw", "pw", "caps"), caps, lengths)
    if kind == "attn":
        return lambda h: multi_head_self_attention(
            h, lengths, num_heads, *get("wq", "wk", "wv", "wo"))
    return lambda h: feed_forward(h, *get("w1", "b1", "w2", "b2"))


def run_encoder_stack(x: Tensor, lengths: Sequence[int] | None, store: ParamStore,
                      prefix: str, *, num_heads: int, block: EncoderBlockConfig,
                      caps: CapsuleConfig, survival_end: float = 0.9,
                      dropout_rate: float = 0.0, training: bool = False,
                      rng: np.random.Generator | None = None,
                      collect_blocks: bool = False):
    """Apply the whole stack to a pack (``lengths``: its segment lengths,
    None for one segment) in one loop over its sublayers.

    A block starts after the previous block's FFN, with the positional
    signal.  Each sublayer is one ``residual_sublayer``, indexed from 1
    across all blocks.  Each FFN's output is its block's output, which
    ``collect_blocks`` returns as a list (the contextual provider's layers).
    """
    sublayers = _sublayers(prefix, block)
    out, collected, previous = x, [], "ffn"
    for index, (kind, name) in enumerate(sublayers, start=1):
        if previous == "ffn":
            out = add_const(out, positional_encoding(*out.shape, lengths))
        out = residual_sublayer(
            out, _branch(kind, name, store, lengths, num_heads, caps),
            layer_index=index, total_layers=len(sublayers),
            survival_end=survival_end, gain=store.get(f"{name}.ln.gain"),
            bias=store.get(f"{name}.ln.bias"), training=training, rng=rng,
            dropout_rate=dropout_rate)
        if kind == "ffn":
            collected.append(out)
        previous = kind
    return collected if collect_blocks else out
