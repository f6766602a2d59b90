"""Residual encoder blocks: convolution+capsule routing, self-attention, FFN.

Each block b of a stack under prefix P adds the positional signal, then
runs ``num_conv_layers`` conv sublayers P.block{b}.conv{c} (weights .dw,
.pw, .caps), self-attention P.block{b}.attn (.wq, .wk, .wv, .wo) and a
feed-forward layer P.block{b}.ffn (.w1, .b1, .w2, .b2).  ``_sublayers``
lists this layout.  Every sublayer S runs as S(layernorm(x)) + x, with
gain and bias S.ln.gain and S.ln.bias, under stochastic depth; the
survival probability decays linearly with the global sublayer index
across the whole stack.  On the tape a kept sublayer is one record, named
by its branch: ``capsule``, ``self_attention`` or ``feed_forward``.

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
    dropout_mask,
    dropout_scale,
    record_op,
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
    """Scale vectors along the last axis to norm |s|^2/(1+|s|^2), keeping
    their direction; eps keeps the gradient finite at 0.  Returns ``(v,
    grad)``, where ``grad`` maps dL/dv to dL/ds."""
    sq = (s * s).sum(axis=-1, keepdims=True)
    scale = np.sqrt(sq + eps) / (sq + 1.0)

    def grad(g: np.ndarray) -> np.ndarray:
        # v = s * scale(q) with q = |s|^2; scale'(q) = scale * (1/(2(q+eps)) - 1/(q+1))
        dscale = scale * (0.5 / (sq + eps) - 1.0 / (sq + 1.0))
        return g * scale + (2.0 * (g * s).sum(axis=-1, keepdims=True) * dscale) * s

    return s * scale, grad


def depthwise_conv1d(x: np.ndarray, kernel: np.ndarray,
                     lengths: Sequence[int] | None = None):
    """Per-channel 1-D convolution of [n, d] ``x`` with same-length zero
    padding; ``kernel`` is [k, d] with k odd.  With ``lengths`` each segment
    of the pack is convolved on its own: the padded buffer holds the
    segments with k // 2 zero rows before, between and after them.
    Returns ``(out, backward)``; ``backward`` maps dL/dout to (dL/dx,
    dL/dkernel) from the padded buffer the forward built.
    """
    k, d = kernel.shape
    if k % 2 == 0:
        raise ConfigError(f"depthwise_conv1d: kernel size must be odd, got {k}")
    if x.ndim != 2 or x.shape[1] != d:
        raise ShapeError(
            f"depthwise_conv1d: input {x.shape} does not match kernel {kernel.shape}")
    n = x.shape[0]
    pad = k // 2
    # Segment s starts at row start + pad * (s + 1) of the padded buffer
    # and at row start + pad * s of the m output rows, which cover the
    # segments and the gaps between them.
    placed = [(start + pad * s, start, stop)
              for s, (start, stop) in enumerate(segment_bounds(lengths, n))]
    m = n + pad * (len(placed) - 1)

    def padded(a: np.ndarray) -> np.ndarray:
        ap = np.zeros((m + k - 1, d), dtype=a.dtype)
        for at, start, stop in placed:
            ap[pad + at:pad + at + stop - start] = a[start:stop]
        return ap

    def convolve(ap: np.ndarray, flip: bool = False) -> np.ndarray:
        # The segments' rows of sum_tau ap[t:t + m] * kernel[tau], t = tau or k - 1 - tau.
        full = np.zeros((m, d), dtype=ap.dtype)
        for tau in range(k):
            t = k - 1 - tau if flip else tau
            full += ap[t:t + m] * kernel[tau]
        if len(placed) == 1:
            return full
        return np.concatenate([full[at:at + stop - start] for at, start, stop in placed])

    xp = padded(x)

    def backward(g: np.ndarray):
        # dL/dx is g under the flipped kernel, summed in the order of a scatter.
        gp = padded(g)
        return convolve(gp, flip=True), np.stack(
            [(xp[tau:tau + m] * gp[pad:pad + m]).sum(axis=0) for tau in range(k)])

    return convolve(xp), backward


def dynamic_routing(primary: np.ndarray, transform: np.ndarray, iterations: int,
                    coupling_log: list | None = None):
    """Routing-by-agreement from primary to digit capsules, per position.

    Prediction vectors are u_hat[n,i,j,:] = transform[i,j] @ primary[n,i,:].
    Returns ``(v, backward)``; ``backward(g, primary)`` maps dL/dv to
    (dL/dprimary, dL/dtransform) with the last couplings c held constant: it
    differentiates v = squash(sum_i c_ij * u_hat_ij) through the prediction
    vectors and that final squash only, so it is exact only at ``iterations=1``.
    ``coupling_log`` receives each iteration's couplings as [n, i, j].

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
    """
    if iterations < 1:
        raise ConfigError(f"routing needs at least one iteration, got {iterations}")
    pc, dc, pd, dd = transform.shape
    if primary.ndim != 3 or primary.shape[1:] != (pc, pd):
        raise ShapeError(
            f"dynamic_routing: primary {primary.shape} does not match "
            f"transform {transform.shape}")
    n = primary.shape[0]
    dtype = np.result_type(primary, transform)
    uniform = 1.0 / dc
    rows = transform.transpose(0, 2, 1, 3).reshape(pc, pd, dc * dd)
    s = np.matmul(primary.reshape(n, pc * pd), rows.reshape(pc * pd, dc * dd))
    s *= uniform
    couplings = np.broadcast_to(dtype.type(uniform), (n, dc, pc))
    if coupling_log is not None:
        coupling_log.append(couplings.transpose(0, 2, 1).copy())
    v, squash_grad = _squash(s.reshape(n, dc, dd))
    if iterations > 1:
        u_hat = (np.matmul(primary.transpose(1, 0, 2), rows)
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

    def backward(g: np.ndarray, primary: np.ndarray):
        # du_hat laid out [i, n, j*q]: both gradients are then batched over i.
        # The product is written straight into a C-contiguous [i, n, j, q]
        # buffer, so the flattening reshape is a view, not a copy.
        ds = squash_grad(g)
        buf = np.empty((pc, n, dc, dd), dtype=np.result_type(couplings, ds))
        np.multiply(couplings.transpose(2, 0, 1)[..., None], ds[None], out=buf)
        du_hat = buf.reshape(pc, n, dc * dd)
        t_rows = transform.transpose(0, 1, 3, 2).reshape(pc, dc * dd, pd)
        dprimary = np.matmul(du_hat, t_rows).transpose(1, 0, 2)
        dtransform = np.matmul(primary.transpose(1, 2, 0), du_hat)
        return dprimary, dtransform.reshape(pc, pd, dc, dd).transpose(0, 2, 1, 3)

    return v, backward


def conv_pri_dig_layer(x: np.ndarray, depthwise: np.ndarray, pointwise: np.ndarray,
                       transform: np.ndarray, caps: CapsuleConfig,
                       lengths: Sequence[int] | None = None):
    """Separable convolution (per segment), primary capsules, routing and
    flattened digits, as a branch helper whose backward keeps only the
    routing's state: it rebuilds the depthwise output, the pre-squash
    projection and the primary capsules from x with the forward's ops."""
    n, width = x.shape
    if caps.primary_count * caps.primary_dim != width:
        raise ShapeError(
            f"width {width} does not tile into {caps.primary_count} capsules "
            f"of dim {caps.primary_dim}")

    def project(x):
        convolved, conv_backward = depthwise_conv1d(x, depthwise, lengths)
        projected = (convolved @ pointwise).reshape(n, caps.primary_count,
                                                    caps.primary_dim)
        return convolved, conv_backward, projected

    digits, routing_bw = dynamic_routing(_squash(project(x)[2])[0], transform,
                                         caps.routing_iterations)

    def backward(g, x):
        convolved, conv_backward, projected = project(x)
        primary, squash_grad = _squash(projected)
        dprimary, dtransform = routing_bw(g.reshape(n, caps.digit_count, -1), primary)
        dprojected = squash_grad(dprimary).reshape(n, width)
        dx, ddepthwise = conv_backward(dprojected @ pointwise.T)
        return dx, ddepthwise, convolved.T @ dprojected, dtransform

    return digits.reshape(n, -1), backward


def multi_head_self_attention(x: np.ndarray, lengths: Sequence[int] | None,
                              num_heads: int, wq: np.ndarray, wk: np.ndarray,
                              wv: np.ndarray, wo: np.ndarray):
    """Scaled dot-product self-attention per segment, as a branch helper.

    ``lengths`` splits the n rows into segments (None: one segment), and
    no token attends across a boundary.  One GEMM with [wq | wk | wv]
    projects; each segment is a dense [h, n_s, n_s] block over [h, n, d_h]
    views.  The backward keeps no projection, no block and no attended
    values: it recomputes the projection from x and then the blocks and
    attended values, one segment at a time, with the forward's own ops.
    """
    n, d = x.shape
    if d % num_heads:
        raise ConfigError(f"width {d} is not divisible by {num_heads} heads")
    bounds = segment_bounds(lengths, n)
    head_dim = d // num_heads
    scale = 1.0 / math.sqrt(head_dim)   # a Python float keeps float32 inputs float32

    def w_qkv() -> np.ndarray:
        return np.concatenate([wq, wk, wv], axis=1)

    def heads(a: np.ndarray) -> np.ndarray:   # [n, c*d] -> [c, h, n, d_h]
        return a.reshape(n, -1, num_heads, head_dim).transpose(1, 2, 0, 3)

    def probabilities(qh: np.ndarray, kh: np.ndarray, seg: slice) -> np.ndarray:
        # Softmax in place in one [h, n_s, n_s] buffer: large temporaries
        # cost page faults at passage lengths.
        probs = np.matmul(qh[:, seg], kh[:, seg].transpose(0, 2, 1))
        probs *= scale
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        return probs

    qkv = x @ w_qkv()
    qh, kh, vh = heads(qkv)
    attended = np.empty((n, d), dtype=qkv.dtype)
    attended_h = heads(attended)[0]
    for start, stop in bounds:
        seg = slice(start, stop)
        np.matmul(probabilities(qh, kh, seg), vh[:, seg], out=attended_h[:, seg])

    def backward(g, x):
        w = w_qkv()
        qkv = x @ w
        qh, kh, vh = heads(qkv)
        gh = heads(g @ wo.T)[0]
        attended = np.empty((n, d), dtype=qkv.dtype)
        attended_h = heads(attended)[0]
        dqkv = np.empty((n, 3 * d), dtype=g.dtype)
        dq_h, dk_h, dv_h = heads(dqkv)
        for start, stop in bounds:
            seg = slice(start, stop)
            probs = probabilities(qh, kh, seg)
            np.matmul(probs, vh[:, seg], out=attended_h[:, seg])
            np.matmul(probs.transpose(0, 2, 1), gh[:, seg], out=dv_h[:, seg])
            # dS = A * (dA - sum(dA * A)), built in the dA buffer.
            ds = np.matmul(gh[:, seg], vh[:, seg].transpose(0, 2, 1))
            ds -= (ds * probs).sum(axis=-1, keepdims=True)
            ds *= probs
            np.matmul(ds, kh[:, seg], out=dq_h[:, seg])
            np.matmul(ds.transpose(0, 2, 1), qh[:, seg], out=dk_h[:, seg])
        dqkv[:, :2 * d] *= scale
        dw = x.T @ dqkv
        return (dqkv @ w.T, dw[:, :d], dw[:, d:2 * d], dw[:, 2 * d:],
                attended.T @ g)

    return attended @ wo, backward


def feed_forward(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
                 b2: np.ndarray):
    """relu(x w1 + b1) w2 + b2 as a branch helper that keeps no
    activation: its backward rebuilds the hidden activation from x with
    the forward's ops.  The ReLU gradient passes where it is positive."""

    def activate(x):
        return np.maximum(x @ w1 + b1, 0.0)

    hidden = activate(x)

    def backward(g, x):
        hidden = activate(x)
        dpre = (g @ w2.T) * (hidden > 0)
        return (dpre @ w1.T, x.T @ dpre, dpre.sum(axis=0),
                hidden.T @ g, g.sum(axis=0))

    return hidden @ w2 + b2, backward


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-6):
    """Per-row standardisation of an [n, d] input, then affine gain/bias.
    Returns ``(out, normalise, backward)`` and keeps only the [n, 1] mean
    and std: ``normalise(x)`` rebuilds the standardised rows, and
    ``backward(g, normed)`` maps dL/dout to (dL/dx, dL/dgain, dL/dbias)."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)

    def normalise(x):
        return (x - mean) / std

    def backward(g, normed):
        dn = g * gain
        dx = (dn - dn.mean(axis=-1, keepdims=True)
              - normed * (dn * normed).mean(axis=-1, keepdims=True)) / std
        return dx, (g * normed).sum(axis=0), g.sum(axis=0)

    return centered / std * gain + bias, normalise, backward


def survival_probability(layer_index: int, total_layers: int,
                         survival_end: float) -> float:
    """Linear decay from ~1 at the first sublayer to survival_end at the last."""
    if not 0.0 < survival_end <= 1.0:
        raise ConfigError(f"survival probability must be in (0, 1], got {survival_end}")
    return 1.0 - (layer_index / total_layers) * (1.0 - survival_end)


def residual_sublayer(x: Tensor, name: str, f: Callable, weights: Sequence[Tensor], *,
                      layer_index: int, total_layers: int, survival_end: float,
                      gain: Tensor, bias: Tensor, training: bool,
                      rng: np.random.Generator | None = None,
                      dropout_rate: float = 0.0) -> Tensor:
    """x + f(layernorm(x)) * s as one record ``name`` over x, gain, bias
    and ``weights``, skipped stochastically during training.

    ``f(h, *arrays)`` is a branch helper: it returns ``(out, backward)``,
    and ``backward(g, h)`` takes h back, not to keep it, and returns dL/dh,
    then one gradient per weight.  The record's backward rebuilds the
    normalised rows once, for h and for the layer norm.  Training keeps
    the branch with probability p_l, and s is its inverted-dropout scale
    (1 with no dropout), rebuilt from the kept bool mask; in evaluation s = p_l.
    """
    p = survival_probability(layer_index, total_layers, survival_end)
    if training:
        if rng is None:
            raise ConfigError("training-mode residual_sublayer needs an rng")
        if rng.random() >= p:
            return x
        p = 1.0   # a kept branch counts in full
    h, normalise, norm_backward = layer_norm(x.data, gain.data, bias.data)
    branch, branch_backward = f(h, *(w.data for w in weights))
    dtype = branch.dtype
    kept = (dropout_mask(branch.shape, dropout_rate, rng)
            if training and dropout_rate > 0.0 else None)

    def scale():
        return (np.asarray(p, dtype=dtype) if kept is None
                else dropout_scale(kept, dropout_rate, dtype))

    def backward(g):
        normed = normalise(x.data)
        dh, *dweights = branch_backward(g * scale(), normed * gain.data + bias.data)
        dx, dgain, dbias = norm_backward(dh, normed)
        return (g + dx, dgain, dbias, *dweights)

    return record_op(name, x.data + branch * scale(), (x, gain, bias, *weights), backward)


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
            num_heads: int, caps: CapsuleConfig) -> tuple[str, Callable, list[Tensor]]:
    """Sublayer ``name``'s record name, branch helper and weights."""
    record, f, suffixes = {
        "conv": ("capsule", lambda h, *w: conv_pri_dig_layer(h, *w, caps, lengths),
                 ("dw", "pw", "caps")),
        "attn": ("self_attention",
                 lambda h, *w: multi_head_self_attention(h, lengths, num_heads, *w),
                 ("wq", "wk", "wv", "wo")),
        "ffn": ("feed_forward", feed_forward, ("w1", "b1", "w2", "b2")),
    }[kind]
    return record, f, [store.get(f"{name}.{suffix}") for suffix in suffixes]


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
            out, *_branch(kind, name, store, lengths, num_heads, caps),
            layer_index=index, total_layers=len(sublayers),
            survival_end=survival_end, gain=store.get(f"{name}.ln.gain"),
            bias=store.get(f"{name}.ln.bias"), training=training, rng=rng,
            dropout_rate=dropout_rate)
        if kind == "ffn":
            collected.append(out)
        previous = kind
    return collected if collect_blocks else out
