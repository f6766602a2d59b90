"""Residual encoder blocks: convolution+capsule routing, self-attention, FFN.

Every sublayer runs as f(layernorm(x)) + x with stochastic depth; the
survival probability decays linearly with the global sublayer index
across the whole stack.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .config import CapsuleConfig, EncoderBlockConfig
from .errors import ConfigError, ShapeError
from .params import ParamStore, ones_init, zeros_init
from .tensor import (
    Tensor,
    add,
    add_const,
    concat,
    depthwise_separable_conv1d,
    dropout,
    layer_norm,
    masked_softmax,
    matmul,
    mul_const,
    record_op,
    relu,
    reshape,
    slice_axis,
    transpose,
)


def positional_encoding(n: int, d: int) -> np.ndarray:
    """Sinusoidal position table [n x d]; sin on even columns, cos on odd."""
    if d % 2:
        raise ConfigError(f"positional encoding needs an even width, got {d}")
    positions = np.arange(n)[:, None]
    frequencies = np.power(10000.0, -2.0 * np.arange(d // 2) / d)[None, :]
    angles = positions * frequencies
    table = np.zeros((n, d))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
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

    Internally u_hat is laid out [n, j, i, q] and logits and couplings
    [n, j, i], so every contraction is one batched ``np.matmul``;
    ``coupling_log`` still receives each iteration's couplings as [n, i, j].
    """
    if iterations < 1:
        raise ConfigError(f"routing needs at least one iteration, got {iterations}")
    pc, dc, pd, dd = transform.shape
    if primary.ndim != 3 or primary.shape[1:] != (pc, pd):
        raise ShapeError(
            f"dynamic_routing: primary {primary.shape} does not match "
            f"transform {transform.shape}")
    n = primary.shape[0]
    u_hat = np.empty((n, dc, pc, dd),
                     dtype=np.result_type(primary.data, transform.data))
    # [i, 1, n, p] @ [i, j, p, q] written straight into the [n, j, i, q] buffer.
    np.matmul(primary.data.transpose(1, 0, 2)[:, None], transform.data,
              out=u_hat.transpose(2, 1, 0, 3))
    logits = np.zeros(u_hat.shape[:3], dtype=u_hat.dtype)
    for step in range(iterations):
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        couplings = weights / weights.sum(axis=1, keepdims=True)
        if coupling_log is not None:
            coupling_log.append(couplings.transpose(0, 2, 1).copy())
        v, squash_grad = _squash(np.matmul(couplings[:, :, None, :], u_hat)[:, :, 0])
        if step + 1 < iterations:
            logits = logits + np.matmul(u_hat, v[..., None])[..., 0]

    def bw(g):
        # du_hat laid out [i, n, j*q]: both gradients are then batched over i.
        du_hat = (couplings.transpose(2, 0, 1)[..., None]
                  * squash_grad(g)[None]).reshape(pc, n, dc * dd)
        t_rows = transform.data.transpose(0, 1, 3, 2).reshape(pc, dc * dd, pd)
        dprimary = np.matmul(du_hat, t_rows).transpose(1, 0, 2)
        dtransform = np.matmul(primary.data.transpose(1, 2, 0), du_hat)
        return (dprimary,
                dtransform.reshape(pc, pd, dc, dd).transpose(0, 2, 1, 3))

    return record_op("dynamic_routing", v, (primary, transform), bw)


def conv_pri_dig_layer(x: Tensor, depthwise: Tensor, pointwise: Tensor,
                       transform: Tensor, caps: CapsuleConfig) -> Tensor:
    """Separable convolution, primary capsules, routing, flattened digits."""
    n, width = x.shape
    if caps.primary_count * caps.primary_dim != width:
        raise ShapeError(
            f"width {width} does not tile into {caps.primary_count} capsules "
            f"of dim {caps.primary_dim}")
    convolved = depthwise_separable_conv1d(x, depthwise, pointwise)
    primary = squash(reshape(convolved, (n, caps.primary_count, caps.primary_dim)))
    digits = dynamic_routing(primary, transform, caps.routing_iterations)
    return reshape(digits, (n, caps.digit_count * caps.digit_dim))


def multi_head_self_attention(x: Tensor, mask: np.ndarray | None, num_heads: int,
                              wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor) -> Tensor:
    """Scaled dot-product self-attention over unmasked key positions."""
    n, d = x.shape
    if d % num_heads:
        raise ConfigError(f"width {d} is not divisible by {num_heads} heads")
    head_dim = d // num_heads
    q = matmul(x, wq)
    k = matmul(x, wk)
    v = matmul(x, wv)
    key_mask = None if mask is None else np.broadcast_to(
        np.asarray(mask, dtype=bool)[None, :], (n, n))
    heads = []
    for h in range(num_heads):
        start = h * head_dim
        qh = slice_axis(q, 1, start, head_dim)
        kh = slice_axis(k, 1, start, head_dim)
        vh = slice_axis(v, 1, start, head_dim)
        scores = mul_const(matmul(qh, transpose(kh)),
                           np.asarray(1.0 / np.sqrt(head_dim)))
        attention = masked_softmax(scores, mask=key_mask, axis=-1)
        heads.append(matmul(attention, vh))
    return matmul(concat(heads, axis=1), wo)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    return add(matmul(relu(add(matmul(x, w1), b1)), w2), b2)


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

    Training keeps the branch with probability p_l and applies dropout to
    it; evaluation always adds the branch scaled by p_l.
    """
    p = survival_probability(layer_index, total_layers, survival_end)
    if training:
        if rng is None:
            raise ConfigError("training-mode residual_sublayer needs an rng")
        if rng.random() >= p:
            return x
        branch = f(layer_norm(x, gain, bias))
        if dropout_rate > 0.0:
            branch = dropout(branch, dropout_rate, rng)
        return add(x, branch)
    branch = f(layer_norm(x, gain, bias))
    return add(x, mul_const(branch, np.asarray(p)))


# ---------------------------------------------------------------------------
# Stacks
# ---------------------------------------------------------------------------

def _register_layer_norm(store: ParamStore, name: str, d: int, *,
                         trainable: bool) -> None:
    store.create(f"{name}.gain", (d,), ones_init, trainable=trainable)
    store.create(f"{name}.bias", (d,), zeros_init, trainable=trainable)


def build_encoder_stack(store: ParamStore, prefix: str, *, d: int, num_heads: int,
                        ffn_hidden: int, block: EncoderBlockConfig,
                        caps: CapsuleConfig, rng: np.random.Generator,
                        trainable: bool = True) -> None:
    """Register every parameter of a stack of encoder blocks."""
    for b in range(block.num_blocks):
        base = f"{prefix}.block{b}"
        for c in range(block.num_conv_layers):
            conv = f"{base}.conv{c}"
            store.create(f"{conv}.dw", (block.kernel, d), rng=rng,
                         trainable=trainable)
            store.create(f"{conv}.pw", (d, d), rng=rng, trainable=trainable)
            store.create(
                f"{conv}.caps",
                (caps.primary_count, caps.digit_count,
                 caps.primary_dim, caps.digit_dim),
                lambda r, shape: r.normal(0.0, 0.2, size=shape), rng=rng,
                trainable=trainable)
            _register_layer_norm(store, f"{conv}.ln", d, trainable=trainable)
        for name in ("wq", "wk", "wv", "wo"):
            store.create(f"{base}.attn.{name}", (d, d), rng=rng,
                         trainable=trainable)
        _register_layer_norm(store, f"{base}.attn.ln", d, trainable=trainable)
        store.create(f"{base}.ffn.w1", (d, ffn_hidden), rng=rng,
                     trainable=trainable)
        store.create(f"{base}.ffn.b1", (ffn_hidden,), zeros_init,
                     trainable=trainable)
        store.create(f"{base}.ffn.w2", (ffn_hidden, d), rng=rng,
                     trainable=trainable)
        store.create(f"{base}.ffn.b2", (d,), zeros_init, trainable=trainable)
        _register_layer_norm(store, f"{base}.ffn.ln", d, trainable=trainable)


def encoder_block_forward(x: Tensor, mask: np.ndarray | None, store: ParamStore,
                          base: str, *, num_heads: int, block: EncoderBlockConfig,
                          caps: CapsuleConfig, survival_end: float,
                          dropout_rate: float, training: bool,
                          rng: np.random.Generator | None,
                          layer_offset: int, total_layers: int) -> Tensor:
    """One block: positional signal, conv+capsule sublayers, attention, FFN."""
    n, d = x.shape
    out = add_const(x, positional_encoding(n, d))
    layer = layer_offset
    for c in range(block.num_conv_layers):
        conv = f"{base}.conv{c}"
        layer += 1
        out = residual_sublayer(
            out,
            lambda h, _c=conv: conv_pri_dig_layer(
                h, store.get(f"{_c}.dw"), store.get(f"{_c}.pw"),
                store.get(f"{_c}.caps"), caps),
            layer_index=layer, total_layers=total_layers,
            survival_end=survival_end, gain=store.get(f"{conv}.ln.gain"),
            bias=store.get(f"{conv}.ln.bias"), training=training, rng=rng,
            dropout_rate=dropout_rate)
    layer += 1
    out = residual_sublayer(
        out,
        lambda h: multi_head_self_attention(
            h, mask, num_heads, store.get(f"{base}.attn.wq"),
            store.get(f"{base}.attn.wk"), store.get(f"{base}.attn.wv"),
            store.get(f"{base}.attn.wo")),
        layer_index=layer, total_layers=total_layers, survival_end=survival_end,
        gain=store.get(f"{base}.attn.ln.gain"),
        bias=store.get(f"{base}.attn.ln.bias"), training=training, rng=rng,
        dropout_rate=dropout_rate)
    layer += 1
    out = residual_sublayer(
        out,
        lambda h: feed_forward(
            h, store.get(f"{base}.ffn.w1"), store.get(f"{base}.ffn.b1"),
            store.get(f"{base}.ffn.w2"), store.get(f"{base}.ffn.b2")),
        layer_index=layer, total_layers=total_layers, survival_end=survival_end,
        gain=store.get(f"{base}.ffn.ln.gain"),
        bias=store.get(f"{base}.ffn.ln.bias"), training=training, rng=rng,
        dropout_rate=dropout_rate)
    return out


def run_encoder_stack(x: Tensor, mask: np.ndarray | None, store: ParamStore,
                      prefix: str, *, num_heads: int, block: EncoderBlockConfig,
                      caps: CapsuleConfig, survival_end: float = 0.9,
                      dropout_rate: float = 0.0, training: bool = False,
                      rng: np.random.Generator | None = None,
                      collect_blocks: bool = False):
    """Apply the whole stack; sublayer indices count across all blocks.

    With ``collect_blocks`` the per-block outputs come back as a list
    (the contextual provider reads those as its layers).
    """
    sublayers_per_block = block.num_conv_layers + 2
    total_layers = block.num_blocks * sublayers_per_block
    out = x
    collected = []
    for b in range(block.num_blocks):
        out = encoder_block_forward(
            out, mask, store, f"{prefix}.block{b}", num_heads=num_heads,
            block=block, caps=caps, survival_end=survival_end,
            dropout_rate=dropout_rate, training=training, rng=rng,
            layer_offset=b * sublayers_per_block, total_layers=total_layers)
        collected.append(out)
    return collected if collect_blocks else out
