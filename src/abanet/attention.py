"""Multi-granularity attention: representation stack, mixing, selection,
and bidirectional passage-question attention.

Six per-token representations (word+feature, char, embedding output,
contextual mixture, encoder-block output, BiLSTM states) are projected to
a common width and held as one [G, n, d] tensor, mixed by one matmul with
a trainable G x G matrix, reduced to the three highest-weighted levels,
and cross-attended in both directions.  A pack of examples needs no
masks: attention loops over the pairs of passage segment s and question
segment s, and records the whole pack as one tape record.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import (
    Tensor,
    dropout_mask,
    dropout_scale,
    matmul,
    record_op,
    reshape,
    segment_bounds,
    segment_softmax,
)

COMPONENT_NAMES = ("word", "char", "embed", "contextual", "block", "bilstm")


def assemble_hos(raw: dict[str, Tensor], projections: dict[str, Tensor]) -> Tensor:
    """Project each named representation to the shared width; stack to [G, n, d].

    One ``assemble_hos`` record over the six levels and their projections.
    Projections are bias-free, so a zero representation stays zero after
    reconciliation.  A level whose gradient is all zero (left out by
    ``select_top3`` of an unmixed stack) sends none to its parents.
    """
    missing = [name for name in COMPONENT_NAMES if name not in raw]
    if missing:
        raise ShapeError(f"missing history component(s): {', '.join(missing)}")
    lengths = {name: raw[name].shape[0] for name in COMPONENT_NAMES}
    if len(set(lengths.values())) != 1:
        raise ShapeError(f"component token counts disagree: {lengths}")
    pairs = [(raw[name], projections[name]) for name in COMPONENT_NAMES]
    for name, (x, w) in zip(COMPONENT_NAMES, pairs):
        if w.shape[0] != x.shape[1]:
            raise ShapeError(
                f"projection for {name!r} expects width {w.shape[0]}, "
                f"component has {x.shape[1]}")

    def bw(g):
        return [grad for (x, w), row in zip(pairs, g) for grad in
                ((row @ w.data.T, x.data.T @ row) if row.any() else (None, None))]

    return record_op("assemble_hos", np.stack([x.data @ w.data for x, w in pairs]),
                     [t for pair in pairs for t in pair], bw)


def adaptive_scale(hos: Tensor, mixing: Tensor) -> Tensor:
    """Mix granularity levels: output level g = sum_j mixing[g, j] * level j."""
    levels = hos.shape[0]
    if mixing.shape != (levels, levels):
        raise ShapeError(
            f"mixing matrix {mixing.shape} does not match {levels} levels")
    mixed = matmul(mixing, reshape(hos, (levels, -1)))
    return reshape(mixed, hos.shape)


def select_top3(hos: Tensor, alpha: Tensor) -> tuple[Tensor, tuple[int, ...]]:
    """Keep the three highest-softmax-weighted levels of a [G, n, d] stack,
    scaled by their weights and concatenated in ascending index order: [n, 3d].

    Ties break toward the lower index.  Gradients reach alpha only through
    the selected weights; the unselected levels get exactly zero.
    """
    levels = hos.shape[0]
    if levels < 3:
        raise ConfigError(f"need at least 3 levels to select from, got {levels}")
    if alpha.shape != (levels,):
        raise ShapeError(f"alpha shape {alpha.shape} does not match {levels} levels")
    weights = segment_softmax(alpha)
    w = weights.data
    ranked = np.argsort(-w, kind="stable")
    chosen = tuple(sorted(int(i) for i in ranked[:3]))
    out = np.concatenate([w[level] * hos.data[level] for level in chosen], axis=1)

    def bw(g):
        dhos = np.zeros_like(hos.data)
        dweights = np.zeros_like(w)
        for level, part in zip(chosen, np.split(g, 3, axis=1)):
            dhos[level] = w[level] * part
            dweights[level] = (part * hos.data[level]).sum(axis=0).sum()
        return dhos, dweights

    return record_op("select_top3", out, (hos, weights), bw), chosen


def bidirectional_attention(hos_p: Tensor, hos_q: Tensor, w: Tensor,
                            p_lengths: Sequence[int] | None = None,
                            q_lengths: Sequence[int] | None = None, *,
                            training: bool = False,
                            rng: np.random.Generator | None = None,
                            dropout_rate: float = 0.0) -> Tensor:
    """O = [P ; M ; P*M ; P*S] for a packed passage and question: [n, 4d].

    ``p_lengths`` and ``q_lengths`` give the segments of each pack (None:
    one segment); passage segment s attends only to question segment s.
    For each pair (p, q) the trilinear similarity
    H = p.w_p + (q.w_q)^T + (p*w_pq).q^T (BiDAF) is normalised by rows, R,
    and by columns, C.  M = R.q summarises the question for every passage
    token and S = (R.C^T).p summarises the passage (QANet's q2p).  In
    training, H is dropped out by one mask drawn over the packed [n, m]
    shape, of which each pair reads its block.

    The pack is one ``bidirectional_attention`` record; its closed-form
    backward keeps only each pair's R and C.
    """
    n, width = hos_p.shape
    m = hos_q.shape[0]
    if hos_q.shape[1] != width or w.shape != (3 * width,):
        raise ShapeError(
            f"trilinear widths disagree: passage {hos_p.shape}, question "
            f"{hos_q.shape}, weight {w.shape}")
    p_bounds = segment_bounds(p_lengths, n)
    q_bounds = segment_bounds(q_lengths, m)
    if len(p_bounds) != len(q_bounds):
        raise ShapeError(
            f"{len(p_bounds)} passage segments but {len(q_bounds)} question segments")
    keep = None
    if training and dropout_rate > 0.0:
        keep = dropout_mask((n, m), dropout_rate, rng)
    dtype = hos_p.data.dtype
    w_p, w_q, w_pq = (w.data[k * width:(k + 1) * width] for k in range(3))
    pairs = [(slice(*ps), slice(*qs)) for ps, qs in zip(p_bounds, q_bounds)]
    out = np.empty((n, 4 * width), dtype=dtype)
    softmaxes = []
    for ps, qs in pairs:
        p, q = hos_p.data[ps], hos_q.data[qs]
        h = (p @ w_p[:, None] + (q @ w_q[:, None]).T
             + (p * w_pq) @ np.ascontiguousarray(q.T))
        if keep is not None:
            h *= dropout_scale(keep[ps, qs], dropout_rate, dtype)
        rows = np.exp(h - h.max(axis=1, keepdims=True))
        rows /= rows.sum(axis=1, keepdims=True)
        cols = np.exp(h - h.max(axis=0, keepdims=True))
        cols /= cols.sum(axis=0, keepdims=True)
        m_summary = rows @ q
        s_summary = (rows @ np.ascontiguousarray(cols.T)) @ p
        block = out[ps]
        block[:, :width] = p
        block[:, width:2 * width] = m_summary
        np.multiply(p, m_summary, out=block[:, 2 * width:3 * width])
        np.multiply(p, s_summary, out=block[:, 3 * width:])
        softmaxes.append((rows, cols))

    def bw(g):
        dp_all = np.empty_like(hos_p.data)
        dq_all = np.empty_like(hos_q.data)
        dw = np.zeros_like(w.data)
        for (ps, qs), (rows, cols) in zip(pairs, softmaxes):
            p, q = hos_p.data[ps], hos_q.data[qs]
            g_p, g_m, g_pm, g_ps = (g[ps, k * width:(k + 1) * width]
                                    for k in range(4))
            m_summary = out[ps, width:2 * width]
            # S = R.(C^T.p): the backward forms no [n_s, n_s] product.
            passage_by_q = cols.T @ p                  # [m_s, d]
            dm = g_m + g_pm * p
            ds = g_ps * p
            dp = g_p + g_pm * m_summary + g_ps * (rows @ passage_by_q)
            d_passage_by_q = rows.T @ ds
            drows = dm @ q.T + ds @ passage_by_q.T
            dcols = p @ d_passage_by_q.T
            dp += cols @ d_passage_by_q
            dq = rows.T @ dm
            dh = (rows * (drows - (drows * rows).sum(axis=1, keepdims=True))
                  + cols * (dcols - (dcols * cols).sum(axis=0, keepdims=True)))
            if keep is not None:
                dh *= dropout_scale(keep[ps, qs], dropout_rate, dtype)
            dh_rows, dh_cols, dh_q = dh.sum(axis=1), dh.sum(axis=0), dh @ q
            dp += dh_rows[:, None] * w_p + dh_q * w_pq
            dq += dh_cols[:, None] * w_q + dh.T @ (p * w_pq)
            dw[:width] += dh_rows @ p
            dw[width:2 * width] += dh_cols @ q
            dw[2 * width:] += (dh_q * p).sum(axis=0)
            dp_all[ps] = dp
            dq_all[qs] = dq
        return dp_all, dq_all, dw

    return record_op("bidirectional_attention", out, (hos_p, hos_q, w), bw)
