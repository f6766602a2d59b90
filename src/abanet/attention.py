"""Multi-granularity attention: representation stack, mixing, selection,
bidirectional passage-question attention, and the fused output.

Six per-token representations (word+feature, char, embedding output,
contextual mixture, encoder-block output, BiLSTM states) are projected to
a common width and held as one [G, n, d] tensor, mixed by one matmul with
a trainable G x G matrix, reduced to the three highest-weighted levels,
and cross-attended in both directions.  For a pack of examples, passage
segment s attends only to question segment s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import (
    Tensor,
    add,
    concat,
    dropout,
    masked_softmax,
    matmul,
    mul,
    record_op,
    reshape,
    segment_bounds,
    slice_axis,
    stack,
    transpose,
)

COMPONENT_NAMES = ("word", "char", "embed", "contextual", "block", "bilstm")


def assemble_hos(raw: dict[str, Tensor], projections: dict[str, Tensor]) -> Tensor:
    """Project each named representation to the shared width; stack to [G, n, d].

    Projections are bias-free, so a zero representation stays zero after
    reconciliation.
    """
    missing = [name for name in COMPONENT_NAMES if name not in raw]
    if missing:
        raise ShapeError(f"missing history component(s): {', '.join(missing)}")
    lengths = {name: raw[name].shape[0] for name in COMPONENT_NAMES}
    if len(set(lengths.values())) != 1:
        raise ShapeError(f"component token counts disagree: {lengths}")
    components = []
    for name in COMPONENT_NAMES:
        projection = projections[name]
        if projection.shape[0] != raw[name].shape[1]:
            raise ShapeError(
                f"projection for {name!r} expects width {projection.shape[0]}, "
                f"component has {raw[name].shape[1]}")
        components.append(matmul(raw[name], projection))
    return stack(components)


def lambda_init_matrix(mode: str, levels: int) -> np.ndarray:
    """Initial mixing matrix: identity, or the all-ones first column."""
    if mode == "identity":
        return np.eye(levels)
    if mode == "paper":
        out = np.zeros((levels, levels))
        out[:, 0] = 1.0
        return out
    raise ConfigError(f"unknown lambda init mode {mode!r}")


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
    weights = masked_softmax(alpha)
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


def trilinear_similarity(hos_p: Tensor, hos_q: Tensor, w: Tensor, *,
                         training: bool = False,
                         rng: np.random.Generator | None = None,
                         dropout_rate: float = 0.0) -> Tensor:
    """Similarity H[i,j] = w . [p_i ; q_j ; p_i*q_j], with training dropout."""
    width = hos_p.shape[1]
    if hos_q.shape[1] != width or w.shape != (3 * width,):
        raise ShapeError(
            f"trilinear widths disagree: passage {hos_p.shape}, question "
            f"{hos_q.shape}, weight {w.shape}")
    w_p = reshape(slice_axis(w, 0, 0, width), (width, 1))
    w_q = reshape(slice_axis(w, 0, width, width), (width, 1))
    w_pq = slice_axis(w, 0, 2 * width, width)
    similarity = add(
        add(matmul(hos_p, w_p), transpose(matmul(hos_q, w_q))),
        matmul(mul(hos_p, w_pq), transpose(hos_q)))
    if training and dropout_rate > 0.0:
        if rng is None:
            raise ConfigError("training-mode trilinear_similarity needs an rng")
        similarity = dropout(similarity, dropout_rate, rng)
    return similarity


def block_mask(p_lengths: Sequence[int] | None, q_lengths: Sequence[int] | None,
               n: int, m: int) -> np.ndarray | None:
    """[n, m] mask pairing passage segment s with question segment s only.

    None when both sides are one segment, so nothing is masked.
    """
    p_bounds = segment_bounds(p_lengths, n)
    q_bounds = segment_bounds(q_lengths, m)
    if len(p_bounds) != len(q_bounds):
        raise ShapeError(
            f"{len(p_bounds)} passage segments but {len(q_bounds)} question segments")
    if len(p_bounds) == 1:
        return None
    mask = np.zeros((n, m), dtype=bool)
    for (p_start, p_stop), (q_start, q_stop) in zip(p_bounds, q_bounds):
        mask[p_start:p_stop, q_start:q_stop] = True
    return mask


def _check_mask(mask: np.ndarray | None, shape: tuple[int, int]) -> None:
    if mask is None:
        return
    if mask.shape != shape:
        raise ShapeError(f"attention mask shape {mask.shape} != {shape}")
    if not mask.any(axis=1).all():
        raise ShapeError("empty question: a passage token attends to nothing")
    if not mask.any(axis=0).all():
        raise ShapeError("empty passage: a question token attends to nothing")


def p2q_attention(similarity: Tensor, hos_q: Tensor,
                  mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Question summary per passage token: M = row_softmax(H) . HOS_Q.

    ``mask`` is an [n, m] boolean (True = attends) such as ``block_mask``.
    """
    _check_mask(mask, similarity.shape)
    rows = masked_softmax(similarity, mask=mask, axis=-1)
    return matmul(rows, hos_q), rows


def q2p_attention(similarity: Tensor, hos_p: Tensor, rows: Tensor,
                  mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Passage summary per passage token: S = rows . col_sm(H)^T . HOS_P.

    ``rows`` is the row softmax of H that ``p2q_attention`` returns.  With
    a block mask both softmaxes are zero off the blocks, so rows . cols^T
    is block-diagonal and no segment reads another's passage.
    """
    _check_mask(mask, similarity.shape)
    cols = masked_softmax(similarity, mask=mask, axis=0)
    return matmul(matmul(rows, transpose(cols)), hos_p), cols


def fuse_output(hos_p: Tensor, m_summary: Tensor, s_summary: Tensor) -> Tensor:
    """O = [P ; M ; P*M ; P*S] along the feature axis."""
    if not hos_p.shape == m_summary.shape == s_summary.shape:
        raise ShapeError(
            f"fuse_output shapes disagree: {hos_p.shape}, {m_summary.shape}, "
            f"{s_summary.shape}")
    return concat([hos_p, m_summary, mul(hos_p, m_summary),
                   mul(hos_p, s_summary)], axis=1)


@dataclass
class AttentionOutputs:
    """Similarity matrix, its two normalizations, and the fused features."""

    similarity: Tensor       # H  [n x m]
    rows: Tensor             # row-softmaxed H  [n x m]
    cols: Tensor             # column-softmaxed H  [n x m]
    p2q: Tensor              # M  [n x d_h]
    q2p: Tensor              # S  [n x d_h]
    fused: Tensor            # O  [n x 4*d_h]


def bidirectional_attention(hos_p: Tensor, hos_q: Tensor, w: Tensor,
                            p_lengths: Sequence[int] | None = None,
                            q_lengths: Sequence[int] | None = None, *,
                            training: bool = False,
                            rng: np.random.Generator | None = None,
                            dropout_rate: float = 0.0) -> AttentionOutputs:
    """Both attention directions between a packed passage and question.

    ``p_lengths`` and ``q_lengths`` give the segments of each pack (None:
    one segment); passage segment s pairs with question segment s.
    """
    mask = block_mask(p_lengths, q_lengths, hos_p.shape[0], hos_q.shape[0])
    similarity = trilinear_similarity(hos_p, hos_q, w, training=training,
                                      rng=rng, dropout_rate=dropout_rate)
    m_summary, rows = p2q_attention(similarity, hos_q, mask)
    s_summary, cols = q2p_attention(similarity, hos_p, rows, mask)
    fused = fuse_output(hos_p, m_summary, s_summary)
    return AttentionOutputs(similarity=similarity, rows=rows, cols=cols,
                            p2q=m_summary, q2p=s_summary, fused=fused)
