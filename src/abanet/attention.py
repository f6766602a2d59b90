"""Multi-granularity attention: representation stack, mixing, selection,
bidirectional passage-question attention, and the fused output.

Six per-token representations (word+feature, char, embedding output,
contextual mixture, encoder-block output, BiLSTM states) are projected to
a common width, mixed by a trainable matrix, reduced to the three
highest-weighted levels, and cross-attended in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    reshape,
    slice_axis,
    stack_flat,
    transpose,
)

COMPONENT_NAMES = ("word", "char", "embed", "contextual", "block", "bilstm")


@dataclass
class HistoryOfSemantic:
    """The six granularity levels of one sequence, all projected to [n x d]."""

    components: list[Tensor]

    def __post_init__(self):
        if len(self.components) != len(COMPONENT_NAMES):
            raise ShapeError(
                f"expected {len(COMPONENT_NAMES)} components, "
                f"got {len(self.components)}")


def assemble_hos(raw: dict[str, Tensor], projections: dict[str, Tensor]) -> HistoryOfSemantic:
    """Project each named representation to the shared width and stack them.

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
    return HistoryOfSemantic(components)


def lambda_init_matrix(mode: str, levels: int) -> np.ndarray:
    """Initial mixing matrix: identity, or the all-ones first column."""
    if mode == "identity":
        return np.eye(levels)
    if mode == "paper":
        out = np.zeros((levels, levels))
        out[:, 0] = 1.0
        return out
    raise ConfigError(f"unknown lambda init mode {mode!r}")


def adaptive_scale(hos: HistoryOfSemantic, mixing: Tensor) -> list[Tensor]:
    """Mix granularity levels: output level g = sum_j mixing[g, j] * level j."""
    components = hos.components
    levels = len(components)
    if mixing.shape != (levels, levels):
        raise ShapeError(
            f"mixing matrix {mixing.shape} does not match {levels} levels")
    n, d = components[0].shape
    mixed = matmul(mixing, stack_flat(components))
    return [reshape(slice_axis(mixed, 0, g, 1), (n, d)) for g in range(levels)]


def select_top3(components: list[Tensor], alpha: Tensor) -> tuple[Tensor, tuple[int, ...]]:
    """Keep the three highest-softmax-weighted levels, scaled by their weights.

    Ties break toward the lower index; the survivors are concatenated in
    ascending index order.  Gradients reach alpha only through the
    selected weights (hard selection, straight-through on the rest).
    """
    levels = len(components)
    if levels < 3:
        raise ConfigError(f"need at least 3 levels to select from, got {levels}")
    if alpha.shape != (levels,):
        raise ShapeError(f"alpha shape {alpha.shape} does not match {levels} levels")
    weights = masked_softmax(alpha)
    ranked = np.argsort(-weights.data, kind="stable")
    chosen = tuple(sorted(int(i) for i in ranked[:3]))
    parts = [mul(slice_axis(weights, 0, g, 1), components[g]) for g in chosen]
    return concat(parts, axis=1), chosen


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


def _check_mask(mask: np.ndarray | None, length: int, what: str) -> np.ndarray:
    if mask is None:
        return np.ones(length, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (length,):
        raise ShapeError(f"{what} mask shape {mask.shape} != ({length},)")
    if not mask.any():
        raise ShapeError(f"empty {what}: every position is masked")
    return mask


def p2q_attention(similarity: Tensor, hos_q: Tensor,
                  q_mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Question summary per passage token: M = row_softmax(H) . HOS_Q."""
    n, m = similarity.shape
    q_mask = _check_mask(q_mask, m, "question")
    rows = masked_softmax(similarity, mask=q_mask[None, :], axis=-1)
    return matmul(rows, hos_q), rows


def q2p_attention(similarity: Tensor, hos_p: Tensor, rows: Tensor,
                  p_mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Passage summary per passage token: S = rows . col_sm(H)^T . HOS_P.

    ``rows`` is the row softmax of H that ``p2q_attention`` returns.
    """
    n = similarity.shape[0]
    p_mask = _check_mask(p_mask, n, "passage")
    cols = masked_softmax(similarity, mask=p_mask[:, None], axis=0)
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
                            p_mask: np.ndarray | None = None,
                            q_mask: np.ndarray | None = None, *,
                            training: bool = False,
                            rng: np.random.Generator | None = None,
                            dropout_rate: float = 0.0) -> AttentionOutputs:
    similarity = trilinear_similarity(hos_p, hos_q, w, training=training,
                                      rng=rng, dropout_rate=dropout_rate)
    m_summary, rows = p2q_attention(similarity, hos_q, q_mask)
    s_summary, cols = q2p_attention(similarity, hos_p, rows, p_mask)
    fused = fuse_output(hos_p, m_summary, s_summary)
    return AttentionOutputs(similarity=similarity, rows=rows, cols=cols,
                            p2q=m_summary, q2p=s_summary, fused=fused)
