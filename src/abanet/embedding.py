"""Token, character, feature, highway, BiLSTM and contextual-mixture layers.

These produce the six per-sequence representations that the attention
stage later stacks: word+feature, char CNN, embedding output, contextual
mixture, encoder-block output, and BiLSTM states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .tensor import (
    Tensor,
    _sigmoid,
    concat,
    dropout_mask,
    dropout_scale,
    record_op,
    segment_bounds,
)

UNK_ID = 0
PAD_ID = 1
UNK_TOKEN = "<unk>"
PAD_TOKEN = "<pad>"


class Vocabulary:
    """Dense token -> id map with ids 0 and 1 reserved for UNK and PAD."""

    def __init__(self, tokens: Iterable[str] = ()):
        self._ids: dict[str, int] = {UNK_TOKEN: UNK_ID, PAD_TOKEN: PAD_ID}
        self._tokens: list[str] = [UNK_TOKEN, PAD_TOKEN]
        for token in tokens:
            self.add(token)

    def add(self, token: str) -> int:
        existing = self._ids.get(token)
        if existing is not None:
            return existing
        new_id = len(self._tokens)
        self._ids[token] = new_id
        self._tokens.append(token)
        return new_id

    def id(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def ids(self, tokens: Sequence[str]) -> np.ndarray:
        return np.array([self.id(t) for t in tokens], dtype=np.int64)

    def token(self, idx: int) -> str:
        return self._tokens[idx]

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)

    def to_json(self) -> str:
        return json.dumps({"tokens": self._tokens[2:]})

    @classmethod
    def from_json(cls, text: str) -> "Vocabulary":
        return cls(json.loads(text)["tokens"])


def load_embedding_file(path: str, vocab: Vocabulary, dim: int) -> np.ndarray:
    """Read `token v1 ... v_e` lines into a [V x dim] array.

    Tokens absent from the file keep zero rows; lookups for tokens absent
    from the vocabulary resolve to UNK upstream.
    """
    out = np.zeros((len(vocab), dim))
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise DataError(
                    f"{path}:{lineno}: expected token plus {dim} floats, "
                    f"got {len(parts) - 1} values")
            token, values = parts[0], parts[1:]
            if token in vocab:
                out[vocab.id(token)] = [float(v) for v in values]
    return out


def _check_ids(ids: np.ndarray, size: int, what: str) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        raise DataError(f"{what} id out of range [0, {size})")
    return ids


def embed_words(ids: np.ndarray, table: Tensor, rate: float = 0.0,
                rng: np.random.Generator | None = None) -> Tensor:
    """Row lookup in the frozen word table, dropped out at ``rate``: a
    constant, off the tape, so no gradient is formed for it."""
    rows = table.data[_check_ids(ids, table.shape[0], "word")]
    if rate > 0.0:
        rows *= dropout_scale(dropout_mask(rows.shape, rate, rng), rate, rows.dtype)
    return Tensor(rows)


def embed_chars(char_ids: np.ndarray, char_table: Tensor, filters: Tensor,
                *, kernel: int, rate: float = 0.0,
                rng: np.random.Generator | None = None) -> Tensor:
    """Character embedding, 1-D valid convolution, max-pool per word
    (Kim et al. 2016).

    ``char_ids`` is [n x c_max]; output is [n x d_char] with d_char the
    filter count.  The convolution weight is [kernel*char_dim x d_char].
    One ``char_cnn`` record: the kernel-wide windows of every word are one
    row gather, the convolution one matmul, and the pooled gradient goes
    to the first position holding each maximum, then dropped out at
    ``rate``.  The backward keeps the int windows, each maximum's position
    and the bool mask, and gathers the windows' float rows again.
    """
    char_ids = _check_ids(char_ids, char_table.shape[0], "char")
    n, c_max = char_ids.shape
    if c_max < kernel:
        raise ConfigError(
            f"word length {c_max} is shorter than char kernel {kernel}")
    positions = c_max - kernel + 1
    d_char = filters.shape[1]
    windows = np.lib.stride_tricks.sliding_window_view(char_ids, kernel, axis=1)

    def stack() -> np.ndarray:
        return char_table.data[windows].reshape(n * positions, -1)

    per_word = (stack() @ filters.data).reshape(n, positions, d_char)
    first_max = per_word.argmax(axis=1)[:, None, :]    # [n, 1, d_char]
    pooled = per_word.max(axis=1)
    kept = dropout_mask(pooled.shape, rate, rng) if rate > 0.0 else None
    if kept is not None:
        pooled *= dropout_scale(kept, rate, pooled.dtype)

    def bw(g):
        if kept is not None:
            g = g * dropout_scale(kept, rate, g.dtype)
        d_act = np.zeros((n, positions, d_char), dtype=g.dtype)
        np.put_along_axis(d_act, first_max, g[:, None, :], axis=1)
        d_act = d_act.reshape(n * positions, d_char)
        d_table = np.zeros_like(char_table.data)
        np.add.at(d_table, windows,
                  (d_act @ filters.data.T).reshape(*windows.shape, -1))
        return d_table, stack().T @ d_act

    return record_op("char_cnn", pooled, (char_table, filters), bw)


def embed_features(pos_ids: np.ndarray, ner_ids: np.ndarray, rule_ids: np.ndarray,
                   pos_table: Tensor, ner_table: Tensor, rule_table: Tensor) -> Tensor:
    """Concatenated POS/NER/rule embeddings, in that order, as one record
    whose backward scatter-adds each column block into its table."""
    tables = (pos_table, ner_table, rule_table)
    ids = [_check_ids(i, t.shape[0], what) for i, t, what in
           zip((pos_ids, ner_ids, rule_ids), tables, ("pos", "ner", "rule"))]
    splits = np.cumsum([t.shape[1] for t in tables])[:-1]

    def bw(g):
        grads = []
        for table, rows, block in zip(tables, ids, np.split(g, splits, axis=1)):
            full = np.zeros_like(table.data)
            np.add.at(full, rows, block)
            grads.append(full)
        return grads

    return record_op("features", np.concatenate(
        [t.data[i] for t, i in zip(tables, ids)], axis=1), tables, bw)


def _highway_layer(x: Tensor, wt: Tensor, bt: Tensor, wg: Tensor,
                   bg: Tensor) -> Tensor:
    """y = g * t + (1 - g) * x with t = tanh(x wt + bt) and
    g = sigmoid(x wg + bg), as one ``highway`` record."""
    if wt.shape[0] != wt.shape[1]:
        raise ShapeError(f"highway transform must be square, got {wt.shape}")
    t = np.tanh(x.data @ wt.data + bt.data)
    gate = _sigmoid(x.data @ wg.data + bg.data)
    carry = 1.0 - gate

    def bw(g):
        dz_t = g * gate * (1.0 - t * t)
        dz_g = g * (t - x.data) * gate * carry
        dx = g * carry + dz_g @ wg.data.T + dz_t @ wt.data.T
        return (dx, x.data.T @ dz_t, dz_t.sum(axis=0),
                x.data.T @ dz_g, dz_g.sum(axis=0))

    return record_op("highway", gate * t + carry * x.data, (x, wt, bt, wg, bg), bw)


def highway(x: Tensor, layers: Sequence[tuple[Tensor, Tensor, Tensor, Tensor]]) -> Tensor:
    """Gated residual layers: y = g * t(x) + (1-g) * x.

    Each layer is (transform_w, transform_b, gate_w, gate_b) with square
    transform weights; the transform nonlinearity is tanh and the gate a
    sigmoid (Srivastava et al. 2015).  Each layer is one tape record.
    """
    out = x
    for layer in layers:
        out = _highway_layer(out, *layer)
    return out


def lstm_run(x: Tensor, w: Tensor, u: Tensor, b: Tensor, *,
             reverse: bool = False, lengths: Sequence[int] | None = None) -> Tensor:
    """One LSTM direction over [n x d]; returns hidden states [n x h].

    Gate layout along the 4h axis is input, forget, cell, output; the
    forget section of ``b`` is conventionally initialized to 1.  With
    ``lengths`` the rows are a pack of sequences, and the state starts
    from zero at each sequence's first step in processing order.

    The whole direction is one tape record.  The recurrence runs in numpy
    and keeps every step's gate activations and cell state; the backward
    walks the steps once in reverse to build dL/dz for all of them, then
    forms the input and weight gradients as whole-sequence matmuls.  The
    reverse direction runs the same recurrence over a flipped view.
    """
    n, h = x.shape[0], u.shape[0]
    bounds = segment_bounds(lengths, n)
    xs = x.data[::-1] if reverse else x.data       # processing order
    fresh = np.zeros(n, dtype=bool)                  # steps whose state starts at 0
    fresh[[n - stop if reverse else start for start, stop in bounds]] = True
    fresh_steps = fresh.tolist()                     # cheap per-step tests
    z_in = xs @ w.data + b.data                      # [n, 4h], input part of z
    gates = np.empty_like(z_in)                      # i, f, g, o after activation
    states = np.zeros((n + 1, h), dtype=z_in.dtype)  # states[t + 1] = h_t
    cells = np.zeros((n + 1, h), dtype=z_in.dtype)   # cells[t + 1] = c_t
    tanh_cells = np.empty((n, h), dtype=z_in.dtype)
    zero = np.zeros(h, dtype=z_in.dtype)
    for t in range(n):
        if fresh_steps[t]:
            h_prev = c_prev = zero
        else:
            h_prev, c_prev = states[t], cells[t]
        z = z_in[t] + h_prev @ u.data
        a = gates[t]
        a[:] = _sigmoid(z)
        a[2 * h:3 * h] = np.tanh(z[2 * h:3 * h])
        cells[t + 1] = a[h:2 * h] * c_prev + a[:h] * a[2 * h:3 * h]
        tanh_cells[t] = np.tanh(cells[t + 1])
        states[t + 1] = a[3 * h:] * tanh_cells[t]
    hidden = states[1:]

    def bw(g_out):
        dh_out = g_out[::-1] if reverse else g_out
        # Each step's previous state, zero where a sequence starts.
        h_prev, c_prev = states[:-1].copy(), cells[:-1].copy()
        h_prev[fresh] = 0.0
        c_prev[fresh] = 0.0
        i, f, g, o = (gates[:, k * h:(k + 1) * h] for k in range(4))
        slope = gates * (1.0 - gates)                # sigmoid' for i, f, o
        slope[:, 2 * h:3 * h] = 1.0 - g * g          # tanh' for g
        dc_from_h = o * (1.0 - tanh_cells * tanh_cells)
        dz = np.empty_like(gates)
        dh_next = dc_next = zero
        for t in range(n - 1, -1, -1):
            dh = dh_out[t] + dh_next
            dc = dc_next + dh * dc_from_h[t]
            step = dz[t]
            step[:h] = dc * g[t]
            step[h:2 * h] = dc * c_prev[t]
            step[2 * h:3 * h] = dc * i[t]
            step[3 * h:] = dh * tanh_cells[t]
            step *= slope[t]
            if fresh_steps[t]:
                dh_next = dc_next = zero
            else:
                dc_next = dc * f[t]
                dh_next = u.data @ step
        dx = dz @ w.data.T
        return (dx[::-1] if reverse else dx, xs.T @ dz, h_prev.T @ dz,
                dz.sum(axis=0))

    return record_op("lstm", hidden[::-1] if reverse else hidden,
                     (x, w, u, b), bw)


LstmWeights = tuple[Tensor, Tensor, Tensor]


def bilstm_encode(x: Tensor, fwd: LstmWeights, bwd: LstmWeights,
                  lengths: Sequence[int] | None = None) -> Tensor:
    """Bidirectional LSTM over a pack; output [n x 2h], halves fwd then
    bwd.  Neither direction carries state across a segment boundary."""
    if x.shape[0] == 0:
        raise DataError("bilstm_encode: empty sequence")
    return concat([lstm_run(x, *fwd, lengths=lengths),
                   lstm_run(x, *bwd, reverse=True, lengths=lengths)], axis=1)


def lstm_bias_init(hidden: int) -> np.ndarray:
    """Zero bias with the forget-gate section set to 1."""
    b = np.zeros(4 * hidden)
    b[hidden:2 * hidden] = 1.0
    return b


@dataclass
class ContextualProvider:
    """Produces L hidden-state layers for a (possibly sub-token) sequence.

    ``run`` maps expanded token ids of length T to a list of L arrays of
    shape [T x width]; the model's provider caches them and returns them
    read-only.  L and the width are read off the layers ``run`` returns.
    The provider's own weights are frozen; only the downstream mixture
    weights train.
    """

    run: Callable[[np.ndarray], list[np.ndarray]]


def contextual_mix(provider: ContextualProvider, token_ids: np.ndarray,
                   theta: Tensor, subtoken_counts: np.ndarray,
                   lengths: Sequence[int] | None = None) -> Tensor:
    """Trainable per-layer mixture of frozen provider states.

    ``subtoken_counts`` is an int64 array of one positive count per token
    of the pack, checked where examples enter the model
    (``check_passage_lengths``).  The provider runs once per segment of
    the pack (``lengths``, None for one segment) on the segment's ids,
    each repeated its count times.  Each word's sub-token hidden states
    are averaged back to one row, and then all layers are combined over
    the whole pack with weights theta (one scalar per layer), as one
    ``contextual_mix`` record whose only parent is theta: the pooled
    layers are a constant, so no gradient is formed for them.
    """
    n = token_ids.shape[0]
    pooled = []
    for start, stop in segment_bounds(lengths, n):
        counts = subtoken_counts[start:stop]
        layers = provider.run(np.repeat(token_ids[start:stop], counts))
        # Each word's sub-token rows are summed, then divided by their
        # count, in the layer's own width.
        starts = np.cumsum(counts) - counts
        pooled.append(np.stack([
            np.add.reduceat(layer, starts, axis=0) / counts.astype(layer.dtype)[:, None]
            for layer in layers]))
    pooled = np.concatenate(pooled, axis=1)        # [L, n, w]
    count, _, width = pooled.shape
    pooled2d = pooled.reshape(count, n * width).astype(theta.data.dtype, copy=False)
    return record_op(
        "contextual_mix", (theta.data.reshape(1, -1) @ pooled2d).reshape(n, width),
        (theta,), lambda g: ((g.reshape(1, -1) @ pooled2d.T).reshape(theta.shape),))
