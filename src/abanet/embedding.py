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
    add,
    concat,
    gather_rows,
    matmul,
    mul,
    record_op,
    reduce_max,
    reshape,
    sigmoid,
    slice_axis,
    tanh,
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


@dataclass
class EmbeddingTable:
    """A lookup table plus its trainability contract."""

    table: Tensor
    trainable: bool = True

    @property
    def vocab_size(self) -> int:
        return self.table.shape[0]


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


def embed_words(ids: np.ndarray, table: EmbeddingTable) -> Tensor:
    """Row lookup; a fixed table contributes no gradient path."""
    ids = _check_ids(ids, table.vocab_size, "word")
    if not table.trainable:
        return Tensor(table.table.data[ids].copy())
    return gather_rows(table.table, ids)


def embed_chars(char_ids: np.ndarray, char_table: Tensor, filters: Tensor,
                *, kernel: int) -> Tensor:
    """Character embedding, 1-D valid convolution, max-pool per word.

    ``char_ids`` is [n x c_max]; output is [n x d_char] with d_char the
    filter count.  The convolution weight is [kernel*char_dim x d_char].
    """
    char_ids = _check_ids(char_ids, char_table.shape[0], "char")
    n, c_max = char_ids.shape
    if c_max < kernel:
        raise ConfigError(
            f"word length {c_max} is shorter than char kernel {kernel}")
    positions = c_max - kernel + 1
    windows = []
    for tau in range(kernel):
        span = char_ids[:, tau:tau + positions].reshape(-1)
        windows.append(gather_rows(char_table, span))  # [n*positions, char_dim]
    stacked = concat(windows, axis=1)                  # [n*positions, kernel*char_dim]
    activations = matmul(stacked, filters)             # [n*positions, d_char]
    per_word = reshape(activations, (n, positions, filters.shape[1]))
    return reduce_max(per_word, axis=1)


def embed_features(pos_ids: np.ndarray, ner_ids: np.ndarray, rule_ids: np.ndarray,
                   pos_table: Tensor, ner_table: Tensor, rule_table: Tensor) -> Tensor:
    """Concatenated POS/NER/rule embeddings, in that order."""
    parts = [
        gather_rows(pos_table, _check_ids(pos_ids, pos_table.shape[0], "pos")),
        gather_rows(ner_table, _check_ids(ner_ids, ner_table.shape[0], "ner")),
        gather_rows(rule_table, _check_ids(rule_ids, rule_table.shape[0], "rule")),
    ]
    return concat(parts, axis=1)


def highway(x: Tensor, layers: Sequence[tuple[Tensor, Tensor, Tensor, Tensor]]) -> Tensor:
    """Gated residual layers: y = g * t(x) + (1-g) * x.

    Each layer is (transform_w, transform_b, gate_w, gate_b) with square
    transform weights; the transform nonlinearity is tanh.
    """
    out = x
    for wt, bt, wg, bg in layers:
        if wt.shape[0] != wt.shape[1]:
            raise ShapeError(f"highway transform must be square, got {wt.shape}")
        t = tanh(add(matmul(out, wt), bt))
        g = sigmoid(add(matmul(out, wg), bg))
        out = add(mul(g, t), mul(1.0 - g, out))
    return out


def lstm_run(x: Tensor, w: Tensor, u: Tensor, b: Tensor, *,
             reverse: bool = False) -> Tensor:
    """One LSTM direction over [n x d]; returns hidden states [n x h].

    Gate layout along the 4h axis is input, forget, cell, output; the
    forget section of ``b`` is conventionally initialized to 1.

    The whole direction is one tape record.  The recurrence runs in numpy
    and keeps every step's gate activations and cell state; the backward
    walks the steps once in reverse to build dL/dz for all of them, then
    forms the input and weight gradients as whole-sequence matmuls.  The
    reverse direction runs the same recurrence over a flipped view.
    """
    n, h = x.shape[0], u.shape[0]
    xs = x.data[::-1] if reverse else x.data       # processing order
    z_in = xs @ w.data + b.data                      # [n, 4h], input part of z
    gates = np.empty_like(z_in)                      # i, f, g, o after activation
    states = np.zeros((n + 1, h), dtype=z_in.dtype)  # states[t] = h_{t-1}
    cells = np.zeros((n + 1, h), dtype=z_in.dtype)   # cells[t] = c_{t-1}
    tanh_cells = np.empty((n, h), dtype=z_in.dtype)
    for t in range(n):
        z = z_in[t] + states[t] @ u.data
        a = gates[t]
        a[:] = _sigmoid(z)
        a[2 * h:3 * h] = np.tanh(z[2 * h:3 * h])
        cells[t + 1] = a[h:2 * h] * cells[t] + a[:h] * a[2 * h:3 * h]
        tanh_cells[t] = np.tanh(cells[t + 1])
        states[t + 1] = a[3 * h:] * tanh_cells[t]
    hidden = states[1:]

    def bw(g_out):
        dh_out = g_out[::-1] if reverse else g_out
        i, f, g, o = (gates[:, k * h:(k + 1) * h] for k in range(4))
        slope = gates * (1.0 - gates)                # sigmoid' for i, f, o
        slope[:, 2 * h:3 * h] = 1.0 - g * g          # tanh' for g
        dc_from_h = o * (1.0 - tanh_cells * tanh_cells)
        dz = np.empty_like(gates)
        dh_next = np.zeros(h, dtype=gates.dtype)
        dc_next = np.zeros(h, dtype=gates.dtype)
        for t in range(n - 1, -1, -1):
            dh = dh_out[t] + dh_next
            dc = dc_next + dh * dc_from_h[t]
            step = dz[t]
            step[:h] = dc * g[t]
            step[h:2 * h] = dc * cells[t]
            step[2 * h:3 * h] = dc * i[t]
            step[3 * h:] = dh * tanh_cells[t]
            step *= slope[t]
            dc_next = dc * f[t]
            dh_next = u.data @ step
        dx = dz @ w.data.T
        return (dx[::-1] if reverse else dx, xs.T @ dz, states[:-1].T @ dz,
                dz.sum(axis=0))

    return record_op("lstm", hidden[::-1] if reverse else hidden,
                     (x, w, u, b), bw)


LstmWeights = tuple[Tensor, Tensor, Tensor]


def bilstm_encode(x: Tensor, layers: Sequence[tuple[LstmWeights, LstmWeights]]) -> Tensor:
    """Stacked bidirectional LSTM; output [n x 2h], halves fwd then bwd."""
    if x.shape[0] == 0:
        raise DataError("bilstm_encode: empty sequence")
    out = x
    for fwd, bwd in layers:
        forward = lstm_run(out, *fwd)
        backward_states = lstm_run(out, *bwd, reverse=True)
        out = concat([forward, backward_states], axis=1)
    return out


def lstm_bias_init(hidden: int) -> np.ndarray:
    """Zero bias with the forget-gate section set to 1."""
    b = np.zeros(4 * hidden)
    b[hidden:2 * hidden] = 1.0
    return b


@dataclass
class ContextualProvider:
    """Produces L hidden-state layers for a (possibly sub-token) sequence.

    ``run`` maps expanded token ids of length T to a list of L arrays of
    shape [T x width].  The provider's own weights are frozen; only the
    downstream mixture weights train.
    """

    num_layers: int
    width: int
    run: Callable[[np.ndarray], list[np.ndarray]]


def expand_subtokens(token_ids: np.ndarray,
                     subtoken_counts: Sequence[int] | None) -> tuple[np.ndarray, np.ndarray]:
    """Repeat each token id S times; also build the [n x T] averaging map."""
    token_ids = np.asarray(token_ids, dtype=np.int64)
    n = token_ids.shape[0]
    if subtoken_counts is None:
        counts = np.ones(n, dtype=np.int64)
    else:
        counts = np.asarray(subtoken_counts, dtype=np.int64)
        if counts.shape != (n,) or (counts < 1).any():
            raise DataError(
                f"subtoken counts must be {n} positive integers, got {counts!r}")
    expanded = np.repeat(token_ids, counts)
    averaging = np.zeros((n, expanded.shape[0]))
    offset = 0
    for row, count in enumerate(counts):
        averaging[row, offset:offset + count] = 1.0 / count
        offset += count
    return expanded, averaging


def contextual_mix(provider: ContextualProvider, token_ids: np.ndarray,
                   theta: Tensor,
                   subtoken_counts: Sequence[int] | None = None) -> Tensor:
    """Trainable per-layer mixture of frozen provider states.

    Sub-token hidden states are averaged back to one row per word before
    the layers are combined with weights theta (one scalar per layer).
    """
    expanded, averaging = expand_subtokens(token_ids, subtoken_counts)
    layers = provider.run(expanded)
    if len(layers) != provider.num_layers:
        raise ShapeError(
            f"provider returned {len(layers)} layers, expected {provider.num_layers}")
    expected = (expanded.shape[0], provider.width)
    n = averaging.shape[0]
    mixed: Tensor | None = None
    for index, layer in enumerate(layers):
        if layer.shape != expected:
            raise ShapeError(
                f"provider layer {index} has shape {layer.shape}, expected {expected}")
        pooled = Tensor(averaging @ np.asarray(layer))  # constant: provider is frozen
        term = mul(slice_axis(theta, 0, index, 1), pooled)
        mixed = term if mixed is None else add(mixed, term)
    assert mixed is not None
    return mixed
