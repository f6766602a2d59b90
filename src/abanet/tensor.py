"""Dense tensors with reverse-mode differentiation on an explicit tape.

The tape is define-by-run: every operation executed while a ``Tape`` is
active appends one record (output, parents, backward rule).  Records are
appended in creation order, so a single reverse sweep is a valid
topological traversal.  With no tape active the same functions evaluate
eagerly with zero recording overhead, which is what evaluation mode uses.
Besides this module's five tape ops (``add_const``, ``matmul``,
``reshape``, ``concat`` and ``segment_softmax``) the layers record fused
records of their own through ``record_op``; each dropout is drawn inside
the record (or the constant word lookup) it scales.

A tensor keeps the float width of the array it wraps; anything else
(ints, bools, Python lists of numbers) becomes float64, and a constant
passed to ``add_const`` takes the width of the tensor.
So a model built in float32 runs in float32 end to end, and one in
float64 (used for all verification work) in float64, side by side in one
process.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ShapeError


class Tensor:
    """Dense N-d float array plus a gradient slot.

    ``data`` keeps the float width of the array given, or takes ``dtype``
    when one is passed; non-float input becomes float64.

    The ``data`` buffer is treated as immutable by every operation; only
    the owner of a parameter (the optimizer, or ``load_state_dict``)
    changes it, and only by rebinding ``data`` to a new array between
    forward passes, never by writing into the old one; a finite-difference
    probe follows the same rule.  The model's caches rely on this: they detect a changed
    parameter by the identity of its array.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data, dtype=None):
        data = np.asarray(data, dtype=dtype)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Ordered record of operations for one forward pass.

    Usable as a context manager; nesting restores the previous tape on
    exit.  A tape is meant to be built once and backpropagated once.  A
    live tape holds every record's output and whatever its backward closes
    over, at passage lengths most of a training step's memory, so each
    record keeps only what its backward reads (see ``record_op``).
    """

    def __init__(self):
        self._records: list[tuple[str, Tensor, tuple[Tensor, ...], Callable]] = []
        self._outer: Tape | None = None

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        self._outer = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._outer
        self._outer = None

    def __len__(self) -> int:
        return len(self._records)

    def first_nonfinite(self) -> str | None:
        """Name and shape of the earliest recorded output holding NaN/Inf."""
        for name, out, _, _ in self._records:
            if not np.all(np.isfinite(out.data)):
                return f"{name}{list(out.shape)}"
        return None

    def gradients(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Backpropagate from ``loss``; returns id(tensor) -> gradient.

        The map covers the leaves reachable backwards from the loss:
        tensors no record on this tape produced (parameters, inputs,
        frozen tables).  A recorded output's gradient is dropped as soon
        as its record has been swept, since every consumer was swept
        before it.  Contributions from repeated use of one tensor (weight
        tying) sum into a single entry.  The records stay on the tape, so
        a second sweep returns the same map.
        """
        if loss.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for name, out, parents, backward in reversed(self._records):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            parent_grads = backward(g)
            for parent, pg in zip(parents, parent_grads):
                if pg is None:
                    continue
                pid = id(parent)
                acc = grads.get(pid)
                grads[pid] = pg if acc is None else acc + pg
        return grads


def recording() -> bool:
    """Whether a tape is active, so that operations are being recorded."""
    return _ACTIVE_TAPE is not None


class no_grad:
    """Suspend tape recording inside the block (frozen submodules)."""

    def __enter__(self) -> "no_grad":
        global _ACTIVE_TAPE
        self._saved = _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._saved


def record_op(name: str, out_data: np.ndarray, parents: Sequence[Tensor],
              backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    """Create the output tensor of a primitive and record it if a tape is live.

    ``backward`` maps the output gradient to one gradient (or None) per
    parent; other modules define their own primitives through this hook.
    A backward keeps only what it reads and recomputes what is cheap: a
    value rebuilt from the parents, which stay on the tape anyway, with the
    forward's own ops costs no memory and gives the same bits.  The
    encoder's sublayer records rebuild the normalised rows, the padded and
    convolved input, the capsule projection, the attention projection and
    probabilities, and the feed-forward hidden activation; ``char_cnn``
    gathers its character windows again.  What stays costs more to rebuild
    than to keep: routing's couplings and final s, a max-pool's positions,
    a layer norm's mean and std, and a dropout mask, kept as bools rather
    than as its float scale.
    """
    out = Tensor(out_data)
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE._records.append((name, out, tuple(parents), backward))
    return out


def backward(tape: Tape, loss: Tensor, params=None) -> dict[int, np.ndarray]:
    """Backpropagate ``loss`` over ``tape``; optionally fill a ParamStore.

    Returns the leaf gradients of ``Tape.gradients``; recorded outputs
    have none.  When ``params`` is given, every trainable entry's
    gradient slot receives (accumulates) its contribution, so a weight
    used at several sites ends up with the sum over all of them.
    """
    grads = tape.gradients(loss)
    if params is not None:
        params.accumulate(grads)
    return grads


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------

def add_const(a: Tensor, c: np.ndarray) -> Tensor:
    """a + c where c carries no gradient (positional tables, offsets).

    c is cast to a's dtype, so float64 tables keep float32 inputs float32.
    c must broadcast into a's shape, so the gradient passes through as is.
    """
    c = np.asarray(c, dtype=a.data.dtype)
    if np.broadcast_shapes(a.shape, c.shape) != a.shape:
        raise ShapeError(f"add_const: constant {c.shape} widens input {a.shape}")
    return record_op("add_const", a.data + c, (a,), lambda g: (g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = a.data @ b.data
    return record_op("matmul", out, (a, b), lambda g: (
        g @ b.data.T, a.data.T @ g))


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)
    return record_op("reshape", out, (a,), lambda g: (g.reshape(a.shape),))


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    parts = list(parts)
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return record_op("concat", out, parts, bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only sees -|x|.

    1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below; the gate of the fused
    highway and LSTM records.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def dropout_mask(shape: tuple[int, ...], rate: float,
                 rng: np.random.Generator | None) -> np.ndarray:
    """Which elements inverted dropout keeps: a bool array from one
    ``rng.random(shape)`` draw.  ``dropout_scale`` turns it into the scale."""
    if rate >= 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None:
        raise ConfigError(f"dropout at rate {rate} needs an rng")
    return rng.random(shape) < 1.0 - rate


def dropout_scale(kept: np.ndarray, rate: float, dtype) -> np.ndarray:
    """Inverted-dropout scale of a ``dropout_mask``: 0 or 1/(1 - rate).

    A backward keeps the bool mask, an eighth of a float64 scale, and
    rebuilds the scale from it.
    """
    return kept.astype(dtype) / (1.0 - rate)


# ---------------------------------------------------------------------------
# Composite / specialised operations
# ---------------------------------------------------------------------------

def segment_bounds(lengths: Sequence[int] | None, n: int) -> list[tuple[int, int]]:
    """(start, stop) rows of each segment of an n-row pack.

    A pack is consecutive sequences joined along the first axis; ``lengths``
    gives their lengths in order, and None means one segment of all n rows.
    Every segment must be nonempty and the lengths must add up to n.
    """
    if lengths is None:
        return [(0, n)]
    lengths = [int(length) for length in lengths]
    if not lengths or min(lengths) < 1 or sum(lengths) != n:
        raise ShapeError(
            f"segment lengths {lengths} do not split {n} rows into nonempty segments")
    ends = list(accumulate(lengths))
    return list(zip([0] + ends[:-1], ends))


def segment_softmax(x: Tensor, lengths: Sequence[int] | None = None) -> Tensor:
    """Softmax of a vector within each segment of a pack; each sums to 1."""
    data = x.data
    bounds = segment_bounds(lengths, data.shape[0])
    out = np.empty_like(data)
    for start, stop in bounds:
        z = data[start:stop] - data[start:stop].max()
        e = np.exp(z)
        out[start:stop] = e / e.sum()

    def bw(g):
        dx = np.empty_like(g)
        for start, stop in bounds:
            p, gs = out[start:stop], g[start:stop]
            dx[start:stop] = p * (gs - (gs * p).sum())
        return (dx,)

    return record_op("segment_softmax", out, (x,), bw)

