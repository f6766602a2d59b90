"""Dense tensors with reverse-mode differentiation on an explicit tape.

The tape is define-by-run: every operation executed while a ``Tape`` is
active appends one record (output, parents, backward rule).  Records are
appended in creation order, so a single reverse sweep is a valid
topological traversal.  With no tape active the same functions evaluate
eagerly with zero recording overhead, which is what evaluation mode uses.

Two float widths are supported: float64 (the default, used for all
verification work) and float32 (a fast mode).  Gradient checking refuses
to run in float32.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ShapeError

_DEFAULT_DTYPE = np.float64


def set_default_dtype(dtype) -> None:
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ConfigError(f"unsupported dtype {dtype!r}; use float32 or float64")
    _DEFAULT_DTYPE = dt.type


def default_dtype():
    return _DEFAULT_DTYPE


class Tensor:
    """Dense N-d float array plus a gradient slot.

    The ``data`` buffer is treated as immutable by every operation; only
    the owner of a parameter (the optimizer, or a finite-difference
    probe) rebinds it between forward passes.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _DEFAULT_DTYPE)
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

    # Arithmetic sugar; scalars and ndarrays are wrapped as constants.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))


def _wrap(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Ordered record of operations for one forward pass.

    Usable as a context manager; nesting restores the previous tape on
    exit.  A tape is meant to be built once and backpropagated once.
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
    parent.  Other modules use this hook to define their own primitives.
    """
    out = Tensor(out_data, dtype=out_data.dtype)
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


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    return record_op("sub", out, (a, b), lambda g: (
        _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    return record_op("mul", out, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)))


def neg(a: Tensor) -> Tensor:
    return record_op("neg", -a.data, (a,), lambda g: (-g,))


def add_const(a: Tensor, c: np.ndarray) -> Tensor:
    """a + c where c carries no gradient (positional tables, offsets).

    c is cast to a's dtype, so float64 tables keep float32 inputs float32.
    """
    c = np.asarray(c, dtype=a.data.dtype)
    return record_op("add_const", a.data + c, (a,),
                     lambda g: (_unbroadcast(g, a.shape),))


def mul_const(a: Tensor, c: np.ndarray) -> Tensor:
    """a * c where c carries no gradient (dropout masks, fixed scales).

    c is cast to a's dtype, as in ``add_const``.
    """
    c = np.asarray(c, dtype=a.data.dtype)
    return record_op("mul_const", a.data * c, (a,),
                     lambda g: (_unbroadcast(g * c, a.shape),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = a.data @ b.data
    return record_op("matmul", out, (a, b), lambda g: (
        g @ b.data.T, a.data.T @ g))


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    return record_op("transpose", a.data.T.copy(), (a,), lambda g: (g.T,))


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


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return record_op("sum", out, (a,), bw)


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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only sees -|x|.

    1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below; shared with the fused LSTM.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)
    return record_op("sigmoid", out, (a,), lambda g: (g * out * (1.0 - out),))


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    return record_op("relu", out, (a,), lambda g: (g * (a.data > 0),))


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate is 0."""
    if rate <= 0.0:
        return a
    if rate >= 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    mask = (rng.random(a.shape) < keep).astype(a.data.dtype) / keep
    return mul_const(a, mask)


# ---------------------------------------------------------------------------
# Composite / specialised operations
# ---------------------------------------------------------------------------

def masked_softmax(x: Tensor, mask: np.ndarray | None = None, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` over positions where ``mask`` is True.

    Masked positions come out exactly zero; every slice must keep at
    least one unmasked element.  ``mask`` is a plain boolean array
    broadcastable to ``x.shape`` (True = participates).
    """
    data = x.data
    if mask is None:
        valid = np.ones(data.shape, dtype=bool)
    else:
        valid = np.broadcast_to(np.asarray(mask, dtype=bool), data.shape)
    if not valid.any(axis=axis).all():
        raise ShapeError("masked_softmax: a slice is fully masked (empty sequence)")
    z = np.where(valid, data, -np.inf)
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return record_op("masked_softmax", out, (x,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Per-row standardisation over the last axis, then affine gain/bias."""
    if gain.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise ShapeError(
            f"layer_norm: gain/bias {gain.shape}/{bias.shape} do not match "
            f"feature width {x.shape[-1]}")
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


def depthwise_conv1d(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-channel 1-D convolution with same-length zero padding.

    ``x`` is [n, d], ``kernel`` is [k, d] with k odd; output is [n, d].
    """
    k, d = kernel.shape
    if k % 2 == 0:
        raise ConfigError(f"depthwise_conv1d: kernel size must be odd, got {k}")
    if x.ndim != 2 or x.shape[1] != d:
        raise ShapeError(
            f"depthwise_conv1d: input {x.shape} does not match kernel {kernel.shape}")
    n = x.shape[0]
    pad = k // 2
    xp = np.zeros((n + k - 1, d), dtype=x.data.dtype)
    xp[pad:pad + n] = x.data
    out = np.zeros((n, d), dtype=x.data.dtype)
    for tau in range(k):
        out += xp[tau:tau + n] * kernel.data[tau]

    def bw(g):
        dk = np.empty_like(kernel.data)
        gp = np.zeros_like(xp)
        for tau in range(k):
            dk[tau] = (xp[tau:tau + n] * g).sum(axis=0)
            gp[tau:tau + n] += g * kernel.data[tau]
        return (gp[pad:pad + n], dk)

    return record_op("depthwise_conv1d", out, (x, kernel), bw)


def depthwise_separable_conv1d(x: Tensor, depthwise: Tensor, pointwise: Tensor) -> Tensor:
    """Depthwise same-padded convolution followed by a 1x1 channel mix."""
    if pointwise.shape[0] != depthwise.shape[1]:
        raise ShapeError(
            f"depthwise_separable_conv1d: pointwise {pointwise.shape} does not "
            f"match depthwise channels {depthwise.shape}")
    return matmul(depthwise_conv1d(x, depthwise), pointwise)


def stack_flat(parts: Sequence[Tensor]) -> Tensor:
    """Stack equally shaped matrices as flattened rows: G x (n*d)."""
    rows = [reshape(p, (1, p.size)) for p in parts]
    return concat(rows, axis=0)
