"""Named parameter storage, plus finite-difference checking."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tape, Tensor, default_dtype


def xavier_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    fan_in = shape[0] if len(shape) > 1 else shape[0]
    fan_out = shape[-1]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def normal_init(scale: float) -> Callable[[np.random.Generator, tuple], np.ndarray]:
    def init(rng, shape):
        return rng.normal(0.0, scale, size=shape)
    return init


def zeros_init(rng, shape) -> np.ndarray:
    return np.zeros(shape)


def ones_init(rng, shape) -> np.ndarray:
    return np.ones(shape)


@dataclass
class _Entry:
    tensor: Tensor
    trainable: bool


class ParamStore:
    """Map from names to (tensor, gradient slot, trainable flag).

    A weight shared between use sites is one name fetched at each site;
    the gradient contributions of all sites sum into its one slot.
    """

    def __init__(self):
        self._entries: dict[str, _Entry] = {}

    def create(self, name: str, shape, init=None, *,
               rng: np.random.Generator | None = None,
               trainable: bool = True) -> Tensor:
        if name in self._entries:
            raise ConfigError(f"parameter {name!r} already registered")
        if init is None:
            init = xavier_uniform
        data = init(rng if rng is not None else np.random.default_rng(0), tuple(shape))
        tensor = Tensor(np.asarray(data, dtype=default_dtype()))
        self._entries[name] = _Entry(tensor, trainable)
        return tensor

    def register(self, name: str, tensor: Tensor, *, trainable: bool = True) -> Tensor:
        if name in self._entries:
            raise ConfigError(f"parameter {name!r} already registered")
        self._entries[name] = _Entry(tensor, trainable)
        return tensor

    def get(self, name: str) -> Tensor:
        return self._entries[name].tensor

    def grad(self, name: str) -> np.ndarray | None:
        return self._entries[name].tensor.grad

    def trainable(self) -> Iterator[tuple[str, Tensor]]:
        for name, entry in self._entries.items():
            if entry.trainable:
                yield name, entry.tensor

    def items(self) -> Iterator[tuple[str, Tensor]]:
        for name, entry in self._entries.items():
            yield name, entry.tensor

    def zero_grads(self) -> None:
        for entry in self._entries.values():
            entry.tensor.grad = None

    def accumulate(self, grads: dict[int, np.ndarray]) -> None:
        """Add backpropagated gradients into the trainable slots."""
        for entry in self._entries.values():
            if not entry.trainable:
                continue
            g = grads.get(id(entry.tensor))
            if g is None:
                continue
            if g.shape != entry.tensor.shape:
                raise ShapeError(
                    f"gradient shape {g.shape} does not match parameter "
                    f"shape {entry.tensor.shape}")
            if entry.tensor.grad is None:
                entry.tensor.grad = g.copy()
            else:
                entry.tensor.grad = entry.tensor.grad + g

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: entry.tensor.data for name, entry in self._entries.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        missing = set(self._entries) - set(state)
        extra = set(state) - set(self._entries)
        if missing or extra:
            raise ShapeError(
                f"parameter name mismatch; missing={sorted(missing)}, "
                f"unexpected={sorted(extra)}")
        for name, entry in self._entries.items():
            arr = np.asarray(state[name], dtype=entry.tensor.data.dtype)
            if arr.shape != entry.tensor.shape:
                raise ShapeError(
                    f"{name}: stored shape {arr.shape} != expected {entry.tensor.shape}")
            entry.tensor.data = arr


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    per_param: dict[str, float]
    tolerance: float

    @property
    def max_rel_error(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def lines(self) -> list[str]:
        out = []
        for name, err in sorted(self.per_param.items()):
            status = "ok" if err < self.tolerance else "FAIL"
            out.append(f"{status}  {name}  max_rel_err={err:.3e}")
        return out


def fd_gradient(f: Callable[[], Tensor], tensor: Tensor, epsilon: float) -> np.ndarray:
    """Central finite differences of scalar ``f`` w.r.t. every element."""
    base = tensor.data
    grad = np.zeros_like(base)
    flat = base.ravel()
    for idx in range(flat.size):
        orig = flat[idx]
        plus = base.copy()
        plus.ravel()[idx] = orig + epsilon
        tensor.data = plus
        f_plus = float(f().data)
        minus = base.copy()
        minus.ravel()[idx] = orig - epsilon
        tensor.data = minus
        f_minus = float(f().data)
        grad.ravel()[idx] = (f_plus - f_minus) / (2.0 * epsilon)
    tensor.data = base
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray,
                   rel_floor: float = 1e-3) -> np.ndarray:
    """Elementwise |analytic - numeric| / max(|analytic|, |numeric|, rel_floor).

    The floor keeps near-zero gradients from dividing by noise.
    """
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), rel_floor)
    return np.abs(analytic - numeric) / denom


def grad_check(f: Callable[[], Tensor], params: ParamStore, *,
               epsilon: float = 1e-3, tolerance: float = 1e-3,
               rel_floor: float = 1e-3) -> GradCheckReport:
    """Compare tape gradients of scalar ``f()`` against central differences.

    ``f`` must close over the store's tensors and be deterministic.
    The per-element error is ``relative_error``.  Runs in float64 only.
    """
    if default_dtype() is not np.float64:
        raise ConfigError("grad_check requires float64 mode")

    with Tape() as tape:
        loss = f()
    if loss.size != 1:
        raise ShapeError(f"grad_check needs a scalar function, got {loss.shape}")
    grads = tape.gradients(loss)

    report: dict[str, float] = {}
    for name, tensor in params.trainable():
        analytic = grads.get(id(tensor))
        if analytic is None:
            analytic = np.zeros_like(tensor.data)
        numeric = fd_gradient(f, tensor, epsilon)
        rel = relative_error(analytic, numeric, rel_floor)
        report[name] = float(rel.max()) if rel.size else 0.0
    return GradCheckReport(per_param=report, tolerance=tolerance)
