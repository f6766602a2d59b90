"""Named parameter storage and initialisers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor


def xavier_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
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


class _NoRng:
    """Stands in for a missing rng: an initialiser that draws from it
    raises instead of silently sharing one fixed stream."""

    def __init__(self, name: str):
        self.name = name

    def __getattr__(self, attr: str):
        raise ConfigError(f"parameter {self.name!r} draws its initial values "
                          f"(rng.{attr}) but was created without an rng")


@dataclass
class _Entry:
    tensor: Tensor
    trainable: bool


class ParamStore:
    """Map from names to (tensor, trainable flag).

    A weight shared between use sites is one name fetched at each site;
    the backward sweep sums the contributions of all sites into its one
    gradient.
    Every parameter has the store's float width: ``create`` makes it so,
    and ``register`` rejects any other.
    """

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._entries: dict[str, _Entry] = {}

    def create(self, name: str, shape, init=None, *,
               rng: np.random.Generator | None = None,
               trainable: bool = True) -> Tensor:
        if name in self._entries:
            raise ConfigError(f"parameter {name!r} already registered")
        if init is None:
            init = xavier_uniform
        data = init(rng if rng is not None else _NoRng(name), tuple(shape))
        tensor = Tensor(data, dtype=self.dtype)
        self._entries[name] = _Entry(tensor, trainable)
        return tensor

    def register(self, name: str, tensor: Tensor, *, trainable: bool = True) -> Tensor:
        if name in self._entries:
            raise ConfigError(f"parameter {name!r} already registered")
        if tensor.data.dtype != self.dtype:
            raise ConfigError(f"parameter {name!r} is {tensor.data.dtype}, "
                              f"but the store holds {self.dtype}")
        self._entries[name] = _Entry(tensor, trainable)
        return tensor

    def get(self, name: str) -> Tensor:
        return self._entries[name].tensor

    def trainable(self) -> Iterator[tuple[str, Tensor]]:
        for name, entry in self._entries.items():
            if entry.trainable:
                yield name, entry.tensor

    def items(self) -> Iterator[tuple[str, Tensor]]:
        for name, entry in self._entries.items():
            yield name, entry.tensor

    def accumulate(self, grads: dict[int, np.ndarray]) -> dict[str, np.ndarray]:
        """The trainable parameters' gradients in a sweep's id -> gradient
        map, by name, in store order; a parameter the sweep did not reach
        has no entry.

        The arrays are the sweep's own, uncopied: nothing writes into a
        gradient in place (``Adam.step`` only reads them).  The name is
        kept because perfbench's ``params.accumulate`` span wraps it.
        """
        named = {}
        for name, tensor in self.trainable():
            g = grads.get(id(tensor))
            if g is None:
                continue
            if g.shape != tensor.shape:
                raise ShapeError(
                    f"gradient shape {g.shape} does not match parameter "
                    f"shape {tensor.shape}")
            named[name] = g
        return named

    def state_dict(self) -> dict[str, np.ndarray]:
        """Read-only views of every parameter array, by name.

        A parameter changes only by rebinding its array (see ``Tensor``),
        so writing into a view raises ValueError instead of changing the
        model behind the passage cache's back.
        """
        state = {}
        for name, entry in self._entries.items():
            view = entry.tensor.data.view()
            view.setflags(write=False)
            state[name] = view
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Rebind every parameter to a copy of its array in ``state``.

        The copy keeps later in-place edits of ``state`` out of the model.
        """
        missing = set(self._entries) - set(state)
        extra = set(state) - set(self._entries)
        if missing or extra:
            raise ShapeError(
                f"parameter name mismatch; missing={sorted(missing)}, "
                f"unexpected={sorted(extra)}")
        for name, entry in self._entries.items():
            arr = np.array(state[name], dtype=entry.tensor.data.dtype)
            if arr.shape != entry.tensor.shape:
                raise ShapeError(
                    f"{name}: stored shape {arr.shape} != expected {entry.tensor.shape}")
            entry.tensor.data = arr
