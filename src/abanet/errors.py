"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Tensor shapes are incompatible with the requested operation."""


class ConfigError(ValueError):
    """A configuration value violates a documented constraint."""


class DataError(ValueError):
    """A dataset record is malformed or internally inconsistent."""


class NumericsError(RuntimeError):
    """A numerical invariant failed at runtime (non-finite values, failed checks)."""
