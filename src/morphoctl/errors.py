"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A constructor argument broke its rule; ``name`` is that argument."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


class GridMismatch(ValueError):
    """Two fields that must live on the same grid do not."""


class SupportTooLarge(ValueError):
    """Kernel support would self-overlap under periodization."""


class SupportUnresolved(ValueError):
    """Kernel support radius is too small for the grid spacing."""


class NonFinite(RuntimeError):
    """A solver produced NaN/Inf, typically because dt is too large."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class DegenerateProbe(ValueError):
    """A difference probe was called with (numerically) identical inputs."""


class ShapeMismatch(ValueError):
    """Array arguments have incompatible shapes."""


class DeltaZero(ValueError):
    """Operation requires a strictly positive regularization weight."""


class ParseError(ValueError):
    """Config file line could not be parsed."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(ValueError):
    """Config value failed validation."""

    def __init__(self, key: str, reason: str):
        super().__init__(f"{key}: {reason}")
        self.key = key
        self.reason = reason


class FormatError(ValueError):
    """Snapshot file is not a valid field snapshot."""
