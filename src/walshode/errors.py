"""Exception types and the allocation cap shared across the package."""

#: The most bytes one call may hold at once: a sized call charges its peak, in
#: closed form, to require_bytes, which raises ResourceLimitError before it allocates.
MAX_ALLOC_BYTES = 1 << 30


class ResourceLimitError(RuntimeError):
    """A request would materialize more state than the configured cap allows."""


def require_bytes(nbytes: int, what: str) -> None:
    """Raise ResourceLimitError, before allocating, if ``what`` needs too many bytes."""
    if nbytes > MAX_ALLOC_BYTES:
        raise ResourceLimitError(
            f"{what} needs {nbytes} bytes, over the cap of {MAX_ALLOC_BYTES}"
        )


class DivergenceError(RuntimeError):
    """Picard iteration produced a non-finite or runaway iterate.

    Carries the partial solution trace accumulated up to the failing sweep.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ExprError(ValueError):
    """Expression source could not be parsed; ``offset`` is the byte position."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprEvalError(ArithmeticError):
    """Expression evaluation hit a numeric domain error (÷0, log of ≤0, √ of <0)."""
