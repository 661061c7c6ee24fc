"""Exception types and the input policy shared across the package.

Every integer argument of a public entry point goes through
DomainError.require: it must be a Python int (not a bool, not a float or
a numpy integer) inside a closed range, or the call fails at once with a
DomainError naming the argument. The caps on the size of an input, and on
the work of one exhaustive search, live here too, so what the package
accepts is decided in this one module.
"""

MAX_DIMENSION = 62  # any graph or closed form
MAX_BITMAP_DIMENSION = 13  # dense 2^n x 2^n adjacency bitmap
MAX_PROFILE_DIMENSION = 26  # profile of all 2^(n-1) xi values
MAX_EXHAUSTIVE_DIMENSION = 5  # the oracle's exhaustive searches (3-bit neighbour counts: n <= 6)
MAX_SAMPLING_DIMENSION = 12  # the cut sampler
MAX_SET_DIMENSION = 20  # vertex sets as 2^n-bit masks (128 KiB each at n = 20)
MAX_SEARCH_STEPS = 10**9  # extension steps of one oracle search (ResourceLimitError)


class DomainError(ValueError):
    """An argument violates a documented precondition."""

    # A static method, not a module function: perfbench/tracing.py wraps
    # every function one extraconn module imports from another, and this
    # module is not one of its layers.
    @staticmethod
    def require(value, lo: int, hi: int | None, name: str) -> None:
        """Raise unless type(value) is int and lo <= value <= hi.

        A bool, a float or a numpy integer is refused, whatever its value.
        hi=None leaves the range unbounded above. The message reads
        "<name>=<value> outside [lo, hi]".
        """
        if type(value) is not int:
            raise DomainError(f"{name}={value!r} is not an int")
        if value < lo or (hi is not None and value > hi):
            upper = "inf)" if hi is None else f"{hi}]"
            raise DomainError(f"{name}={value} outside [{lo}, {upper}")


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured size cap or step budget."""


class VerificationError(RuntimeError):
    """An internal consistency check failed.

    Raised by the verification routines when a computed value contradicts
    what the closed forms guarantee; on correct code this never happens.
    ``h`` records the offending profile index, when there is one.
    """

    def __init__(self, message: str, h: int | None = None):
        super().__init__(message)
        self.h = h
