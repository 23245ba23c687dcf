"""Exception hierarchy shared across the package, plus the deadline helper."""
import time
from typing import Optional


class VolcountError(Exception):
    """Base class for errors raised by this package."""


class UsageError(VolcountError):
    """Bad command-line invocation (exit code 1)."""


class ParseError(VolcountError):
    """Malformed or unreadable input file (exit code 2)."""


class BackendError(VolcountError):
    """A volume or counting backend could not produce a value (exit code 3)."""


class UnboundedError(BackendError):
    """The solution space is unbounded in some direction."""


class NumericalError(BackendError):
    """Floating-point trouble that refinement could not fix."""


class SummationError(BackendError):
    """Symbolic summation gave a count that is not an integer."""


class TimeoutExceeded(VolcountError):
    """The wall-clock budget ran out (exit code 4)."""


def check_deadline(deadline: Optional[float]) -> None:
    """Raise TimeoutExceeded once time.monotonic() passes the deadline."""
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutExceeded("wall-clock budget exhausted")

