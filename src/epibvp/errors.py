"""Exception types shared across the package."""


class EpibvpError(Exception):
    """Base class for all package errors."""


class DomainError(EpibvpError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class IntegrationError(EpibvpError):
    """The adaptive integrator failed (step-size underflow, bad state)."""


class UnvalidatedTrajectoryError(EpibvpError):
    """A trajectory failed residual validation and was refused."""


class WindowTooSmallError(EpibvpError):
    """A shooting root sits at the edge of the scan window.

    The window cannot certify it saw the full root structure; widen it.
    """

    def __init__(self, edge: str, a: float):
        self.edge = edge
        self.a = a
        super().__init__(f"root at scan-window edge {edge} (a = {a!r}); widen the window")


class BracketError(EpibvpError):
    """A fold-search bracket fails its precondition at one end."""

    def __init__(self, end: str, message: str):
        self.end = end
        super().__init__(f"invalid bracket at {end}: {message}")

