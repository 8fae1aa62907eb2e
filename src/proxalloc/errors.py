"""Exception types raised across the library.

Validation failures subclass ValueError so they behave like ordinary
argument errors; iteration failures subclass RuntimeError and carry the
last iterate (and report, when available) so callers can inspect or
resume a stalled solve.
"""


class ProxallocError(Exception):
    pass


class NotPositiveDefinite(ProxallocError, ValueError):
    pass


class NonFiniteValue(ProxallocError, ValueError):
    """NaN or Inf where a finite number is needed (NaN only, for a bound)."""


class NoSignChange(ProxallocError, ValueError):
    pass


class OutOfDomain(ProxallocError, ValueError):
    """An input outside the problem's domain; ``last`` is the iterate that
    certified it, when a solve found it out."""

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


class NegativeLambda(ProxallocError, ValueError):
    pass


class NegativeCost(ProxallocError, ValueError):
    pass


class InvertedBounds(ProxallocError, ValueError):
    pass


class DimensionMismatch(ProxallocError, ValueError):
    pass


class DegenerateSet(ProxallocError, ValueError):
    pass


class UnsupportedNorm(ProxallocError, ValueError):
    pass


class NonPositiveWeight(ProxallocError, ValueError):
    pass


class BadK(ProxallocError, ValueError):
    pass


class ZeroScale(ProxallocError, ValueError):
    pass


class ZeroColumn(ProxallocError, ValueError):
    pass


class NonPositiveDiagonal(ProxallocError, ValueError):
    pass


class NonPositiveStart(ProxallocError, ValueError):
    pass


class NonPositiveVariance(ProxallocError, ValueError):
    pass


class BadDims(ProxallocError, ValueError):
    pass


class TargetUnreachable(OutOfDomain):
    """A frontier target past an end of the frontier; ``last`` is that end."""


class UnreachableDiversification(ProxallocError, ValueError):
    pass


class IterationError(ProxallocError, RuntimeError):
    """Base for solver-loop failures; may carry the last iterate."""

    def __init__(self, message, last=None, report=None):
        super().__init__(message)
        self.last = last
        self.report = report


class MaxIterExceeded(IterationError):
    pass


class Diverged(IterationError):
    """An ADMM solve whose iterates turned non-finite; ``last`` is the iterate
    it ended on and ``report`` has status "diverged"."""


class MaxCyclesExceeded(IterationError):
    pass


class EmptySetSuspected(IterationError):
    pass


class InfeasibleSuspected(IterationError):
    pass


class InfeasibleTargets(IterationError):
    """Return/volatility targets or turnover caps that no admissible
    portfolio satisfies; ``last`` is the portfolio that certifies it."""
