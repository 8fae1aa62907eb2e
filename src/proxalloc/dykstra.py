"""Dykstra's algorithm: prox of a sum, projection onto an intersection.

Plain cyclic projections can converge to a feasible point that is not
the closest one; Dykstra fixes this by re-adding, before each operator
application, the residual that operator removed in the previous cycle.
For closed convex f_j with known proxes the iterate converges to
prox_{f_1+...+f_m}(v); when every f_j is a set indicator it converges to
the projection onto the intersection.

There is one cycle loop, ``dykstra_cycle``; every other function here
builds a list of catalogue projectors (``prox.projector``) and hands it
to that loop.  Each projector checks its set once, when it is built, so
the loop itself runs bare numpy closures; a caller that sweeps many
vectors builds the list once and calls ``dykstra_cycle`` itself.  The
``project_*`` functions check v once and call the loop with
``check=False``.

Cycle counting follows the convention that "cycle 0" is the constant
input v, so convergence is checked from the first cycle onward by
comparing with the previous sweep.

Termination needs care: iterates can sit frozen on a plateau for many
cycles while only the residuals drift (each operator parking on its own
set), so stability across cycles alone is a false signal.  The loop
therefore also requires the operator outputs within the last cycle to
agree with each other, which only happens at an (approximately) common
feasible point.

On an empty intersection the loop never settles and the residuals grow
linearly with the cycle count.  At every power-of-two cycle the loop
raises EmptySetSuspected once a residual exceeds 1e6 (1 + max|v|), which
catches the divergence within twice the cycles it takes to get there and
adds only log2(cycles) residual checks to a sweep that converges.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySetSuspected, MaxCyclesExceeded
from .linalg import as_matrix, as_vector
from .prox import AffineSet, Box, Halfspace, LpBall, projector
from .reports import CONVERGED, MAX_ITER, SolverReport


@dataclass
class DykstraConfig:
    tol: float = 1e-10
    max_cycles: int = 10000

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")


def dykstra_two(f1, f2, v, cfg=None):
    """Fixed point of the two-operator scheme started at x = y = v.

    Returns (x, report) where x is the limit of the second-operator
    iterates (feasible for f2's set when f2 is a projection).
    """
    return dykstra_cycle([f1, f2], v, cfg)


def dykstra_cycle(fns, v, cfg=None, check=True):
    """Dykstra sweep over m prox operators with one residual per operator.

    m = 1 is a single prox application; for all-projection inputs the
    result is the projection onto the intersection of the m sets.
    Raises EmptySetSuspected when the residuals blow up (see the module
    docstring) and MaxCyclesExceeded after cfg.max_cycles cycles.
    ``check`` coerces v to a finite 1-d float array first; an engine that
    sweeps its own finite float iterates turns it off.
    """
    cfg = cfg or DykstraConfig()
    if check:
        v = as_vector(v)
    fns = list(fns)
    m = len(fns)
    if m == 0:
        raise ValueError("need at least one operator")
    if m == 1:
        report = SolverReport(status=CONVERGED, iterations=1, primal_residuals=[0.0])
        return fns[0](v), report

    blowup = 1e6 * (1.0 + np.max(np.abs(v)))
    x = v
    residuals = [np.zeros_like(v) for _ in range(m)]
    prev = [v] * m
    report = SolverReport(status=MAX_ITER)
    for cycle in range(1, cfg.max_cycles + 1):
        delta = 0.0
        for j, fn in enumerate(fns):
            t = x + residuals[j]
            x_next = fn(t)
            residuals[j] = t - x_next
            delta = max(delta, float(np.abs(x_next - prev[j]).max()),
                        float(np.abs(x_next - x).max()))
            prev[j] = x_next
            x = x_next
        report.iterations = cycle
        report.primal_residuals.append(delta)
        if delta <= cfg.tol:
            report.status = CONVERGED
            return x, report
        if cycle & (cycle - 1) == 0 and any(np.max(np.abs(z)) > blowup for z in residuals):
            raise EmptySetSuspected("Dykstra residuals diverge; intersection may be empty",
                                    last=x, report=report)
    raise MaxCyclesExceeded(f"dykstra_cycle: no convergence in {cfg.max_cycles} cycles",
                            last=x, report=report)


# ---------------------------------------------------------------------------
# operator lists of catalogue projectors
# ---------------------------------------------------------------------------

def _halfspaces(c, d, n):
    """One half-space projector per row of C x <= D."""
    c = as_matrix(c)
    d = as_vector(d)
    if c.shape != (d.size, n):
        raise DimensionMismatch(f"constraint shapes {c.shape}/{d.shape} do not match v ({n})")
    return [projector(Halfspace(row, rhs), n) for row, rhs in zip(c, d)]


def project_polyhedron(c, d, v, cfg=None):
    """Euclidean projection of v onto {x : C x <= D}.

    One Dykstra operator per inequality row, each a closed-form
    half-space correction.
    """
    v = as_vector(v)
    ops = _halfspaces(c, d, v.size)
    return dykstra_cycle(ops, v, cfg, check=False)[0] if ops else v.copy()


def project_general_linear(a, b, c, d, lower, upper, v, cfg=None):
    """Projection onto {x : A x = B, C x <= D, lower <= x <= upper}.

    Any of the three blocks may be None.  One Dykstra sweep runs over the
    pseudo-inverse affine correction, one half-space operator per row of
    C and the box truncation, in that order; an empty intersection raises
    EmptySetSuspected by the loop's residual blow-up rule.
    """
    v = as_vector(v)
    ops = []
    if a is not None:
        ops.append(projector(AffineSet(a, b), v.size))
    if c is not None:
        ops += _halfspaces(c, d, v.size)
    if lower is not None or upper is not None:
        ops.append(projector(Box(lower, upper), v.size))
    return dykstra_cycle(ops, v, cfg, check=False)[0] if ops else v.copy()


def project_box_ball(v, lower, upper, center, radius, cfg=None):
    """Projection onto Box[lower, upper] intersect l2-ball(center, radius)."""
    v = as_vector(v)
    ops = [projector(LpBall(2, center, radius), v.size), projector(Box(lower, upper), v.size)]
    return dykstra_cycle(ops, v, cfg, check=False)[0]
