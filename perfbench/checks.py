"""Correctness checks for one solve, run outside the timed region.

Each check returns None when the answer is right and a one-line reason
when it is not.  The checks use numpy (and, for the QP models, the
library's own ``qp.stationarity_residual``) on the returned weights.
"""

import numpy as np

from proxalloc import cli, qp

FEAS_TOL = 1e-6  # budget, box, cap, floor and target slack
RC_TOL = 1e-4  # relative spread of risk contributions per unit budget
KKT_TOL = 1e-6  # projected-gradient stationarity residual of a QP
GRID_TOL = 0.01 + 1e-9  # one unit in the published grids' last printed digit


def first(*reasons):
    """The first failed check of several, or None."""
    return next((r for r in reasons if r), None)


def finite(w):
    return None if np.all(np.isfinite(w)) else "weights contain NaN or Inf"


def budget(w, total=1.0):
    gap = abs(float(np.sum(w)) - total)
    return None if gap <= FEAS_TOL else f"budget off by {gap:.2e}"


def box(w, lower=0.0, upper=1.0):
    low = float(np.max(np.asarray(lower) - w))
    high = float(np.max(w - np.asarray(upper)))
    worst = max(low, high)
    return None if worst <= FEAS_TOL else f"box violated by {worst:.2e}"


def at_most(value, cap, what):
    return None if value <= cap + FEAS_TOL else f"{what} {value:.6g} above {cap:.6g}"


def at_least(value, floor, what):
    return None if value >= floor - FEAS_TOL else f"{what} {value:.6g} below {floor:.6g}"


def rc_spread(w, cov, budgets, excess=None, scale=1.0):
    """Relative spread of RC_i / b_i; RC is the stdev measure when excess is given.

    RC_i = -w_i e_i + scale * w_i (cov w)_i / sqrt(w' cov w) with e = 0 for
    the volatility measure.  At a risk-budgeting solution RC_i / b_i is the
    same for every asset.
    """
    cov_w = cov @ w
    rc = scale * w * cov_w / np.sqrt(w @ cov_w)
    if excess is not None:
        rc = rc - w * excess
    ratio = rc / (budgets / budgets.sum())
    spread = float((ratio.max() - ratio.min()) / abs(ratio.mean()))
    return None if spread <= RC_TOL else f"risk-contribution spread {spread:.2e}"


def stationarity(problem, x):
    res = qp.stationarity_residual(problem, x)
    return None if res <= KKT_TOL else f"QP stationarity residual {res:.2e}"


def grid(percent, published):
    gap = cli.grid_gap(percent, published)
    return None if gap <= GRID_TOL else f"grid cell off by {gap:.3f}pp"
