"""Coordinate-descent drivers and the specialized cyclic solvers.

The generic driver minimizes over one coordinate at a time, holding the
others fixed.  The specialized solvers below hard-code the per-coordinate
argmin: ordinary least squares, lasso (soft-thresholded residual
projection), box-constrained quadratics (truncated Newton coordinate),
quadratics with a log barrier (positive root of a scalar quadratic), and
the risk-budgeting updates built on the same positive-root trick.

A "cycle" is one full sweep over the n coordinates; convergence is
declared when the largest coordinate move within a cycle drops to tol.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InfeasibleSuspected,
    MaxCyclesExceeded,
    NonPositiveDiagonal,
    NonPositiveStart,
    NonPositiveVariance,
    OutOfDomain,
    ZeroColumn,
)
from .linalg import as_matrix, as_vector
from .prox import project, soft_threshold
from .reports import CONVERGED, MAX_ITER, SolverReport


# ---------------------------------------------------------------------------
# coordinate selection rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cyclic:
    """Sweep coordinates in fixed order 0..n-1 (the default)."""


@dataclass(frozen=True)
class UniformRandom:
    seed: int = 0


@dataclass(frozen=True)
class LipschitzWeighted:
    """Draw coordinate i with probability L_i^alpha / sum_j L_j^alpha.

    alpha = 0 reduces to uniform sampling; alpha = inf degenerates to
    always picking argmax L.  ``constants`` may be left None for solvers
    that can derive per-coordinate Lipschitz constants themselves
    (quadratics use their diagonal).
    """

    alpha: float = 1.0
    seed: int = 0
    constants: object = None


def coordinate_probabilities(rule, constants):
    """The sampling distribution a LipschitzWeighted rule induces."""
    constants = as_vector(constants)
    if np.isinf(rule.alpha):
        probs = np.zeros(constants.size)
        probs[int(np.argmax(constants))] = 1.0
        return probs
    weights = constants ** rule.alpha
    return weights / weights.sum()


class _Order:
    """Yields the coordinate visiting order for each cycle."""

    def __init__(self, rule, n, constants=None):
        self.rule = rule
        self.n = n
        if isinstance(rule, Cyclic):
            self._next = lambda: np.arange(n)
        elif isinstance(rule, UniformRandom):
            rng = np.random.default_rng(rule.seed)
            self._next = lambda: rng.integers(0, n, size=n)
        elif isinstance(rule, LipschitzWeighted):
            consts = rule.constants if rule.constants is not None else constants
            if consts is None:
                raise ValueError("LipschitzWeighted rule needs Lipschitz constants")
            probs = coordinate_probabilities(rule, consts)
            rng = np.random.default_rng(rule.seed)
            self._next = lambda: rng.choice(n, size=n, p=probs)
        else:
            raise TypeError(f"unknown coordinate rule {rule!r}")

    def __call__(self):
        return self._next()


@dataclass
class CdConfig:
    tol: float = 1e-8
    max_cycles: int = 10000
    rule: object = field(default_factory=Cyclic)

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")


def _run_cycles(update_coordinate, x0, cfg, constants=None, record_iterates=False,
                name="ccd"):
    """Shared cycle loop: sweep, measure max move, stop or raise."""
    x = as_vector(x0).copy()
    order = _Order(cfg.rule, x.size, constants)
    report = SolverReport(status=MAX_ITER)
    if record_iterates:
        report.iterates.append(x.copy())
    for cycle in range(1, cfg.max_cycles + 1):
        delta = 0.0
        for i in order():
            old = x[i]
            x[i] = update_coordinate(int(i), x)
            delta = max(delta, abs(x[i] - old))
        report.iterations = cycle
        report.primal_residuals.append(delta)
        if record_iterates:
            report.iterates.append(x.copy())
        # max() skips a NaN move, so a blown-up sweep would read as converged
        if not np.all(np.isfinite(x)):
            raise InfeasibleSuspected(f"{name}: cycle {cycle} left non-finite coordinates",
                                      last=x, report=report)
        if delta <= cfg.tol:
            report.status = CONVERGED
            return x, report
    raise MaxCyclesExceeded(f"{name}: no convergence in {cfg.max_cycles} cycles",
                            last=x, report=report)


def ccd_generic(coord_min, x0, cfg=None, record_iterates=False):
    """Cyclic (or randomized) exact coordinate minimization.

    ``coord_min(i, x)`` must return the argmin over coordinate i with the
    other coordinates frozen at their current values in x.
    """
    cfg = cfg or CdConfig()
    return _run_cycles(coord_min, x0, cfg, record_iterates=record_iterates)


# ---------------------------------------------------------------------------
# regression solvers
# ---------------------------------------------------------------------------

def _check_columns(x_mat):
    norms = np.einsum("ij,ij->j", x_mat, x_mat)
    if np.any(norms == 0):
        raise ZeroColumn("design matrix has a zero column")
    return norms


def cd_ols(x_mat, y, x0=None, cfg=None, return_report=False):
    """Least squares by coordinate descent with residual updates."""
    return cd_lasso(x_mat, y, 0.0, x0=x0, cfg=cfg, return_report=return_report)


def cd_lasso(x_mat, y, lam, x0=None, cfg=None, return_report=False,
             record_iterates=False):
    """Lasso coefficients: coordinate-wise soft-thresholded regression.

    Each coordinate move applies S(x_j . partial_residual; lam) / ||x_j||^2,
    which for lam = 0 is exact least squares.  The residual vector is
    maintained incrementally so a cycle costs O(n p).
    """
    cfg = cfg or CdConfig()
    x_mat = as_matrix(x_mat)
    y = as_vector(y)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    norms = _check_columns(x_mat)
    p = x_mat.shape[1]
    beta = np.zeros(p) if x0 is None else as_vector(x0).copy()
    resid = y - x_mat @ beta

    state = {"resid": resid}

    def update(j, b):
        r = state["resid"]
        rho = x_mat[:, j] @ r + norms[j] * b[j]
        new = soft_threshold(np.atleast_1d(rho), lam)[0] / norms[j]
        if new != b[j]:
            state["resid"] = r + x_mat[:, j] * (b[j] - new)
        return new

    beta, report = _run_cycles(update, beta, cfg, record_iterates=record_iterates,
                               name="cd_lasso")
    return (beta, report) if return_report else beta


# ---------------------------------------------------------------------------
# quadratic solvers
# ---------------------------------------------------------------------------

def ccd_qp_box(q, r, lower, upper, x0=None, cfg=None, return_report=False,
               record_iterates=False):
    """Box-constrained quadratic 0.5 x'Qx - x'R by truncated coordinate steps.

    The unconstrained coordinate argmin (R_i - sum_{j!=i} Qs_ij x_j)/Q_ii,
    with Qs the symmetrized Q, is clamped into [lower_i, upper_i]; this is
    exact coordinate minimization because the box is separable.
    """
    cfg = cfg or CdConfig()
    q = as_matrix(q)
    r = as_vector(r)
    n = r.size
    qs = 0.5 * (q + q.T)
    diag = np.diag(qs).copy()
    if np.any(diag <= 0):
        raise NonPositiveDiagonal("Q must have a positive diagonal")
    lo = np.broadcast_to(np.asarray(lower, dtype=float), (n,))
    hi = np.broadcast_to(np.asarray(upper, dtype=float), (n,))
    x = np.zeros(n) if x0 is None else as_vector(x0).copy()

    def update(i, xx):
        partial = qs[i] @ xx - diag[i] * xx[i]
        return min(max((r[i] - partial) / diag[i], lo[i]), hi[i])

    x, report = _run_cycles(update, x, cfg, constants=diag,
                            record_iterates=record_iterates, name="ccd_qp_box")
    return (x, report) if return_report else x


def ccd_qp_logbarrier(q, r, lam_vec, x0, cfg=None, return_report=False):
    """Quadratic plus log barrier: 0.5 x'Qx - x'R - sum_i lam_i ln x_i.

    Coordinate stationarity Q_ii x^2 + (sum_{j!=i} Q_ij x_j - R_i) x - lam_i = 0
    always has one positive root, so iterates stay strictly positive.
    """
    cfg = cfg or CdConfig()
    q = as_matrix(q)
    r = as_vector(r)
    lam_vec = np.broadcast_to(np.asarray(lam_vec, dtype=float), r.shape)
    if np.any(lam_vec <= 0):
        raise ValueError("barrier weights must be positive")
    diag = np.diag(q).copy()
    if np.any(diag <= 0):
        raise NonPositiveDiagonal("Q must have a positive diagonal")
    x0 = as_vector(x0)
    if np.any(x0 <= 0):
        raise NonPositiveStart("starting point must be strictly positive")

    def update(i, xx):
        partial = q[i] @ xx - diag[i] * xx[i]
        half_b = partial - r[i]
        return (-half_b + np.sqrt(half_b * half_b + 4.0 * lam_vec[i] * diag[i])) / (2.0 * diag[i])

    x, report = _run_cycles(update, x0, cfg, constants=diag, name="ccd_qp_logbarrier")
    return (x, report) if return_report else x


# ---------------------------------------------------------------------------
# risk-budgeting solvers
# ---------------------------------------------------------------------------

def ccd_erc(cov, lam, x0, cfg=None, return_report=False):
    """Unscaled equal-risk-contribution weights for a covariance matrix.

    Minimizes 0.5 x' cov x - lam * sum ln x_i coordinate-wise; each step
    is the positive root x_i = (-v_i + sqrt(v_i^2 + 4 lam s_i^2)) / (2 s_i^2)
    with v_i the off-diagonal part of (cov x)_i.  Callers rescale the
    output to their budget.
    """
    cfg = cfg or CdConfig()
    cov = as_matrix(cov)
    variances = np.diag(cov).copy()
    if np.any(variances <= 0):
        raise NonPositiveVariance("covariance needs a positive diagonal")
    x0 = as_vector(x0)
    if np.any(x0 <= 0):
        raise NonPositiveStart("starting point must be strictly positive")

    def update(i, xx):
        v = cov[i] @ xx - variances[i] * xx[i]
        return (-v + np.sqrt(v * v + 4.0 * lam * variances[i])) / (2.0 * variances[i])

    x, report = _run_cycles(update, x0, cfg, constants=variances, name="ccd_erc")
    return (x, report) if return_report else x


def _check_stdev_scale(excess, xi, variances):
    """Reject a stdev scale xi at which risk budgeting has no solution.

    Along a long position t e_i the objective -x'excess + xi sqrt(x'cov x)
    - lam sum_j b_j ln x_j behaves like t (xi sigma_i - excess_i)
    - lam b_i ln t, which is unbounded below when xi <= excess_i / sigma_i.
    The check covers single assets only; a long portfolio with a higher
    Sharpe ratio than every asset makes the problem unbounded as well.
    """
    if xi <= 0:
        raise ValueError("xi must be positive")
    sharpe = float(np.max(excess / np.sqrt(variances)))
    if xi <= sharpe:
        raise OutOfDomain(f"stdev scale {xi:.6g} is not above the best single-asset "
                          f"Sharpe ratio {sharpe:.6g}; the objective is unbounded below")


def ccd_rb_stdev(mu, rate, xi, cov, budgets, lam=None, x0=None, cfg=None,
                 return_report=False):
    """Unscaled risk-budgeting weights for -x'(mu - r) + xi * sqrt(x' cov x).

    The portfolio volatility entering each coordinate quadratic is frozen
    at the current iterate (it moves slowly between coordinate updates),
    which turns the stationarity condition into a scalar quadratic with a
    single positive root.  Raises OutOfDomain, before any sweep, when xi
    is not above the best single-asset Sharpe ratio.
    """
    cfg = cfg or CdConfig()
    cov = as_matrix(cov)
    mu = as_vector(mu)
    n = mu.size
    budgets = as_vector(budgets)
    if np.any(budgets <= 0):
        raise ValueError("risk budgets must be positive")
    budgets = budgets / budgets.sum()
    variances = np.diag(cov).copy()
    if np.any(variances <= 0):
        raise NonPositiveVariance("covariance needs a positive diagonal")
    excess = mu - rate
    _check_stdev_scale(excess, xi, variances)
    x0 = np.full(n, 1.0 / n) if x0 is None else as_vector(x0).copy()
    if np.any(x0 <= 0):
        raise NonPositiveStart("starting point must be strictly positive")
    if lam is None:
        lam = float(np.sqrt(x0 @ cov @ x0))

    def update(i, xx):
        vol = np.sqrt(xx @ cov @ xx)
        off = cov[i] @ xx - variances[i] * xx[i]
        a = xi * variances[i]
        b = xi * off - excess[i] * vol
        c = -lam * vol * budgets[i]
        return (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)

    x, report = _run_cycles(update, x0, cfg, constants=variances, name="ccd_rb_stdev")
    return (x, report) if return_report else x


# ---------------------------------------------------------------------------
# pointwise-constrained proximal coordinate descent
# ---------------------------------------------------------------------------

def projected_cd(grad, sets, eta, x0, cfg=None, return_report=False):
    """Coordinate proximal-gradient for separable constraints.

    Each coordinate takes a gradient step of size eta and is projected
    back onto its own scalar set: x_i <- P_i(x_i - eta * grad(x)_i).
    Only valid when the constraint set is a product of per-coordinate
    sets; eta must be small enough for the smooth part.
    """
    cfg = cfg or CdConfig()
    x0 = as_vector(x0)
    sets = list(sets)
    if len(sets) != x0.size:
        raise ValueError("need one scalar set per coordinate")
    if eta <= 0:
        raise ValueError("eta must be positive")

    def update(i, xx):
        g = as_vector(grad(xx))
        t = np.atleast_1d(xx[i] - eta * g[i])
        return project(sets[i], t)[0]

    x, report = _run_cycles(update, x0, cfg, name="projected_cd")
    return (x, report) if return_report else x
