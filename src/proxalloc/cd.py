"""Coordinate-descent drivers and the specialized cyclic solvers.

The generic driver minimizes over one coordinate at a time, holding the
others fixed.  The specialized solvers below hard-code the per-coordinate
argmin: ordinary least squares, lasso (soft-thresholded residual
projection), box-constrained quadratics (truncated Newton coordinate),
quadratics with a log barrier (positive root of a scalar quadratic), and
the risk-budgeting updates built on the same positive-root trick.

A "cycle" is n coordinate moves, usually one full sweep over the n
coordinates; convergence is declared when the largest coordinate move
within a cycle drops to tol.  Every selection rule makes exactly n moves
a cycle.  The shared cycle loop calls one ``sweep(x, order)`` a cycle,
which moves x in place and returns its largest move; the solvers with a
plain per-coordinate update wrap it in ``_coordinate_sweep``.

A move of a specialized solver reads one row (or column) of its matrix.
The risk-budgeting update also needs the volatility sqrt(x' cov x); it
and cov x change by a rank-one amount when one coordinate moves, so
``ccd_rb_stdev``'s sweep computes both afresh at its start and carries
them through the cycle: O(n) a move and O(n^2) a cycle.

The loop can end early through a polish hook, on the schedule of the
ADMM polish: after cycles 1, 2, 4, ... and at convergence, it may return
a finished point in place of the iterate.  ``risk_budgeting`` ends its
cycles so through a Newton-CG solve of the barrier form (``_rb_newton``),
kept only once it certifies its risk contributions.  Its first cycle
only gives the polish a start, so it is a simultaneous (Jacobi) update:
every coordinate takes its positive-root step from the same cov x and
volatility (``_rb_simultaneous``), one mat-vec and a few vector
operations with no Python loop over the coordinates.  Should the polish
fail, cycles 2, 3, ... are the cyclic sweep.  The ADMM risk-budgeting
engine of ``portfolios`` ends through the same two functions, applied
to its iterate y.  The polish's CG solves with H / (xi/s), the Hessian of
the barrier form scaled so that a product with it is one mat-vec.

Each public solver checks its inputs at entry, through linalg, the one
coercion owner: ``as_vector`` and ``as_matrix`` at the length its matrix
or R sets, ``as_scalar`` for a scalar, and ``per_coordinate`` /
``as_bound`` for a barrier weight or a bound that may be a scalar or one
entry per coordinate.  NaN raises NonFiniteValue and a wrong shape
DimensionMismatch.  The cycle loop, the sweeps and the polish then take
checked arrays, and ``ccd_erc`` runs the log-barrier cycles on the
arrays it checked.  ``ccd_rb_stdev``'s ``check=False`` skips its entry
checks for a caller that made them: ``risk_budgeting`` hands it the
universe's checked cov and its own checked, normalized budgets.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InfeasibleSuspected,
    InvertedBounds,
    MaxCyclesExceeded,
    NegativeLambda,
    NonPositiveDiagonal,
    NonPositiveStart,
    NonPositiveVariance,
    NonPositiveWeight,
    OutOfDomain,
    ZeroColumn,
)
from .linalg import as_bound, as_matrix, as_scalar, as_vector, per_coordinate
from .prox import _soft_threshold, projector
from .reports import CONVERGED, MAX_ITER, SolverReport

# the Newton-CG polish of risk budgeting (``_rb_newton``)
RB_POLISH_TOL = 1e-10  # certificate max_i |RC_i / b_i - lam| <= tol lam
RB_BUDGET_FLOOR = 1e-12  # the smallest normalized risk budget (_normalized_budgets)
RB_NEWTON_STEPS = 20
ARMIJO = 1e-4  # sufficient decrease of F, as a fraction of the slope
F_ROUNDING = 1e-15  # relative rounding error allowed in F's decrease
MIN_STEP = 2.0 ** -30  # a shorter backtracked step ends the polish try


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


def _run_cycles(sweep, x0, cfg, constants=None, record_iterates=False, name="ccd",
                polish=None):
    """Shared cycle loop: sweep, measure max move, polish, stop or raise.

    ``x0`` is a checked 1-d float array (the loop sweeps a copy of it).
    ``sweep(x, order)`` runs one cycle in place over the coordinates of
    ``order`` and returns the largest move.  ``polish(x)``, when given,
    is tried after cycles 1, 2, 4, ... and at convergence; a point it
    returns ends the solve as converged, with report.polished set.
    """
    x = x0.copy()
    order = _Order(cfg.rule, x.size, constants)
    report = SolverReport(status=MAX_ITER)
    if record_iterates:
        report.iterates.append(x.copy())
    for cycle in range(1, cfg.max_cycles + 1):
        delta = sweep(x, order())
        report.iterations = cycle
        report.primal_residuals.append(delta)
        if record_iterates:
            report.iterates.append(x.copy())
        # delta skips a NaN move, so a blown-up sweep would read as converged
        if not np.isfinite(x).all():
            raise InfeasibleSuspected(f"{name}: cycle {cycle} left non-finite coordinates",
                                      last=x, report=report)
        converged = delta <= cfg.tol
        if polish is not None and (converged or cycle & (cycle - 1) == 0):
            finished = polish(x)
            if finished is not None:
                report.status = CONVERGED
                report.polished = True
                return finished, report
        if converged:
            report.status = CONVERGED
            return x, report
    raise MaxCyclesExceeded(f"{name}: no convergence in {cfg.max_cycles} cycles",
                            last=x, report=report)


def _coordinate_sweep(update):
    """The sweep that sets x_i = update(i, x) for each i of the order in turn."""
    def sweep(x, order):
        delta = 0.0
        for i in order.tolist():
            old = x.item(i)
            x[i] = update(i, x)
            move = abs(x.item(i) - old)
            if move > delta:
                delta = move
        return delta

    return sweep


def ccd_generic(coord_min, x0, cfg=None, record_iterates=False):
    """Cyclic (or randomized) exact coordinate minimization.

    ``coord_min(i, x)`` must return the argmin over coordinate i with the
    other coordinates frozen at their current values in x.
    """
    cfg = cfg or CdConfig()
    return _run_cycles(_coordinate_sweep(coord_min), as_vector(x0), cfg,
                       record_iterates=record_iterates)


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
    x_mat = as_matrix(x_mat, "x_mat")
    y = as_vector(y, "y", x_mat.shape[0])
    if as_scalar(lam, "lam") < 0:
        raise NegativeLambda("lam must be nonnegative")
    norms = _check_columns(x_mat)
    p = x_mat.shape[1]
    beta = np.zeros(p) if x0 is None else as_vector(x0, "x0", p).copy()
    resid = y - x_mat @ beta

    state = {"resid": resid}

    def update(j, b):
        r = state["resid"]
        rho = x_mat[:, j] @ r + norms[j] * b[j]
        new = _soft_threshold(rho, lam) / norms[j]
        if new != b[j]:
            state["resid"] = r + x_mat[:, j] * (b[j] - new)
        return new

    beta, report = _run_cycles(_coordinate_sweep(update), beta, cfg,
                               record_iterates=record_iterates, name="cd_lasso")
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
    r = as_vector(r, "R")
    n = r.size
    q = as_matrix(q, "Q", n)
    qs = 0.5 * (q + q.T)
    diag = np.diag(qs).copy()
    if np.any(diag <= 0):
        raise NonPositiveDiagonal("Q must have a positive diagonal")
    lo = as_bound(lower, -np.inf, n, "lower")
    hi = as_bound(upper, np.inf, n, "upper")
    if (lo > hi).any():
        raise InvertedBounds("lower bound exceeds upper bound")
    x = np.zeros(n) if x0 is None else as_vector(x0, "x0", n).copy()

    def update(i, xx):
        partial = qs[i] @ xx - diag[i] * xx[i]
        return min(max((r[i] - partial) / diag[i], lo[i]), hi[i])

    x, report = _run_cycles(_coordinate_sweep(update), x, cfg, constants=diag,
                            record_iterates=record_iterates, name="ccd_qp_box")
    return (x, report) if return_report else x


def ccd_qp_logbarrier(q, r, lam_vec, x0, cfg=None, return_report=False):
    """Quadratic plus log barrier: 0.5 x'Qx - x'R - sum_i lam_i ln x_i.

    Coordinate stationarity Q_ii x^2 + (sum_{j!=i} Q_ij x_j - R_i) x - lam_i = 0
    always has one positive root, so iterates stay strictly positive.
    """
    r = as_vector(r, "R")
    q = as_matrix(q, "Q", r.size)
    if (np.diag(q) <= 0).any():
        raise NonPositiveDiagonal("Q must have a positive diagonal")
    return _logbarrier_cycles(q, r, lam_vec, as_vector(x0, "x0", r.size), cfg, return_report)


def _logbarrier_cycles(q, r, lam_vec, x0, cfg, return_report):
    """The cycles of ccd_qp_logbarrier on checked arrays: q n x n with a
    positive diagonal, r and x0 of n entries; lam_vec and x0 > 0 are
    checked here."""
    cfg = cfg or CdConfig()
    lam_vec = per_coordinate(lam_vec, r.size, "lam_vec")
    if (lam_vec <= 0).any():
        raise ValueError("barrier weights must be positive")
    if (x0 <= 0).any():
        raise NonPositiveStart("starting point must be strictly positive")
    diag = np.diag(q).copy()

    def update(i, xx):
        partial = q[i] @ xx - diag[i] * xx[i]
        half_b = partial - r[i]
        return (-half_b + np.sqrt(half_b * half_b + 4.0 * lam_vec[i] * diag[i])) / (2.0 * diag[i])

    x, report = _run_cycles(_coordinate_sweep(update), x0, cfg, constants=diag,
                            name="ccd_qp_logbarrier")
    return (x, report) if return_report else x


# ---------------------------------------------------------------------------
# risk-budgeting solvers
# ---------------------------------------------------------------------------

def ccd_erc(cov, lam, x0, cfg=None, return_report=False):
    """Unscaled equal-risk-contribution weights for a covariance matrix.

    Minimizes 0.5 x' cov x - lam * sum ln x_i coordinate-wise: the
    log-barrier QP of ``ccd_qp_logbarrier`` with R = 0, whose step is the
    positive root x_i = (-v_i + sqrt(v_i^2 + 4 lam s_i^2)) / (2 s_i^2)
    with v_i the off-diagonal part of (cov x)_i.  Callers rescale the
    output to their budget.
    """
    x0 = as_vector(x0, "x0")
    cov = as_matrix(cov, "cov", x0.size)
    if (np.diag(cov) <= 0).any():
        raise NonPositiveVariance("covariance needs a positive diagonal")
    return _logbarrier_cycles(cov, np.zeros(x0.size), lam, x0, cfg, return_report)


def _normalized_budgets(budgets):
    """Checked risk budgets over their sum.

    A budget at or below 0 raises NonPositiveWeight, and a normalized budget
    below RB_BUDGET_FLOOR OutOfDomain, as does a sum that overflows.  Both
    risk-budgeting engines start from the positive-root step
    x_i = (-b + sqrt(b^2 + 4 a c)) / (2 a), whose c is proportional to b_i:
    once 4 a c / b^2 nears the rounding unit the root cancels to x_i = 0,
    where the polish's ln x_i fails and the weight came back 0 (a budget of
    1e-16 against seven of 1 does so on parameter set 1).  The floor keeps
    that ratio orders of magnitude above the rounding unit, so the start is
    positive and the polish refines it.
    """
    if (budgets <= 0).any():
        raise NonPositiveWeight("risk budgets must be positive")
    budgets = budgets / budgets.sum()
    if not budgets.min() >= RB_BUDGET_FLOOR:
        raise OutOfDomain(f"risk budgets must stay positive and at least {RB_BUDGET_FLOOR:g} "
                          f"once normalized, got {budgets.min():.3g}")
    return budgets


def _check_stdev_scale(excess, xi, variances):
    """Reject a stdev scale xi at which risk budgeting has no solution.

    Along a long position t e_i the objective -x'excess + xi sqrt(x'cov x)
    - lam sum_j b_j ln x_j behaves like t (xi sigma_i - excess_i)
    - lam b_i ln t, which is unbounded below when xi <= excess_i / sigma_i.
    The check covers single assets only.  A long portfolio x with a
    higher Sharpe ratio than every asset makes the problem unbounded as
    well, along t x; ``ccd_rb_stdev`` certifies that case from its
    iterate at every cycle boundary.
    """
    if as_scalar(xi, "xi") <= 0:
        raise OutOfDomain("xi must be positive")
    sharpe = float((excess / np.sqrt(variances)).max())
    if xi <= sharpe:
        raise OutOfDomain(f"stdev scale {xi:.6g} is not above the best single-asset "
                          f"Sharpe ratio {sharpe:.6g}; the objective is unbounded below")


def _pcg(hess_vec, rhs, precond, force, max_steps):
    """Diagonally preconditioned CG for H dx = rhs, from dx = 0.

    Stops once r'D^-1 r <= force^2 rhs'D^-1 rhs for the residual r and
    D = ``precond``, on a zero residual or on a direction of nonpositive
    curvature p'Hp <= 0, so it never divides by zero.  ``rhs`` becomes
    the residual r: it is updated in place, so the caller passes a
    temporary it does not read again.  The vectors are updated in place
    through one held buffer, with no temporaries, and the products are
    ndarray.dot: the same BLAS kernels as the @ operator, whose dispatch
    costs about twice as much on these sizes.
    """
    dx = np.zeros(rhs.size)
    r = rhs
    z = r / precond
    p = z.copy()
    step = np.empty(rhs.size)
    rz = float(r.dot(z))
    tol = force * force * rz
    for _ in range(max_steps):
        if rz <= tol:  # or a zero residual
            break
        hp = hess_vec(p)
        curv = float(p.dot(hp))
        if not curv > 0.0:
            break
        alpha = rz / curv
        dx += np.multiply(p, alpha, out=step)
        r -= np.multiply(hp, alpha, out=step)
        np.divide(r, precond, out=z)
        rz, rz_old = float(r.dot(z)), rz
        p *= rz / rz_old
        p += z  # z + beta p
    return dx


def _rb_newton(excess, xi, cov, budgets):
    """Newton-CG polish hook of both risk-budgeting engines (budgets summing to 1).

    Minimizes the convex barrier form F(x) = -excess'x + xi s -
    lam b'ln x, s = sqrt(x'cov x), whose minimizer has RC_i = lam b_i
    (Spinu 2013), with lam = R(x) = -excess'x + xi s at the iterate, so
    the answer keeps the iterate's scale.  Each step solves H dx = -grad F,
    H = (xi/s) cov - (xi/s^3) g g' + diag(lam b / x^2) with g = cov x, by
    diagonally preconditioned CG, which needs only H-vector products.  CG
    runs on H / a, a = xi/s: cov - g g'/s^2 + diag(lam b / (a x^2)) with
    the right side -grad F / a, the same dx with no scaling of cov v in
    each product.  The step is cut to keep x positive (fraction to the
    boundary) and backtracked on F (Armijo).  The point is returned once
    max_i |RC_i / b_i - lam| <= RB_POLISH_TOL lam, and None when the
    steps stall, when R(x) <= 0 (the iterate's Sharpe ratio reached xi,
    which the next sweep certifies) or after RB_NEWTON_STEPS steps.
    """
    diag = np.diag(cov)
    term = np.empty(diag.size)  # hess_vec's buffer

    def risk(x):
        g = cov.dot(x)
        quad = float(x.dot(g))
        if not quad > 0.0:
            return g, math.nan, math.nan
        s = math.sqrt(quad)
        return g, s, xi * s - float(excess.dot(x))

    def polish(x):
        g, s, lam = risk(x)
        if not lam > 0.0:
            return None
        lam_b = lam * budgets
        tol = RB_POLISH_TOL * lam
        f = lam - float(lam_b.dot(np.log(x)))
        for _ in range(RB_NEWTON_STEPS):
            a = xi / s
            grad = a * g - excess - lam_b / x
            gap = float(np.abs(x * grad / budgets).max())  # max_i |RC_i / b_i - lam|
            if gap <= tol:
                return x
            curv = lam_b / (a * x * x)
            c = 1.0 / (s * s)

            def hess_vec(v):  # H v / a
                hv = cov.dot(v)
                hv += np.multiply(curv, v, out=term)
                hv -= np.multiply(g, c * float(g.dot(v)), out=term)
                return hv

            dx = _pcg(hess_vec, grad / -a, diag - c * g * g + curv, min(0.1, gap / lam), x.size)
            # the largest step that keeps 1% of every coordinate
            shrink = float((dx / x).min())
            step = min(1.0, -0.99 / shrink) if shrink < 0.0 else 1.0
            slope = float(grad.dot(dx))
            # near the minimizer F changes by less than its own rounding
            noise = F_ROUNDING * (xi * s + abs(f))
            while True:
                trial = x + step * dx
                g_t, s_t, r_t = risk(trial)
                f_t = r_t - float(lam_b.dot(np.log(trial)))
                if f_t <= f + ARMIJO * step * slope + noise:
                    break
                step *= 0.5
                if step < MIN_STEP:
                    return None
            if not r_t > 0.0:
                return None
            x, g, s, f = trial, g_t, s_t, f_t
        return None

    return polish


def _rb_simultaneous(x, cov_x, quad, excess, xi, variances, budgets, lam):
    """ccd_rb_stdev's positive-root step of every coordinate at once.

    Each coordinate solves its scalar quadratic at barrier weight lam from
    the same cov_x = cov x and quad = x'cov x (a Jacobi update), so the
    step costs a few vector operations and no Python loop.  It is the
    polish start of both risk-budgeting engines.
    """
    vol = math.sqrt(quad) if quad > 0.0 else math.nan
    a = xi * variances
    b = xi * (cov_x - variances * x) - excess * vol
    return (-b + np.sqrt(b * b + 4.0 * a * (lam * vol) * budgets)) / (2.0 * a)


def ccd_rb_stdev(mu, rate, xi, cov, budgets, cfg=None, return_report=False, polish=False,
                 check=True):
    """Unscaled risk-budgeting weights for -x'(mu - r) + xi * sqrt(x' cov x).

    The portfolio volatility entering each coordinate quadratic is frozen
    at the current iterate (it moves slowly between coordinate updates),
    which turns the stationarity condition into a scalar quadratic with a
    single positive root.  ``cov`` is symmetric.  The cycles start at
    x = 1/n, and the barrier weight lam of the scalar quadratics is the
    volatility sqrt(x'cov x) of that start, which sets the answer's scale.

    A move d on coordinate i adds d cov[i] to cov x and
    d (2 (cov x)_i + d cov_ii) to x'cov x, so both are carried through
    the sweep: a move costs O(n) and a cycle O(n^2).  They are recomputed
    exactly at the start of every sweep, whatever the coordinate rule, so
    rounding cannot drift across cycles.

    With ``polish`` the cycles end through the Newton-CG polish of
    ``_rb_newton`` once it certifies a point; its answer has the scale
    of the iterate it started from rather than of lam.  Cycle 1 then
    moves every coordinate at once from the cov x and volatility of the
    start, ignoring ``cfg.rule``; cycles 2, 3, ... are sweeps in the
    rule's order, so an unpolished solve keeps their convergence.

    Raises OutOfDomain, before any cycle, when xi is not above the best
    single-asset Sharpe ratio, and at the start of a cycle, carrying the
    iterate as ``last``, once the iterate's Sharpe ratio
    excess'x / sqrt(x'cov x) reaches xi: the objective then falls without
    bound along t x.

    With ``check`` the inputs are checked and the budgets normalized here:
    mu and budgets finite vectors, cov a finite n x n matrix (DimensionMismatch
    on a wrong shape), rate a finite number, budgets as
    ``_normalized_budgets`` takes them and a positive diagonal of cov.
    ``check=False`` is for a caller that did all of that already: mu and
    budgets 1-d float arrays of n entries, budgets normalized, cov a finite
    n x n float array with a positive diagonal, as ``risk_budgeting`` holds
    them.  The xi test above, which a NaN or Inf xi fails, runs either way.
    """
    cfg = cfg or CdConfig()
    if check:
        mu = as_vector(mu, "mu")
        cov = as_matrix(cov, "cov", mu.size)
        budgets = _normalized_budgets(as_vector(budgets, "budgets", mu.size))
        rate = as_scalar(rate, "rate")
    variances = cov.diagonal().copy()
    if check and (variances <= 0).any():
        raise NonPositiveVariance("covariance needs a positive diagonal")
    n = mu.size
    excess = mu - rate
    _check_stdev_scale(excess, xi, variances)
    x0 = np.full(n, 1.0 / n)
    lam = float(np.sqrt(x0.dot(cov).dot(x0)))
    xi = float(xi)
    simultaneous = polish
    lists = None  # the cyclic sweep's Python copies, built on its first cycle
    move_row = np.empty(n)  # d cov[i], the sweep's buffer

    def sweep(x, order):
        nonlocal simultaneous, lists
        cov_x = cov.dot(x)
        quad = float(x.dot(cov_x))  # x' cov x
        if quad > 0.0 and float(excess.dot(x)) >= xi * math.sqrt(quad):
            raise OutOfDomain(f"ccd_rb_stdev: the iterate's Sharpe ratio reached the "
                              f"stdev scale {xi:.6g}; the objective is unbounded below",
                              last=x.copy())
        if simultaneous:
            simultaneous = False
            new = _rb_simultaneous(x, cov_x, quad, excess, xi, variances, budgets, lam)
            delta = float(np.abs(new - x).max())
            x[:] = new
            return delta
        if lists is None:
            lists = list(cov), variances.tolist(), excess.tolist(), budgets.tolist()
        rows, var, ex, bud = lists
        delta = 0.0
        for i in order.tolist():
            x_i = x.item(i)
            cov_x_i = cov_x.item(i)
            # an indefinite cov can drive x'cov x negative; NaN reaches the cycle check
            vol = math.sqrt(quad) if quad > 0.0 else math.nan
            a = xi * var[i]
            b = xi * (cov_x_i - var[i] * x_i) - ex[i] * vol
            c = -lam * vol * bud[i]
            new = (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
            x[i] = new
            d = new - x_i
            cov_x += np.multiply(rows[i], d, out=move_row)
            quad += d * (2.0 * cov_x_i + d * var[i])
            move = abs(d)
            if move > delta:
                delta = move
        return delta

    x, report = _run_cycles(sweep, x0, cfg, constants=variances, name="ccd_rb_stdev",
                            polish=_rb_newton(excess, xi, cov, budgets) if polish else None)
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
    ops = [projector(s, 1) for s in sets]
    x0 = as_vector(x0, "x0", len(ops))  # one scalar set per coordinate
    if as_scalar(eta, "eta") <= 0:
        raise ValueError("eta must be positive")

    unchecked = True

    def update(i, xx):
        nonlocal unchecked
        g = grad(xx)
        if unchecked:  # its first output only: a NaN later fails the cycle's finite check
            g, unchecked = as_vector(g, "grad(x)", x0.size), False
        return ops[i](np.atleast_1d(xx[i] - eta * g[i]))[0]

    x, report = _run_cycles(_coordinate_sweep(update), x0, cfg, name="projected_cd")
    return (x, report) if return_report else x
