"""General quadratic programming on one clipped ADMM split.

min 0.5 x'Qx - x'R  s.t.  A x = B, C x <= D, lower <= x <= upper

Unconstrained and equality-only problems are solved in closed form.
Everything else runs ADMM on the single split K x = z, l <= z <= u, of
OSQP (Stellato et al. 2020, arXiv 1711.08013), with every constraint row
stacked in K = [w A; C; I]:

* the y-update clips z into [l, u], the catalogue Box projector;
* the x-update solves against Q + phi (I + K_d'K_d), K_d = [w A; C] the
  dense rows, through the penalty factor of Q plus an m x m capacitance
  factor (linalg.PenaltyFactor.solve_with_rows);
* every dense row is scaled to unit norm, so one badly scaled row (a
  financing row with prohibitive costs) does not stall the split, and
  the equality rows then carry w = sqrt(1000), which weighs them as
  OSQP's thousandfold equality penalty does.

At every power-of-two iteration (1, 2, 4, ...) and on convergence
the active set is guessed from z and the dual, and the point is
polished: an equality QP on the free coordinates, kept only if it is
feasible and its multipliers have the right signs, which ends the solve.
An empty feasible set is certified from the change of the dual (Banjac,
Goulart, Stellato & Boyd 2019), and every returned answer is checked by
``stationarity_residual``, which the report keeps.  The same solver
doubles as the numeric oracle the other engines are cross-checked
against.  Q is checked in QpProblem, not again by the polish's
factorizations.

Q may be passed as a 2-d dense array or as a 1-d array meaning diag(q),
which keeps very large separable problems (n ~ 1e5) tractable.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .admm import AdmmConfig, AdmmProblem, admm_solve
from .dykstra import DykstraConfig, project_general_linear
from .errors import (
    EmptySetSuspected,
    InfeasibleSuspected,
    MaxCyclesExceeded,
    MaxIterExceeded,
    NotPositiveDefinite,
)
from .linalg import PenaltyFactor, as_matrix, as_vector, cholesky_lower
from .prox import Box, _bound, projector
from .reports import CONVERGED, DIVERGED, INFEASIBLE, SolverReport

EQUALITY_WEIGHT = np.sqrt(1e3)  # row scale of A in K: a 1000x penalty on A x = B
POLISH_TOL = 1e-9  # feasibility and multiplier-sign slack of a polished point
POLISH_ROUNDS = 4  # re-solves a polish may spend on a corrected active set
INFEASIBLE_EPS = 1e-6  # relative tolerance of the infeasibility certificate
# the stationarity check of an answer: default tolerance, at most 1000 cycles
CERTIFICATE_CFG = DykstraConfig(max_cycles=1000)


@dataclass
class QpProblem:
    q: object
    r: object
    a: Optional[object] = None
    b: Optional[object] = None
    c: Optional[object] = None
    d: Optional[object] = None
    lower: Optional[object] = None
    upper: Optional[object] = None

    def __post_init__(self):
        self.r = as_vector(self.r)
        self.q = as_vector(self.q, "Q") if np.ndim(self.q) == 1 else as_matrix(self.q, "Q")
        if self.q.ndim == 2 and np.max(np.abs(self.q - self.q.T)) > 1e-10:
            raise ValueError("Q must be symmetric")
        if self.a is not None:
            self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
            self.b = as_vector(self.b)
        if self.c is not None:
            self.c = np.atleast_2d(np.asarray(self.c, dtype=float))
            self.d = as_vector(self.d)

    @property
    def n(self):
        return self.r.size

    def objective(self, x):
        qx = self.q * x if self.q.ndim == 1 else self.q @ x
        return 0.5 * float(x @ qx) - float(x @ self.r)

    def has_constraints(self):
        return any(blk is not None for blk in (self.a, self.c, self.lower, self.upper))


def canonicalize(problem):
    """Stack every constraint block into one inequality system S x <= T.

    Order: [-A; A; C; -I; I] against [-B; B; D; -lower; upper], with the
    bound rows present only when the corresponding bound is declared.
    """
    n = problem.n
    s_rows, t_rows = [], []
    if problem.a is not None:
        s_rows += [-problem.a, problem.a]
        t_rows += [-problem.b, problem.b]
    if problem.c is not None:
        s_rows.append(problem.c)
        t_rows.append(problem.d)
    eye = np.eye(n)
    if problem.lower is not None:
        lo = np.broadcast_to(np.asarray(problem.lower, dtype=float), (n,))
        s_rows.append(-eye)
        t_rows.append(-lo)
    if problem.upper is not None:
        hi = np.broadcast_to(np.asarray(problem.upper, dtype=float), (n,))
        s_rows.append(eye)
        t_rows.append(hi)
    if not s_rows:
        return np.zeros((0, n)), np.zeros(0)
    return np.vstack(s_rows), np.concatenate(t_rows)


def _solve_equality_qp(q, r, a, b):
    """min 0.5 x'Qx - x'R s.t. A x = B for positive-definite Q.

    Returns (x, nu) with Q x = R + A'nu.  A diagonal Q goes through the
    Schur complement A Q^-1 A'; a dense one through the KKT system, which
    stays accurate where Q has near-zero ridges (the trade blocks of
    mvo_costs) and the Schur route cancels.  Raises NotPositiveDefinite
    or LinAlgError when Q or the system is singular.
    """
    if q.ndim == 1:
        if np.any(q <= 0):
            raise NotPositiveDefinite("diagonal entry at or below zero")
        nu = np.linalg.solve(a @ (a.T / q[:, None]), b - a @ (r / q))
        return (r + a.T @ nu) / q, nu
    # positive definite, so the stationary point is the minimum; q is a
    # block of the Q that QpProblem checked
    cholesky_lower(q, check=False)
    n = r.size
    kkt = np.zeros((n + a.shape[0],) * 2)
    kkt[:n, :n] = q
    kkt[:n, n:] = -a.T
    kkt[n:, :n] = a
    sol = np.linalg.solve(kkt, np.concatenate([r, b]))
    return sol[:n], sol[n:]


def _row_norms(rows):
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    if np.any(norms == 0):
        raise ValueError("zero constraint row")
    return norms


class _ClippedSplit:
    """The rows K = [K_d; I] of the split K x = z and their bounds [l, u].

    K_d holds the rows of A, scaled to norm EQUALITY_WEIGHT, then the rows
    of C, scaled to unit norm; l = u on the equality rows.
    """

    def __init__(self, problem):
        n = problem.n
        rows, lo, hi = [], [], []
        if problem.a is not None:
            w = EQUALITY_WEIGHT / _row_norms(problem.a)
            rows.append(w[:, None] * problem.a)
            lo.append(w * problem.b)
            hi.append(w * problem.b)
        if problem.c is not None:
            w = 1.0 / _row_norms(problem.c)
            rows.append(w[:, None] * problem.c)
            lo.append(np.full(problem.d.size, -np.inf))
            hi.append(w * problem.d)
        lo.append(_bound(problem.lower, -np.inf, n, "lower bound"))
        hi.append(_bound(problem.upper, np.inf, n, "upper bound"))
        self.lo = np.concatenate(lo)
        self.hi = np.concatenate(hi)
        self.rows = np.vstack(rows) if rows else np.zeros((0, n))
        self.m = self.rows.shape[0]
        self.clip = projector(Box(self.lo, self.hi), self.m + n)

    def apply(self, x):
        return np.concatenate((self.rows @ x, x))

    def adjoint(self, v):
        return self.rows.T @ v[:self.m] + v[self.m:]

    def infeasible(self, dz):
        """Banjac et al.'s primal certificate: K'dz ~ 0 with support below 0.

        dz is the last change of the scaled dual; a direction with K'dz = 0
        and u'max(dz, 0) + l'min(dz, 0) < 0 separates range(K) from [l, u].
        """
        size = float(np.max(np.abs(dz)))
        if size == 0.0 or np.max(np.abs(self.adjoint(dz))) > INFEASIBLE_EPS * size:
            return False
        up, down = dz > INFEASIBLE_EPS * size, dz < -INFEASIBLE_EPS * size
        if np.any(np.isinf(self.hi[up])) or np.any(np.isinf(self.lo[down])):
            return False
        support = float(self.hi[up] @ dz[up] + self.lo[down] @ dz[down])
        return support < -INFEASIBLE_EPS * size


def _polish(problem, split, z, dual):
    """The exact optimum on the active set guessed from z and the dual, or None.

    A row of K is taken as active at its lower bound when z - l < -dual
    and at its upper bound when u - z < dual (OSQP's guess); _settle
    decides whether the guess is kept.
    """
    return _settle(problem, split, z - split.lo < -dual, split.hi - z < dual)


def _settle(problem, split, at_lo, at_hi):
    """The exact optimum on the active rows at_lo / at_hi (masks over K), or None.

    Rows with l = u (equalities, pinned coordinates) are always active,
    at their lower bound.  Active box rows fix their coordinates, active
    dense rows become equalities, and the equality QP on the free
    coordinates is solved by _solve_equality_qp.  The point is kept once
    every row holds to POLISH_TOL and every inequality multiplier has the
    sign the KKT conditions need; rows with l = u take multipliers of
    either sign.  Otherwise the active set is corrected and the solve
    repeats, at most POLISH_ROUNDS times (a primal-dual active-set step,
    Hintermueller, Ito & Kunisch 2003): rows the point violates join it,
    or, when it violates none, the rows whose multiplier has the wrong
    sign leave it.  This settles the ties of a nearly flat objective and
    an active set guessed one row off.
    """
    m, lo, hi = split.m, split.lo, split.hi
    equal = lo == hi
    at_lo = at_lo | equal
    at_hi = at_hi & ~at_lo
    for _ in range(1 + POLISH_ROUNDS):
        point = _active_set_point(problem, split, at_lo, at_hi)
        if point is None:
            return None
        x, nu, grad, tol = point
        kx = split.apply(x)
        slack = POLISH_TOL * (1.0 + np.abs(kx))
        below, above = kx < lo - slack, kx > hi + slack
        if np.any(below) or np.any(above):
            at_lo = at_lo | below
            at_hi = (at_hi | above) & ~at_lo
            continue
        # only C rows sit at an upper bound; the multipliers of A's rows
        # take either sign
        dense = np.flatnonzero((at_lo | at_hi)[:m])
        release = np.zeros_like(at_lo)
        release[dense[at_hi[dense] & (nu > tol)]] = True
        release[m:] = (at_lo[m:] & ~equal[m:] & (grad < -tol)) | (at_hi[m:] & (grad > tol))
        if not np.any(release):
            return x
        at_lo, at_hi = at_lo & ~release, at_hi & ~release
    return None


def _active_set_point(problem, split, at_lo, at_hi):
    """Solve the equality QP of one active set.

    Returns (x, nu, grad, tol): the point, the multipliers of the active
    dense rows (Q x - R = K_act'nu on the free coordinates), the reduced
    gradient Q x - R - K_act'nu whose sign the fixed coordinates check,
    and the multiplier-sign slack; None when the QP is singular.
    """
    m, lo, hi = split.m, split.lo, split.hi
    fix_lo, fix_hi = at_lo[m:], at_hi[m:]
    free = ~(fix_lo | fix_hi)
    if not np.any(free):
        return None  # a vertex of the box leaves the multipliers to ADMM
    x = np.where(fix_lo, lo[m:], np.where(fix_hi, hi[m:], 0.0))
    active = (at_lo | at_hi)[:m]
    rows = split.rows[active]
    target = np.where(at_lo, lo, hi)[:m][active]
    q, r = problem.q, problem.r
    if q.ndim == 1:
        q_free, r_free = q[free], r[free]
    else:
        q_rows = q[free]  # one gather of the free rows, then two column blocks
        q_free = q_rows[:, free]
        r_free = r[free] - q_rows[:, ~free] @ x[~free]
    try:
        x[free], nu = _solve_equality_qp(q_free, r_free, rows[:, free],
                                         target - rows[:, ~free] @ x[~free])
    except (NotPositiveDefinite, np.linalg.LinAlgError):
        return None
    if not np.all(np.isfinite(x)):
        return None
    qx = PenaltyFactor(q).matvec(x)
    tol = POLISH_TOL * (1.0 + float(np.max(np.abs(qx))) + float(np.max(np.abs(r))))
    return x, nu, qx - r - rows.T @ nu, tol


def default_qp_config(problem=None):
    """ADMM settings for the QP bridge: phi0 = mean diagonal of Q.

    eps stops the solves whose every polish is rejected
    (a singular or indefinite reduced Q, a degenerate vertex).
    """
    phi0 = 1.0
    if problem is not None:
        q = problem.q
        phi0 = max(float(np.mean(q if q.ndim == 1 else np.diag(q))), 1e-8)
    return AdmmConfig(phi0=phi0, eps=1e-11, max_iter=200000)


class _Bridge:
    """One QP on the bridge: the problem, its clipped split, the penalty
    factor of Q and the ADMM settings.

    ``solve`` returns an uncertified (x, report); qp_solve is one solve
    and the stationarity check of its answer.
    """

    def __init__(self, problem, cfg=None):
        self.problem = problem
        self.split = _ClippedSplit(problem)
        self.quad = PenaltyFactor(problem.q)
        self.cfg = cfg or default_qp_config(problem)
        split, quad, r = self.split, self.quad, problem.r

        def x_update(y, u, phi):
            rhs = r + phi * split.adjoint(y - u)
            return quad.solve_with_rows(rhs, phi, split.rows) if split.m else quad.solve(rhs, phi)

        self.admm = AdmmProblem(x_update=x_update, y_prox=lambda phi: split.clip,
                                apply=split.apply, adjoint=split.adjoint,
                                infeasible=split.infeasible,
                                polish=lambda x, z, dual: _polish(problem, split, z, dual))

    def solve(self):
        """The optimum as (x, report), without the stationarity check.

        ADMM starts from x = 0.  Raises as qp_solve.
        """
        problem, split = self.problem, self.split
        if not problem.has_constraints():
            return self.quad.solve(problem.r), SolverReport(iterations=0)

        if problem.a is not None and problem.c is None and problem.lower is None \
                and problem.upper is None:
            try:
                x, _ = _solve_equality_qp(problem.q, problem.r, problem.a, problem.b)
                return x, SolverReport(iterations=0)
            except (NotPositiveDefinite, np.linalg.LinAlgError):
                pass  # singular Q: fall through to the regularized ADMM path

        with np.errstate(over="ignore", invalid="ignore"):
            x, z, report = admm_solve(self.admm, np.zeros(problem.n), cfg=self.cfg)
        if report.polished:
            return x, report
        if report.status == INFEASIBLE:
            raise InfeasibleSuspected("the dual iterates certify an empty feasible set",
                                      last=z[split.m:], report=report)
        if report.status == DIVERGED:
            raise InfeasibleSuspected(
                "iterates diverged; the constraint blocks may be inconsistent",
                last=z[split.m:], report=report)
        if report.status != CONVERGED:
            raise MaxIterExceeded(
                f"qp_solve: residual {report.primal_residual:.3e} "
                f"after {report.iterations} iterations",
                last=z[split.m:], report=report)
        return z[split.m:], report


def qp_solve(problem, cfg=None, return_report=False):
    """Solve a QpProblem; returns the weights (and a report on request).

    ADMM runs on the clipped split from x = 0 until a polish is accepted
    or the residuals meet cfg's tolerances; the answer is then the
    polished point (report.polished) or the box block of z.  Raises
    MaxIterExceeded when ADMM hits its iteration cap and
    InfeasibleSuspected when the dual iterates certify an empty feasible
    set or the iterates diverge.  Every returned answer's report carries
    ``stationarity_residual``, NaN when its projection did not settle.
    """
    x, report = _Bridge(problem, cfg).solve()
    try:
        report.stationarity_residual = stationarity_residual(problem, x, cfg=CERTIFICATE_CFG)
    except (MaxCyclesExceeded, EmptySetSuspected):
        report.stationarity_residual = np.nan  # the projection did not settle
    return (x, report) if return_report else x


def linear_projection(a, b, c, d, lower, upper, v):
    """Projection of v onto {x : A x = B, C x <= D, lower <= x <= upper}.

    The QP min 0.5||x||^2 - v'x on the bridge, with Q = diag(1); any
    block may be None.  An empty set raises InfeasibleSuspected with the
    dual certificate rather than running a sweep to its cycle cap.
    """
    v = as_vector(v)
    return _Bridge(QpProblem(q=np.ones(v.size), r=v, a=a, b=b, c=c, d=d,
                             lower=lower, upper=upper)).solve()[0]


def qp_dual(q, r, s, t):
    """Dual QP data for min 0.5 x'Qx - x'R s.t. S x <= T, Q positive definite.

    Returns (Qbar, Rbar) with Qbar = S Q^-1 S' and Rbar = S Q^-1 R - T;
    the dual is min 0.5 l'Qbar l - l'Rbar over l >= 0, and the primal
    optimum is recovered as x = Q^-1 (R - S'l).
    """
    q = np.asarray(q, dtype=float)
    s = np.atleast_2d(np.asarray(s, dtype=float))
    r = as_vector(r)
    t = as_vector(t)
    factor = PenaltyFactor(q)
    qbar = s @ factor.solve(s.T)
    rbar = s @ factor.solve(r) - t
    return qbar, rbar


def stationarity_residual(problem, x, cfg=None):
    """||P_Omega(x - grad f(x)) - x||_inf, a projected-gradient KKT measure.

    The projection is a Dykstra sweep (``cfg``, a DykstraConfig), which
    raises MaxCyclesExceeded when it does not settle.
    """
    g = PenaltyFactor(problem.q).matvec(x) - problem.r
    proj = project_general_linear(problem.a, problem.b, problem.c, problem.d,
                                  problem.lower, problem.upper, x - g, cfg)
    return float(np.max(np.abs(proj - x)))
