"""General quadratic programming on one clipped ADMM split.

min 0.5 x'Qx - x'R  s.t.  A x = B, C x <= D, lower <= x <= upper

An unconstrained problem is one solve against Q.  Everything else runs
ADMM on the single split K x = z, l <= z <= u, of
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
An equality-only problem ends at iteration 1: the guess holds every row
active and every coordinate free, so the polish is the KKT solve.
``_settle``, the primal-dual active-set loop of every active-set polish
in the package (the ADMM risk-budgeting engine's Newton polish has
none), corrects the guess.
An empty feasible set is certified from the change of the dual (Banjac,
Goulart, Stellato & Boyd 2019), and every answer of ``qp_solve`` is
checked by ``stationarity_residual``, which the report keeps; the
models that solve on the bridge directly (``_Bridge.solve``) skip that
check.  The same solver doubles as the numeric oracle the other
engines are cross-checked against.  Building a QpProblem is the one check of its blocks: Q
through its PenaltyFactor, which the bridge then solves with, and A, B,
C, D and the bounds against R's length; nothing below it checks again.

Q may be passed as a 2-d dense array or as a 1-d array meaning diag(q),
which keeps very large separable problems (n ~ 1e5) tractable.
"""

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .admm import AdmmConfig, AdmmProblem, admm_solve
from .dykstra import DykstraConfig, project_general_linear
from .errors import (
    DimensionMismatch,
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
    """min 0.5 x'Qx - x'R s.t. A x = B, C x <= D, lower <= x <= upper.

    Building the problem is the one check of its blocks, each kept in the
    form the solver reads:

    * R: finite and 1-d; its length is n.
    * Q: checked by building its PenaltyFactor, kept as ``factor``: a
      finite vector of n entries (diag(Q)), or a finite n x n matrix
      symmetric under linalg's rule.
    * A with B, C with D: finite, n columns, one right-hand side value per
      row and no zero row; a 1-d A or C is one row.
    * lower, upper: None when absent, else broadcast to n entries; +-inf
      is an absent bound.

    A wrong shape or length, or a block given without its partner, raises
    DimensionMismatch; NaN or Inf, a zero row or an asymmetric Q raise
    ValueError.  Every message names the block.
    """

    q: object
    r: object
    a: Optional[object] = None
    b: Optional[object] = None
    c: Optional[object] = None
    d: Optional[object] = None
    lower: Optional[object] = None
    upper: Optional[object] = None

    def __post_init__(self):
        self.r = as_vector(self.r, "R")
        n = self.r.size
        self.factor = PenaltyFactor(self.q)
        self.q = self.factor.q
        if self.q.shape[0] != n:
            raise DimensionMismatch(f"Q has shape {self.q.shape} for {n} entries of R")
        self.a, self.b = _rows(self.a, self.b, n, "A", "B")
        self.c, self.d = _rows(self.c, self.d, n, "C", "D")
        if self.lower is not None:
            self.lower = _bound(self.lower, -np.inf, n, "lower bound")
        if self.upper is not None:
            self.upper = _bound(self.upper, np.inf, n, "upper bound")

    @property
    def n(self):
        return self.r.size

    def objective(self, x):
        return 0.5 * float(x @ self.factor.matvec(x)) - float(x @ self.r)

    def has_constraints(self):
        return any(blk is not None for blk in (self.a, self.c, self.lower, self.upper))


def _rows(rows, rhs, n, name, rhs_name):
    """A block of constraint rows and its right-hand side, checked; (None,
    None) when both are absent."""
    if (rows is None) != (rhs is None):
        raise DimensionMismatch(f"{name} and {rhs_name} must be given together")
    if rows is None:
        return None, None
    rows, rhs = as_matrix(np.atleast_2d(rows), name), as_vector(rhs, rhs_name)
    if rows.shape != (rhs.size, n):
        raise DimensionMismatch(f"{name} is {rows.shape} for {rhs.size} {rhs_name} and n = {n}")
    if not np.all(np.einsum("ij,ij->i", rows, rows)):
        raise ValueError(f"{name} has a zero row")
    return rows, rhs


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
        s_rows.append(-eye)
        t_rows.append(-problem.lower)
    if problem.upper is not None:
        s_rows.append(eye)
        t_rows.append(problem.upper)
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


class _ClippedSplit:
    """The rows K = [K_d; I] of the split K x = z and their bounds [l, u].

    K_d holds the rows of A, scaled to norm EQUALITY_WEIGHT, then the rows
    of C, scaled to unit norm; l = u on the equality rows.
    """

    def __init__(self, problem):
        n = problem.n
        rows, lo, hi = [], [], []
        if problem.a is not None:
            w = EQUALITY_WEIGHT / np.sqrt(np.einsum("ij,ij->i", problem.a, problem.a))
            rows.append(w[:, None] * problem.a)
            lo.append(w * problem.b)
            hi.append(w * problem.b)
        if problem.c is not None:
            w = 1.0 / np.sqrt(np.einsum("ij,ij->i", problem.c, problem.c))
            rows.append(w[:, None] * problem.c)
            lo.append(np.full(problem.d.size, -np.inf))
            hi.append(w * problem.d)
        lo.append(np.full(n, -np.inf) if problem.lower is None else problem.lower)
        hi.append(np.full(n, np.inf) if problem.upper is None else problem.upper)
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
    """The exact optimum from the active set guessed from z and the dual, or None.

    A row of K is guessed active at l when z - l < -dual and at u when
    u - z < dual (OSQP's guess), and _settle corrects the guess.
    """
    return _settle(functools.partial(_active_set_point, problem, split), split.lo, split.hi,
                   z - split.lo < -dual, split.hi - z < dual)


def _settle(solve, lo, hi, at_lo, at_hi):
    """The primal-dual active-set loop of every polish: a KKT point, or None.

    The constraints are entries c(x) in [lo, hi], ordered [rows; g;
    coordinates] by the caller (the trade pattern's, the sixth point
    solver, adds buys and sells), and at_lo / at_hi mask the entries
    guessed at a bound; entries with lo = hi are always active, at lo.
    ``solve(at_lo, at_hi)`` returns the optimum with the active entries at
    their bounds as (x, c(x), mult, tol), mult holding one multiplier per
    entry (grad f = sum_active mult_i grad c_i) and tol their sign slack;
    or None.  The point is kept once every free entry holds to
    POLISH_TOL (1 + |c|) and every multiplier has its KKT sign, >= -tol at
    lo and <= tol at hi (either where lo = hi).  Otherwise one primal-dual
    active-set step (Hintermueller, Ito & Kunisch 2003) pins the free
    entries the point breaks and frees the active ones with a wrong-signed
    multiplier, in the same round, at most POLISH_ROUNDS times.  Solvers
    keep their own warm state.
    """
    movable = lo != hi
    at_lo = at_lo | ~movable
    at_hi = at_hi & ~at_lo
    for _ in range(1 + POLISH_ROUNDS):
        solved = solve(at_lo, at_hi)
        if solved is None or not np.isfinite(solved[1]).all():
            return None  # no point, or a singular system's
        x, values, mult, tol = solved
        slack = POLISH_TOL * (1.0 + np.abs(values))
        free = ~(at_lo | at_hi)
        below, above = free & (values < lo - slack), free & (values > hi + slack)
        release = movable & ((at_lo & (mult < -tol)) | (at_hi & (mult > tol)))
        if not np.count_nonzero(below | above | release):  # .any() costs 3x on short masks
            return x
        at_lo, at_hi = (at_lo & ~release) | below, (at_hi & ~release) | above
    return None


def _active_set_point(problem, split, at_lo, at_hi):
    """The bridge's point solver for _settle: the equality QP of one active set.

    Active box rows fix their coordinates, active dense rows become
    equalities for _solve_equality_qp on the free coordinates.  The
    multipliers are nu on the dense rows (Q x - R = K_act'nu on the free
    coordinates) and Q x - R - K_act'nu on the coordinates; None when the
    QP is singular or its point misses the active rows.  An active row
    with no free entry (a budget row whose names are all pinned) would
    make the QP singular, so it is left out of it and only checked at
    the point.  Its multiplier moves only the pinned coordinates'
    multipliers, and a lone such row takes the one nearest 0 that its
    own sign and theirs admit; two or more such rows return None.
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
    rows_free = rows[:, free]
    pinned = ~rows_free.any(axis=1)  # rows with no free entry
    lone = np.count_nonzero(pinned)
    if lone > 1:
        return None
    q, r = problem.q, problem.r
    if q.ndim == 1:
        q_free, r_free = q[free], r[free]
    else:
        q_rows = q[free]  # one gather of the free rows, then two column blocks
        q_free = q_rows[:, free]
        r_free = r[free] - q_rows[:, ~free] @ x[~free]
    nu = np.zeros(rows.shape[0])
    try:
        x[free], nu[~pinned] = _solve_equality_qp(
            q_free, r_free, rows_free[~pinned], (target - rows[:, ~free] @ x[~free])[~pinned])
    except (NotPositiveDefinite, np.linalg.LinAlgError):
        return None
    if not np.allclose(rows @ x, target, rtol=POLISH_TOL, atol=POLISH_TOL):
        return None  # inconsistent active rows: a nearly singular system
    qx = problem.factor.matvec(x)
    tol = POLISH_TOL * (1.0 + float(np.max(np.abs(qx))) + float(np.max(np.abs(r))))
    mult = np.concatenate([np.zeros(m), qx - r - rows.T @ nu])
    mult[:m][active] = nu
    if lone:
        # mult + t slope keeps Q x - R = K_act'nu for every t, and the KKT
        # sign of each active movable entry bounds t from one side
        slope = np.concatenate([np.zeros(m), -rows[pinned][0]])
        slope[:m][active] = pinned
        side = np.where(at_lo, 1.0, np.where(at_hi, -1.0, 0.0)) * (lo != hi) * slope
        limit = -mult / np.where(side != 0, slope, 1.0)
        t_lo = np.max(limit[side > 0], initial=-np.inf)
        t_hi = np.min(limit[side < 0], initial=np.inf)
        mult += min(max(t_lo, 0.0), t_hi) * slope
    return x, split.apply(x), mult, tol


def default_qp_config(problem):
    """ADMM settings for the QP bridge: phi0 = mean diagonal of Q.

    eps stops the solves whose every polish is rejected
    (a singular or indefinite reduced Q, a degenerate vertex).
    """
    q = problem.q
    phi0 = max(float(np.mean(q if q.ndim == 1 else np.diag(q))), 1e-8)
    return AdmmConfig(phi0=phi0, eps=1e-11, max_iter=200000)


class _Bridge:
    """One QP on the bridge: the problem, its clipped split, the problem's
    penalty factor of Q and the ADMM settings.

    ``solve`` returns an uncertified (x, report); qp_solve is one solve
    and the stationarity check of its answer.
    """

    def __init__(self, problem, cfg=None):
        self.problem = problem
        self.split = _ClippedSplit(problem)
        self.cfg = cfg or default_qp_config(problem)
        split, quad, r = self.split, problem.factor, problem.r

        def x_update(y, u, phi):
            rhs = r + phi * split.adjoint(y - u)
            return quad.solve_with_rows(rhs, phi, split.rows) if split.m else quad.solve(rhs, phi)

        self.admm = AdmmProblem(x_update=x_update, y_prox=lambda phi: split.clip,
                                apply=split.apply, adjoint=split.adjoint,
                                infeasible=split.infeasible,
                                polish=lambda x, z, dual: _polish(problem, split, z, dual))

    def solve(self):
        """The optimum as (x, report), without the stationarity check.

        With no constraint it is one solve against Q, which raises
        NotPositiveDefinite on a singular Q.  Otherwise ADMM starts from
        x = 0; on an equality-only problem its iteration-1 polish is the
        KKT solve, which ends it.  Raises as qp_solve.
        """
        problem, split = self.problem, self.split
        if not problem.has_constraints():
            return problem.factor.solve(problem.r), SolverReport(iterations=0)
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
    return _Bridge(QpProblem(q=np.ones(np.size(v)), r=v, a=a, b=b, c=c, d=d,
                             lower=lower, upper=upper)).solve()[0]


def qp_dual(q, r, s, t):
    """Dual QP data for min 0.5 x'Qx - x'R s.t. S x <= T, Q positive definite.

    Returns (Qbar, Rbar) with Qbar = S Q^-1 S' and Rbar = S Q^-1 R - T;
    the dual is min 0.5 l'Qbar l - l'Rbar over l >= 0, and the primal
    optimum is recovered as x = Q^-1 (R - S'l).
    """
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
    raises MaxCyclesExceeded when it does not settle.  x is checked here:
    NaN or Inf raise ValueError, a length other than n DimensionMismatch.
    """
    x = as_vector(x, "x")
    if x.size != problem.n:
        raise DimensionMismatch(f"x has {x.size} entries for {problem.n} unknowns")
    g = problem.factor.matvec(x) - problem.r
    proj = project_general_linear(problem.a, problem.b, problem.c, problem.d,
                                  problem.lower, problem.upper, x - g, cfg)
    return float(np.max(np.abs(proj - x)))
