"""General quadratic programming assembled from ADMM and Dykstra.

min 0.5 x'Qx - x'R  s.t.  A x = B, C x <= D, lower <= x <= upper

Unconstrained and equality-only problems are solved in closed form.
Everything else runs ADMM on the split f_x = quadratic (+ the budget
hyperplane when A is a single row, which keeps the x-update closed form)
and f_y = indicator of the remaining constraints, whose projection is
delegated to Dykstra.  The same solver doubles as the numeric oracle the
other engines are cross-checked against.

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
    MaxIterExceeded,
    NotPositiveDefinite,
)
from .linalg import PenaltyFactor, as_vector
from .reports import DIVERGED, SolverReport


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
        self.q = np.asarray(self.q, dtype=float)
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


def _solve_equality_qp(quad, r, a, b):
    """Closed form for min 0.5 x'Qx - x'R s.t. A x = B via the dual Schur system."""
    qinv_r = quad.solve(r)
    qinv_at = np.column_stack([quad.solve(a[i]) for i in range(a.shape[0])])
    schur = a @ qinv_at
    nu = np.linalg.solve(schur, b - a @ qinv_r)
    return qinv_r + qinv_at @ nu


def default_qp_config(problem=None):
    """ADMM settings tuned for the QP bridge: phi0 = mean diagonal of Q."""
    phi0 = 1.0
    if problem is not None:
        q = problem.q
        phi0 = max(float(np.mean(q if q.ndim == 1 else np.diag(q))), 1e-8)
    return AdmmConfig(phi0=phi0, eps=1e-11, eps_prime=1e-11, max_iter=200000)


def qp_solve(problem, cfg=None, x0=None, y0=None, return_report=False):
    """Solve a QpProblem; returns the weights (and a report on request).

    Raises MaxIterExceeded when ADMM hits its iteration cap and
    InfeasibleSuspected when the constraint projection diverges.
    """
    quad = PenaltyFactor(problem.q)
    r = problem.r
    n = problem.n

    if not problem.has_constraints():
        x = quad.solve(r)
        return (x, SolverReport(iterations=0)) if return_report else x

    if problem.a is not None and problem.c is None and problem.lower is None \
            and problem.upper is None:
        try:
            x = _solve_equality_qp(quad, r, problem.a, problem.b)
            return (x, SolverReport(iterations=0)) if return_report else x
        except (NotPositiveDefinite, np.linalg.LinAlgError):
            pass  # singular Q: fall through to the regularized ADMM path

    cfg = cfg or default_qp_config(problem)
    projection_cfg = DykstraConfig(tol=min(1e-10, cfg.eps))

    keep_plane = problem.a is not None and problem.a.shape[0] == 1
    plane_a = problem.a[0] if keep_plane else None
    plane_b = float(problem.b[0]) if keep_plane else None
    y_a = None if keep_plane else problem.a
    y_b = None if keep_plane else problem.b

    has_y_sets = any(blk is not None for blk in (y_a, problem.c, problem.lower,
                                                 problem.upper))

    def x_update(y, u, phi):
        rhs = r + phi * (y - u)
        if not keep_plane:
            return quad.solve(rhs, phi)
        return quad.solve_on_plane(rhs, phi, plane_a, plane_b)

    if has_y_sets:
        def y_prox(phi):
            return lambda v: project_general_linear(y_a, y_b, problem.c, problem.d,
                                                    problem.lower, problem.upper,
                                                    v, projection_cfg)
    else:
        def y_prox(phi):
            return lambda v: v

    admm_problem = AdmmProblem(x_update=x_update, y_prox=y_prox,
                               objective=lambda x, y: problem.objective(x))
    start_x = np.zeros(n) if x0 is None else as_vector(x0)
    start_y = start_x if y0 is None else as_vector(y0)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            x, y, report = admm_solve(admm_problem, start_x, start_y, cfg)
    except EmptySetSuspected as exc:
        raise InfeasibleSuspected("constraint projection diverged; feasible set may be empty",
                                  last=exc.last) from exc
    if report.status == DIVERGED:
        raise InfeasibleSuspected("iterates diverged; the constraint blocks may be inconsistent",
                                  last=y if has_y_sets else x, report=report)
    if not report.converged:
        raise MaxIterExceeded(
            f"qp_solve: residual {report.primal_residual:.3e} after {report.iterations} iterations",
            last=y if has_y_sets else x, report=report)
    x_out = y if has_y_sets else x
    return (x_out, report) if return_report else x_out


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
    qinv_st = np.column_stack([factor.solve(s[i]) for i in range(s.shape[0])])
    qbar = s @ qinv_st
    rbar = s @ factor.solve(r) - t
    return qbar, rbar


def stationarity_residual(problem, x, grad_step=1.0):
    """||P_Omega(x - t grad f(x)) - x||_inf, a projected-gradient KKT measure."""
    g = PenaltyFactor(problem.q).matvec(x) - problem.r
    stepped = x - grad_step * g
    proj = project_general_linear(problem.a, problem.b, problem.c, problem.d,
                                  problem.lower, problem.upper, stepped)
    return float(np.max(np.abs(proj - x)))
