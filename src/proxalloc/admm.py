"""Scaled-dual ADMM for problems split as f_x(x) + f_y(y), A x - y = c.

The x-update is whatever subproblem solver the caller supplies (closed
form for quadratics, CCD for quadratics with barriers, a nested QP, ...);
the y-update is a prox evaluated at v_y = A x - c + u.  The scaled dual
u accumulates the primal residual.  An optional adaptive scheme keeps the
primal and dual residual norms within a factor mu of each other by
inflating or deflating the penalty, rescaling u so the unscaled dual
phi*u is preserved across penalty changes.  Every quadratic x-update
solves through linalg.PenaltyFactor, which factors Q + phi I once per
penalty value.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linalg import PenaltyFactor, as_vector
from .reports import CONVERGED, DIVERGED, MAX_ITER, SolverReport


@dataclass
class AdmmConfig:
    phi0: float = 1.0
    mu: float = 1e3
    tau: float = 2.0
    tau_prime: float = 2.0
    eps: float = 1e-15
    eps_prime: float = 1e-15
    max_iter: int = 100000
    adaptive: bool = True

    def __post_init__(self):
        if self.phi0 <= 0:
            raise ValueError("phi0 must be positive")
        if min(self.mu, self.tau, self.tau_prime) < 1:
            raise ValueError("mu, tau, tau_prime must be >= 1")


@dataclass
class AdmmProblem:
    """One splitting: x-subproblem solver, y-prox builder, coupling A, c.

    ``x_update(y, u, phi)`` returns the x-minimizer of
    f_x(x) + phi/2 ||A x - y - c + u||^2.  ``y_prox(phi)`` returns the
    prox of f_y / phi (projections may ignore phi).  ``a`` is None for
    the consensus split x = y; ``c`` is None for a zero offset.
    ``objective(x, y)`` is only used for reporting.
    """

    x_update: Callable
    y_prox: Callable
    a: Optional[object] = None
    c: Optional[object] = None
    objective: Optional[Callable] = None


def penalty_update(phi, r_norm, s_norm, cfg):
    """Next penalty value from the residual-balancing rule.

    Inflates phi by tau when the primal residual dominates the dual one
    by more than a factor mu (squared norms), deflates by tau_prime in
    the opposite case, otherwise leaves it unchanged.  tau = tau' = 1
    gives the constant-penalty scheme.  Callers must rescale the scaled
    dual u by phi_old/phi_new when the value changes.
    """
    if phi <= 0:
        raise ValueError("phi must be positive")
    if r_norm**2 > cfg.mu * s_norm**2:
        return phi * cfg.tau
    if s_norm**2 > cfg.mu * r_norm**2:
        return phi / cfg.tau_prime
    return phi


def admm_solve(problem, x0, y0, cfg=None):
    """Run ADMM until both residual norms meet (eps, eps_prime).

    Returns (x, y, report); on hitting max_iter the best iterate so far
    is returned with report.status = "max_iter" rather than raising, so
    callers can inspect how far the solve got.
    """
    cfg = cfg or AdmmConfig()
    a = None if problem.a is None else np.asarray(problem.a, dtype=float)
    x = as_vector(x0).copy()
    y = as_vector(y0).copy()
    c = np.zeros(y.size) if problem.c is None else as_vector(problem.c)
    u = np.zeros(y.size)
    phi = cfg.phi0
    prox = problem.y_prox(phi)
    report = SolverReport(status=MAX_ITER)

    for iteration in range(1, cfg.max_iter + 1):
        x = problem.x_update(y, u, phi)
        ax = x if a is None else a @ x
        v_y = ax - c + u
        if not np.all(np.isfinite(v_y)):
            # count only completed iterations so traces stay aligned
            report.status = DIVERGED
            report.iterations = iteration - 1
            return x, y, report
        y_new = prox(v_y)
        r = ax - y_new - c
        dy = y_new - y
        s = phi * (dy if a is None else a.T @ dy)
        y = y_new
        u = u + r

        r_norm = float(np.linalg.norm(r))
        s_norm = float(np.linalg.norm(s))
        report.iterations = iteration
        report.primal_residuals.append(r_norm)
        report.dual_residuals.append(s_norm)
        if not np.isfinite(r_norm) or not np.isfinite(s_norm):
            report.status = DIVERGED
            return x, y, report
        if problem.objective is not None:
            report.objective_trace.append(float(problem.objective(x, y)))
        if r_norm <= cfg.eps and s_norm <= cfg.eps_prime:
            report.status = CONVERGED
            return x, y, report

        if cfg.adaptive:
            phi_new = penalty_update(phi, r_norm, s_norm, cfg)
            if phi_new != phi:
                u *= phi / phi_new
                phi = phi_new
                prox = problem.y_prox(phi)

    return x, y, report


# ---------------------------------------------------------------------------
# lasso solvers
# ---------------------------------------------------------------------------

def _lasso_problem(x_mat, y, y_prox, objective):
    x_mat = np.asarray(x_mat, dtype=float)
    xty = x_mat.T @ y
    gram = PenaltyFactor(x_mat.T @ x_mat)
    return AdmmProblem(x_update=lambda yy, uu, phi: gram.solve(xty + phi * (yy - uu), phi),
                       y_prox=y_prox, objective=objective)


def _lasso(x_mat, y, y_prox, penalty, cfg, beta0, return_report):
    """Consensus split beta = beta_bar of 0.5||Y - X beta||^2 + penalty(beta_bar)."""
    x_mat = np.asarray(x_mat, dtype=float)
    y = as_vector(y)

    def objective(beta, beta_bar):
        resid = y - x_mat @ beta
        return 0.5 * float(resid @ resid) + penalty(beta_bar)

    problem = _lasso_problem(x_mat, y, y_prox, objective)
    start = np.zeros(x_mat.shape[1]) if beta0 is None else as_vector(beta0)
    _, beta_bar, report = admm_solve(problem, start, start, cfg)
    return (beta_bar, report) if return_report else beta_bar


def admm_lasso_lambda(x_mat, y, lam, cfg=None, beta0=None, return_report=False):
    """Lasso in penalized form: 0.5||Y - X b||^2 + lam ||b||_1.

    Consensus split; the y-update is soft-thresholding at lam/phi, so it
    does depend on the penalty value.
    """
    from .prox import soft_threshold

    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return _lasso(x_mat, y, lambda phi: (lambda v: soft_threshold(v, lam / phi)),
                  lambda b: lam * float(np.sum(np.abs(b))), cfg, beta0, return_report)


def admm_lasso_tau(x_mat, y, tau, cfg=None, beta0=None, return_report=False):
    """Lasso in constrained form: least squares subject to ||b||_1 <= tau.

    Same split with the y-update replaced by the l1-ball projection,
    which is independent of the penalty parameter.
    """
    from .prox import LpBall, project

    if tau <= 0:
        raise ValueError("tau must be positive")
    ball = LpBall(1, np.zeros(np.shape(x_mat)[1]), tau)
    return _lasso(x_mat, y, lambda phi: (lambda v: project(ball, v)),
                  lambda b: 0.0, cfg, beta0, return_report)
