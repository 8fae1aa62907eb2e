"""Scaled-dual ADMM for problems split as f_x(x) + f_y(y), K x = y.

The x-update is whatever subproblem solver the caller supplies (closed
form for quadratics, CCD for quadratics with barriers, a Newton solve, ...);
the y-update is a prox evaluated at v_y = x_hat + u.  A sum of several
y-terms is split by ``consensus_problem``, one copy y_j = x per term, so
each y-update stays a closed-form prox; the QP bridge stacks its
constraint rows in K and clips y into their bounds.  The loop is
over-relaxed from its second iteration on (Boyd et al. 2011, 3.4.3):
x_hat = RELAXATION K x + (1 - RELAXATION) y, where the first iteration
takes x_hat = K x, so a polish that succeeds there sees the plain step.
The scaled dual u accumulates x_hat - y+, while the residuals keep
their meaning, r = K x - y+ and s = phi K'(y+ - y).  y starts at
K x0.  An optional adaptive scheme (Boyd et al. 2011, 3.4.1) keeps the
squared primal and dual residual norms within a
factor MU of each other by multiplying the penalty by TAU_UP or dividing
it by TAU_DOWN, rescaling u so the unscaled dual phi*u is preserved across
penalty changes, until the penalty has turned back MAX_PHI_REVERSALS
times.  Every quadratic x-update solves through linalg.PenaltyFactor,
which factors Q + phi I once per penalty value.  Two optional hooks let
a split end early: one certifies from the change of the dual that the
problem is infeasible, the other polishes the iterate into an exact
answer on the active set it shows, at every power-of-two iteration from
the first and on convergence, so a split whose active set shows early
ends early while a polish that keeps failing costs O(log iterations)
tries.  The QP bridge uses both hooks; the model splits of
``portfolios`` whose constraint is a ball or smooth (the Herfindahl
ball, the entropy floors, the effective-bets cone, the volatility
ellipsoid of the KL cap) polish too, and so does the rebalancing split,
on its trade pattern.  Every active-set polish runs its rounds in
``qp._settle``; the trade pattern's is its fifth point solver.  The ADMM
risk-budgeting engine's polish is a Newton solve (``cd._rb_newton``)
with no active set, so it does not.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linalg import PenaltyFactor, as_vector
from .prox import LpBall, _soft_threshold, projector
from .reports import CONVERGED, DIVERGED, INFEASIBLE, MAX_ITER, SolverReport

CERTIFY_EVERY = 10  # iterations between infeasibility checks
# over-relaxation alpha of Boyd et al. 2011, 3.4.3, at OSQP's value (Stellato et al. 2020)
RELAXATION = 1.6
# residual balancing: mu, tau and tau' of Boyd et al. 2011, eq. 3.13
MU = 1e3  # bound on the ratio of the squared residual norms
TAU_UP = 2.0  # factor of a penalty increase
TAU_DOWN = 2.0  # divisor of a penalty decrease
# turns of the penalty per solve, then it is held: convergence needs it fixed after
# finitely many changes (Boyd et al. 2011, 3.4.1); a one-way run only finds its scale
MAX_PHI_REVERSALS = 50


@dataclass
class AdmmConfig:
    """Settings of one ADMM solve.

    ``phi0`` is the first penalty value, ``eps`` the bound that both the
    primal and the dual residual norm must meet, ``max_iter`` the
    iteration cap and ``adaptive`` switches residual balancing on (off
    keeps phi0 throughout).
    """

    phi0: float = 1.0
    eps: float = 1e-15
    max_iter: int = 100000
    adaptive: bool = True

    def __post_init__(self):
        if self.phi0 <= 0:
            raise ValueError("phi0 must be positive")


@dataclass
class AdmmProblem:
    """One splitting: x-subproblem solver, y-prox builder, coupling K.

    ``x_update(y, u, phi)`` returns the x-minimizer of
    f_x(x) + phi/2 ||K x - y + u||^2.  ``y_prox(phi)`` returns the
    prox of f_y / phi (projections may ignore phi).  K is given as the
    pair ``apply`` (x -> K x) and ``adjoint`` (v -> K'v), never as a
    dense matrix the loop reads; both None is the split x = y.
    ``infeasible(du)``, when given, is asked every CERTIFY_EVERY
    iterations whether the last change of the scaled dual,
    du = x_hat - y+, certifies that no K x lies in the domain of f_y;
    the solve then stops with status "infeasible".  ``polish(x, y,
    dual)``, when given, runs at every power-of-two iteration (1, 2, 4,
    8, ...) and on convergence, with the unscaled dual phi u; a point it
    returns ends the solve as converged, in place of x, with
    report.polished set.
    """

    x_update: Callable
    y_prox: Callable
    apply: Optional[Callable] = None
    adjoint: Optional[Callable] = None
    infeasible: Optional[Callable] = None
    polish: Optional[Callable] = None


def penalty_update(phi, r_norm, s_norm):
    """Next penalty value from the residual-balancing rule.

    Multiplies phi by TAU_UP when the primal residual dominates the dual
    one by more than a factor MU (squared norms), divides it by TAU_DOWN
    in the opposite case, otherwise leaves it unchanged.  Callers must
    rescale the scaled dual u by phi_old/phi_new when the value changes.
    """
    if phi <= 0:
        raise ValueError("phi must be positive")
    if r_norm**2 > MU * s_norm**2:
        return phi * TAU_UP
    if s_norm**2 > MU * r_norm**2:
        return phi / TAU_DOWN
    return phi


def consensus_problem(x_prox, blocks, n):
    """Global-consensus split of f(x) + sum_j g_j(x) over x in R^n.

    ``x_prox(v, rho)`` returns argmin f(x) + rho/2 ||x - v||^2 and each
    entry of ``blocks`` is a y-prox builder for one g_j, as in
    AdmmProblem.y_prox.  Block j gets its own copy y_j = x (K stacks m
    identities), the y-update applies each block's prox to its copy, and the
    x-update calls x_prox at the mean of the y_j - u_j with penalty m phi
    (Boyd et al. 2011, sec. 7.1).  One block gives the plain split x = y.
    """
    m = len(blocks)
    if m == 1:
        return AdmmProblem(x_update=lambda y, u, phi: x_prox(y - u, phi), y_prox=blocks[0])

    def y_prox(phi):
        fns = [block(phi) for block in blocks]
        return lambda v: np.concatenate([f(t) for f, t in zip(fns, v.reshape(m, n))])

    return AdmmProblem(
        x_update=lambda y, u, phi: x_prox((y - u).reshape(m, n).mean(axis=0), m * phi),
        y_prox=y_prox, apply=lambda x: np.concatenate((x,) * m),
        adjoint=lambda v: v.reshape(m, -1).sum(axis=0))


def admm_solve(problem, x0, cfg=None):
    """Run over-relaxed ADMM from x0 until both residual norms meet cfg.eps.

    y starts at K x0.  Iteration 1 is the plain step; every later one
    relaxes K x to x_hat = RELAXATION K x + (1 - RELAXATION) y before the
    y-prox and the dual update.  Returns
    (x, y, report); on hitting max_iter the last iterate is returned with
    report.status = "max_iter" rather than raising, so callers can
    inspect how far the solve got.
    """
    cfg = cfg or AdmmConfig()
    apply, adjoint = problem.apply, problem.adjoint
    infeasible, polish = problem.infeasible, problem.polish
    x = as_vector(x0).copy()
    y = x if apply is None else apply(x)
    u = np.zeros(y.size)
    phi = cfg.phi0
    prox = problem.y_prox(phi)
    report = SolverReport(status=MAX_ITER)
    reversals, last_step = 0, 0

    for iteration in range(1, cfg.max_iter + 1):
        x = problem.x_update(y, u, phi)
        kx = x if apply is None else apply(x)
        # iteration 1 stays plain, so the first polish guess reads the plain step
        kx_hat = kx if iteration == 1 else RELAXATION * kx + (1.0 - RELAXATION) * y
        v_y = kx_hat + u
        if not np.all(np.isfinite(v_y)):
            # count only completed iterations so traces stay aligned
            report.status = DIVERGED
            report.iterations = iteration - 1
            return x, y, report
        y_new = prox(v_y)
        r = kx - y_new
        dy = y_new - y
        s = phi * (dy if adjoint is None else adjoint(dy))
        du = kx_hat - y_new
        y = y_new
        u = u + du

        r_norm = math.sqrt(float(r @ r))
        s_norm = math.sqrt(float(s @ s))
        report.iterations = iteration
        report.primal_residuals.append(r_norm)
        report.dual_residuals.append(s_norm)
        if not (math.isfinite(r_norm) and math.isfinite(s_norm)):
            report.status = DIVERGED
            return x, y, report
        converged = r_norm <= cfg.eps and s_norm <= cfg.eps
        if polish is not None and (converged or iteration & (iteration - 1) == 0):
            finished = polish(x, y, phi * u)
            if finished is not None:
                report.status = CONVERGED
                report.polished = True
                return finished, y, report
        if converged:
            report.status = CONVERGED
            return x, y, report
        if infeasible is not None and iteration % CERTIFY_EVERY == 0 and infeasible(du):
            report.status = INFEASIBLE
            return x, y, report

        if cfg.adaptive and reversals < MAX_PHI_REVERSALS:
            phi_new = penalty_update(phi, r_norm, s_norm)
            if phi_new != phi:
                step = 1 if phi_new > phi else -1
                reversals += step == -last_step
                last_step = step
                u *= phi / phi_new
                phi = phi_new
                prox = problem.y_prox(phi)

    return x, y, report


# ---------------------------------------------------------------------------
# lasso solvers
# ---------------------------------------------------------------------------

def _lasso_problem(x_mat, y, y_prox):
    x_mat = np.asarray(x_mat, dtype=float)
    xty = x_mat.T @ y
    gram = PenaltyFactor(x_mat.T @ x_mat)
    return AdmmProblem(x_update=lambda yy, uu, phi: gram.solve(xty + phi * (yy - uu), phi),
                       y_prox=y_prox)


def _lasso(x_mat, y, y_prox, cfg, beta0, return_report):
    """Consensus split beta = beta_bar of 0.5||Y - X beta||^2 + g(beta_bar),
    with ``y_prox`` the prox builder of g."""
    problem = _lasso_problem(x_mat, as_vector(y), y_prox)
    start = np.zeros(np.shape(x_mat)[1]) if beta0 is None else beta0
    _, beta_bar, report = admm_solve(problem, start, cfg=cfg)
    return (beta_bar, report) if return_report else beta_bar


def admm_lasso_lambda(x_mat, y, lam, cfg=None, beta0=None, return_report=False):
    """Lasso in penalized form: 0.5||Y - X b||^2 + lam ||b||_1.

    Consensus split; the y-update is soft-thresholding at lam/phi, so it
    does depend on the penalty value.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return _lasso(x_mat, y, lambda phi: (lambda v: _soft_threshold(v, lam / phi)),
                  cfg, beta0, return_report)


def admm_lasso_tau(x_mat, y, tau, cfg=None, beta0=None, return_report=False):
    """Lasso in constrained form: least squares subject to ||b||_1 <= tau.

    Same split with the y-update replaced by the l1-ball projection,
    which is independent of the penalty parameter.
    """
    p = np.shape(x_mat)[1]
    ball = projector(LpBall(1, np.zeros(p), tau), p)  # DegenerateSet unless tau > 0
    return _lasso(x_mat, y, lambda phi: ball, cfg, beta0, return_report)
