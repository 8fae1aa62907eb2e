"""Solver observability record shared by every iterative engine."""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

CONVERGED = "converged"
MAX_ITER = "max_iter"
DIVERGED = "diverged"
INFEASIBLE = "infeasible"


@dataclass
class SolverReport:
    """What an iterative solve did: counts, residual traces, status.

    ``iterations`` counts ADMM iterations or CCD/Dykstra cycles.  The
    residual traces have one entry per iteration; ``primal_residuals``
    holds ||r||_2 for ADMM and the per-cycle max coordinate change for
    the cyclic engines.  ``iterates`` is only populated when a solve is
    asked to record its trajectory.  ``polished`` marks an ADMM or CCD
    answer finished by its polish step.  ``stationarity_residual`` is the
    certificate of the answer where a solve keeps one: the KKT residual
    of a QP solve, and the relative spread (max - min) / |mean| of
    RC_i / b_i of a ``risk_budgeting`` answer.
    """

    status: str = CONVERGED
    iterations: int = 0
    primal_residuals: list = field(default_factory=list)
    dual_residuals: list = field(default_factory=list)
    iterates: list = field(default_factory=list)
    polished: bool = False
    stationarity_residual: Optional[float] = None

    @property
    def converged(self):
        return self.status == CONVERGED

    @property
    def primal_residual(self):
        return self.primal_residuals[-1] if self.primal_residuals else np.nan
