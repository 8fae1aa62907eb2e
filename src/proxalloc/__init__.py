"""proxalloc: proximal-operator optimization toolbox for portfolio allocation.

Four engines (cyclic coordinate descent, ADMM, proximal operators,
Dykstra's algorithm) and the allocation models built from them:
mean-variance with turnover/cost/tracking extensions, diversified minimum
variance, risk budgeting, most-diversified, entropy and dissimilarity
portfolios, and a composite managed-account objective.
"""

from . import admm, cd, data, dykstra, linalg, portfolios, prox, qp
from .admm import AdmmConfig, AdmmProblem, admm_lasso_lambda, admm_lasso_tau, admm_solve, consensus_problem, penalty_update
from .cd import CdConfig, Cyclic, LipschitzWeighted, UniformRandom, cd_lasso, cd_ols, ccd_erc, ccd_generic, ccd_qp_box, ccd_qp_logbarrier, ccd_rb_stdev, projected_cd
from .data import ParameterSet, lasso_synthetic, parameter_set_1, parameter_set_2
from .dykstra import DykstraConfig, dykstra_cycle, dykstra_two, project_box_ball, project_general_linear, project_polyhedron
from .linalg import RootBracket, bisect, cholesky_lower, lambert_w, pseudo_inverse, solve_spd, threshold_sum_root
from .portfolios import (
    AssetUniverse,
    EffectiveBets,
    PortfolioWeights,
    RoboConfig,
    ShannonEntropyFloor,
    StdevRisk,
    Volatility,
    effective_bets,
    erc,
    gmv_diversified,
    gmv_herfindahl,
    index_sampling,
    kl_portfolio,
    mdp,
    mvo_benchmark,
    mvo_costs,
    mvo_gamma,
    mvo_target,
    mvo_turnover,
    rebalance_penalized,
    risk_budgeting,
    risk_contributions,
    robo_advisor,
    rqe_portfolio,
    stats,
)
from .prox import (
    AffineSet,
    Box,
    EffectiveBetsCone,
    Halfspace,
    Hyperplane,
    LpBall,
    LpBallComplement,
    Polyhedron,
    Simplex,
    project,
    projector,
    prox_bid_ask,
    prox_kl,
    prox_log_barrier,
    prox_lp_norm,
    prox_max,
    prox_quadratic,
    prox_scale_translate,
    prox_sum_k_largest,
    soft_threshold,
    soft_threshold_two_sided,
    truncate,
)
from .qp import QpProblem, canonicalize, linear_projection, qp_dual, qp_solve
from .reports import SolverReport

__version__ = "0.1.0"
