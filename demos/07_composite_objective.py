"""The composite managed-account objective, assembled from bricks.

One objective blends benchmarked mean-variance, l1/l2 pull toward the
current and reference mixes, and a risk-budget log barrier, under budget
and box constraints.  Two different splits must agree: the x-step as a
ridge solve on the budget plane (the barrier, box and l1 terms each a
y-block), or as coordinate descent on the quadratic-plus-barrier.  The
snippet walks the barrier weight from pure minimum variance toward risk
budgeting, and shows the l1 term creating a genuine no-trade region.
"""

import numpy as np

from proxalloc import data, portfolios
from proxalloc.portfolios import RoboConfig

u = data.parameter_set_1().universe
current = np.array([0.18, 0.12, 0.08, 0.14, 0.06, 0.12, 0.22, 0.08])
erc = portfolios.erc(u)

print("barrier sweep: minimum variance -> risk budgeting")
for barrier in (0.0, 0.005, 0.02, float(erc.w @ u.cov @ erc.w), 0.2):
    cfg = RoboConfig(current=current, barrier=barrier,
                     risk_budgets=np.full(8, 1 / 8) if barrier else None,
                     formulation="both")
    w = portfolios.robo_advisor(u, cfg)
    gap_erc = np.max(np.abs(w.w - erc.w))
    s = portfolios.stats(w, u)
    print(f"  barrier {barrier:7.4f}: vol {s.volatility:.4f} "
          f"bets {s.effective_bets:5.2f}  max gap to ERC {gap_erc:.3f}")
print("(at the matched barrier value the solution IS the ERC portfolio)")

print("\ntrading friction: l1 pull toward current holdings")
for l1 in (0.0, 0.001, 0.005, 0.05):
    cfg = RoboConfig(current=current, l1_current=l1, formulation="admm_qp")
    w = portfolios.robo_advisor(u, cfg)
    turnover = np.sum(np.abs(w.w - current))
    print(f"  l1 weight {l1:6.3f}: turnover {turnover:6.3f}")
print("(a large enough l1 freezes the book entirely)")

print("\nsplit agreement on a loaded configuration:")
cfg = RoboConfig(benchmark=data.parameter_set_1().benchmark,
                 reference=np.full(8, 1 / 8), current=current,
                 gamma=0.1, l1_current=0.002, l2_reference=0.3,
                 barrier=0.01, risk_budgets=np.full(8, 1 / 8),
                 formulation="both")
w_qp = portfolios.robo_advisor(u, RoboConfig(**{**vars(cfg), "formulation": "admm_qp"}))
w_ccd = portfolios.robo_advisor(u, RoboConfig(**{**vars(cfg), "formulation": "admm_ccd"}))
print("  ridge-plane split :", ", ".join(f"{x:.3f}" for x in w_qp.w))
print("  coordinate split  :", ", ".join(f"{x:.3f}" for x in w_ccd.w))
print(f"  max disagreement  : {np.max(np.abs(w_qp.w - w_ccd.w)):.2e}")
