"""The composite managed-account objective, assembled from bricks.

One objective blends benchmarked mean-variance, l1/l2 pull toward the
current and reference mixes, and a risk-budget log barrier, under budget
and box constraints.  One consensus split solves it: the x-step is a
ridge solve on the budget plane, and the barrier, box and l1 terms are
each a closed-form y-block.  The snippet walks the barrier weight from
pure minimum variance toward risk budgeting, shows the l1 term creating
a genuine no-trade region, and checks the split against one QP solve of
the loaded configuration's smooth part.
"""

import numpy as np

from proxalloc import data, portfolios
from proxalloc.portfolios import RoboConfig
from proxalloc.qp import QpProblem, qp_solve

set1 = data.parameter_set_1()
u = set1.universe
current = np.array([0.18, 0.12, 0.08, 0.14, 0.06, 0.12, 0.22, 0.08])
erc = portfolios.erc(u)

print("barrier sweep: minimum variance -> risk budgeting")
for barrier in (0.0, 0.005, 0.02, float(erc.w @ u.cov @ erc.w), 0.2):
    cfg = RoboConfig(current=current, barrier=barrier,
                     risk_budgets=np.full(8, 1 / 8) if barrier else None)
    w = portfolios.robo_advisor(u, cfg)
    gap_erc = np.max(np.abs(w.w - erc.w))
    s = portfolios.stats(w, u)
    print(f"  barrier {barrier:7.4f}: vol {s.volatility:.4f} "
          f"bets {s.effective_bets:5.2f}  max gap to ERC {gap_erc:.3f}")
print("(at the matched barrier value the solution IS the ERC portfolio)")

print("\ntrading friction: l1 pull toward current holdings")
for l1 in (0.0, 0.001, 0.005, 0.05):
    cfg = RoboConfig(current=current, l1_current=l1)
    w = portfolios.robo_advisor(u, cfg)
    turnover = np.sum(np.abs(w.w - current))
    print(f"  l1 weight {l1:6.3f}: turnover {turnover:6.3f}")
print("(a large enough l1 freezes the book entirely)")

print("\nthe loaded configuration:")
benchmark, reference = set1.benchmark, np.full(8, 1 / 8)
gamma, l2 = 0.1, 0.3
cfg = RoboConfig(benchmark=benchmark, reference=reference, current=current,
                 gamma=gamma, l1_current=0.002, l2_reference=l2,
                 barrier=0.01, risk_budgets=np.full(8, 1 / 8))
w = portfolios.robo_advisor(u, cfg)
print("  weights        :", ", ".join(f"{x:.3f}" for x in w.w))

# without the l1 pull and the barrier the objective is the quadratic
# 0.5 x'(cov + l2 I)x - (gamma mu + cov b + l2 reference)'x on the budget
# and the box: one QP
smooth = RoboConfig(benchmark=benchmark, reference=reference, current=current,
                    gamma=gamma, l2_reference=l2)
w_split = portfolios.robo_advisor(u, smooth)
w_qp = qp_solve(QpProblem(q=u.cov + l2 * np.eye(8),
                          r=gamma * u.mu + u.cov @ benchmark + l2 * reference,
                          a=np.ones((1, 8)), b=np.ones(1),
                          lower=np.zeros(8), upper=np.ones(8)))
gap = np.max(np.abs(w_split.w - w_qp))
print(f"  smooth part    : split vs one QP solve, max gap {gap:.2e}")
assert gap <= 1e-6
