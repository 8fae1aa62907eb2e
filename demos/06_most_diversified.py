"""The most diversified portfolio and its diversification-floor grid.

Long/short, the maximizer of (w . sigma) / portfolio-vol has a closed
form; long-only it concentrates into a few names, and an effective-bets
floor trades diversification ratio for breadth.  The ratio ignores
scale, so long-only the solver minimizes y'Cy on the plane sigma'y = 1
and rescales y to the budget: one ADMM split whose x-step is a linear
solve on that plane and whose y-blocks project onto the nonnegative
orthant and, for a floor of N bets, the cone sqrt(N) ||y|| <= sum(y).
"""

import numpy as np

from proxalloc import data, portfolios
from proxalloc.linalg import solve_spd

u = data.mdp_table_universe()

w_ls = portfolios.mdp(u, long_only=False)
closed = solve_spd(u.cov, u.sigma)
closed /= closed.sum()
print("long/short solution:", ", ".join(f"{x:6.2f}" for x in w_ls.as_percent()))
print("closed form check  :", f"{np.max(np.abs(w_ls.w - closed)):.1e}")
print("diversification ratio:",
      f"{portfolios.stats(w_ls, u).diversification_ratio:.4f}")

print("\nlong-only grid (weights in %):")
print(f"{'bets>=':>7}" + "".join(f"{f'x{i}':>7}" for i in range(1, 9))
      + f"{'DR':>8}{'bets':>7}")
for bets in (None, 3.0, 5.0, 7.0):
    constraint = None if bets is None else portfolios.EffectiveBets(bets)
    w = portfolios.mdp(u, long_only=True, constraint=constraint)
    s = portfolios.stats(w, u)
    label = "  none" if bets is None else f"{bets:6.1f}"
    print(f"{label:>7}" + "".join(f"{x:7.2f}" for x in w.as_percent())
          + f"{s.diversification_ratio:8.4f}{s.effective_bets:7.2f}")

print("\nthe floor is exactly active: breadth is bought with a little ratio.")
