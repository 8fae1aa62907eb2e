"""Minimum variance with an effective-bets floor: one split, lam from its polish.

Unconstrained long-only minimum variance on the bundled 8-stock set
piles everything into the lowest-volatility name.  Requiring at least
N effective bets (1 / sum of squared weights) spreads the book out.  One
splitting run solves it, with the box-ball projection as its y-update;
its polish ends the run at the exact optimum and reports the ball's KKT
multiplier lam, the ridge weight of the published table: the same
weights minimize w'(cov + lam I)w with no floor at all.
"""

import numpy as np

from proxalloc import data, portfolios

ps = data.parameter_set_1()
u = ps.universe


def ridge_universe(universe, lam):
    """The universe whose covariance is cov + lam I."""
    cov = universe.cov + lam * np.eye(universe.n)
    sigma = np.sqrt(np.diag(cov))
    return portfolios.AssetUniverse(universe.names, universe.mu, sigma,
                                    cov / np.outer(sigma, sigma))


print("asset volatilities:", ", ".join(f"{s:.0%}" for s in u.sigma))
print()

header = ["bets>="] + [f"x{i}" for i in range(1, 9)] + ["ridge%"]
print(" ".join(f"{h:>7}" for h in header))
for bets in (1.0, 2.0, 4.0, 6.0, 6.435, 8.0):
    w, ridge = portfolios.gmv_herfindahl(u, min_bets=bets)
    row = [f"{bets:7.3f}"] + [f"{x:7.2f}" for x in w.as_percent()]
    row.append("    inf" if np.isinf(ridge) else f"{100 * ridge:7.2f}")
    if np.isfinite(ridge):
        # the certificate: plain minimum variance on cov + lam I, no floor
        plain = portfolios.gmv_diversified(ridge_universe(u, ridge))
        row.append(f"  (ridge GMV agrees to {np.max(np.abs(plain.w - w.w)):.0e})")
    print(" ".join(row))

print()
bench_bets = portfolios.effective_bets(ps.benchmark)
print(f"the cap-weighted benchmark runs at {bench_bets:.3f} effective bets;")
w, _ = portfolios.gmv_herfindahl(u, min_bets=bench_bets)
print("matching that floor gives:", ", ".join(f"{x:.2f}" for x in w.as_percent()))

print()
print("an entropy floor is the non-quadratic cousin (no ridge equivalent):")
for floor in (0.0, 1.6, np.log(8.0)):
    w = portfolios.gmv_diversified(u, constraint=portfolios.ShannonEntropyFloor(floor))
    s = portfolios.stats(w, u)
    print(f"  entropy >= {floor:5.3f}: vol {s.volatility:.4f}, "
          f"bets {s.effective_bets:.2f}, entropy {s.shannon_entropy:.3f}")
