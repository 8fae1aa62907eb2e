"""Seeded factor-model universes for the benchmark workloads.

Returns are driven by k common factors plus an asset-specific term, so
the covariance is B diag(f^2) B' + diag(s^2).  The generator and its
oracles use numpy and scipy only; the library under test receives the
finished AssetUniverse.
"""

import numpy as np
from scipy.optimize import minimize

from proxalloc.portfolios import AssetUniverse


def factor_universe(rng, n, k=3, factor_vol=(0.12, 0.22), specific_vol=(0.10, 0.30),
                    mu=(0.02, 0.10)):
    """An n-asset universe from a k-factor model drawn from ``rng``.

    Loadings are positive on the first (market) factor and centred on the
    others, so assets are positively correlated on average, as equities are.
    Volatility and return ranges are (low, high) bounds of uniform draws.
    """
    loadings = rng.normal(0.0, 0.6, size=(n, k))
    loadings[:, 0] = rng.uniform(0.6, 1.4, size=n)
    f = rng.uniform(*factor_vol, size=k)
    s = rng.uniform(*specific_vol, size=n)
    cov = (loadings * f**2) @ loadings.T + np.diag(s**2)
    sigma = np.sqrt(np.diag(cov))
    rho = cov / np.outer(sigma, sigma)
    rho = 0.5 * (rho + rho.T)
    np.fill_diagonal(rho, 1.0)
    return AssetUniverse(names=[f"a{i}" for i in range(n)],
                         mu=rng.uniform(*mu, size=n), sigma=sigma, rho=rho)


def tangency_sharpe(universe):
    """sqrt(e' cov^-1 e) for excess returns e: the unconstrained maximum
    Sharpe ratio, an upper bound on the long-only maximum."""
    excess = universe.mu - universe.rate
    return float(np.sqrt(excess @ np.linalg.solve(universe.cov, excess)))


def best_single_sharpe(universe):
    """Largest single-asset Sharpe ratio, a lower bound on the long-only maximum."""
    return float(np.max((universe.mu - universe.rate) / universe.sigma))


def well_posed_xi(universe):
    """A stdev-measure scale above the long-only maximum Sharpe ratio.

    Below that ratio the risk-budgeting barrier problem is unbounded; the
    tangency Sharpe ratio bounds it from above, so any multiple > 1 of it
    is safe.
    """
    return 1.5 * tangency_sharpe(universe)


def ill_posed_xi(universe):
    """A stdev-measure scale below the long-only maximum Sharpe ratio."""
    return 0.5 * best_single_sharpe(universe)


def long_only_gmv(universe):
    """Long-only minimum-variance weights, solved with scipy's SLSQP.

    The benchmark uses it to place diversification floors between the
    minimum-variance portfolio and equal weights, where they bind.
    """
    n = universe.n
    cov = universe.cov
    res = minimize(lambda w: w @ cov @ w, np.full(n, 1.0 / n),
                   jac=lambda w: 2.0 * cov @ w, method="SLSQP",
                   bounds=[(0.0, 1.0)] * n,
                   constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0,
                                 "jac": lambda w: np.ones(n)}],
                   options={"ftol": 1e-14, "maxiter": 500})
    w = np.clip(res.x, 0.0, 1.0)
    return w / w.sum()


# the checks measure floors with these rather than with the library's own
# copies, so a wrong library measure cannot pass its own check
def effective_bets(w):
    return 1.0 / float(w @ w)


def shannon_entropy(w):
    pos = w[w > 0]
    return float(-np.sum(pos * np.log(pos)))
