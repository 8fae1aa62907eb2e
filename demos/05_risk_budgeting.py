"""Risk budgeting: make each asset contribute its prescribed share of risk.

The equal-risk-contribution portfolio is the uniform-budget case; the
coordinate updates are closed-form positive roots of scalar quadratics.
After the first cycle a Newton-CG polish of the log-barrier form takes
the risk contributions to their budgets to 1e-10, so the solve is one
cycle and a few Newton steps even for large books.  The splitting route
reaches the same weights through the log-barrier prox and is shown for
comparison: at its default penalty it ends through the same polish after
one iteration, and with an explicit penalty it runs the plain split.
"""

import numpy as np

from proxalloc import data, portfolios

u = data.parameter_set_1().universe

w, report = portfolios.erc(u, return_report=True)
rc = portfolios.risk_contributions(w, u)
print(f"equal risk contribution (cycles {report.iterations}, polished "
      f"{report.polished}, risk-share spread {report.stationarity_residual:.1e}):")
for name, weight, contribution in zip(u.names, w.as_percent(), rc):
    print(f"  {name}: weight {weight:6.2f}%  risk share "
          f"{contribution / rc.sum():7.4%}")

print("\nweights match the inverse of each asset's pull on portfolio risk,")
print("not the inverse of its volatility alone (correlations matter).")

w_admm, rep_admm = portfolios.risk_budgeting(u, np.full(8, 1 / 8), engine="admm",
                                             return_report=True)
w_plain, rep_plain = portfolios.risk_budgeting(u, np.full(8, 1 / 8), engine="admm",
                                               return_report=True, phi=1.0)
print(f"\nsplitting engine agrees to {np.max(np.abs(w.w - w_admm.w)):.1e} "
      f"after {rep_admm.iterations} iteration (polished {rep_admm.polished});")
print(f"its plain split at phi = 1 agrees to {np.max(np.abs(w.w - w_plain.w)):.1e} "
      f"after {rep_plain.iterations} iterations")

print("\ncustom budgets: ask stock_7 (the 7% vol name) for half the risk")
budgets = np.full(8, 0.5 / 7)
budgets[6] = 0.5
w_rb = portfolios.risk_budgeting(u, budgets)
rc = portfolios.risk_contributions(w_rb, u)
print("weights:", ", ".join(f"{x:.2f}" for x in w_rb.as_percent()))
print("risk shares:", ", ".join(f"{c / rc.sum():.3f}" for c in rc))

print("\nreturn-adjusted risk measure (99% Gaussian quantile scaling):")
mu = 0.02 + 0.01 * np.arange(8)
tilted = portfolios.AssetUniverse(names=u.names, mu=mu, sigma=u.sigma, rho=u.rho)
measure = portfolios.StdevRisk(scale=2.326347874040841, rate=0.01)
w_var = portfolios.risk_budgeting(tilted, np.full(8, 1 / 8), measure=measure)
print("weights:", ", ".join(f"{x:.2f}" for x in w_var.as_percent()))
rc = portfolios.risk_contributions(w_var, tilted, measure)
print("risk-share spread:", f"{rc.max() / rc.min() - 1:.2e}",
      "(budgets hold even with expected returns in the measure)")
