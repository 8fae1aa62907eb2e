"""`import proxalloc` and risk budgeting run on numpy alone; scipy's kernels load on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# run in a fresh interpreter; prints one JSON object of what it saw
SCRIPT = r"""
import json, sys
import numpy as np

SCIPY = ("scipy.linalg", "scipy.special")
loaded = lambda: [name for name in SCIPY if name in sys.modules]
seen = {}

import proxalloc
from proxalloc import errors, portfolios as P

seen["import"] = loaded()
# a 3-factor universe built with numpy, as perfbench's factor_universe
rng = np.random.default_rng(4)
n = 60
loadings = rng.normal(0.0, 0.6, (n, 3))
loadings[:, 0] = rng.uniform(0.6, 1.4, n)
cov = (loadings * rng.uniform(0.12, 0.22, 3) ** 2) @ loadings.T
cov += np.diag(rng.uniform(0.1, 0.3, n) ** 2)
sigma = np.sqrt(np.diag(cov))
rho = cov / np.outer(sigma, sigma)
rho = 0.5 * (rho + rho.T)
np.fill_diagonal(rho, 1.0)
u = P.AssetUniverse(names=list(range(n)), mu=rng.uniform(0.02, 0.1, n), sigma=sigma, rho=rho)
budgets = rng.uniform(0.2, 1.0, n)
tangency = float(np.sqrt(u.mu @ np.linalg.solve(u.cov, u.mu)))
well_posed = P.StdevRisk(1.5 * tangency)
seen["universe"] = loaded()
P.erc(u)
seen["erc"] = loaded()
for engine in ("ccd", "admm"):
    for label, measure in (("volatility", P.Volatility()), ("stdev", well_posed)):
        w, report = P.risk_budgeting(u, budgets, measure, engine=engine, return_report=True)
        assert report.polished and report.stationarity_residual <= 1e-10, (engine, label)
        seen[f"{engine} {label}"] = loaded()
ill_posed = P.StdevRisk(0.5 * float(np.max(u.mu / u.sigma)))
try:
    P.risk_budgeting(u, budgets, ill_posed)
except errors.OutOfDomain:
    seen["ill-posed"] = loaded()
gmv = P.mvo_gamma(u, 0.0)
seen["gmv"] = loaded()
z = np.linalg.solve(u.cov, np.ones(n))
seen["gmv error"] = float(np.max(np.abs(gmv.w - z / z.sum())))
omega = proxalloc.lambert_w(1.0)  # the omega constant, W(1) = 0.5671432904097838
seen["lambert_w"] = loaded()
seen["omega error"] = abs(omega - 0.5671432904097838)
print(json.dumps(seen))
"""


def test_scipy_loads_only_when_a_factor_first_needs_it():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout)
    steps = ["import", "universe", "erc", "ccd volatility", "ccd stdev", "admm volatility",
             "admm stdev", "ill-posed"]
    assert {step: seen[step] for step in steps} == {step: [] for step in steps}
    # the GMV solve factors cov through scipy.linalg's kernels, and gets it
    # right; scipy.special waits for the first Lambert W
    assert seen["gmv"] == ["scipy.linalg"]
    assert seen["gmv error"] <= 1e-12
    assert seen["lambert_w"] == ["scipy.linalg", "scipy.special"]
    assert seen["omega error"] <= 1e-15
