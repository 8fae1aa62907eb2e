"""The same lasso solved three ways: coordinate descent, splitting, QP.

Coordinate descent soft-thresholds one coefficient at a time and is the
fastest of the three on this problem; ADMM alternates a cached ridge
solve with a soft-threshold; the augmented QP doubles the variables into
positive/negative parts.  All three land on the same coefficients.
"""

import time

import numpy as np

from proxalloc.admm import AdmmConfig, admm_lasso_lambda, admm_lasso_tau
from proxalloc.cd import CdConfig, cd_lasso
from proxalloc.data import lasso_synthetic
from proxalloc.qp import QpProblem, qp_solve

x, y, beta_true = lasso_synthetic(n=10000, p=50, seed=0)
lam = 900.0
print(f"standardized design {x.shape}, penalty weight {lam}")

t0 = time.time()
rng = np.random.default_rng(0)
beta_cd, report = cd_lasso(x, y, lam, x0=rng.uniform(-1, 1, 50),
                           cfg=CdConfig(tol=1e-12), return_report=True,
                           record_iterates=True)
t_cd = time.time() - t0
print(f"\ncoordinate descent: {report.iterations} cycles, {t_cd*1e3:.0f} ms, "
      f"{np.count_nonzero(beta_cd)}/50 active")
print("distance to the limit after each of the first 6 cycles:")
for k in range(1, 7):
    print(f"  cycle {k}: {np.max(np.abs(report.iterates[k] - beta_cd)):.2e}")

t0 = time.time()
beta_admm = admm_lasso_lambda(x, y, lam, AdmmConfig(eps=1e-12))
t_admm = time.time() - t0
print(f"\nsplitting (penalized form): {t_admm*1e3:.0f} ms, "
      f"max gap to CD {np.max(np.abs(beta_admm - beta_cd)):.1e}")

t0 = time.time()
gram = x.T @ x
q = np.block([[gram, -gram], [-gram, gram]])
r = np.concatenate([x.T @ y - lam, -(x.T @ y) - lam])
z = qp_solve(QpProblem(q=q, r=r, lower=np.zeros(100)))
beta_qp = z[:50] - z[50:]
t_qp = time.time() - t0
print(f"augmented QP (100 variables): {t_qp*1e3:.0f} ms, "
      f"max gap to CD {np.max(np.abs(beta_qp - beta_cd)):.1e}")

tau = float(np.sum(np.abs(beta_cd)))
beta_tau = admm_lasso_tau(x, y, tau, AdmmConfig(eps=1e-12))
print(f"\nconstrained form at tau = ||beta||_1 = {tau:.3f} recovers the same "
      f"fit: {np.max(np.abs(beta_tau - beta_cd)):.1e}")
print("(its l1-ball projection ignores the penalty parameter entirely,")
print(" which is why the constrained form is the easier one to tune)")
