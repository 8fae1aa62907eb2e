"""Dense linear algebra, scalar special functions and root finding.

Everything downstream (proximal operators, the splitting engines, the
portfolio models) funnels its numeric work through this module: SPD
factorizations, the Moore-Penrose pseudo-inverse, bisection, the Lambert
W function and the piecewise-linear threshold equation
sum_i (v_i - s)_+ = target that shows up in simplex/l1-ball projections.

Vectors and matrices are plain float64 ndarrays; ``as_vector`` /
``as_matrix`` are the constructors that enforce finiteness.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    DimensionMismatch,
    MaxIterExceeded,
    NoSignChange,
    NotPositiveDefinite,
    OutOfDomain,
)

SYMMETRY_TOL = 1e-12
_INV_E = np.exp(-1.0)


def as_vector(x, name="vector"):
    """Coerce to a finite 1-d float array."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-d, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains NaN or Inf")
    return v


def as_matrix(m, name="matrix"):
    """Coerce to a finite 2-d float array."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-d, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains NaN or Inf")
    return a


def is_symmetric(m, tol=SYMMETRY_TOL):
    m = np.asarray(m, dtype=float)
    return m.shape[0] == m.shape[1] and np.max(np.abs(m - m.T)) <= tol


@dataclass
class RootBracket:
    """Bisection interval with tolerance and iteration cap."""

    lo: float
    hi: float
    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


def cholesky_lower(m):
    """Lower Cholesky factor L with L L^T = m.

    Raises NotPositiveDefinite when the factorization breaks down or any
    pivot falls at or below 1e-14 times the largest diagonal entry.
    """
    m = as_matrix(m)
    if not is_symmetric(m):
        raise ValueError("matrix is not symmetric to 1e-12")
    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    pivot_floor = 1e-14 * np.max(np.diag(m))
    if np.any(np.diag(lower) ** 2 <= pivot_floor):
        raise NotPositiveDefinite("pivot below 1e-14 * max diagonal")
    return lower


class SpdFactor:
    """Cholesky factorization reused across right-hand sides.

    The splitting engines keep one per penalty value in a PenaltyFactor,
    which refactors only when the penalty changes.
    """

    def __init__(self, m):
        self.lower = cholesky_lower(m)

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        # finite checks are skipped so solver loops can detect divergence
        # from the residuals instead of dying inside a triangular solve
        y = solve_triangular(self.lower, b, lower=True, check_finite=False)
        return solve_triangular(self.lower.T, y, lower=False, check_finite=False)


class PenaltyFactor:
    """Solves against Q + phi I for a fixed Q, factoring once per phi.

    The ADMM x-updates solve against the same Q under a penalty that
    changes only now and then (Boyd et al. 2011, sec. 4.2), so the
    factors of the last four penalty values are kept.  A 1-d ``q`` means
    diag(q) and is solved elementwise.
    """

    def __init__(self, q):
        self.q = np.asarray(q, dtype=float)
        self.diagonal = self.q.ndim == 1
        self._factors = {}

    def matvec(self, x):
        return self.q * x if self.diagonal else self.q @ x

    def solve(self, rhs, phi=0.0):
        if self.diagonal:
            return rhs / (self.q + phi)
        factor = self._factors.get(phi)
        if factor is None:
            factor = SpdFactor(self.q + phi * np.eye(self.q.shape[0]))
            self._factors[phi] = factor
            if len(self._factors) > 4:
                self._factors.pop(next(iter(self._factors)))
        return factor.solve(rhs)

    def solve_on_plane(self, rhs, phi, a, b):
        """argmin 0.5 x'(Q + phi I)x - rhs'x subject to a'x = b."""
        base = self.solve(rhs, phi)
        k_a = self.solve(a, phi)
        nu = (b - a @ base) / (a @ k_a)
        return base + nu * k_a


def solve_spd(m, b):
    """Solve m x = b for symmetric positive-definite m."""
    b = as_vector(b) if np.ndim(b) == 1 else np.asarray(b, dtype=float)
    m = as_matrix(m)
    if m.shape[0] != np.shape(b)[0]:
        raise DimensionMismatch(f"matrix {m.shape} vs rhs {np.shape(b)}")
    return SpdFactor(m).solve(b)


def pseudo_inverse(a):
    """Moore-Penrose pseudo-inverse (defined for any rectangular input)."""
    return np.linalg.pinv(as_matrix(a), rcond=1e-13)


def bisect(f, bracket):
    """Root of a scalar function by bisection on a sign-changing bracket.

    Returns s with |f(s)| <= tol or with the bracket narrowed to tol.
    """
    lo, hi, tol = bracket.lo, bracket.hi, bracket.tol
    flo = f(lo)
    if abs(flo) <= tol:
        return lo
    fhi = f(hi)
    if abs(fhi) <= tol:
        return hi
    if flo * fhi > 0:
        raise NoSignChange(f"f({lo})={flo:.3g} and f({hi})={fhi:.3g} have the same sign")
    for _ in range(bracket.max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if abs(fmid) <= tol or (hi - lo) <= tol:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    raise MaxIterExceeded(f"bisection did not meet tol={tol} in {bracket.max_iter} steps",
                          last=0.5 * (lo + hi))


def lambert_w(x):
    """Principal branch of the Lambert W function (w e^w = x, x >= -1/e).

    Halley iteration started from log1p(x) for x >= 0 and from the
    branch-point series for x < 0; accepts scalars or arrays.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < -_INV_E - 1e-12):
        raise OutOfDomain("lambert_w needs x >= -1/e")
    x = np.maximum(x, -_INV_E)

    w = np.empty_like(x)
    neg = x < 0
    w[~neg] = np.log1p(x[~neg])
    # series around the branch point x = -1/e, accurate enough to seed Halley
    p = np.sqrt(2.0 * (np.e * x[neg] + 1.0))
    w[neg] = -1.0 + p - p**2 / 3.0 + 11.0 / 72.0 * p**3

    target = 1e-13 * (1.0 + np.abs(x))
    for _ in range(100):
        ew = np.exp(w)
        f = w * ew - x
        if np.all(np.abs(f) <= target):
            break
        wp1 = w + 1.0
        # Halley step; the denominator only vanishes at the branch point,
        # where f is already zero
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = np.where(np.abs(denom) > 0, f / np.where(denom == 0, 1.0, denom), 0.0)
        w = w - step
        w = np.maximum(w, -1.0)
    return float(w[0]) if scalar else w


def lambert_w_exp(z):
    """W(exp(z)), i.e. the positive root of w + ln w = z, without overflow.

    For moderate z this is lambert_w(exp(z)); for large z, where exp
    overflows, the asymptotic seed z - ln z is polished by Newton on
    w + ln w = z.
    """
    scalar = np.isscalar(z) or np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=float))
    w = np.empty_like(z)
    big = z > 300.0
    if np.any(~big):
        w[~big] = lambert_w(np.exp(z[~big]))
    if np.any(big):
        zb = z[big]
        wb = zb - np.log(zb)
        for _ in range(8):
            wb = wb - (wb + np.log(wb) - zb) * wb / (wb + 1.0)
        w[big] = wb
    return float(w[0]) if scalar else w


def threshold_sum_root(v, target):
    """The unique s with sum_i (v_i - s)_+ = target (target > 0).

    Solved exactly by scanning the sorted piecewise-linear segments, not
    by bisection, so repeated calls are deterministic to the last bit.
    """
    v = as_vector(v)
    if target <= 0:
        raise ValueError("target must be positive")
    u = np.sort(v)[::-1]
    cumsum = np.cumsum(u)
    k = np.arange(1, u.size + 1)
    candidates = (cumsum - target) / k
    # s lives in segment k iff it is not below the next breakpoint
    valid = candidates >= np.append(u[1:], -np.inf)
    idx = int(np.argmax(valid))
    return float(candidates[idx])
