"""Dense linear algebra, scalar special functions and root finding.

Everything downstream (proximal operators, the splitting engines, the
portfolio models) funnels its numeric work through this module: SPD
factorizations, the Moore-Penrose pseudo-inverse, a bracketing root
finder, the Lambert W function and the piecewise-linear threshold
equation sum_i (v_i - s)_+ = target that shows up in simplex/l1-ball
projections.

Vectors and matrices are plain float64 ndarrays; ``as_vector`` /
``as_matrix`` are the constructors that enforce finiteness.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dtrsv

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
    """Root-finding interval with tolerance and iteration cap."""

    lo: float
    hi: float
    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


def cholesky_lower(m, check=True):
    """Lower Cholesky factor L with L L^T = m.

    Raises NotPositiveDefinite when the factorization breaks down or any
    pivot falls at or below 1e-14 times the largest diagonal entry.
    ``check`` tests that m is a finite symmetric matrix first; internal
    factorizations of a matrix checked where it entered the library
    (Q + phi I, a block of Q, a symmetrized capacitance) turn it off.
    """
    if check:
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

    The factor is stored once in Fortran order, so a 1-d solve is two
    BLAS triangular solves (dtrsv) with no wrapper checks or copies; 2-d
    right-hand sides go through solve_triangular.  The splitting engines
    keep one per penalty value in a PenaltyFactor, which refactors only
    when the penalty changes.
    """

    def __init__(self, m, check=True):
        self.lower = np.asfortranarray(cholesky_lower(m, check))

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        # finite checks are skipped so solver loops can detect divergence
        # from the residuals instead of dying inside a triangular solve
        if b.ndim == 1:
            y = dtrsv(self.lower, b, lower=1)
            return dtrsv(self.lower, y, lower=1, trans=1, overwrite_x=1)
        y = solve_triangular(self.lower, b, lower=True, check_finite=False)
        return solve_triangular(self.lower.T, y, lower=False, check_finite=False)


class PenaltyFactor:
    """Solves against Q + phi I for a fixed Q, factoring once per phi.

    The ADMM x-updates solve against the same Q under a penalty that
    changes only now and then (Boyd et al. 2011, sec. 4.2), so the
    factors of the last four penalty values are kept.  A 1-d ``q`` means
    diag(q) and is solved elementwise, so no n x n matrix is built.  The
    first factorization checks that Q is finite and symmetric; Q + phi I
    differs from Q on the diagonal only, so later ones skip the check.
    """

    def __init__(self, q):
        self.q = np.asarray(q, dtype=float)
        self.diagonal = self.q.ndim == 1
        self._checked = False
        self._factors = {}
        self._planes = {}
        self._rows = {}

    def matvec(self, x):
        return self.q * x if self.diagonal else self.q @ x

    def solve(self, rhs, phi=0.0):
        if self.diagonal:
            d = self.q + phi
            return rhs / (d if np.ndim(rhs) == 1 else d[:, None])
        factor = self._factors.get(phi)
        if factor is None:
            factor = SpdFactor(self.q + phi * np.eye(self.q.shape[0]), check=not self._checked)
            self._checked = True
            self._factors[phi] = factor
            if len(self._factors) > 4:
                self._factors.pop(next(iter(self._factors)))
        return factor.solve(rhs)

    def solve_on_plane(self, rhs, phi, a, b):
        """argmin 0.5 x'(Q + phi I)x - rhs'x subject to a'x = b.

        (Q + phi I)^-1 a is kept per penalty value for the normal last
        passed, since an ADMM x-update keeps one plane through a solve.
        """
        base = self.solve(rhs, phi)
        plane = self._planes.get(phi)
        if plane is None or plane[0] is not a:
            k_a = self.solve(a, phi)
            plane = self._planes[phi] = (a, k_a, a @ k_a)
        _, k_a, a_k_a = plane
        nu = (b - a @ base) / a_k_a
        return base + nu * k_a

    def solve_with_rows(self, rhs, phi, rows):
        """(Q + phi (I + K'K))^-1 rhs for a short dense block of rows K (m x n).

        Woodbury on the (Q + phi I) factor: with W = (Q + phi I)^-1 K' and
        the m x m capacitance S = I / phi + K W, the solution is
        base - W S^-1 K base for base = (Q + phi I)^-1 rhs.  W and the
        factor of S are kept per penalty value for the rows last passed,
        so a diagonal Q costs O(nm) a solve and never an n x n matrix.
        """
        base = self.solve(rhs, phi)
        cached = self._rows.get(phi)
        if cached is None or cached[0] is not rows:
            w = self.solve(rows.T, phi)
            s = np.eye(rows.shape[0]) / phi + rows @ w
            capacitance = SpdFactor(0.5 * (s + s.T), check=False)
            cached = self._rows[phi] = (rows, w, capacitance)
        _, w, capacitance = cached
        return base - w @ capacitance.solve(rows @ base)


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
    """Root of a scalar function on a sign-changing bracket.

    Anderson-Bjorck regula falsi (Anderson & Bjorck 1973): each step takes
    the secant point of the two bracket ends, or the midpoint when that
    point falls outside the open bracket.  When the same end is kept twice
    running, its value is scaled by 1 - f(new) / f(replaced) (by 1/2 when
    that is not positive), which removes the one-sided stall of plain
    regula falsi and makes the convergence superlinear.  Returns s with
    |f(s)| <= tol or with the bracket narrowed to tol; MaxIterExceeded
    carries the last point evaluated, which lies in the bracket.

    This is the library's one root finder.  It keeps the name ``bisect``
    because the benchmark's tracer counts calls to it as root finds.
    """
    lo, hi, tol = bracket.lo, bracket.hi, bracket.tol
    flo = float(f(lo))
    if abs(flo) <= tol:
        return lo
    fhi = float(f(hi))
    if abs(fhi) <= tol:
        return hi
    if flo * fhi > 0:
        raise NoSignChange(f"f({lo})={flo:.3g} and f({hi})={fhi:.3g} have the same sign")
    newest_hi = True  # which end holds the most recent point
    s = 0.5 * (lo + hi)
    for _ in range(bracket.max_iter):
        s = hi - fhi * (hi - lo) / (fhi - flo)
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
        fs = float(f(s))
        if abs(fs) <= tol or (hi - lo) <= tol:
            return s
        to_hi = (fs > 0) == (fhi > 0)
        if to_hi == newest_hi:
            # the other end is kept a second time: scale its value
            m = 1.0 - fs / (fhi if to_hi else flo)
            m = m if m > 0 else 0.5
            if to_hi:
                flo *= m
            else:
                fhi *= m
        if to_hi:
            hi, fhi = s, fs
        else:
            lo, flo = s, fs
        newest_hi = to_hi
    raise MaxIterExceeded(f"root find did not meet tol={tol} in {bracket.max_iter} steps",
                          last=s)


def lambert_w(x):
    """Principal branch of the Lambert W function (w e^w = x, x >= -1/e).

    scipy.special.lambertw, real part; accepts scalars or arrays.
    """
    # imported here: scipy.special adds to the package import time, and
    # only the entropy and KL models need it
    from scipy.special import lambertw

    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < -_INV_E - 1e-12):
        raise OutOfDomain("lambert_w needs x >= -1/e")
    x = np.maximum(x, -_INV_E)
    # the double nearest -1/e lies just below the branch point, where
    # lambertw returns nan; W is -1 there
    w = np.where(x > -_INV_E, lambertw(x).real, -1.0)
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
