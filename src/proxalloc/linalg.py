"""Dense linear algebra, scalar special functions and root finding.

Everything downstream (proximal operators, the splitting engines, the
portfolio models) funnels its numeric work through this module: SPD
factorizations, the Moore-Penrose pseudo-inverse, a bracketing root
finder, a damped Newton solve of a KKT system, the Lambert W function
and the piecewise-linear threshold
equation sum_i (v_i - s)_+ = target that shows up in simplex/l1-ball
projections.

This module is the one owner of argument coercion: the public functions
of prox, cd, qp and portfolios turn their arguments into float arrays
through it, at entry, and their loops take the checked arrays.  ``as_vector`` and
``as_matrix`` take a vector or matrix of an exact size when given one,
``as_scalar`` a number, ``per_coordinate`` a scalar or n entries
broadcast to n, and ``as_bound`` a bound by the same rule with +-inf
allowed and None filled.  NaN (or Inf, where a finite number is needed)
raises NonFiniteValue and any other shape DimensionMismatch.

The module imports numpy only.  scipy's compiled kernels (BLAS dtrsv and
dger, LAPACK dgetrf / dgetrs and dpotri, solve_triangular and lambertw) are
bound by ``_scipy`` on first use: importing scipy.linalg costs more than
the rest of the package's import, and risk budgeting never calls them.
"""

import importlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    MaxIterExceeded,
    NonFiniteValue,
    NoSignChange,
    NotPositiveDefinite,
    OutOfDomain,
)

SYMMETRY_TOL = 1e-10  # the library's one symmetry rule: max |m - m'| at most this
_INV_E = np.exp(-1.0)


# the scipy module of each compiled kernel the package calls
_KERNEL_MODULES = {"dtrsv": "scipy.linalg.blas", "dger": "scipy.linalg.blas",
                   "dgetrf": "scipy.linalg.lapack", "dgetrs": "scipy.linalg.lapack",
                   "dpotri": "scipy.linalg.lapack", "solve_triangular": "scipy.linalg",
                   "lambertw": "scipy.special"}


class _Kernels:
    """scipy's compiled kernels, each imported on its first attribute read.

    The first read of a kernel imports its module and keeps the kernel as
    an instance attribute, so every later read is a plain attribute
    lookup; a process that never needs scipy.special does not import it.
    """

    def __getattr__(self, name):
        if name not in _KERNEL_MODULES:
            raise AttributeError(name)
        kernel = getattr(importlib.import_module(_KERNEL_MODULES[name]), name)
        setattr(self, name, kernel)
        return kernel


_scipy = _Kernels()


def as_vector(x, name="vector", n=None):
    """Coerce to a finite 1-d float array; a scalar becomes one entry.

    A second axis, or with ``n`` a length other than n, raises
    DimensionMismatch, and NaN or Inf NonFiniteValue.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        if v.ndim:
            raise DimensionMismatch(f"{name} must be 1-d, got shape {v.shape}")
        v = v.reshape(1)
    if n is not None and v.size != n:
        raise DimensionMismatch(f"{name} has {v.size} entries, not {n}")
    if not np.isfinite(v).all():
        raise NonFiniteValue(f"{name} contains NaN or Inf")
    return v


def as_matrix(m, name="matrix", n=None):
    """Coerce to a finite 2-d float array, n x n when ``n`` is given; the
    errors are those of as_vector."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-d, got shape {a.shape}")
    if n is not None and a.shape != (n, n):
        raise DimensionMismatch(f"{name} has shape {a.shape}, not ({n}, {n})")
    if not np.isfinite(a).all():
        raise NonFiniteValue(f"{name} contains NaN or Inf")
    return a


def as_scalar(x, name="scalar"):
    """Coerce to a finite float; an array of any shape but () raises
    DimensionMismatch, and NaN or Inf NonFiniteValue."""
    a = np.asarray(x, dtype=float)
    if a.ndim:
        raise DimensionMismatch(f"{name} must be a scalar, got shape {a.shape}")
    value = float(a)
    if not math.isfinite(value):
        raise NonFiniteValue(f"{name} is {value}")
    return value


def per_coordinate(x, n, name="argument"):
    """A scalar or n entries as n finite floats, a read-only broadcast view.

    Any other shape, an (n, 1) column included, raises DimensionMismatch,
    and NaN or Inf NonFiniteValue.
    """
    return _coordinates(x, n, name, finite=True)


def as_bound(x, fill, n, name="bound"):
    """A bound as per_coordinate takes it, with +-inf an absent bound: n
    floats, ``fill`` when x is None, and NonFiniteValue for NaN only."""
    return np.full(n, fill) if x is None else _coordinates(x, n, name, finite=False)


def _coordinates(x, n, name, finite):
    """The rule of per_coordinate and as_bound; ``finite=False`` lets +-inf through."""
    a = np.asarray(x, dtype=float)
    if a.ndim > 1 or a.size not in (1, n):
        raise DimensionMismatch(f"{name} has shape {a.shape}, not a scalar or ({n},)")
    if not (np.isfinite(a) if finite else ~np.isnan(a)).all():
        raise NonFiniteValue(f"{name} contains NaN" + (" or Inf" if finite else ""))
    return np.broadcast_to(a, (n,))


def is_symmetric(m):
    """The library's one symmetry rule, for a square float array."""
    return np.max(np.abs(m - m.T)) <= SYMMETRY_TOL


def as_symmetric(m, name="matrix"):
    """Coerce to a finite square 2-d float array symmetric to SYMMETRY_TOL.

    A shape that is not square raises DimensionMismatch, an asymmetric
    matrix ValueError.
    """
    m = as_matrix(m, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    if not is_symmetric(m):
        raise ValueError(f"{name} is not symmetric to {SYMMETRY_TOL:g}")
    return m


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
        m = as_symmetric(m)
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
    right-hand sides go through solve_triangular.  Both are scipy's,
    bound on the first solve of any factor.  The splitting engines
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
            y = _scipy.dtrsv(self.lower, b, lower=1)
            return _scipy.dtrsv(self.lower, y, lower=1, trans=1, overwrite_x=1)
        y = _scipy.solve_triangular(self.lower, b, lower=True, check_finite=False)
        return _scipy.solve_triangular(self.lower.T, y, lower=False, check_finite=False)


def _invert_upper(g, upper):
    """G = M^-1 into the F-contiguous square ``g`` from M's upper Cholesky factor."""
    g[...] = upper
    _scipy.dpotri(g, overwrite_c=1)  # fills the upper triangle; the lower stays 0
    g += g.T
    g.ravel("K")[::g.shape[0] + 1] *= 0.5  # the diagonal, doubled by the line above
    return g


class SupportFactor:
    """The inverse G = M_FF^-1 of a fixed SPD matrix M on a changing support F,
    and G U_F for the columns of a fixed n x c matrix U.

    ``support`` lists the indices of F in G's row order.  The first k = |F|
    rows of the Fortran-ordered tableau ``t`` hold [G U_F, G], and
    ``solved`` is G U_F.  ``m`` is M, or the PenaltyFactor of M: then a
    support of every name in order copies the factor's kept M^-1
    (``PenaltyFactor.inverse``).  Otherwise construction passes the block
    through the Cholesky pivot gate, raising NotPositiveDefinite when it
    is singular, and forms G from the factor (LAPACK dpotri); it is the
    one inversion.  ``delete(p)`` drops the name at position p of F in
    place by its Schur complement, the SWEEP operator (Goodnight 1979):
    with c its column of G and d = c_p, every other row i of the tableau
    loses c_i / d times row p, so G becomes G - c c' / d and G U_F its
    value on the names left, and then the last row and column move into
    position p.  That is one BLAS rank-one update (dger), O(k (k + c))
    with no copy of the tableau; ``remove`` deletes a mask's names this
    way, from the last position down.  ``join`` borders G with one name j
    by the same update: with g = G m_Fj and the Schur complement
    s = m_jj - m_Fj'g, G gains g g' / s and the border -g / s, 1 / s,
    which the critical-line walk of portfolios takes at every name whose
    multiplier turns, and index_sampling at every name its settle rounds
    free.  scipy's kernels bind on first use.
    """

    def __init__(self, m, support, rhs):
        quad = m if isinstance(m, PenaltyFactor) else None
        self.m, self.rhs = (m if quad is None else m.q), rhs
        support = np.array(support)  # a copy: delete moves its entries
        k, c = support.size, rhs.shape[1]
        t = np.empty((k, c + k), order="F")
        g = t[:, c:]  # contiguous, so dpotri inverts it in place
        if quad is not None and k == self.m.shape[0] and (support == np.arange(k)).all():
            g[...] = quad.inverse()
        else:
            _invert_upper(g, cholesky_lower(self.m[np.ix_(support, support)], check=False).T)
        t[:, :c] = g.dot(rhs[support])
        self.t, self.support = t, support

    @property
    def solved(self):
        """G U_F, one column for each column of U."""
        return self.t[:self.support.size, :self.rhs.shape[1]]

    def solve(self, b):
        """M_FF^-1 b = G b for b in the support's order."""
        k, c = self.support.size, self.rhs.shape[1]
        return self.t[:k, c:c + k].dot(b)

    def delete(self, p):
        """Drop the name at position p of F by its Schur complement, O(k (k + c)).

        The last name of F moves into position p.
        """
        t, support, c, k = self.t, self.support, self.rhs.shape[1], self.support.size
        last = k - 1
        if last:
            col = t[:, c + p]  # contiguous; its rows from k on are deleted names'
            scale = -1.0 / col[p]
            # with its pivot 0 the update leaves row p as it is, and adds 0 to
            # column p, which is col itself; zeros from k on keep the deleted rows
            col[p] = 0.0
            col[k:] = 0.0
            _scipy.dger(scale, col, t[p, :c + k], a=t[:, :c + k], overwrite_a=1)
        if p != last:  # slices and scalar moves cost a third of fancy indexing
            t[p, :c + k] = t[last, :c + k]
            t[:k, c + p] = t[:k, c + last]
            support[p] = support[last]
        self.support = support[:last]

    def remove(self, drop):
        """Drop the names of F where the boolean mask ``drop`` (in the support's
        order) is set, deleting from the last position down so that the
        position of every name still to delete holds."""
        for p in drop.nonzero()[0][::-1]:
            self.delete(p)

    def join(self, j):
        """Add name j to F by bordering G, O(k (k + c)).

        A Schur complement s at or below the Cholesky pivot gate (1e-14
        times M's largest diagonal entry: j copies names of F) raises
        NotPositiveDefinite and leaves the object as it was.
        """
        t, support, c, k = self.t, self.support, self.rhs.shape[1], self.support.size
        col = self.m[support, j]
        g = t[:k, c:c + k].dot(col)
        s = self.m[j, j] - col.dot(g)
        if s <= 1e-14 * self.m.diagonal().max():
            raise NotPositiveDefinite(f"name {j} joins a singular block")
        w = (self.rhs[j] - col.dot(t[:k, :c])) / s
        if k == t.shape[0]:  # no spare row: double the tableau, in Fortran order for dger
            grown = np.empty((2 * k + 1, c + 2 * k + 1), order="F")
            grown[:k, :c + k] = t[:k, :c + k]
            self.t = t = grown
        border = t[:, c + k]  # contiguous: g on F, 0 below, so rows from k on keep their values
        border[:k], border[k:] = g, 0.0
        t[k, :c], t[k, c:c + k] = w, -g / s
        _scipy.dger(-1.0, border, t[k, :c + k], a=t[:, :c + k], overwrite_a=1)
        border[:k], border[k] = t[k, c:c + k], 1.0 / s
        self.support = np.append(support, j)


CACHE_ENTRIES = 4  # entries of each PenaltyFactor cache; the oldest goes first


def _keep(cache, key, value):
    """cache[key] = value, dropping the oldest entry past CACHE_ENTRIES; returns value."""
    cache[key] = value
    if len(cache) > CACHE_ENTRIES:
        cache.pop(next(iter(cache)))
    return value


class PenaltyFactor:
    """Solves against Q + phi I for a fixed Q, factoring once per phi.

    The ADMM x-updates solve against the same Q under a penalty that
    changes only now and then (Boyd et al. 2011, sec. 4.2), so one cache
    keeps what the last CACHE_ENTRIES penalty values need: the factor of
    Q + phi I, and for ``solve_on_plane`` and ``solve_with_rows`` the
    solves against the normal or the rows last passed; and for phi = 0,
    once ``inverse`` is asked for, Q^-1: one n x n array more (32 MB at
    n = 2000), evicted with its entry.  A second cache,
    ``active_sets``, keeps for the last CACHE_ENTRIES constraint
    geometries of the QP bridge (a digest of the rows and bounds, see
    ``qp._ClippedSplit.key``) the active set its last accepted polish
    ended on, so the next QP on the same Q and rows starts from it.  A
    1-d ``q`` means diag(q) and is solved elementwise, so no n x n matrix
    is built.  Q is checked once, here, in either form: a finite vector,
    or a finite square matrix symmetric to SYMMETRY_TOL.  Q + phi I
    differs from Q on the diagonal only, so no factorization checks it
    again.
    """

    def __init__(self, q):
        self.diagonal = np.ndim(q) == 1
        self.q = as_vector(q, "Q") if self.diagonal else as_symmetric(q, "Q")
        self._cache = {}  # phi -> [factor, plane, rows, inverse]
        self.active_sets = {}  # geometry key -> (at_lo, at_hi) masks of its last polish

    def _entry(self, phi):
        entry = self._cache.get(phi)
        if entry is None:
            factor = None
            if not self.diagonal:
                factor = SpdFactor(self.q + phi * np.eye(self.q.shape[0]), check=False)
            entry = _keep(self._cache, phi, [factor, None, None, None])
        return entry

    def inverse(self):
        """Q^-1 of a matrix Q, formed by dpotri from the phi = 0 entry's
        Cholesky factor on first use and kept in that entry; read-only."""
        entry = self._entry(0.0)
        if entry[3] is None:
            n = self.q.shape[0]
            entry[3] = _invert_upper(np.empty((n, n), order="F"), entry[0].lower.T)
        return entry[3]

    def remember(self, key, masks):
        """Keep ``masks`` as the active set of the geometry ``key``, its newest entry."""
        self.active_sets.pop(key, None)
        _keep(self.active_sets, key, masks)

    def matvec(self, x):
        return self.q * x if self.diagonal else self.q @ x

    def solve(self, rhs, phi=0.0):
        if self.diagonal:
            d = self.q + phi
            return rhs / (d if np.ndim(rhs) == 1 else d[:, None])
        return self._entry(phi)[0].solve(rhs)

    def solve_on_plane(self, rhs, phi, a, b):
        """argmin 0.5 x'(Q + phi I)x - rhs'x subject to a'x = b.

        (Q + phi I)^-1 a is kept per penalty value for the normal last
        passed, since an ADMM x-update keeps one plane through a solve.
        """
        base = self.solve(rhs, phi)
        entry = self._entry(phi)
        if entry[1] is None or entry[1][0] is not a:
            k_a = self.solve(a, phi)
            entry[1] = (a, k_a, a.dot(k_a))
        _, k_a, a_k_a = entry[1]
        nu = (b - a.dot(base)) / a_k_a  # ndarray.dot: half the call cost of @ on 1-d
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
        entry = self._entry(phi)
        if entry[2] is None or entry[2][0] is not rows:
            w = self.solve(rows.T, phi)
            s = np.eye(rows.shape[0]) / phi + rows @ w
            entry[2] = (rows, w, SpdFactor(0.5 * (s + s.T), check=False))
        _, w, capacitance = entry[2]
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

    It serves the KL tilt and the entropy floors, roots with no Newton
    form here, and keeps the name ``bisect`` because the benchmark's
    tracer counts calls to it as root finds.
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


NEWTON_STEPS = 12  # Newton steps a KKT solve may take
NEWTON_MIN_STEP = 1e-4  # shortest backtracked step before a KKT solve gives up
ARMIJO = 1e-4  # sufficient decrease of ||F||^2, as a share of the Newton prediction


def _newton_kkt(residual, jacobian, z, tol):
    """A root of the KKT residual F by damped Newton, or None.

    Each step factors J(z) once, takes the Newton correction
    d = -J(z)^-1 F(z) and halves t from 1 until the trial point z + t d
    passes one of two sufficient-decrease tests: Armijo's on the residual,
    ||F(z + t d)||^2 <= (1 - 2 ARMIJO t) ||F(z)||^2, or Deuflhard's
    restricted monotonicity test on the Newton-scaled residual,
    ||J(z)^-1 F(z + t d)|| <= (1 - t/4) ||d|| (Deuflhard 2004, NLEQ-ERR).
    The second does not change when the rows of F are rescaled, so it
    passes the long steps a KKT system needs when its stationarity and
    constraint rows differ in scale; the first passes the steps that
    leave a poor start.  A trial point whose residual is not finite lies
    outside the residual's domain and is backtracked from too.  Returns z
    once max|F(z)| <= tol, and None after NEWTON_STEPS steps, when t falls
    below NEWTON_MIN_STEP or when J is singular, so a start too far from
    the root costs at most NEWTON_STEPS factorizations.  J is factored by
    LAPACK's dgetrf from scipy, bound on the first call.
    """
    with np.errstate(all="ignore"):  # non-finite values are tested for below
        f = residual(z)
        if not np.all(np.isfinite(f)):
            return None
        for _ in range(NEWTON_STEPS):
            if np.max(np.abs(f)) <= tol:
                return z
            lu, piv, info = _scipy.dgetrf(jacobian(z))
            d = _scipy.dgetrs(lu, piv, -f)[0]
            if info != 0 or not np.all(np.isfinite(d)):  # J singular or not finite
                return None
            merit, size = float(f @ f), float(np.linalg.norm(d))
            t = 1.0
            while True:
                trial = z + t * d
                f_trial = residual(trial)
                if np.all(np.isfinite(f_trial)) and (
                        float(f_trial @ f_trial) <= (1.0 - 2.0 * ARMIJO * t) * merit
                        or float(np.linalg.norm(_scipy.dgetrs(lu, piv, f_trial)[0]))
                        <= (1.0 - 0.25 * t) * size):
                    break
                t *= 0.5
                if t < NEWTON_MIN_STEP:
                    return None
            z, f = trial, f_trial
        return z if np.max(np.abs(f)) <= tol else None


def lambert_w(x):
    """Principal branch of the Lambert W function (w e^w = x, x >= -1/e).

    scipy.special.lambertw, real part; accepts scalars or arrays.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < -_INV_E - 1e-12):
        raise OutOfDomain("lambert_w needs x >= -1/e")
    x = np.maximum(x, -_INV_E)
    # the double nearest -1/e lies just below the branch point, where
    # lambertw returns nan; W is -1 there
    w = np.where(x > -_INV_E, _scipy.lambertw(x).real, -1.0)
    return float(w[0]) if scalar else w


def lambert_w_exp(z):
    """W(exp(z)), i.e. the positive root of w + ln w = z, without overflow.

    For moderate z this is scipy's lambertw at exp(z) > 0, where the checks
    of ``lambert_w`` never act; for large z, where exp overflows, the
    asymptotic seed z - ln z is polished by Newton on w + ln w = z.
    """
    scalar = np.isscalar(z) or np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=float))
    big = z > 300.0
    w = _scipy.lambertw(np.exp(np.where(big, 0.0, z))).real.copy()
    if big.any():
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
    return _threshold_sum_root(v, target)


def _threshold_sum_root(v, target):
    u = np.sort(v)[::-1]
    cumsum = np.cumsum(u)
    k = np.arange(1, u.size + 1)
    candidates = (cumsum - target) / k
    # s lives in segment k iff it is not below the next breakpoint
    valid = candidates >= np.append(u[1:], -np.inf)
    idx = int(np.argmax(valid))
    return float(candidates[idx])
