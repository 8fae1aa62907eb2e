"""Closed-form proximal operators and Euclidean projections.

The proximal operator of a closed convex f is
``prox_f(v) = argmin_x f(x) + 0.5||x - v||^2``; when f is the indicator
of a convex set the prox is the Euclidean projection onto it.  This
module is the catalogue of the closed forms used everywhere else:
soft-thresholding, box truncation, lp balls and their complements,
the effective-bets cone, log barriers, KL divergence, bid/ask
transaction costs, sum of the k largest components, plus
scaling/translation calculus.

A "prox-fn" in engine signatures is any callable v -> x of matching
length.  ``projector(set_, n)`` checks a set's parameters once and
returns its projection as such a callable, which an engine builds once
per solve so its loop runs no validation; ``project`` is the one-shot
form.  The other proxes keep the same rule by a kernel: ``soft_threshold``,
``soft_threshold_two_sided``, ``prox_max``, ``prox_log_barrier``,
``prox_kl`` and ``prox_bid_ask`` check their inputs and call a private
kernel of the same name with a leading underscore, which does the
arithmetic only.  A model or engine checks its parameters once per solve
and calls the kernel inside its loop, on float arrays that already match
v; the public functions that build on one another (``prox_lp_norm``,
``prox_bid_ask``) call the kernels too, and so do the projectors
(``linalg._threshold_sum_root``), while ``prox_sum_k_largest`` runs
``dykstra_cycle`` with its check off.  Every check is linalg's, the one
coercion owner: v through ``as_vector``, a scalar lam through
``as_scalar``, and an argument that is a scalar or one entry per
coordinate (a threshold, weight, reference, cost, anchor or center)
through ``per_coordinate``, or ``as_bound`` for a box's bounds.  So NaN
raises NonFiniteValue and a wrong length or an (n, 1) column
DimensionMismatch, before any arithmetic.
"""

from dataclasses import dataclass
from functools import singledispatch

import numpy as np

from .errors import (
    BadK,
    DegenerateSet,
    DimensionMismatch,
    InvertedBounds,
    NegativeCost,
    NegativeLambda,
    NonPositiveWeight,
    UnsupportedNorm,
    ZeroScale,
)
from .linalg import (_threshold_sum_root, as_bound, as_matrix, as_scalar, as_vector,
                     lambert_w_exp, per_coordinate, pseudo_inverse, solve_spd)


# ---------------------------------------------------------------------------
# elementwise operators
# ---------------------------------------------------------------------------

def soft_threshold(v, lam):
    """sign(v) * (|v| - lam)_+, the prox of lam * ||x||_1."""
    v = as_vector(v)
    lam = per_coordinate(lam, v.size, "lam")
    if (lam < 0).any():
        raise NegativeLambda("soft_threshold needs lam >= 0")
    return _soft_threshold(v, lam)


def _soft_threshold(v, lam):
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


def soft_threshold_two_sided(v, lam_minus, lam_plus):
    """(v - lam_plus)_+ - (v + lam_minus)_-, with one-sided thresholds."""
    v = as_vector(v)
    lam_minus = per_coordinate(lam_minus, v.size, "lam_minus")
    lam_plus = per_coordinate(lam_plus, v.size, "lam_plus")
    if (lam_minus < 0).any() or (lam_plus < 0).any():
        raise NegativeLambda("two-sided soft_threshold needs nonnegative thresholds")
    return _soft_threshold_two_sided(v, lam_minus, lam_plus)


def _soft_threshold_two_sided(v, lam_minus, lam_plus):
    return np.maximum(v - lam_plus, 0.0) - np.maximum(-(v + lam_minus), 0.0)


def truncate(v, lower, upper):
    """Clamp v into [lower, upper] elementwise (idempotent)."""
    return project(Box(lower, upper), v)


def _sign_nonneg(v):
    # sign with sign(0) = +1; required for a unique l1-ball-complement choice
    return np.where(v >= 0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# convex set descriptors and their projections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hyperplane:
    """{x : a.x = b}"""
    a: object
    b: float


@dataclass(frozen=True)
class Halfspace:
    """{x : c.x <= d}"""
    c: object
    d: float


@dataclass(frozen=True)
class AffineSet:
    """{x : A x = B}"""
    a: object
    b: object


@dataclass(frozen=True)
class Box:
    """{x : lower <= x <= upper}; a bound of None leaves that side open"""
    lower: object
    upper: object


@dataclass(frozen=True)
class LpBall:
    """{x : ||x - center||_p <= radius} for p in {1, 2, inf}"""
    p: object
    center: object
    radius: float


@dataclass(frozen=True)
class LpBallComplement:
    """{x : ||x - center||_p >= radius} for p in {1, 2}"""
    p: object
    center: object
    radius: float


@dataclass(frozen=True)
class Simplex:
    """{x : x >= 0, sum x = 1}"""


@dataclass(frozen=True)
class EffectiveBetsCone:
    """{y : sqrt(bets) ||y|| <= 1'y}, so y / 1'y has at least ``bets`` effective
    bets: the second-order cone about 1/sqrt(n) with slope sqrt((n - bets) / bets)"""
    bets: float


@dataclass(frozen=True)
class Polyhedron:
    """{x : C x <= D}, projected by cyclic half-space corrections"""
    c: object
    d: object


@singledispatch
def projector(set_, n):
    """The Euclidean projection onto a catalogued convex set in R^n, as v -> P(v).

    The set's parameters are checked against n here, once: a zero normal,
    a radius at or below zero or bets outside (0, n] raise DegenerateSet,
    a box with lower above upper InvertedBounds, a NaN bound or a
    non-finite normal or center NonFiniteValue, a ball norm without a
    closed form UnsupportedNorm, and a shape that does not match n
    DimensionMismatch.  The closure does no checking, so an engine builds
    it once per solve and calls it inside its loop on float vectors of
    length n; it may return v itself when v lies in the set.
    """
    raise TypeError(f"no projection registered for {type(set_).__name__}")


def project(set_, v):
    """Euclidean projection of v onto a catalogued convex set."""
    v = as_vector(v)
    return projector(set_, v.size)(v)


def _normal(c, n, name):
    """A nonzero normal of length n and its squared norm."""
    c = as_vector(c, f"{name} normal", n)
    nrm2 = float(np.einsum("i,i", c, c))
    if nrm2 == 0.0:
        raise DegenerateSet(f"{name} normal is zero")
    return c, nrm2


@projector.register
def _(set_: Hyperplane, n):
    a, nrm2 = _normal(set_.a, n, "hyperplane")
    b = set_.b
    return lambda v: v - ((a @ v - b) / nrm2) * a


@projector.register
def _(set_: Halfspace, n):
    c, nrm2 = _normal(set_.c, n, "half-space")
    d, inv_nrm2 = float(set_.d), 1.0 / nrm2

    def op(v):
        gap = c @ v - d
        return v - (gap * inv_nrm2) * c if gap > 0 else v

    return op


@projector.register
def _(set_: AffineSet, n):
    a = np.atleast_2d(np.asarray(set_.a, dtype=float))
    b = as_vector(set_.b)
    if a.shape != (b.size, n):
        raise DimensionMismatch("affine set dimensions do not match v")
    a_pinv = pseudo_inverse(a)
    return lambda v: v - a_pinv @ (a @ v - b)


@projector.register
def _(set_: Box, n):
    lo = as_bound(set_.lower, -np.inf, n, "lower bound")
    hi = as_bound(set_.upper, np.inf, n, "upper bound")
    if np.any(lo > hi):
        raise InvertedBounds("lower bound exceeds upper bound")
    return lambda v: np.minimum(np.maximum(v, lo), hi)


def _ball(set_, n):
    """The center broadcast to length n and the radius, which must be positive."""
    if set_.radius <= 0:
        raise DegenerateSet("ball radius must be positive")
    return per_coordinate(set_.center, n, "ball center"), float(set_.radius)


@projector.register
def _(set_: LpBall, n):
    center, r = _ball(set_, n)
    if set_.p == 2:
        def op(v):
            w = v - center
            return center + (r / max(r, float(np.linalg.norm(w)))) * w
    elif set_.p in (np.inf, "inf"):
        op = lambda v: center + np.clip(v - center, -r, r)
    elif set_.p == 1:
        def op(v):
            w = v - center
            if np.sum(np.abs(w)) <= r:
                return v.copy()
            s = _threshold_sum_root(np.abs(w), r)
            return v - np.sign(w) * np.minimum(np.abs(w), s)
    else:
        raise UnsupportedNorm(f"no l{set_.p} ball projection")
    return op


@projector.register
def _(set_: LpBallComplement, n):
    center, r = _ball(set_, n)
    if set_.p == 2:
        def op(v):
            w = v - center
            nrm = float(np.linalg.norm(w))
            if nrm >= r:
                return v.copy()
            if nrm == 0.0:
                # every boundary point is equidistant; pick the first axis
                out = center.copy()
                out[0] += r
                return out
            return center + (r / nrm) * w
    elif set_.p == 1:
        # selection rule for the non-unique projection: keep sign(v - c),
        # with sign(0) = +1, and spread the missing mass evenly
        def op(v):
            w = v - center
            return v + _sign_nonneg(w) * (max(r - np.sum(np.abs(w)), 0.0) / n)
    else:
        raise UnsupportedNorm(f"no l{set_.p} ball-complement projection")
    return op


@projector.register
def _(set_: Simplex, n):
    return lambda v: np.maximum(v - _threshold_sum_root(v, 1.0), 0.0)


@projector.register
def _(set_: EffectiveBetsCone, n):
    if not 0 < set_.bets <= n:
        raise DegenerateSet(f"effective bets must lie in (0, {n}]")
    # v = t e + z with e = 1/sqrt(n), z orthogonal to e: the cone is ||z|| <= slope t,
    # its polar cone maps to 0 and any other v to the boundary ray through z
    root_n = np.sqrt(n)
    slope = np.sqrt((n - set_.bets) / set_.bets)

    def op(v):
        t = v.sum() / root_n
        z = v - t / root_n
        r = float(np.linalg.norm(z))
        if r <= slope * t:
            return v.copy()
        if slope * r <= -t:
            return np.zeros(n)
        t_new = (t + slope * r) / (1.0 + slope * slope)
        return t_new / root_n + (slope * t_new / r) * z

    return op


@projector.register
def _(set_: Polyhedron, n):
    from .dykstra import _halfspaces, dykstra_cycle

    ops = _halfspaces(set_.c, set_.d, n)
    return lambda v: dykstra_cycle(ops, v, check=False)[0] if ops else v.copy()


# ---------------------------------------------------------------------------
# proximal operators of non-indicator functions
# ---------------------------------------------------------------------------

def prox_max(v, lam):
    """prox of lam * max(x): min(v, s*) with sum_i (v_i - s*)_+ = lam."""
    v = as_vector(v)
    if as_scalar(lam, "lam") < 0:
        raise NegativeLambda("prox_max needs lam >= 0")
    return _prox_max(v, lam)


def _prox_max(v, lam):
    return v.copy() if lam == 0 else np.minimum(v, _threshold_sum_root(v, lam))


def prox_lp_norm(v, lam, p):
    """prox of lam * ||x||_p for p in {1, 2, inf}."""
    v = as_vector(v)
    if as_scalar(lam, "lam") < 0:
        raise NegativeLambda("prox_lp_norm needs lam >= 0")
    if p == 1:
        return _soft_threshold(v, lam)
    if p == 2:
        nrm = float(np.linalg.norm(v))
        return (1.0 - lam / max(lam, nrm)) * v if nrm > 0 else v * 0.0
    if p in (np.inf, "inf"):
        return np.sign(v) * _prox_max(np.abs(v), lam)
    raise UnsupportedNorm(f"no l{p} norm prox")


def prox_log_barrier(v, lam, weights=1.0):
    """prox of -lam * sum_i w_i ln(x_i): (v + sqrt(v*v + 4*lam*w)) / 2."""
    v = as_vector(v)
    if as_scalar(lam, "lam") <= 0:
        raise NegativeLambda("prox_log_barrier needs lam > 0")
    w = per_coordinate(weights, v.size, "weights")
    if (w <= 0).any():
        raise NonPositiveWeight("log-barrier weights must be positive")
    return _prox_log_barrier(v, 4.0 * lam * w)


def _prox_log_barrier(v, shift):
    """The log-barrier prox at the shift 4 lam w, which a loop forms once per lam."""
    return 0.5 * (v + np.sqrt(v * v + shift))


def prox_quadratic(v, q, r):
    """prox of 0.5 x'Qx - x'R: the solution of (Q + I) x = R + v."""
    v = as_vector(v)
    r = as_vector(r, "R", v.size)
    return solve_spd(as_matrix(q, "Q", v.size) + np.eye(v.size), r + v)


def prox_kl(v, lam, reference):
    """prox of lam * sum_i (x_i ln(x_i / ref_i) + x_i (1/ref_i - 1)), via Lambert W.

    The linear term puts the stationarity condition at
    lam (ln(x / ref) + 1/ref) + x - v = 0.  The prox of the plain
    lam * sum_i x_i ln(x_i / ref_i) is this one evaluated at
    v + lam (1/ref - 1); with reference = 1 the two coincide and give the
    Shannon-entropy prox.
    """
    v = as_vector(v)
    if as_scalar(lam, "lam") <= 0:
        raise NegativeLambda("prox_kl needs lam > 0")
    ref = per_coordinate(reference, v.size, "reference")
    if (ref <= 0).any():
        raise NonPositiveWeight("KL reference must be positive")
    return _prox_kl(v, lam, ref)


def _prox_kl(v, lam, ref):
    # lam * W(ref/lam * exp(v/lam - 1/ref)), evaluated in log space so a
    # small lam cannot overflow the exponential
    return lam * lambert_w_exp(np.log(ref / lam) + v / lam - 1.0 / ref)


def prox_bid_ask(v, lam, bid_cost, ask_cost, anchor):
    """prox of lam * sum_i (bid_i (a_i - x_i)_+ + ask_i (x_i - a_i)_+).

    Models a one-way transaction-cost charge around the anchor holdings:
    selling below the anchor pays the bid cost, buying above it pays the
    ask cost, and a no-trade band of width lam*(bid+ask) pins x at the
    anchor.
    """
    v = as_vector(v)
    if as_scalar(lam, "lam") < 0:
        raise NegativeLambda("prox_bid_ask needs lam >= 0")
    bid = per_coordinate(bid_cost, v.size, "bid cost")
    ask = per_coordinate(ask_cost, v.size, "ask cost")
    if (bid < 0).any() or (ask < 0).any():
        raise NegativeCost("transaction costs must be nonnegative")
    return _prox_bid_ask(v, lam, bid, ask, per_coordinate(anchor, v.size, "anchor"))


def _prox_bid_ask(v, lam, bid, ask, anchor):
    return anchor + _soft_threshold_two_sided(v - anchor, lam * bid, lam * ask)


def prox_sum_k_largest(v, lam, k):
    """prox of lam * (sum of the k largest components of x).

    Computed as v - lam * P(v / lam) where P projects onto
    Box[0,1] intersect {sum x = k}; that intersection is resolved by
    Dykstra's algorithm from the dykstra module.
    """
    from .dykstra import DykstraConfig, dykstra_cycle

    v = as_vector(v)
    if as_scalar(lam, "lam") <= 0:
        raise NegativeLambda("prox_sum_k_largest needs lam > 0")
    if not 1 <= k <= v.size:
        raise BadK(f"k must lie in [1, {v.size}], got {k}")
    proj, _ = dykstra_cycle([projector(Box(0.0, 1.0), v.size),
                             projector(Hyperplane(np.ones(v.size), float(k)), v.size)],
                            v / lam, DykstraConfig(tol=1e-12), check=False)
    return v - lam * proj


def prox_scale_translate(base_prox, a, b, v):
    """prox of g(x) = f(a x + b) given the prox of a^2 f.

    ``base_prox`` must be the prox of the scaled function a^2 f; the
    result is (base_prox(a v + b) - b) / a.
    """
    if as_scalar(a, "a") == 0:
        raise ZeroScale("scale factor must be nonzero")
    v = as_vector(v)
    b = per_coordinate(b, v.size, "b")
    return (base_prox(a * v + b) - b) / a
