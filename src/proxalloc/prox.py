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
length; the small classes at the bottom bind parameters at construction
so the ADMM/Dykstra drivers stay parameter-free.
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
from .linalg import (
    as_vector,
    lambert_w_exp,
    pseudo_inverse,
    solve_spd,
    threshold_sum_root,
)


# ---------------------------------------------------------------------------
# elementwise operators
# ---------------------------------------------------------------------------

def soft_threshold(v, lam):
    """sign(v) * (|v| - lam)_+, the prox of lam * ||x||_1."""
    v = as_vector(v)
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise NegativeLambda("soft_threshold needs lam >= 0")
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


def soft_threshold_two_sided(v, lam_minus, lam_plus):
    """(v - lam_plus)_+ - (v + lam_minus)_-, with one-sided thresholds."""
    v = as_vector(v)
    lam_minus = np.asarray(lam_minus, dtype=float)
    lam_plus = np.asarray(lam_plus, dtype=float)
    if np.any(lam_minus < 0) or np.any(lam_plus < 0):
        raise NegativeLambda("two-sided soft_threshold needs nonnegative thresholds")
    return np.maximum(v - lam_plus, 0.0) - np.maximum(-(v + lam_minus), 0.0)


def truncate(v, lower, upper):
    """Clamp v into [lower, upper] elementwise (idempotent)."""
    v = as_vector(v)
    lower = np.broadcast_to(np.asarray(lower, dtype=float), v.shape)
    upper = np.broadcast_to(np.asarray(upper, dtype=float), v.shape)
    if np.any(lower > upper):
        raise InvertedBounds("lower bound exceeds upper bound")
    return np.minimum(np.maximum(v, lower), upper)


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
    """{x : lower <= x <= upper}"""
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
def project(set_, v):
    """Euclidean projection of v onto a catalogued convex set."""
    raise TypeError(f"no projection registered for {type(set_).__name__}")


@project.register
def _(set_: Hyperplane, v):
    v = as_vector(v)
    a = as_vector(set_.a)
    if a.shape != v.shape:
        raise DimensionMismatch("hyperplane normal does not match v")
    nrm2 = float(a @ a)
    if nrm2 == 0.0:
        raise DegenerateSet("hyperplane normal is zero")
    return v - ((a @ v - set_.b) / nrm2) * a


@project.register
def _(set_: Halfspace, v):
    v = as_vector(v)
    c = as_vector(set_.c)
    if c.shape != v.shape:
        raise DimensionMismatch("half-space normal does not match v")
    nrm2 = float(c @ c)
    if nrm2 == 0.0:
        raise DegenerateSet("half-space normal is zero")
    return v - (max(c @ v - set_.d, 0.0) / nrm2) * c


@project.register
def _(set_: AffineSet, v):
    v = as_vector(v)
    a = np.atleast_2d(np.asarray(set_.a, dtype=float))
    b = as_vector(set_.b)
    if a.shape[1] != v.size or a.shape[0] != b.size:
        raise DimensionMismatch("affine set dimensions do not match v")
    return v - pseudo_inverse(a) @ (a @ v - b)


@project.register
def _(set_: Box, v):
    return truncate(v, set_.lower, set_.upper)


@project.register
def _(set_: LpBall, v):
    v = as_vector(v)
    if set_.radius <= 0:
        raise DegenerateSet("ball radius must be positive")
    center = np.broadcast_to(np.asarray(set_.center, dtype=float), v.shape)
    w = v - center
    r = float(set_.radius)
    if set_.p == 2:
        nrm = float(np.linalg.norm(w))
        return center + (r / max(r, nrm)) * w
    if set_.p in (np.inf, "inf"):
        return center + np.clip(w, -r, r)
    if set_.p == 1:
        if np.sum(np.abs(w)) <= r:
            return v.copy()
        s = threshold_sum_root(np.abs(w), r)
        return v - np.sign(w) * np.minimum(np.abs(w), s)
    raise UnsupportedNorm(f"no l{set_.p} ball projection")


@project.register
def _(set_: LpBallComplement, v):
    v = as_vector(v)
    if set_.radius <= 0:
        raise DegenerateSet("ball radius must be positive")
    center = np.broadcast_to(np.asarray(set_.center, dtype=float), v.shape)
    w = v - center
    r = float(set_.radius)
    if set_.p == 2:
        nrm = float(np.linalg.norm(w))
        if nrm >= r:
            return v.copy()
        if nrm == 0.0:
            # every boundary point is equidistant; pick the first axis
            out = center.copy()
            out[0] += r
            return out
        return center + (r / nrm) * w
    if set_.p == 1:
        # selection rule for the non-unique projection: keep sign(v - c),
        # with sign(0) = +1, and spread the missing mass evenly
        gap = max(r - np.sum(np.abs(w)), 0.0)
        return v + _sign_nonneg(w) * (gap / v.size)
    raise UnsupportedNorm(f"no l{set_.p} ball-complement projection")


@project.register
def _(set_: Simplex, v):
    v = as_vector(v)
    mu = threshold_sum_root(v, 1.0)
    return np.maximum(v - mu, 0.0)


@project.register
def _(set_: EffectiveBetsCone, v):
    v = as_vector(v)
    n = v.size
    if not 0 < set_.bets <= n:
        raise DegenerateSet(f"effective bets must lie in (0, {n}]")
    # v = t e + z with e = 1/sqrt(n), z orthogonal to e: the cone is ||z|| <= slope t,
    # its polar cone maps to 0 and any other v to the boundary ray through z
    root_n = np.sqrt(n)
    t = v.sum() / root_n
    z = v - t / root_n
    r = float(np.linalg.norm(z))
    slope = np.sqrt((n - set_.bets) / set_.bets)
    if r <= slope * t:
        return v.copy()
    if slope * r <= -t:
        return np.zeros(n)
    t_new = (t + slope * r) / (1.0 + slope * slope)
    return t_new / root_n + (slope * t_new / r) * z


@project.register
def _(set_: Polyhedron, v):
    from .dykstra import project_polyhedron

    return project_polyhedron(set_.c, set_.d, v)


# ---------------------------------------------------------------------------
# proximal operators of non-indicator functions
# ---------------------------------------------------------------------------

def prox_max(v, lam):
    """prox of lam * max(x): min(v, s*) with sum_i (v_i - s*)_+ = lam."""
    v = as_vector(v)
    if lam < 0:
        raise NegativeLambda("prox_max needs lam >= 0")
    if lam == 0:
        return v.copy()
    return np.minimum(v, threshold_sum_root(v, lam))


def prox_lp_norm(v, lam, p):
    """prox of lam * ||x||_p for p in {1, 2, inf}."""
    v = as_vector(v)
    if lam < 0:
        raise NegativeLambda("prox_lp_norm needs lam >= 0")
    if p == 1:
        return soft_threshold(v, lam)
    if p == 2:
        nrm = float(np.linalg.norm(v))
        return (1.0 - lam / max(lam, nrm)) * v if nrm > 0 else v * 0.0
    if p in (np.inf, "inf"):
        return np.sign(v) * prox_max(np.abs(v), lam)
    raise UnsupportedNorm(f"no l{p} norm prox")


def prox_log_barrier(v, lam, weights=1.0):
    """prox of -lam * sum_i w_i ln(x_i): (v + sqrt(v*v + 4*lam*w)) / 2."""
    v = as_vector(v)
    if lam <= 0:
        raise NegativeLambda("prox_log_barrier needs lam > 0")
    w = np.broadcast_to(np.asarray(weights, dtype=float), v.shape)
    if np.any(w <= 0):
        raise NonPositiveWeight("log-barrier weights must be positive")
    return 0.5 * (v + np.sqrt(v * v + 4.0 * lam * w))


def prox_quadratic(v, q, r):
    """prox of 0.5 x'Qx - x'R: the solution of (Q + I) x = R + v."""
    v = as_vector(v)
    r = as_vector(r)
    q = np.asarray(q, dtype=float)
    return solve_spd(q + np.eye(v.size), r + v)


def prox_kl(v, lam, reference):
    """prox of lam * sum_i (x_i ln(x_i / ref_i) + x_i (1/ref_i - 1)), via Lambert W.

    The linear term puts the stationarity condition at
    lam (ln(x / ref) + 1/ref) + x - v = 0.  The prox of the plain
    lam * sum_i x_i ln(x_i / ref_i) is this one evaluated at
    v + lam (1/ref - 1); with reference = 1 the two coincide and give the
    Shannon-entropy prox.
    """
    v = as_vector(v)
    if lam <= 0:
        raise NegativeLambda("prox_kl needs lam > 0")
    ref = np.broadcast_to(np.asarray(reference, dtype=float), v.shape)
    if np.any(ref <= 0):
        raise NonPositiveWeight("KL reference must be positive")
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
    if lam < 0:
        raise NegativeLambda("prox_bid_ask needs lam >= 0")
    bid = np.broadcast_to(np.asarray(bid_cost, dtype=float), v.shape)
    ask = np.broadcast_to(np.asarray(ask_cost, dtype=float), v.shape)
    if np.any(bid < 0) or np.any(ask < 0):
        raise NegativeCost("transaction costs must be nonnegative")
    anchor = np.broadcast_to(np.asarray(anchor, dtype=float), v.shape)
    return anchor + soft_threshold_two_sided(v - anchor, lam * bid, lam * ask)


def prox_sum_k_largest(v, lam, k, tol=1e-12):
    """prox of lam * (sum of the k largest components of x).

    Computed as v - lam * P(v / lam) where P projects onto
    Box[0,1] intersect {sum x = k}; that intersection is resolved by
    Dykstra's algorithm from the dykstra module.
    """
    from .dykstra import DykstraConfig, dykstra_two

    v = as_vector(v)
    if lam <= 0:
        raise NegativeLambda("prox_sum_k_largest needs lam > 0")
    if not 1 <= k <= v.size:
        raise BadK(f"k must lie in [1, {v.size}], got {k}")
    box = Box(0.0, 1.0)
    plane = Hyperplane(np.ones(v.size), float(k))
    proj, _ = dykstra_two(lambda t: project(box, t), lambda t: project(plane, t),
                          v / lam, DykstraConfig(tol=tol))
    return v - lam * proj


def prox_scale_translate(base_prox, a, b, v):
    """prox of g(x) = f(a x + b) given the prox of a^2 f.

    ``base_prox`` must be the prox of the scaled function a^2 f; the
    result is (base_prox(a v + b) - b) / a.
    """
    if a == 0:
        raise ZeroScale("scale factor must be nonzero")
    v = as_vector(v)
    b = np.broadcast_to(np.asarray(b, dtype=float), v.shape)
    return (base_prox(a * v + b) - b) / a


# ---------------------------------------------------------------------------
# parameter-binding wrapper (engine building block)
# ---------------------------------------------------------------------------

class ProjectionFn:
    """A set projection packaged as a prox-fn (parameters bound once).

    Projections are invariant under the prox rescaling prox_{f/phi}, so
    the same instance can be handed to ADMM for any penalty value.
    """

    def __init__(self, set_):
        self.set = set_

    def __call__(self, v):
        return project(self.set, v)

    def __repr__(self):
        return f"ProjectionFn({self.set!r})"
