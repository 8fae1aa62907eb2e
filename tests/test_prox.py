import numpy as np
import pytest

from proxalloc.errors import (
    BadK,
    DegenerateSet,
    DimensionMismatch,
    InvertedBounds,
    NegativeLambda,
    UnsupportedNorm,
    ZeroScale,
)
from proxalloc.linalg import threshold_sum_root
from proxalloc.prox import (
    AffineSet,
    Box,
    EffectiveBetsCone,
    Halfspace,
    Hyperplane,
    LpBall,
    LpBallComplement,
    Polyhedron,
    Simplex,
    project,
    projector,
    prox_bid_ask,
    prox_kl,
    prox_log_barrier,
    prox_lp_norm,
    prox_max,
    prox_quadratic,
    prox_scale_translate,
    prox_sum_k_largest,
    soft_threshold,
    soft_threshold_two_sided,
    truncate,
)

RNG = np.random.default_rng(42)


def scalar_prox_oracle(f, v, lo=-50.0, hi=50.0, points=2_000_001):
    """Dense-grid argmin of f(x) + 0.5 (x - v)^2 for scalar prox checks."""
    grid = np.linspace(lo, hi, points)
    values = f(grid) + 0.5 * (grid - v) ** 2
    return grid[np.argmin(values)]


class TestSoftThreshold:
    def test_basic(self):
        assert np.allclose(soft_threshold([3.0, -0.5], 1.0), [2.0, 0.0])

    def test_lambda_zero_is_identity(self):
        v = RNG.standard_normal(20)
        assert np.array_equal(soft_threshold(v, 0.0), v)

    def test_vector_case(self):
        out = soft_threshold([-2.0, -1.0, 0.0, 1.0, 2.0], 1.5)
        assert np.allclose(out, [-0.5, 0.0, 0.0, 0.0, 0.5])

    def test_negative_lambda(self):
        with pytest.raises(NegativeLambda):
            soft_threshold([1.0], -0.1)

    def test_grid_oracle(self):
        for v in (-2.3, -0.4, 0.0, 0.7, 3.1):
            lam = 0.8
            expected = scalar_prox_oracle(lambda x: lam * np.abs(x), v, -5, 5)
            assert abs(soft_threshold([v], lam)[0] - expected) <= 1e-5


class TestTwoSidedSoftThreshold:
    def test_symmetric_reduces_to_soft(self):
        for _ in range(1000):
            v = RNG.standard_normal(4)
            lam = RNG.uniform(0, 2)
            assert np.allclose(soft_threshold_two_sided(v, lam, lam),
                               soft_threshold(v, lam), atol=1e-15)

    def test_branches(self):
        assert soft_threshold_two_sided([2.0], [1.0], [1.0])[0] == 1.0
        assert soft_threshold_two_sided([-3.0], [1.0], [5.0])[0] == -2.0


class TestTruncate:
    def test_examples(self):
        assert truncate([1.5], [-0.5], [1.0])[0] == 1.0
        v = np.array([-1.0, 0.3, 2.0])
        assert np.allclose(truncate(v, 0.0, 1.0), [0.0, 0.3, 1.0])

    def test_identity_inside(self):
        v = np.array([0.2, 0.8])
        assert np.array_equal(truncate(v, 0.0, 1.0), v)

    def test_inverted(self):
        with pytest.raises(InvertedBounds):
            truncate([0.0], [1.0], [-1.0])


class TestProjections:
    def test_hyperplane(self):
        out = project(Hyperplane(np.array([1.0, 1.0]), 1.0), np.array([1.0, 1.0]))
        assert np.allclose(out, [0.5, 0.5])

    def test_hyperplane_degenerate(self):
        with pytest.raises(DegenerateSet):
            project(Hyperplane(np.zeros(2), 1.0), np.ones(2))

    def test_halfspace_feasible_is_identity(self):
        v = np.array([0.1, -0.2])
        out = project(Halfspace(np.array([1.0, 0.0]), 1.0), v)
        assert np.array_equal(out, v)

    def test_affine_set(self):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        b = np.array([1.0, 2.0])
        out = project(AffineSet(a, b), np.array([5.0, 5.0, 5.0]))
        assert np.allclose(out, [1.0, 2.0, 5.0])

    def test_l1_ball(self):
        out = project(LpBall(1, np.zeros(2), 1.0), np.array([2.0, 0.0]))
        s = threshold_sum_root(np.array([2.0, 0.0]), 1.0)
        assert abs(s - 1.0) <= 1e-12
        assert np.allclose(out, [1.0, 0.0])

    def test_l2_ball(self):
        out = project(LpBall(2, np.zeros(2), 1.0), np.array([0.0, 3.0]))
        assert np.allclose(out, [0.0, 1.0])

    def test_linf_ball(self):
        out = project(LpBall(np.inf, np.zeros(2), 1.0), np.array([2.0, -0.3]))
        assert np.allclose(out, [1.0, -0.3])

    def test_l2_complement_pushes_out(self):
        out = project(LpBallComplement(2, np.zeros(2), 2.0), np.array([1.0, 0.0]))
        assert np.allclose(out, [2.0, 0.0])

    def test_l2_complement_feasible_identity(self):
        v = np.array([3.0, 0.0])
        assert np.array_equal(project(LpBallComplement(2, np.zeros(2), 2.0), v), v)

    def test_l1_complement_sign_convention(self):
        # gap spread evenly with sign(0) treated as +1
        out = project(LpBallComplement(1, np.zeros(2), 2.0), np.array([0.5, 0.0]))
        assert np.allclose(out, [0.5 + 0.75, 0.75])
        assert abs(np.sum(np.abs(out)) - 2.0) <= 1e-12

    def test_simplex_feasible(self):
        v = np.array([0.5, 0.5])
        assert np.allclose(project(Simplex(), v), v)

    def test_simplex_matches_sorted_oracle(self):
        for _ in range(200):
            v = RNG.standard_normal(6)
            out = project(Simplex(), v)
            assert np.all(out >= -1e-15)
            assert abs(out.sum() - 1.0) <= 1e-12
            # optimality vs random feasible points
            w = RNG.dirichlet(np.ones(6), size=50)
            dists = np.linalg.norm(w - v, axis=1)
            assert np.linalg.norm(out - v) <= dists.min() + 1e-9

    def test_ball_center_translation(self):
        c = np.array([1.0, -2.0])
        v = np.array([4.0, 1.0])
        for p in (1, 2, np.inf):
            shifted = project(LpBall(p, c, 1.5), v)
            centered = project(LpBall(p, np.zeros(2), 1.5), v - c) + c
            assert np.allclose(shifted, centered, atol=1e-12)

    def test_polyhedron_descriptor(self):
        c = np.array([[1.0, 1.0]])
        d = np.array([1.0])
        out = project(Polyhedron(c, d), np.array([2.0, 2.0]))
        assert np.allclose(out, [0.5, 0.5], atol=1e-9)


# sets in R^3 whose parameters are invalid, with the error projector(set_, 3) raises
INVALID_SETS = {
    "hyperplane_zero_normal": (Hyperplane(np.zeros(3), 1.0), DegenerateSet),
    "halfspace_zero_normal": (Halfspace(np.zeros(3), 1.0), DegenerateSet),
    "polyhedron_zero_row": (Polyhedron(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                                       np.ones(2)), DegenerateSet),
    "l2_ball_zero_radius": (LpBall(2, np.zeros(3), 0.0), DegenerateSet),
    "l1_ball_negative_radius": (LpBall(1, np.zeros(3), -1.0), DegenerateSet),
    "complement_zero_radius": (LpBallComplement(2, np.zeros(3), 0.0), DegenerateSet),
    "cone_zero_bets": (EffectiveBetsCone(0.0), DegenerateSet),
    "cone_bets_above_n": (EffectiveBetsCone(3.5), DegenerateSet),
    "box_inverted": (Box(np.array([0.0, 0.5, 0.0]), np.array([1.0, 0.4, 1.0])),
                     InvertedBounds),
    "hyperplane_short_normal": (Hyperplane(np.ones(2), 1.0), DimensionMismatch),
    "halfspace_long_normal": (Halfspace(np.ones(4), 1.0), DimensionMismatch),
    "affine_columns": (AffineSet(np.ones((1, 2)), np.ones(1)), DimensionMismatch),
    "affine_rows": (AffineSet(np.ones((1, 3)), np.ones(2)), DimensionMismatch),
    "polyhedron_rows": (Polyhedron(np.ones((2, 3)), np.ones(3)), DimensionMismatch),
    "box_bounds": (Box(np.zeros(2), 1.0), DimensionMismatch),
    "box_nan_bound": (Box(0.0, np.array([1.0, np.nan, 1.0])), ValueError),
    "ball_center": (LpBall(2, np.zeros(2), 1.0), DimensionMismatch),
    "ball_norm": (LpBall(3, np.zeros(3), 1.0), UnsupportedNorm),
}


class TestProjector:
    @pytest.mark.parametrize("name", INVALID_SETS)
    def test_parameters_checked_before_any_vector(self, name):
        set_, error = INVALID_SETS[name]
        with pytest.raises(error):
            projector(set_, 3)

    def test_closure_matches_project_bit_for_bit(self):
        rng = np.random.default_rng(13)
        n = 5
        c = rng.standard_normal(n)
        sets = [Hyperplane(c, 0.4), Halfspace(c, -0.3),
                AffineSet(rng.standard_normal((2, n)), rng.standard_normal(2)),
                Box(-0.5, np.linspace(0.1, 1.0, n)), Box(None, 0.2), Simplex(),
                *(LpBall(p, c, 1.2) for p in (1, 2, np.inf)),
                *(LpBallComplement(p, c, 1.2) for p in (1, 2)),
                EffectiveBetsCone(2.5), Polyhedron(rng.standard_normal((3, n)), np.ones(3))]
        for set_ in sets:
            op = projector(set_, n)
            for _ in range(20):
                v = 2.0 * rng.standard_normal(n)
                assert np.array_equal(op(v), project(set_, v)), set_


class TestEffectiveBetsCone:
    @staticmethod
    def member(rng, n, bets):
        """A random point of the cone: t along 1/sqrt(n) plus an orthogonal
        part of norm at most slope * t."""
        t = rng.uniform(0.0, 3.0)
        z = rng.standard_normal(n)
        z -= z.mean()
        z *= rng.uniform(0.0, 1.0) * np.sqrt((n - bets) / bets) * t / np.linalg.norm(z)
        return t / np.sqrt(n) + z

    def test_variational_inequality_and_idempotence(self):
        rng = np.random.default_rng(11)
        branches = {"inside": 0, "apex": 0, "boundary": 0}
        for _ in range(300):
            n = int(rng.integers(2, 12))
            bets = rng.uniform(1.0, n)
            cone = EffectiveBetsCone(bets)
            v = rng.standard_normal(n) + rng.uniform(-1.0, 1.0)
            p = project(cone, v)
            assert np.sqrt(bets) * np.linalg.norm(p) <= p.sum() + 1e-12
            # projection onto a closed convex cone: p'(v - p) = 0 and
            # (v - p)'(y - p) <= 0 for every member y
            assert abs(p @ (v - p)) <= 1e-12 * (1.0 + v @ v)
            for _ in range(20):
                y = self.member(rng, n, bets)
                assert (v - p) @ (y - p) <= 1e-12 * (1.0 + v @ v + y @ y)
            assert np.max(np.abs(project(cone, p) - p)) <= 1e-13 * (1.0 + np.abs(v).max())
            branches["inside" if np.array_equal(p, v) else
                     "apex" if not p.any() else "boundary"] += 1
        assert min(branches.values()) > 0

    def test_members_rescale_to_enough_bets(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p = project(EffectiveBetsCone(4.0), rng.uniform(0.0, 1.0, 10))
            w = p / p.sum()
            assert 1.0 / (w @ w) >= 4.0 - 1e-9

    def test_bets_outside_the_asset_count(self):
        for bets in (0.0, 3.5):
            with pytest.raises(DegenerateSet):
                project(EffectiveBetsCone(bets), np.ones(3))


class TestProxMax:
    def test_example(self):
        assert np.allclose(prox_max(np.array([1.0, 2.0]), 1.0), [1.0, 1.0])

    def test_constant_vector(self):
        n, c, t = 5, 2.0, 0.3
        out = prox_max(np.full(n, c), n * t)
        assert np.allclose(out, c - t)

    def test_moreau_with_simplex(self):
        for _ in range(1000):
            v = RNG.standard_normal(5) * 3
            lam = RNG.uniform(0.1, 4.0)
            lhs = prox_max(v, lam) + lam * project(Simplex(), v / lam)
            assert np.allclose(lhs, v, atol=1e-11)


class TestProxLpNorm:
    def test_l2_shrink(self):
        v = np.array([3.0, 4.0])  # norm 5
        out = prox_lp_norm(v, 2.5, 2)
        assert np.allclose(out, v / 2)

    def test_l2_to_zero(self):
        v = np.array([0.3, 0.4])
        assert np.allclose(prox_lp_norm(v, 1.0, 2), 0.0)

    def test_linf(self):
        out = prox_lp_norm(np.array([1.0, 2.0]), 1.0, np.inf)
        assert np.allclose(out, [1.0, 1.0])

    def test_unsupported(self):
        with pytest.raises(UnsupportedNorm):
            prox_lp_norm(np.ones(2), 1.0, 3)


class TestProxLogBarrier:
    def test_values(self):
        assert np.allclose(prox_log_barrier(np.zeros(1), 1.0), [1.0])
        assert abs(prox_log_barrier(np.array([3.0]), 1.0)[0] - (3 + np.sqrt(13)) / 2) <= 1e-12

    def test_stationarity(self):
        for _ in range(1000):
            v = RNG.standard_normal(3) * 2
            lam = RNG.uniform(0.05, 3.0)
            b = RNG.uniform(0.1, 2.0, size=3)
            x = prox_log_barrier(v, lam, b)
            assert np.all(x > 0)
            assert np.max(np.abs(-lam * b / x + x - v)) <= 1e-12 * max(1, np.max(np.abs(v)))


class TestProxQuadratic:
    def test_identity_q(self):
        v = RNG.standard_normal(4)
        assert np.allclose(prox_quadratic(v, np.eye(4), np.zeros(4)), v / 2)

    def test_scalar(self):
        assert np.allclose(prox_quadratic(np.array([1.0]), np.array([[1.0]]),
                                          np.array([1.0])), [1.0])

    def test_residual(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        q = a @ a.T + 5 * np.eye(5)
        r = rng.standard_normal(5)
        v = rng.standard_normal(5)
        x = prox_quadratic(v, q, r)
        assert np.max(np.abs((q + np.eye(5)) @ x - (r + v))) <= 1e-10


class TestProxKl:
    def test_unit_reference(self):
        out = prox_kl(np.array([1.0]), 1.0, np.ones(1))
        assert abs(out[0] - 0.567143) <= 1e-6

    def test_stationarity(self):
        for _ in range(1000):
            v = RNG.standard_normal(3)
            lam = RNG.uniform(0.2, 3.0)
            ref = RNG.uniform(0.2, 2.0, size=3)
            x = prox_kl(v, lam, ref)
            resid = lam * (1.0 / ref + np.log(x / ref)) + x - v
            assert np.max(np.abs(resid)) <= 1e-10

    def test_monotone_in_v(self):
        for _ in range(1000):
            lam = RNG.uniform(0.2, 2.0)
            ref = RNG.uniform(0.3, 1.5)
            v1, v2 = np.sort(RNG.standard_normal(2) * 5)
            x1 = prox_kl(np.array([v1]), lam, np.array([ref]))[0]
            x2 = prox_kl(np.array([v2]), lam, np.array([ref]))[0]
            assert x2 >= x1 - 1e-12


class TestProxBidAsk:
    def test_zero_cost_identity(self):
        v = RNG.standard_normal(5)
        anchor = RNG.standard_normal(5)
        assert np.allclose(prox_bid_ask(v, 1.0, 0.0, 0.0, anchor), v)

    def test_anchor_fixed_point(self):
        anchor = np.array([0.3, -0.1])
        out = prox_bid_ask(anchor, 1.0, 0.5, 0.5, anchor)
        assert np.allclose(out, anchor)

    def test_upper_branch(self):
        anchor = np.array([0.5])
        out = prox_bid_ask(anchor + 2.0, 1.0, 1.0, 1.0, anchor)
        assert np.allclose(out, anchor + 1.0)


class TestProxSumKLargest:
    def test_k_equals_n(self):
        out = prox_sum_k_largest(np.array([10.0, 10.0]), 1.0, 2)
        assert np.allclose(out, [9.0, 9.0], atol=1e-9)

    def test_k_one_equals_prox_max(self):
        v = np.array([1.0, 2.0])
        assert np.allclose(prox_sum_k_largest(v, 1.0, 1), prox_max(v, 1.0), atol=1e-9)

    def test_never_increases_positive_input(self):
        for _ in range(1000):
            v = RNG.uniform(0.1, 3.0, size=4)
            lam = RNG.uniform(0.1, 1.0)
            k = int(RNG.integers(1, 5))
            out = prox_sum_k_largest(v, lam, k)
            assert np.all(out <= v + 1e-10)

    def test_bad_k(self):
        with pytest.raises(BadK):
            prox_sum_k_largest(np.ones(3), 1.0, 4)


class TestScaleTranslate:
    def test_identity_scale(self):
        for _ in range(1000):
            v = RNG.standard_normal(3)
            lam = 0.7
            base = lambda t: soft_threshold(t, lam)
            out = prox_scale_translate(base, 1.0, np.zeros(3), v)
            assert np.allclose(out, soft_threshold(v, lam))

    def test_translation_only(self):
        # indicator of the ball at center c is f(x - c): a = 1, b = -c
        c = np.array([0.4, -1.2])
        v = np.array([2.0, 2.0])
        ball = LpBall(2, np.zeros(2), 1.0)
        base = lambda t: project(ball, t)
        out = prox_scale_translate(base, 1.0, -c, v)
        assert np.allclose(out, project(LpBall(2, c, 1.0), v))

    def test_negative_scale_even_function(self):
        lam = 0.9
        base = lambda t: soft_threshold(t, lam)  # prox of a^2 f with a=-1
        for v in (-1.7, 0.3, 2.2):
            out = prox_scale_translate(base, -1.0, np.zeros(1), np.array([v]))
            expected = scalar_prox_oracle(lambda x: lam * np.abs(-x), v, -5, 5)
            assert abs(out[0] - expected) <= 1e-5

    def test_zero_scale(self):
        with pytest.raises(ZeroScale):
            prox_scale_translate(lambda t: t, 0.0, np.zeros(1), np.ones(1))


def catalogue_operators(n, rng):
    """One instance of every prox/projection for the property suites."""
    c = rng.standard_normal(n)
    lo = -np.abs(rng.standard_normal(n)) - 0.2
    hi = np.abs(rng.standard_normal(n)) + 0.2
    anchor = rng.standard_normal(n)
    q = rng.standard_normal((n, n))
    q = q @ q.T + n * np.eye(n)
    projections = {
        "hyperplane": lambda v: project(Hyperplane(np.ones(n), 1.0), v),
        "halfspace": lambda v: project(Halfspace(c + 2.0, 0.7), v),
        "box": lambda v: project(Box(lo, hi), v),
        "l1_ball": lambda v: project(LpBall(1, c, 1.3), v),
        "l2_ball": lambda v: project(LpBall(2, c, 1.3), v),
        "linf_ball": lambda v: project(LpBall(np.inf, c, 1.3), v),
        "simplex": lambda v: project(Simplex(), v),
    }
    proxes = {
        "soft_threshold": lambda v: soft_threshold(v, 0.8),
        "two_sided": lambda v: soft_threshold_two_sided(v, 0.3, 0.9),
        "prox_max": lambda v: prox_max(v, 1.1),
        "lp1": lambda v: prox_lp_norm(v, 0.7, 1),
        "lp2": lambda v: prox_lp_norm(v, 0.7, 2),
        "lpinf": lambda v: prox_lp_norm(v, 0.7, np.inf),
        "log_barrier": lambda v: prox_log_barrier(v, 0.6, 1.0),
        "quadratic": lambda v: prox_quadratic(v, q, c),
        "kl": lambda v: prox_kl(v, 0.9, np.abs(c) + 0.2),
        "bid_ask": lambda v: prox_bid_ask(v, 0.8, 0.2, 0.5, anchor),
        "sum_k_largest": lambda v: prox_sum_k_largest(v, 0.9, 2),
    }
    return projections, proxes


class TestOperatorProperties:
    def test_firm_nonexpansiveness(self):
        rng = np.random.default_rng(7)
        n = 6
        projections, proxes = catalogue_operators(n, rng)
        everything = {**projections, **proxes}
        for name, op in everything.items():
            for _ in range(1000 // len(everything) + 25):
                u = rng.standard_normal(n) * 3
                v = rng.standard_normal(n) * 3
                lhs = np.linalg.norm(op(u) - op(v))
                assert lhs <= np.linalg.norm(u - v) + 1e-9, name

    def test_projection_idempotence(self):
        rng = np.random.default_rng(8)
        n = 6
        projections, _ = catalogue_operators(n, rng)
        complement = {
            "l2_complement": lambda v: project(LpBallComplement(2, np.zeros(n), 1.5), v),
            "l1_complement": lambda v: project(LpBallComplement(1, np.zeros(n), 1.5), v),
        }
        for name, op in {**projections, **complement}.items():
            for _ in range(150):
                v = rng.standard_normal(n) * 3
                once = op(v)
                twice = op(once)
                assert np.max(np.abs(twice - once)) <= 1e-12, name

    def test_prox_objective_first_order_optimality(self):
        rng = np.random.default_rng(9)
        n = 5
        eps = 1e-4
        cases = {
            "log_barrier": (lambda x: -0.6 * np.sum(np.log(x)),
                            lambda v: prox_log_barrier(v, 0.6, 1.0)),
            "quadratic": (lambda x: 0.5 * x @ x,
                          lambda v: prox_quadratic(v, np.eye(n), np.zeros(n))),
            "kl": (lambda x: 0.9 * np.sum(x * np.log(x) + (1 - 1) * x),
                   lambda v: prox_kl(v, 0.9, np.ones(n))),
        }
        for name, (f, op) in cases.items():
            for _ in range(100):
                v = rng.standard_normal(n)
                x = op(v)
                base = f(x) + 0.5 * np.sum((x - v) ** 2)
                for _ in range(5):
                    d = rng.standard_normal(n)
                    d /= np.linalg.norm(d)
                    trial = x + eps * d
                    if name in ("log_barrier", "kl") and np.any(trial <= 0):
                        continue
                    value = f(trial) + 0.5 * np.sum((trial - v) ** 2)
                    assert value >= base - 1e-9, name

    def test_moreau_decomposition_all_pairs(self):
        rng = np.random.default_rng(10)
        n = 7
        pairs = [(np.inf, 1), (2, 2), (1, np.inf)]
        for p, qq in pairs:
            for _ in range(400):
                v = rng.standard_normal(n) * 2
                lam = rng.uniform(0.2, 3.0)
                ball = LpBall(p, np.zeros(n), 1.0)
                lhs = prox_lp_norm(v, lam, qq) + lam * project(
                    LpBall(p, np.zeros(n), 1.0), v / lam)
                assert np.allclose(lhs, v, atol=1e-10), (p, qq)

    def test_scalar_instances_match_grid_oracle(self):
        cases = {
            "soft": (lambda x: 0.8 * np.abs(x), lambda v: soft_threshold(v, 0.8)),
            "max": (lambda x: 1.1 * x, lambda v: prox_max(v, 1.1)),  # max of scalar = x
            "barrier": (lambda x: np.where(x > 0, -0.6 * np.log(np.maximum(x, 1e-12)),
                                           np.inf),
                        lambda v: prox_log_barrier(v, 0.6, 1.0)),
        }
        for name, (f, op) in cases.items():
            for v in (-1.4, -0.2, 0.5, 2.3):
                expected = scalar_prox_oracle(f, v, -6, 6)
                got = op(np.array([v]))[0]
                assert abs(got - expected) <= 1e-5, name
