import numpy as np
import pytest

from proxalloc.errors import MaxIterExceeded, NoSignChange, NotPositiveDefinite, OutOfDomain
from proxalloc import linalg
from proxalloc.linalg import (
    PenaltyFactor,
    RootBracket,
    SupportFactor,
    bisect,
    cholesky_lower,
    lambert_w,
    lambert_w_exp,
    pseudo_inverse,
    solve_spd,
    threshold_sum_root,
)


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestCholesky:
    def test_identity(self):
        assert np.allclose(cholesky_lower(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        lower = cholesky_lower(np.diag([4.0, 9.0]))
        assert np.allclose(lower, np.diag([2.0, 3.0]))

    def test_reconstructs_parameter_set_covariance(self):
        from proxalloc.data import parameter_set_1

        cov = parameter_set_1().universe.cov
        lower = cholesky_lower(cov)
        assert np.max(np.abs(lower @ lower.T - cov)) <= 1e-12

    def test_random_spd_roundtrip_up_to_64(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 17, 64):
            m = random_spd(rng, n)
            lower = cholesky_lower(m)
            scale = np.max(np.abs(m))
            assert np.max(np.abs(lower @ lower.T - m)) <= 1e-12 * scale

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_near_singular_pivot(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower(m)


    def test_public_entry_points_reject_asymmetric_and_nonfinite_input(self):
        asymmetric = np.array([[2.0, 0.5], [0.4, 2.0]])
        with pytest.raises(ValueError, match="symmetric"):
            cholesky_lower(asymmetric)
        with pytest.raises(ValueError, match="symmetric"):
            solve_spd(asymmetric, [1.0, 1.0])
        with pytest.raises(ValueError, match="symmetric"):
            PenaltyFactor(asymmetric).solve(np.ones(2), 1.0)
        with pytest.raises(ValueError, match="NaN"):
            cholesky_lower(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        # the unchecked factorization reads the lower triangle only
        lower = cholesky_lower(asymmetric, check=False)
        assert np.allclose(lower @ lower.T, np.tril(asymmetric) + np.tril(asymmetric, -1).T)


class TestSupportFactor:
    def test_deletes_and_a_join_match_a_fresh_factor(self, monkeypatch):
        rng = np.random.default_rng(9)
        m = random_spd(rng, 12)
        u = rng.standard_normal((12, 2))
        factorizations, joins = [], []
        real_cholesky, real_join = linalg.cholesky_lower, SupportFactor.join
        monkeypatch.setattr(linalg, "cholesky_lower",
                            lambda block, *args, **kwargs: factorizations.append(block.shape[0])
                            or real_cholesky(block, *args, **kwargs))
        monkeypatch.setattr(SupportFactor, "join",
                            lambda held, j: joins.append(j) or real_join(held, j))
        held = SupportFactor(m, np.arange(12), u)  # carries G u_F through every delete

        def assert_fresh():
            f = held.support
            block = m[np.ix_(f, f)]
            k = f.size
            assert np.max(np.abs(held.solve(np.eye(k)) @ block - np.eye(k))) <= 1e-12
            b = rng.standard_normal(k)
            assert np.allclose(held.solve(b), np.linalg.solve(block, b), rtol=0, atol=1e-12)
            assert np.allclose(held.solved, np.linalg.solve(block, u[f]), rtol=0, atol=1e-12)

        for drop in ([0], [11], [3, 4, 8], [5]):
            held.remove(np.isin(held.support, drop))
        assert sorted(held.support) == [1, 2, 6, 7, 9, 10]
        assert_fresh()
        held.join(8)
        held.join(0)
        assert sorted(held.support) == [0, 1, 2, 6, 7, 8, 9, 10]
        assert_fresh()
        # construction is the one inversion; the joins border it
        assert factorizations == [12] and joins == [8, 0]

    @pytest.mark.parametrize("joined", [False, True])
    def test_one_remove_of_the_first_a_middle_and_the_last_position(self, joined):
        # each delete sweeps its position out in place and moves the last
        # row and column into it; with ``joined`` the tableau has spare rows
        rng = np.random.default_rng(11)
        m = random_spd(rng, 9)
        u = rng.standard_normal((9, 2))
        held = SupportFactor(m, np.arange(6 if joined else 9), u)
        for j in range(6, 9) if joined else ():
            held.join(j)
        assert held.t.shape[0] == (13 if joined else 9)
        support = held.support.copy()
        held.remove(np.isin(np.arange(9), [0, 4, 8]))
        f = held.support
        assert sorted(f) == [1, 2, 3, 5, 6, 7] and set(f) <= set(support)
        fresh = SupportFactor(m, f, u)
        assert np.max(np.abs(held.solve(np.eye(6)) - fresh.solve(np.eye(6)))) <= 1e-12
        assert np.max(np.abs(held.solved - fresh.solved)) <= 1e-12
        assert np.max(np.abs(held.solved - np.linalg.solve(m[np.ix_(f, f)], u[f]))) <= 1e-12

    def test_the_full_support_of_a_penalty_factor_copies_its_inverse(self, monkeypatch):
        rng = np.random.default_rng(12)
        m = random_spd(rng, 7)
        u = rng.standard_normal((7, 2))
        factor = PenaltyFactor(m)
        held = SupportFactor(factor, np.arange(7), u)
        factorizations = []
        real = linalg.cholesky_lower
        monkeypatch.setattr(linalg, "cholesky_lower",
                            lambda block, *args, **kwargs: factorizations.append(block.shape[0])
                            or real(block, *args, **kwargs))
        again = SupportFactor(factor, np.arange(7), u)  # the held inverse, copied
        assert factorizations == []
        plain = SupportFactor(m, np.arange(7), u)  # a matrix: its own factor, same bits
        assert factorizations == [7]
        for other in (again, plain):
            assert other.t.tobytes() == held.t.tobytes()
        held.remove(np.isin(np.arange(7), [2]))
        assert np.array_equal(factor.inverse(), plain.t[:, 2:])  # the copy moved, G did not
        SupportFactor(factor, [1, 0, 2, 3, 4, 5, 6], u)  # out of order: factored
        SupportFactor(factor, np.arange(6), u)  # a part: factored
        assert factorizations == [7, 7, 6]

    def test_joins_mixed_with_deletes_match_a_fresh_inverse(self):
        rng = np.random.default_rng(4)
        m = random_spd(rng, 12)
        u = rng.standard_normal((12, 2))
        held = SupportFactor(m, [5], u)  # one name: the first joins grow the tableau
        for name in (3, 9, 0, 9, 11, 5, 7, 2, 5, 3, 0, 10):  # joins, and deletes of members
            if name in held.support:
                held.remove(held.support == name)
            else:
                held.join(name)
            f = held.support
            block = m[np.ix_(f, f)]
            assert np.max(np.abs(held.solve(np.eye(f.size)) @ block - np.eye(f.size))) <= 1e-12
            assert np.allclose(held.solved, np.linalg.solve(block, u[f]), rtol=0, atol=1e-12)
        assert sorted(held.support) == [2, 5, 7, 10, 11]

    def test_refused_join_leaves_the_tableau(self):
        copy = [0, 1, 2, 0]  # asset 3 copies asset 0
        m = random_spd(np.random.default_rng(6), 3)[np.ix_(copy, copy)]
        held = SupportFactor(m, [1, 0], np.ones((4, 1)))
        held.join(2)
        t, support = held.t.copy(), held.support.copy()
        with pytest.raises(NotPositiveDefinite):
            held.join(3)
        assert np.array_equal(held.support, support) and np.array_equal(held.t, t)

    def test_deleting_every_name_leaves_an_empty_support(self):
        m = random_spd(np.random.default_rng(3), 4)
        held = SupportFactor(m, np.arange(4), np.ones((4, 1)))
        held.remove(np.array([False, True, False, False]))
        f = held.support
        assert sorted(f) == [0, 2, 3]
        assert np.allclose(held.solved[:, 0], np.linalg.solve(m[np.ix_(f, f)], np.ones(3)))
        held.remove(np.ones(3, dtype=bool))
        assert held.support.size == 0 and held.solved.shape == (0, 1)
        assert held.solve(np.zeros(0)).size == 0

    def test_singular_join_leaves_the_factor(self):
        copy = [0, 1, 0]  # asset 2 copies asset 0
        m = np.array([[2.0, 1.0], [1.0, 2.0]])[np.ix_(copy, copy)]
        rhs = np.ones((3, 1))
        with pytest.raises(NotPositiveDefinite):  # the constructor's pivot gate
            SupportFactor(m, [0, 1, 2], rhs)
        held = SupportFactor(m, [0, 1], rhs)
        t = held.t.copy()
        with pytest.raises(NotPositiveDefinite):
            held.join(2)
        assert np.array_equal(held.support, [0, 1]) and np.array_equal(held.t, t)
        assert np.allclose(held.solve(np.eye(2)) @ m[:2, :2], np.eye(2), rtol=0, atol=1e-15)
        assert np.allclose(held.solved[:, 0], np.linalg.solve(m[:2, :2], np.ones(2)))


class TestSolveSpd:
    def test_identity(self):
        assert np.allclose(solve_spd(np.eye(2), [1.0, 2.0]), [1.0, 2.0])

    def test_diagonal(self):
        x = solve_spd(np.diag([2.0, 4.0]), [2.0, 4.0])
        assert np.allclose(x, [1.0, 1.0])

    def test_residual_on_parameter_set(self):
        from proxalloc.data import parameter_set_1

        cov = parameter_set_1().universe.cov
        b = np.ones(8)
        x = solve_spd(cov, b)
        assert np.max(np.abs(cov @ x - b)) <= 1e-10 * (1 + np.max(np.abs(b)))

    def test_matrix_right_hand_side(self):
        rng = np.random.default_rng(7)
        m = random_spd(rng, 5)
        rhs = rng.standard_normal((5, 3))
        x = solve_spd(m, rhs)
        assert x.shape == (5, 3)
        assert np.max(np.abs(m @ x - rhs)) <= 1e-10


class TestPenaltyFactor:
    PHIS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)

    def test_solve_matches_dense_solve_dense_q(self, monkeypatch):
        rng = np.random.default_rng(4)
        q = random_spd(rng, 6)
        factor = PenaltyFactor(q)
        factorizations = []
        real = linalg.cholesky_lower
        monkeypatch.setattr(linalg, "cholesky_lower",
                            lambda m, *args: factorizations.append(1) or real(m, *args))
        # the first penalty has been evicted when it comes back; the last
        # four have not
        for phi in self.PHIS + (self.PHIS[0],) + self.PHIS[-3:]:
            rhs = rng.standard_normal(6)
            expected = np.linalg.solve(q + phi * np.eye(6), rhs)
            assert np.max(np.abs(factor.solve(rhs, phi) - expected)) <= 1e-10
        assert len(factorizations) == 7

    def test_inverse_is_kept_in_the_phi_0_entry(self, monkeypatch):
        rng = np.random.default_rng(8)
        q = random_spd(rng, 6)
        factor = PenaltyFactor(q)
        factorizations = []
        real = linalg.cholesky_lower
        monkeypatch.setattr(linalg, "cholesky_lower",
                            lambda m, *args: factorizations.append(1) or real(m, *args))
        g = factor.inverse()
        assert np.max(np.abs(g @ q - np.eye(6))) <= 1e-12 and np.array_equal(g, g.T)
        assert factor.inverse() is g and factorizations == [1]
        factor.solve(rng.standard_normal(6))  # the same entry's factor
        assert factorizations == [1]
        for phi in self.PHIS[1:5]:  # four newer penalties evict phi = 0, and G with it
            factor.solve(rng.standard_normal(6), phi)
        again = factor.inverse()
        assert again is not g and np.array_equal(again, g) and len(factorizations) == 6

    def test_checks_q_once_when_built(self, monkeypatch):
        rng = np.random.default_rng(9)
        checks = []
        real = linalg.is_symmetric
        monkeypatch.setattr(linalg, "is_symmetric", lambda m: checks.append(1) or real(m))
        factor = PenaltyFactor(random_spd(rng, 5))
        assert len(checks) == 1
        for phi in self.PHIS:
            factor.solve(rng.standard_normal(5), phi)
        factor.solve_with_rows(rng.standard_normal(5), 1.0, rng.standard_normal((2, 5)))
        assert len(checks) == 1

    def test_solve_matches_dense_solve_diagonal_q(self):
        rng = np.random.default_rng(5)
        q = rng.uniform(0.5, 2.0, 6)
        factor = PenaltyFactor(q)
        for phi in self.PHIS:
            rhs = rng.standard_normal(6)
            expected = np.linalg.solve(np.diag(q) + phi * np.eye(6), rhs)
            assert np.max(np.abs(factor.solve(rhs, phi) - expected)) <= 1e-10
        assert np.array_equal(factor.matvec(rhs), q * rhs)

    def test_solve_on_plane_is_kkt_point(self):
        rng = np.random.default_rng(6)
        for q in (random_spd(rng, 5), rng.uniform(0.5, 2.0, 5)):
            factor = PenaltyFactor(q)
            dense = q if q.ndim == 2 else np.diag(q)
            normals = [rng.standard_normal(5) for _ in range(2)]
            # each normal twice per penalty: the factor keeps the last one seen
            for phi, a in [(phi, a) for phi in self.PHIS for a in normals + normals]:
                rhs = rng.standard_normal(5)
                b = float(rng.standard_normal())
                x = factor.solve_on_plane(rhs, phi, a, b)
                assert abs(a @ x - b) <= 1e-10
                # stationarity: the gradient is a multiple of the plane normal
                grad = (dense + phi * np.eye(5)) @ x - rhs
                along = (grad @ a) / (a @ a) * a
                assert np.max(np.abs(grad - along)) <= 1e-10

    def test_solve_with_rows_matches_dense_solve(self):
        rng = np.random.default_rng(8)
        for q in (random_spd(rng, 6), rng.uniform(0.5, 2.0, 6)):
            factor = PenaltyFactor(q)
            dense = q if q.ndim == 2 else np.diag(q)
            rows = 30.0 * rng.standard_normal((2, 6))
            for phi in self.PHIS[1:] + self.PHIS[1:]:
                rhs = rng.standard_normal(6)
                matrix = dense + phi * (np.eye(6) + rows.T @ rows)
                expected = np.linalg.solve(matrix, rhs)
                x = factor.solve_with_rows(rhs, phi, rows)
                assert np.max(np.abs(x - expected)) <= 1e-10 * np.max(np.abs(expected))


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))

    def test_row_vector(self):
        pinv = pseudo_inverse(np.array([[1.0, 1.0]]))
        assert np.allclose(pinv, np.array([[0.5], [0.5]]))

    def test_rank_deficient(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        pinv = pseudo_inverse(a)
        assert np.allclose(pinv, 0.25 * np.ones((2, 2)))
        assert np.allclose(a @ pinv @ a, a)

    def test_penrose_identities_random(self):
        rng = np.random.default_rng(11)
        for shape in [(4, 6), (6, 4), (5, 5)]:
            a = rng.standard_normal(shape)
            if shape == (5, 5):
                a[:, 0] = a[:, 1]  # force rank deficiency
            p = pseudo_inverse(a)
            assert np.allclose(a @ p @ a, a, atol=1e-10)
            assert np.allclose(p @ a @ p, p, atol=1e-10)
            assert np.allclose((a @ p).T, a @ p, atol=1e-10)
            assert np.allclose((p @ a).T, p @ a, atol=1e-10)


class TestBisect:
    def test_linear(self):
        root = bisect(lambda s: s - 1.0, RootBracket(0.0, 2.0))
        assert abs(root - 1.0) <= 1e-9

    def test_sqrt2(self):
        root = bisect(lambda s: s * s - 2.0, RootBracket(0.0, 2.0, tol=1e-9))
        assert abs(root - np.sqrt(2.0)) <= 1e-8

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            bisect(lambda s: s * s + 1.0, RootBracket(0.0, 1.0))

    def test_max_iter(self):
        # nonlinear: a secant step solves a linear f exactly
        with pytest.raises(MaxIterExceeded):
            bisect(lambda s: s**3 - 0.1234567, RootBracket(0.0, 1.0, tol=1e-14, max_iter=3))

    def test_superlinear_on_a_steep_exponential(self):
        calls = []

        def f(s):
            calls.append(s)
            return np.expm1(20.0 * s) - 5.0

        root = bisect(f, RootBracket(0.0, 1.0, tol=1e-12))
        assert abs(root - np.log(6.0) / 20.0) <= 1e-12
        # plain bisection halves [0, 1] to 1e-12 in about 40 evaluations
        plain = 2 + int(np.ceil(np.log2(1.0 / 1e-12)))
        assert len(calls) <= plain // 2

    def test_last_lies_in_the_bracket(self):
        for f in (lambda s: s**3 - 0.1234567, lambda s: np.expm1(20.0 * s) - 5.0,
                  lambda s: 0.5 - np.exp(-50.0 * s)):
            with pytest.raises(MaxIterExceeded) as err:
                bisect(f, RootBracket(0.0, 1.0, tol=1e-15, max_iter=4))
            assert 0.0 < err.value.last < 1.0

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            RootBracket(2.0, 1.0)


class TestNewtonKkt:
    @staticmethod
    def circle():
        """min x1 + x2 s.t. x1^2 + x2^2 = 1: the KKT residual in (x1, x2, lam),
        its Jacobian, and the root (-1, -1, 1) / sqrt(2)."""
        def residual(z):
            x, lam = z[:2], z[2]
            return np.append(1.0 + 2.0 * lam * x, x @ x - 1.0)

        def jacobian(z):
            x, lam = z[:2], z[2]
            return np.array([[2.0 * lam, 0.0, 2.0 * x[0]],
                             [0.0, 2.0 * lam, 2.0 * x[1]],
                             [2.0 * x[0], 2.0 * x[1], 0.0]])

        return residual, jacobian, np.array([-1.0, -1.0, 1.0]) / np.sqrt(2.0)

    def test_quadratic_convergence_on_a_toy_kkt_system(self):
        residual, jacobian, root = self.circle()
        sizes = []  # max|F| at every iterate Newton steps from

        def recorded(z):
            sizes.append(np.max(np.abs(residual(z))))
            return jacobian(z)

        z = linalg._newton_kkt(residual, recorded, np.array([-0.6, -0.9, 0.9]), 1e-14)
        assert np.max(np.abs(z - root)) <= 1e-14
        assert len(sizes) <= 6
        # quadratic: each residual at most a constant times the square of the last
        assert sizes[-1] <= 1e-5
        for before, after in zip(sizes[-3:], sizes[-2:]):
            assert after <= 10.0 * before**2

    def test_no_root_returns_none(self):
        # F(z) = z^2 + 1 has no real root: the steps stall where J vanishes
        calls = []

        def residual(z):
            calls.append(z)
            return z * z + 1.0

        assert linalg._newton_kkt(residual, lambda z: np.diag(2.0 * z), np.array([3.0]),
                                  1e-12) is None
        # each step backtracks at most log2(1 / NEWTON_MIN_STEP) times
        halvings = int(np.ceil(np.log2(1.0 / linalg.NEWTON_MIN_STEP)))
        assert len(calls) <= 1 + linalg.NEWTON_STEPS * (halvings + 1)

    def test_singular_jacobian_returns_none(self):
        assert linalg._newton_kkt(lambda z: z - 1.0, lambda z: np.zeros((2, 2)),
                                  np.zeros(2), 1e-12) is None

    def test_non_finite_start_returns_none(self):
        assert linalg._newton_kkt(lambda z: np.full(1, np.nan), lambda z: np.eye(1),
                                  np.zeros(1), 1e-12) is None

    def test_domain_guard(self):
        # ln z - 1 from z = 10: the full Newton step lands at z = -3.0, outside
        # the domain, where the residual is NaN; the step is halved back inside
        jacobian_points = []

        def jacobian(z):
            jacobian_points.append(float(z[0]))
            return np.diag(1.0 / z)

        z = linalg._newton_kkt(lambda z: np.log(z) - 1.0, jacobian, np.array([10.0]), 1e-14)
        assert abs(z[0] - np.e) <= 1e-13
        assert min(jacobian_points) > 0.0


class TestLambertW:
    def test_anchors(self):
        assert lambert_w(0.0) == 0.0
        assert abs(lambert_w(np.e) - 1.0) <= 1e-12
        # Newton oracle for w e^w = 1
        w = 0.5
        for _ in range(80):
            w -= (w * np.exp(w) - 1.0) / (np.exp(w) * (1.0 + w))
        assert abs(lambert_w(1.0) - w) <= 1e-12
        assert abs(lambert_w(1.0) - 0.567143) <= 1e-6

    def test_residual_positive_grid(self):
        x = np.logspace(-6, 6, 200)
        w = lambert_w(x)
        assert np.all(np.abs(w * np.exp(w) - x) <= 1e-12 * (1 + np.abs(x)))

    def test_residual_negative_branch(self):
        x = np.linspace(-1.0 / np.e + 1e-12, -1e-9, 200)
        w = lambert_w(x)
        assert np.all(np.abs(w * np.exp(w) - x) <= 1e-12 * (1 + np.abs(x)))

    def test_domain(self):
        with pytest.raises(OutOfDomain):
            lambert_w(-1.0)

    def test_log_space_variant(self):
        for z in (-5.0, 0.0, 10.0, 250.0, 1e4, 1e8):
            w = lambert_w_exp(z)
            assert abs(w + np.log(w) - z) <= 1e-10 * (1 + abs(z))


class TestThresholdSumRoot:
    def test_two_elements(self):
        # grid oracle: scan s over a fine grid for the crossing
        v = np.array([1.0, 2.0])
        grid = np.linspace(-3, 3, 2000001)
        values = np.maximum(v[0] - grid, 0) + np.maximum(v[1] - grid, 0)
        expected = grid[np.argmin(np.abs(values - 1.0))]
        s = threshold_sum_root(v, 1.0)
        assert abs(s - expected) <= 1e-5
        assert abs(s - 1.0) <= 1e-12

    def test_constant_vector(self):
        s = threshold_sum_root(np.full(7, 3.0), 7 * 0.25)
        assert abs(s - 2.75) <= 1e-12

    def test_single_element(self):
        assert abs(threshold_sum_root(np.array([3.0]), 2.0) - 1.0) <= 1e-12

    def test_random_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = rng.integers(1, 30)
            v = rng.standard_normal(n) * rng.uniform(0.1, 10)
            target = rng.uniform(1e-6, 20.0)
            s = threshold_sum_root(v, target)
            assert abs(np.sum(np.maximum(v - s, 0.0)) - target) <= 1e-12 * max(1, target)
