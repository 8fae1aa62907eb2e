import numpy as np
import pytest

from proxalloc.dykstra import (
    DykstraConfig,
    dykstra_cycle,
    dykstra_two,
    project_box_ball,
    project_general_linear,
    project_polyhedron,
)
from proxalloc.errors import EmptySetSuspected, InvertedBounds
from proxalloc.prox import (
    Box,
    Halfspace,
    Hyperplane,
    LpBall,
    project,
    prox_log_barrier,
    soft_threshold,
    truncate,
)
from proxalloc.qp import QpProblem, qp_solve


def projection_qp_oracle(v, **blocks):
    """Projection as the QP min 0.5 x'x - x'v over the constraint blocks."""
    problem = QpProblem(q=np.ones(v.size), r=v, **blocks)
    return qp_solve(problem)


class TestDykstraTwo:
    def test_idempotent_same_hyperplane(self):
        plane = Hyperplane(np.array([1.0, 2.0]), 1.0)
        op = lambda t: project(plane, t)
        v = np.array([3.0, -1.0])
        out, report = dykstra_two(op, op, v)
        assert np.allclose(out, project(plane, v), atol=1e-12)
        assert report.iterations <= 2

    def test_l1_plus_nonnegative_grid_oracle(self):
        # prox of |x| + indicator(x >= 0) on scalars
        grid = np.linspace(0.0, 10.0, 2_000_001)
        box = Box(0.0, np.inf)
        for v in (-2.0, -0.3, 0.4, 2.7):
            out, _ = dykstra_two(lambda t: soft_threshold(t, 1.0),
                                 lambda t: project(box, t),
                                 np.array([v]), DykstraConfig(tol=1e-12))
            values = np.abs(grid) + 0.5 * (grid - v) ** 2
            expected = grid[np.argmin(values)]
            assert abs(out[0] - expected) <= 1e-5

    def test_log_barrier_with_l2_ball_kkt(self):
        rng = np.random.default_rng(2)
        lam, weights = 0.4, np.array([0.5, 1.0, 1.5])
        center = np.array([1.0, 1.0, 1.0])
        radius = 0.8
        ball = LpBall(2, center, radius)
        for _ in range(20):
            v = rng.standard_normal(3) * 2
            out, _ = dykstra_two(lambda t: prox_log_barrier(t, lam, weights),
                                 lambda t: project(ball, t),
                                 v, DykstraConfig(tol=1e-12))
            gap = radius - np.linalg.norm(out - center)
            assert gap >= -1e-8  # feasible
            grad = -lam * weights / out + out - v
            if gap > 1e-6:
                assert np.max(np.abs(grad)) <= 1e-8
            else:
                direction = out - center
                theta = -(grad @ direction) / (direction @ direction)
                assert theta >= -1e-8
                assert np.max(np.abs(grad + theta * direction)) <= 1e-8


class TestDykstraCycle:
    def test_single_operator_one_pass(self):
        plane = Hyperplane(np.ones(3), 1.0)
        v = np.array([2.0, 0.0, 1.0])
        out, report = dykstra_cycle([lambda t: project(plane, t)], v)
        assert report.iterations == 1
        assert np.allclose(out, project(plane, v))

    def test_two_operator_agreement_with_dykstra_two(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal(n)
            a = a + np.sign(a) + 0.1
            lo = -np.abs(rng.standard_normal(n))
            hi = np.abs(rng.standard_normal(n)) + 0.1
            interior = lo + rng.uniform(0.2, 0.8, n) * (hi - lo)
            plane = Hyperplane(a, float(a @ interior))  # guaranteed to meet the box
            box = Box(lo, hi)
            ops = [lambda t: project(plane, t), lambda t: project(box, t)]
            v = rng.standard_normal(n) * 2
            cfg = DykstraConfig(tol=1e-12)
            out_two, _ = dykstra_two(*ops, v, cfg)
            out_cycle, _ = dykstra_cycle(ops, v, cfg)
            assert np.max(np.abs(out_two - out_cycle)) <= 1e-10

    def test_feasible_point_fixed_in_one_cycle(self):
        halves = [Halfspace(np.array([1.0, 0.0]), 1.0),
                  Halfspace(np.array([0.0, 1.0]), 1.0),
                  Halfspace(np.array([-1.0, -1.0]), 3.0)]
        v = np.array([0.2, 0.3])
        out, report = dykstra_cycle([lambda t, h=h: project(h, t) for h in halves], v)
        assert np.array_equal(out, v)
        assert report.iterations == 1

    def test_empty_intersection_of_plain_operators_detected(self):
        # x_0 <= 0 against x_0 >= 1000: the residuals grow by the gap each cycle
        halves = [Halfspace(np.array([1.0, 0.0]), 0.0),
                  Halfspace(np.array([-1.0, 0.0]), -1000.0)]
        ops = [lambda t, h=h: project(h, t) for h in halves]
        with pytest.raises(EmptySetSuspected) as info:
            dykstra_cycle(ops, np.array([0.3, 0.4]), DykstraConfig(max_cycles=100000))
        cycles = info.value.report.iterations
        assert cycles & (cycles - 1) == 0  # tested only at powers of two
        assert cycles < 10000

    def test_identical_sets_equal_single_projection(self):
        ball = LpBall(2, np.zeros(4), 1.0)
        op = lambda t: project(ball, t)
        v = np.array([2.0, 1.0, -3.0, 0.5])
        out, _ = dykstra_cycle([op, op, op], v)
        assert np.allclose(out, project(ball, v), atol=1e-10)


class TestProjectPolyhedron:
    def test_feasible_identity(self):
        c = np.array([[1.0, 1.0], [1.0, -1.0]])
        d = np.array([2.0, 2.0])
        v = np.array([0.1, 0.1])
        assert np.array_equal(project_polyhedron(c, d, v), v)

    def test_single_row_matches_halfspace(self):
        c = np.array([[2.0, -1.0, 0.5]])
        d = np.array([0.3])
        v = np.array([1.0, 2.0, 3.0])
        out = project_polyhedron(c, d, v)
        expected = project(Halfspace(c[0], d[0]), v)
        assert np.allclose(out, expected, atol=1e-12)

    def test_two_constraint_problem_against_qp(self):
        n = 100
        i = np.arange(1, n + 1)
        v = np.log(1.0 + i**2)
        c = np.vstack([np.ones(n), -np.exp(-i)])
        d = np.array([0.5, 0.0])
        out = project_polyhedron(c, d, v, DykstraConfig(tol=1e-12))
        oracle = projection_qp_oracle(v, c=c, d=d)
        assert np.max(np.abs(out - oracle)) <= 1e-6
        assert np.all(c @ out <= d + 1e-9)


class TestProjectGeneralLinear:
    def test_box_only_is_truncation(self):
        v = np.array([-1.0, 0.5, 3.0])
        out = project_general_linear(None, None, None, None, 0.0, 1.0, v)
        assert np.array_equal(out, truncate(v, 0.0, 1.0))

    def test_budget_box_matches_qp(self):
        rng = np.random.default_rng(4)
        n = 8
        a = np.ones((1, n))
        b = np.ones(1)
        for _ in range(50):
            v = rng.standard_normal(n)
            out = project_general_linear(a, b, None, None, 0.0, 1.0, v,
                                         DykstraConfig(tol=1e-12))
            oracle = projection_qp_oracle(v, a=a, b=b, lower=np.zeros(n),
                                          upper=np.ones(n))
            assert np.max(np.abs(out - oracle)) <= 1e-8

    def test_feasible_identity(self):
        a = np.ones((1, 4))
        b = np.ones(1)
        v = np.full(4, 0.25)
        out = project_general_linear(a, b, None, None, 0.0, 1.0, v)
        assert np.allclose(out, v, atol=1e-12)

    def test_budget_sector_and_asset_caps_variational_inequality(self):
        # the QP-bridge shape: budget row, sector-cap rows and asset caps;
        # x is the projection iff (v - x).(w - x) <= 0 for every feasible w
        rng = np.random.default_rng(11)
        n = 12
        sector = np.arange(n) % 3
        c = np.vstack([(sector == k).astype(float) for k in range(3)])
        d = np.array([0.3, 0.35, 0.4])
        a, b = np.ones((1, n)), np.ones(1)
        cap = np.full(n, 0.12)
        feasible = []
        while len(feasible) < 300:
            w = rng.dirichlet(np.full(n, 8.0))
            if np.all(c @ w <= d) and np.all(w <= cap):
                feasible.append(w)
        for _ in range(10):
            v = rng.standard_normal(n) * 0.3 + 1.0 / n
            x = project_general_linear(a, b, c, d, 0.0, cap, v, DykstraConfig(tol=1e-12))
            assert abs(x.sum() - 1.0) <= 1e-9
            assert np.all(c @ x <= d + 1e-9)
            assert np.all(x >= -1e-9) and np.all(x <= cap + 1e-9)
            for w in feasible:
                assert (v - x) @ (w - x) <= 1e-9

    @pytest.mark.parametrize("project_fn", [
        lambda v, lo, hi: project_general_linear(np.ones((1, 3)), np.ones(1), None, None,
                                                 lo, hi, v),
        lambda v, lo, hi: project_box_ball(v, lo, hi, np.zeros(3), 1.0),
    ], ids=["general_linear", "box_ball"])
    def test_inverted_bounds_rejected(self, project_fn):
        with pytest.raises(InvertedBounds):
            project_fn(np.zeros(3), np.array([0.0, 0.5, 0.0]), np.array([1.0, 0.4, 1.0]))

    def test_empty_intersection_detected(self):
        a = np.array([[1.0, 0.0]])
        b = np.zeros(1)
        v = np.array([0.3, 0.4])
        with pytest.raises(EmptySetSuspected):
            project_general_linear(a, b, None, None, 1000.0, 2000.0, v,
                                   DykstraConfig(tol=1e-12, max_cycles=100000))


class TestProjectBoxBall:
    def test_inside_both_identity(self):
        v = np.array([0.1, 0.2])
        out = project_box_ball(v, 0.0, 1.0, np.zeros(2), 5.0)
        assert np.allclose(out, v, atol=1e-12)

    def test_unbounded_box_reduces_to_ball(self):
        v = np.array([3.0, 4.0])
        out = project_box_ball(v, -np.inf, np.inf, np.zeros(2), 1.0)
        assert np.allclose(out, v / 5.0, atol=1e-10)

    def test_against_qp_oracle(self):
        rng = np.random.default_rng(5)
        n = 8
        radius = np.sqrt(1.0 / 5.0)
        for _ in range(25):
            v = rng.standard_normal(n)
            out = project_box_ball(v, np.zeros(n), np.ones(n), np.zeros(n), radius,
                                   DykstraConfig(tol=1e-12))
            # oracle: QP with the ball handled by a fine polyhedral sweep is
            # unreliable, so check optimality directly against feasible points
            assert np.all(out >= -1e-10) and np.all(out <= 1 + 1e-10)
            assert np.linalg.norm(out) <= radius + 1e-9
            base = np.linalg.norm(out - v)
            for _ in range(200):
                w = rng.uniform(0.0, 1.0, n)
                nrm = np.linalg.norm(w)
                if nrm > radius:
                    w *= (radius / nrm) * rng.uniform(0.2, 1.0)
                assert base <= np.linalg.norm(w - v) + 1e-9


class TestFeasibilityAndOptimality:
    def test_projection_output_beats_random_feasible_points(self):
        rng = np.random.default_rng(6)
        n = 5
        plane = Hyperplane(np.ones(n), 1.0)
        box = Box(np.zeros(n), np.ones(n))
        ops = [lambda t: project(plane, t), lambda t: project(box, t)]
        v = rng.standard_normal(n) * 2
        out, _ = dykstra_cycle(ops, v, DykstraConfig(tol=1e-12))
        assert abs(np.sum(out) - 1) <= 1e-9
        assert np.all(out >= -1e-9)
        base = np.linalg.norm(out - v)
        for _ in range(1000):
            w = rng.dirichlet(np.ones(n))
            assert base <= np.linalg.norm(w - v) + 1e-9

    def test_cauchy_residual_trace_ends_below_tol(self):
        rng = np.random.default_rng(7)
        ball = LpBall(2, np.zeros(3), 0.7)
        plane = Hyperplane(np.array([1.0, -1.0, 0.5]), 0.2)
        ops = [lambda t: project(ball, t), lambda t: project(plane, t)]
        cfg = DykstraConfig(tol=1e-11)
        out, report = dykstra_cycle(ops, rng.standard_normal(3) * 3, cfg)
        assert report.primal_residuals[-1] <= cfg.tol
