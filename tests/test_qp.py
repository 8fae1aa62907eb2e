import dataclasses
import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxalloc import data, portfolios, qp
from proxalloc.admm import AdmmConfig
from proxalloc.errors import (
    DimensionMismatch,
    InfeasibleSuspected,
    MaxCyclesExceeded,
    MaxIterExceeded,
    NotPositiveDefinite,
)
from proxalloc.linalg import CACHE_ENTRIES, PenaltyFactor, solve_spd
from proxalloc.qp import (
    POLISH_TOL,
    QpProblem,
    _Bridge,
    canonicalize,
    linear_projection,
    qp_dual,
    qp_solve,
    stationarity_residual,
)


def perfbench_universe():
    """The benchmark's universe module, perfbench/universe.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "universe.py"
    spec = importlib.util.spec_from_file_location("perfbench_universe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_box_qp(rng, n):
    m = rng.standard_normal((n, n))
    q = m @ m.T + n * np.eye(n)
    r = rng.standard_normal(n)
    lo = -np.abs(rng.standard_normal(n)) - 0.05
    hi = np.abs(rng.standard_normal(n)) + 0.05
    return QpProblem(q=q, r=r, lower=lo, upper=hi)


class TestCanonicalize:
    def test_box_only(self):
        p = QpProblem(q=np.eye(2), r=np.zeros(2), lower=0.0, upper=1.0)
        s, t = canonicalize(p)
        assert s.shape == (4, 2)
        assert np.allclose(s, np.vstack([-np.eye(2), np.eye(2)]))
        assert np.allclose(t, [0.0, 0.0, 1.0, 1.0])

    def test_equality_only(self):
        a = np.array([[1.0, 2.0, 3.0]])
        p = QpProblem(q=np.eye(3), r=np.zeros(3), a=a, b=[1.0])
        s, t = canonicalize(p)
        assert np.allclose(s, np.vstack([-a, a]))
        assert np.allclose(t, [-1.0, 1.0])

    def test_full_block_row_count(self):
        n = 3
        p = QpProblem(q=np.eye(n), r=np.zeros(n),
                      a=np.ones((1, n)), b=[1.0],
                      c=np.array([[1.0, 0.0, 0.0]]), d=[0.5],
                      lower=0.0, upper=1.0)
        s, t = canonicalize(p)
        rows_a, rows_c = 1, 1
        assert s.shape[0] == 2 * rows_a + rows_c + 2 * n  # = 9
        assert t.size == s.shape[0]
        # stacked in the order [-A; A; C; -I; I]
        assert np.allclose(s[0], -np.ones(n))
        assert np.allclose(s[2], [1.0, 0.0, 0.0])


class TestProblemGate:
    """Building a QpProblem checks every block once, and a bad block raises
    there, with an error naming it."""

    Q3 = np.eye(3)

    def test_r_shorter_than_q(self):
        with pytest.raises(DimensionMismatch, match="Q has shape .* of R"):
            QpProblem(q=self.Q3, r=np.ones(2))

    def test_non_square_q(self):
        with pytest.raises(DimensionMismatch, match="Q must be square"):
            QpProblem(q=np.ones((3, 2)), r=np.ones(3))

    def test_a_of_the_wrong_width(self):
        with pytest.raises(DimensionMismatch, match=r"A is \(1, 2\)"):
            QpProblem(q=self.Q3, r=np.ones(3), a=np.ones((1, 2)), b=[1.0])

    def test_b_of_the_wrong_length(self):
        with pytest.raises(DimensionMismatch, match="for 2 B"):
            QpProblem(q=self.Q3, r=np.ones(3), a=np.ones((1, 3)), b=[1.0, 2.0],
                      lower=0.0)

    def test_a_without_b(self):
        with pytest.raises(DimensionMismatch, match="A and B must be given together"):
            QpProblem(q=self.Q3, r=np.ones(3), a=np.ones((1, 3)))

    @pytest.mark.parametrize("block", ["a", "c"])
    def test_nan_in_a_row_block(self, block):
        rows = np.array([[1.0, np.nan, 0.0]])
        with pytest.raises(ValueError, match=f"{block.upper()} contains NaN"):
            QpProblem(q=self.Q3, r=np.ones(3), lower=0.0, upper=1.0,
                      **{block: rows, "b" if block == "a" else "d": [1.0]})

    @pytest.mark.parametrize("block", ["a", "c"])
    def test_zero_row(self, block):
        rows = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=f"{block.upper()} has a zero row"):
            QpProblem(q=self.Q3, r=np.ones(3),
                      **{block: rows, "b" if block == "a" else "d": [1.0, 0.0]})

    def test_nan_bound(self):
        with pytest.raises(ValueError, match="upper bound contains NaN"):
            QpProblem(q=self.Q3, r=np.ones(3), upper=[1.0, np.nan, 1.0])

    def test_bounds_are_kept_absent_or_broadcast(self):
        p = QpProblem(q=self.Q3, r=np.ones(3), lower=0.0)
        assert p.upper is None and np.array_equal(p.lower, np.zeros(3))

    def test_q_asymmetric_within_the_rule_solves(self):
        p = QpProblem(q=[[2.0, 0.5], [0.5 + 5e-11, 2.0]], r=[1.0, 1.0], lower=[0.0, 0.0])
        assert np.max(np.abs(qp_solve(p) - 0.4)) <= 1e-9  # the 5e-11 skew moves it

    def test_a_penalty_factor_as_q_is_kept_unscanned(self, monkeypatch):
        from proxalloc import linalg

        quad = PenaltyFactor(np.diag([1.0, 2.0, 3.0]))

        def fail(*args, **kwargs):
            raise AssertionError("Q scanned again")

        monkeypatch.setattr(linalg, "as_matrix", fail)
        p = QpProblem(q=quad, r=np.ones(3), a=np.ones(3), b=[1.0])
        assert p.factor is quad and p.q is quad.q
        with pytest.raises(DimensionMismatch, match="Q has shape"):
            QpProblem(q=quad, r=np.ones(2))

    def test_stationarity_residual_checks_x(self):
        p = random_box_qp(np.random.default_rng(3), 4)
        with pytest.raises(DimensionMismatch, match="x"):
            stationarity_residual(p, np.zeros(3))
        with pytest.raises(ValueError, match="x contains NaN"):
            stationarity_residual(p, np.array([0.0, np.nan, 0.0, 0.0]))


class TestQpSolve:
    def test_bridge_raises_at_its_iteration_cap(self):
        # a box of one point leaves no free coordinate for the polish, and
        # 50 iterations do not meet the default tolerance
        third = np.full(3, 1.0 / 3.0)
        problem = QpProblem(q=np.eye(3), r=np.zeros(3), a=np.ones((1, 3)), b=np.ones(1),
                            lower=third, upper=third)
        with pytest.raises(MaxIterExceeded) as err:
            _Bridge(problem, AdmmConfig(max_iter=50)).solve()
        assert err.value.last.size == 3 and err.value.report.iterations == 50

    def test_unconstrained(self):
        v = np.array([0.2, -1.3, 0.8])
        x = qp_solve(QpProblem(q=np.eye(3), r=v))
        assert np.allclose(x, v)

    def test_budget_symmetry(self):
        n = 4
        x = qp_solve(QpProblem(q=np.eye(n), r=np.zeros(n),
                               a=np.ones((1, n)), b=[1.0]))
        assert np.allclose(x, 0.25)

    def test_multi_row_equalities(self):
        rng = np.random.default_rng(3)
        n = 5
        m = rng.standard_normal((n, n))
        q = m @ m.T + n * np.eye(n)
        r = rng.standard_normal(n)
        a = rng.standard_normal((2, n))
        b = rng.standard_normal(2)
        x = qp_solve(QpProblem(q=q, r=r, a=a, b=b))
        assert np.max(np.abs(a @ x - b)) <= 1e-10
        # KKT: gradient in the row space of A
        g = q @ x - r
        coeffs, *_ = np.linalg.lstsq(a.T, g, rcond=None)
        assert np.max(np.abs(a.T @ coeffs - g)) <= 1e-8

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_equality_only_ends_polished_at_iteration_1(self, diagonal):
        rng = np.random.default_rng(11)
        n = 6
        m = rng.standard_normal((n, n))
        q = rng.uniform(0.5, 3.0, n) if diagonal else m @ m.T + n * np.eye(n)
        r, a, b = rng.standard_normal(n), rng.standard_normal((2, n)), rng.standard_normal(2)
        x, report = qp_solve(QpProblem(q=q, r=r, a=a, b=b), return_report=True)
        kkt = np.block([[np.diag(q) if diagonal else q, -a.T], [a, np.zeros((2, 2))]])
        expected = np.linalg.solve(kkt, np.concatenate([r, b]))[:n]
        assert report.polished and report.iterations == 1
        assert np.max(np.abs(x - expected)) <= 1e-12

    def test_a_budget_row_whose_names_are_all_pinned_polishes(self):
        # mvo_turnover's account as a QP in (x, buys, sells): the optimum holds
        # one name, so every x is pinned and the budget row has no free entry
        n = 7
        rng = np.random.default_rng([27, 16512, n])
        u = perfbench_universe().factor_universe(rng, n)
        current = rng.dirichlet(np.ones(n))
        q = np.zeros((3 * n, 3 * n))
        q[:n, :n] = u.cov
        q[n:, n:] = 1e-10 * np.eye(2 * n)
        p = QpProblem(q=q, r=np.concatenate([0.5 * u.mu, np.zeros(2 * n)]),
                      a=np.vstack([np.concatenate([np.ones(n), np.zeros(2 * n)]),
                                   np.hstack([np.eye(n), -np.eye(n), np.eye(n)])]),
                      b=np.concatenate([[1.0], current]),
                      c=np.concatenate([np.zeros(n), np.ones(2 * n)])[None, :], d=[3.0],
                      lower=np.zeros(3 * n), upper=np.ones(3 * n))
        cfg = dataclasses.replace(qp.default_qp_config(p), max_iter=64)
        x, report = qp_solve(p, cfg, return_report=True)
        assert report.polished and report.iterations <= 8
        assert np.array_equal(x[:n], np.eye(n)[2])
        assert report.stationarity_residual <= 1e-8

    def test_a_held_names_trade_row_parallel_to_the_budget_row_polishes(self):
        # rebalance_penalized's account as a QP in (x, buys, sells), caps 0.15
        # and equal holdings: the optimum pins every x but x_6, which is held,
        # so the budget row and x_6's trade row share their one free entry
        n = 10
        rng = np.random.default_rng([27, 300, n])
        u = perfbench_universe().factor_universe(rng, n)
        current = np.full(n, 0.1)
        bid, ask = rng.uniform(0.001, 0.004, (2, n)) * (rng.random(n) >= 0.5)
        q = np.zeros((3 * n, 3 * n))
        q[:n, :n] = u.cov
        q[n:, n:] = 1e-10 * np.eye(2 * n)
        p = QpProblem(q=q, r=np.concatenate([np.zeros(n), -ask, -bid]),
                      a=np.vstack([np.concatenate([np.ones(n), np.zeros(2 * n)]),
                                   np.hstack([np.eye(n), -np.eye(n), np.eye(n)])]),
                      b=np.concatenate([[1.0], current]),
                      c=np.concatenate([np.zeros(n), np.ones(2 * n)])[None, :], d=[3.0],
                      lower=np.zeros(3 * n), upper=np.concatenate([np.full(n, 0.15),
                                                                  np.full(2 * n, 2.0)]))
        cfg = dataclasses.replace(qp.default_qp_config(p), max_iter=64)
        x, report = qp_solve(p, cfg, return_report=True)
        assert report.polished and report.iterations <= 8
        assert np.allclose(x[:n], [0, 0, 0.15, 0.15, 0.15, 0.15, 0.1, 0, 0.15, 0.15],
                           rtol=0.0, atol=1e-12)
        assert report.stationarity_residual <= 1e-8

    def test_matches_box_ccd_on_published_example(self):
        from proxalloc.cd import CdConfig, ccd_qp_box

        q = np.array([[5.76, 5.11, 3.47, 5.13, 6.82],
                      [5.11, 7.98, 5.38, 4.30, 8.70],
                      [3.47, 5.38, 4.01, 2.83, 5.91],
                      [5.13, 4.30, 2.83, 4.70, 5.84],
                      [6.82, 8.70, 5.91, 5.84, 10.18]])
        r = np.array([0.65, 0.72, 0.46, 0.59, 1.26])
        x_qp = qp_solve(QpProblem(q=q, r=r, lower=-0.5, upper=1.0))
        x_cd = ccd_qp_box(q, r, -0.5, 1.0, cfg=CdConfig(tol=1e-13))
        assert np.max(np.abs(x_qp - x_cd)) <= 1e-6

    def test_feasibility_and_optimality_random(self):
        rng = np.random.default_rng(4)
        p = random_box_qp(rng, 6)
        x, report = qp_solve(p, return_report=True)
        assert report.converged
        lo = np.broadcast_to(p.lower, x.shape)
        hi = np.broadcast_to(p.upper, x.shape)
        assert np.all(x >= lo - 1e-8) and np.all(x <= hi + 1e-8)
        assert stationarity_residual(p, x) <= 1e-6
        base = p.objective(x)
        for _ in range(1000):
            w = rng.uniform(lo, hi)
            assert base <= p.objective(w) + 1e-9

    def test_diagonal_q_matches_dense(self):
        rng = np.random.default_rng(5)
        n = 7
        diag = rng.uniform(0.5, 3.0, n)
        r = rng.standard_normal(n)
        c = np.vstack([np.ones(n)])
        d = np.array([0.5])
        x_diag = qp_solve(QpProblem(q=diag, r=r, c=c, d=d))
        x_dense = qp_solve(QpProblem(q=np.diag(diag), r=r, c=c, d=d))
        assert np.max(np.abs(x_diag - x_dense)) <= 1e-8

    def test_two_dimensional_grid_oracle(self):
        # brute-force dense-grid argmin over the box as a fully independent check
        q = np.array([[2.0, 0.6], [0.6, 1.5]])
        r = np.array([0.4, -0.9])
        lo, hi = -1.0, 1.0
        x = qp_solve(QpProblem(q=q, r=r, lower=lo, upper=hi))
        grid = np.linspace(lo, hi, 2001)
        xx, yy = np.meshgrid(grid, grid, indexing="ij")
        values = (0.5 * (q[0, 0] * xx**2 + 2 * q[0, 1] * xx * yy + q[1, 1] * yy**2)
                  - r[0] * xx - r[1] * yy)
        i, j = np.unravel_index(np.argmin(values), values.shape)
        assert np.max(np.abs(x - [grid[i], grid[j]])) <= 1.5e-3  # grid pitch

    @pytest.mark.parametrize("rejected", [0, 1, 3, np.inf])
    def test_polish_runs_at_powers_of_two_and_on_convergence(self, monkeypatch, rejected):
        box = random_box_qp(np.random.default_rng(4), 6)
        p = QpProblem(q=box.q, r=box.r, a=np.ones((1, 6)), b=[0.5], lower=box.lower,
                      upper=box.upper)
        polish, calls = qp._polish, []

        def counted(*args):
            calls.append(args)
            return None if len(calls) <= rejected else polish(*args)

        monkeypatch.setattr(qp, "_polish", counted)
        _, report = qp_solve(p, return_report=True)
        k = report.iterations
        if rejected < np.inf:
            assert report.polished and k == 2**rejected
        else:
            assert report.converged and not report.polished
            # iterations 1, 2, 4, ... and the converged one when it is not among them
            assert len(calls) == k.bit_length() + (k & (k - 1) != 0)

    def test_settle_releases_a_bound_whose_multiplier_has_the_wrong_sign(self):
        p = QpProblem(q=np.eye(3), r=np.array([0.6, 0.3, 0.1]), a=np.ones((1, 3)), b=[1.0],
                      lower=0.0, upper=1.0)
        split = qp._ClippedSplit(p)
        at_lo = np.zeros(split.m + 3, dtype=bool)
        at_lo[-1] = True  # x_3 guessed at 0, where the reduced gradient is -0.15
        x = qp._settle(functools.partial(qp._active_set_point, p, split), split.lo, split.hi,
                       at_lo, np.zeros_like(at_lo))
        assert x is not None and np.max(np.abs(x - p.r)) <= 1e-14

    def test_report_traces_align_with_iterations(self):
        rng = np.random.default_rng(9)
        p = random_box_qp(rng, 4)
        _, report = qp_solve(p, return_report=True)
        assert len(report.primal_residuals) == report.iterations
        assert len(report.dual_residuals) == report.iterations

    def test_problem_rejects_asymmetric_and_nonfinite_q(self):
        with pytest.raises(ValueError, match="symmetric"):
            QpProblem(q=np.array([[1.0, 0.2], [0.1, 1.0]]), r=np.zeros(2))
        with pytest.raises(ValueError, match="NaN"):
            QpProblem(q=np.array([[1.0, np.nan], [np.nan, 1.0]]), r=np.zeros(2))
        with pytest.raises(ValueError, match="NaN"):
            QpProblem(q=np.array([1.0, np.inf]), r=np.zeros(2))

    def test_infeasible_detected(self):
        n = 2
        p = QpProblem(q=np.eye(n), r=np.zeros(n),
                      a=np.array([[1.0, 0.0]]), b=[0.0],
                      lower=1000.0, upper=2000.0)
        with pytest.raises(InfeasibleSuspected):
            qp_solve(p)


def budget_box_settle(q, r, lower, upper, at_lo, at_hi):
    """qp._settle on min 0.5 x'qx - r'x s.t. 1'x = 1, lower <= x <= upper,
    from a guess over the coordinates; returns (x, number of point solves)."""
    n = len(r)
    p = QpProblem(q=q, r=r, a=np.ones((1, n)), b=[1.0], lower=lower, upper=upper)
    split = qp._ClippedSplit(p)
    calls = []

    def solve(lo_mask, hi_mask):
        calls.append(1)
        return qp._active_set_point(p, split, lo_mask, hi_mask)

    pad = np.zeros(split.m, dtype=bool)
    x = qp._settle(solve, split.lo, split.hi, np.concatenate([pad, at_lo]),
                   np.concatenate([pad, at_hi]))
    return x, len(calls)


def budget_box_kkt_gap(q, r, upper, x):
    """How far x misses the KKT conditions of min 0.5 x'qx - r'x on 1'x = 1,
    0 <= x <= upper, less the sign slack of qp._active_set_point; <= 0 when
    they hold."""
    g = q @ x - r
    tol = POLISH_TOL * (1.0 + np.max(np.abs(q @ x)) + np.max(np.abs(r)))
    slack = POLISH_TOL * (1.0 + np.abs(x))
    at_lo, at_hi = x <= slack, x >= upper - slack
    # a budget multiplier nu with g_i >= nu at 0, g_i <= nu at the cap, g_i = nu between
    below = g[~at_lo]  # nu >= g_i - tol on these
    above = g[~at_hi]  # nu <= g_i + tol on these
    sign = max(below.max(initial=-np.inf) - above.min(initial=np.inf) - 2.0 * tol, 0.0)
    box = max(np.max(-x - slack), np.max(x - upper - slack), 0.0)
    return max(sign, box, abs(x.sum() - 1.0) - 2.0 * POLISH_TOL)


class TestSettle:
    """The one primal-dual active-set loop, on hand-built budget-and-box QPs."""

    Q, R = np.eye(3), np.array([0.8, 0.6, -0.4])  # optimum (0.6, 0.4, 0), nu = -0.2

    def test_a_guess_wrong_both_ways_settles_in_one_round(self, monkeypatch):
        # x_2 pinned at 0 with reduced gradient -0.9, and on that guess the free
        # x_3 falls to -0.1: both move in the first correction, where pinning
        # first and releasing after would take a second one
        monkeypatch.setattr(qp, "POLISH_ROUNDS", 1)
        x, solves = budget_box_settle(self.Q, self.R, 0.0, np.inf, np.array([0, 1, 0], bool),
                                      np.zeros(3, bool))
        assert solves == 2 and np.max(np.abs(x - [0.6, 0.4, 0.0])) <= 1e-14

    def test_a_guess_that_needs_more_rounds_than_allowed_returns_none(self, monkeypatch):
        monkeypatch.setattr(qp, "POLISH_ROUNDS", 0)
        x, solves = budget_box_settle(self.Q, self.R, 0.0, np.inf, np.array([0, 1, 0], bool),
                                      np.zeros(3, bool))
        assert x is None and solves == 1

    @pytest.mark.parametrize("guess", ["lower", "upper", "free"])
    def test_an_entry_with_equal_bounds_is_never_released(self, guess):
        # x_3 is fixed at 0.5, where its reduced gradient -0.5 would free a lower bound
        at_lo, at_hi = np.zeros(3, bool), np.zeros(3, bool)
        {"lower": at_lo, "upper": at_hi, "free": np.zeros(3, bool)}[guess][2] = True
        x, solves = budget_box_settle(np.eye(3), np.array([0.2, 0.1, 0.9]), [0.0, 0.0, 0.5],
                                      [1.0, 1.0, 0.5], at_lo, at_hi)
        assert solves == 1 and np.max(np.abs(x - [0.3, 0.2, 0.5])) <= 1e-14

    def test_a_row_with_no_free_entry_takes_the_multiplier_nearest_0(self):
        # the budget row x_1 + x_2 = 1 with x_1 at its cap and x_2 at 0: the
        # signs of their multipliers g - w nu (g = -1.5, -1.2; w the row's
        # scale) admit w nu in [-1.5, -1.2], and x_3 alone is free
        p = QpProblem(q=np.eye(3), r=np.array([2.5, 1.2, 0.3]), a=np.array([[1.0, 1.0, 0.0]]),
                      b=[1.0], lower=0.0, upper=1.0)
        split = qp._ClippedSplit(p)
        x, values, mult, _ = qp._active_set_point(p, split, np.array([1, 0, 1, 0], bool),
                                                   np.array([0, 1, 0, 0], bool))
        w = split.rows[0, 0]
        assert np.array_equal(x, [1.0, 0.0, 0.3]) and np.allclose(values, [w, 1.0, 0.0, 0.3])
        assert np.allclose(mult, [-1.2 / w, -0.3, 0.0, 0.0], rtol=0.0, atol=1e-14)

    def test_two_rows_with_no_free_entry_return_none(self):
        p = QpProblem(q=np.eye(3), r=np.array([2.5, 1.2, 0.3]),
                      a=np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]), b=[1.0, 1.0],
                      lower=0.0, upper=1.0)
        split = qp._ClippedSplit(p)
        assert qp._active_set_point(p, split, np.array([1, 1, 0, 1, 0], bool),
                                    np.array([0, 0, 1, 0, 0], bool)) is None

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), caps_sum_to_one=st.booleans(),
           duplicate=st.booleans(), flips=st.floats(0.0, 0.5))
    def test_settle_returns_none_or_the_bridge_optimum(self, seed, n, caps_sum_to_one, duplicate,
                                                       flips):
        rng = np.random.default_rng(seed)
        distinct = n - 1 if duplicate and n > 1 else n
        f = rng.standard_normal((distinct, 2))
        q = 0.05 * f @ f.T + np.diag(rng.uniform(1e-3, 0.05, distinct))
        idx = list(range(distinct)) + [distinct - 1] * (n - distinct)
        q = q[np.ix_(idx, idx)]  # a duplicated asset makes q singular
        r = rng.normal(scale=0.05, size=n)  # its own r keeps the optimum unique
        if caps_sum_to_one:  # multiples of 1/64, so the sum is exactly 1
            upper = (rng.multinomial(64 - n, np.full(n, 1.0 / n)) + 1) / 64.0
        else:
            upper = rng.uniform(min(1.5 / n, 1.0), 1.0, n)
        p = QpProblem(q=q, r=r, a=np.ones((1, n)), b=[1.0], lower=np.zeros(n), upper=upper)
        best = _Bridge(p).solve()[0]
        # the optimum's active set with a random share of its entries flipped
        flip = rng.random(n) < flips
        at_lo = (best <= 1e-12) != (flip & (rng.random(n) < 0.5))
        at_hi = ((best >= upper - 1e-12) != (flip & (rng.random(n) < 0.5))) & ~at_lo
        x, _ = budget_box_settle(q, r, np.zeros(n), upper, at_lo, at_hi)
        if x is not None:
            assert np.all(np.isfinite(x))
            assert budget_box_kkt_gap(q, r, upper, x) <= 0.0
            assert np.max(np.abs(x - best)) <= 1e-9


def sector_book(n, seed=0):
    """A universe and its sector-capped budget QP: k = 3 sectors of every
    third asset, each capped at ``cap``, and asset caps of 0.25."""
    universe = perfbench_universe().factor_universe(np.random.default_rng(seed), n)
    sectors = np.vstack([np.arange(n) % 3 == k for k in range(3)]).astype(float)

    def problem(gamma, cap=0.45):
        return QpProblem(q=universe.factor, r=gamma * universe.mu, a=np.ones((1, n)), b=np.ones(1),
                         c=sectors, d=np.full(3, cap), lower=np.zeros(n),
                         upper=np.full(n, 0.25))

    return universe, sectors, problem


def cold_solve(n, gamma, cap=0.45, seed=0):
    """The bridge's answer on a fresh copy of sector_book's universe."""
    _, _, problem = sector_book(n, seed)
    return _Bridge(problem(gamma, cap)).solve()[0]


@pytest.fixture
def admm_calls(monkeypatch):
    """The reports of the bridge's ADMM solves, in call order."""
    reports, real = [], qp.admm_solve

    def spy(*args, **kwargs):
        x, z, report = real(*args, **kwargs)
        reports.append(report)
        return x, z, report

    monkeypatch.setattr(qp, "admm_solve", spy)
    return reports


class TestWarmPolish:
    """A bridge QP on a PenaltyFactor that keeps an active set for its rows
    and bounds polishes from it before any ADMM iteration."""

    def test_a_second_account_on_the_universe_runs_no_admm(self, admm_calls):
        n = 12
        cold = {gamma: cold_solve(n, gamma) for gamma in (0.2, 0.15)}
        admm_calls.clear()
        u, sectors, problem = sector_book(n)
        box = dict(lower=np.zeros(n), upper=np.full(n, 0.25), ineq=(sectors, np.full(3, 0.45)))
        portfolios.mvo_gamma(u, 0.1, **box)
        assert len(admm_calls) == 1 and admm_calls[0].iterations >= 1  # the first is cold
        w = portfolios.mvo_gamma(u, 0.2, **box).w
        assert len(admm_calls) == 1  # the second ran no ADMM
        assert np.max(np.abs(w - cold[0.2])) <= 1e-12
        x, report = _Bridge(problem(0.15)).solve()
        assert report.polished and report.iterations == 0 and len(admm_calls) == 1
        assert np.max(np.abs(x - cold[0.15])) <= 1e-12

    def test_a_guess_that_fails_falls_back_to_admm(self, admm_calls):
        # at n = 30 the active set of gamma = 10 is more than POLISH_ROUNDS
        # corrections away from that of gamma = 0
        n = 30
        u, _, problem = sector_book(n)
        _Bridge(problem(10.0)).solve()
        assert len(u.factor.active_sets) == 1
        x, report = _Bridge(problem(0.0)).solve()
        assert len(admm_calls) == 2 and report.iterations >= 1 and report.polished
        assert np.array_equal(x, cold_solve(n, 0.0))

    def test_other_caps_get_no_warm_try(self, monkeypatch, admm_calls):
        n = 12
        u, _, problem = sector_book(n)
        _Bridge(problem(0.1)).solve()
        tries, real = [], qp._settle_on
        monkeypatch.setattr(qp, "_settle_on", lambda *args: tries.append(args) or real(*args))
        x, report = _Bridge(problem(0.1, cap=0.4)).solve()
        assert report.iterations >= 1 and len(admm_calls) == 2
        # every _settle_on call came from ADMM's polish, none from an active set kept
        assert len(tries) == report.iterations.bit_length()
        assert np.array_equal(x, cold_solve(n, 0.1, cap=0.4))
        assert len(u.factor.active_sets) == 2

    def test_the_memo_stays_bounded(self):
        n = 12
        u, _, problem = sector_book(n)
        caps = np.linspace(0.4, 0.6, CACHE_ENTRIES + 3)
        for cap in caps:
            _Bridge(problem(0.1, cap)).solve()
        assert len(u.factor.active_sets) == CACHE_ENTRIES
        newest = qp._ClippedSplit(problem(0.1, caps[-1])).key
        oldest = qp._ClippedSplit(problem(0.1, caps[0])).key
        assert list(u.factor.active_sets)[-1] == newest and oldest not in u.factor.active_sets

    @settings(max_examples=15, deadline=None)
    @given(accounts=st.lists(st.tuples(st.floats(0.0, 2.0), st.sampled_from([0.4, 0.45, 0.6])),
                             min_size=2, max_size=6))
    def test_a_book_matches_fresh_universe_cold_solves(self, accounts):
        n = 12
        _, _, problem = sector_book(n)
        for gamma, cap in accounts:
            x = _Bridge(problem(gamma, cap)).solve()[0]
            assert np.max(np.abs(x - cold_solve(n, gamma, cap))) <= 1e-10


def return_floor_qp(floor):
    """Long-only minimum variance on parameter set 1 with mu_i = 0.02 + 0.01 i
    and the return row -mu'x <= -floor."""
    cov = data.parameter_set_1().universe.cov
    mu = 0.02 + 0.01 * np.arange(8)
    return QpProblem(q=cov, r=np.zeros(8), a=np.ones((1, 8)), b=[1.0], c=-mu[None, :],
                     d=[-floor], lower=np.zeros(8), upper=np.ones(8))


INFEASIBLE_ROWS = [
    return_floor_qp(0.5),  # above the largest expected return
    # a half-space parallel to the budget plane, on its far side
    QpProblem(q=np.eye(8), r=np.full(8, 0.125), a=np.ones((1, 8)), b=[1.0],
              c=np.ones((1, 8)), d=[0.5], lower=np.zeros(8), upper=np.ones(8)),
]


class TestClippedSplit:
    @pytest.mark.parametrize("floor, tail", [(0.085, (0.5, 0.5)), (0.089, (0.1, 0.9))])
    def test_return_floor_vertex(self, floor, tail):
        # optima confirmed by SLSQP; ADMM alone stalled here for 20,000 iterations
        x, report = qp_solve(return_floor_qp(floor), return_report=True)
        expected = np.concatenate([np.zeros(6), tail])
        assert np.max(np.abs(x - expected)) <= 1e-8
        assert report.converged and report.iterations <= 1000

    @pytest.mark.parametrize("problem", INFEASIBLE_ROWS)
    def test_infeasible_rows_are_certified(self, problem):
        with pytest.raises(InfeasibleSuspected) as err:
            qp_solve(problem)
        assert err.value.report.status == "infeasible"
        assert err.value.report.iterations <= 1000
        assert err.value.last is not None

    @pytest.mark.parametrize("problem, iterations", list(zip(INFEASIBLE_ROWS, (200, 40))))
    def test_infeasible_rows_certify_at_a_fixed_iteration(self, problem, iterations):
        # the certificate reads the relaxed change of the dual; the plain
        # loop certified these at iterations 120 and 10
        with pytest.raises(InfeasibleSuspected) as err:
            qp_solve(problem)
        assert err.value.report.iterations == iterations

    def test_diagonal_and_dense_q_agree_at_n_300(self):
        rng = np.random.default_rng(11)
        n = 300
        diag = rng.uniform(0.5, 3.0, n)
        r = rng.standard_normal(n)
        c = rng.standard_normal((3, n))
        d = np.full(3, -1.0)
        x_diag, rep = qp_solve(QpProblem(q=diag, r=r, c=c, d=d, lower=-1.0, upper=1.0),
                               return_report=True)
        x_dense = qp_solve(QpProblem(q=np.diag(diag), r=r, c=c, d=d, lower=-1.0, upper=1.0))
        assert np.max(np.abs(x_diag - x_dense)) <= 1e-8
        assert np.max(c @ x_diag - d) <= 1e-9
        assert rep.stationarity_residual <= 1e-8

    def test_report_carries_stationarity_residual(self):
        rng = np.random.default_rng(12)
        p = random_box_qp(rng, 6)
        x, report = qp_solve(p, return_report=True)
        assert report.stationarity_residual == stationarity_residual(p, x, cfg=qp.CERTIFICATE_CFG)
        assert report.stationarity_residual <= 1e-6

    def test_certificate_that_does_not_settle_stays_inside(self, monkeypatch):
        def unsettled(*args, **kwargs):
            raise MaxCyclesExceeded("projection did not settle")

        monkeypatch.setattr(qp, "stationarity_residual", unsettled)
        x, report = qp_solve(return_floor_qp(0.085), return_report=True)
        assert np.isnan(report.stationarity_residual)
        assert abs(x[6] - 0.5) <= 1e-8

    def test_linear_projection_matches_clipped_budget(self):
        v = np.array([0.9, 0.5, -0.2, 0.1])
        x = linear_projection(np.ones((1, 4)), np.ones(1), None, None, 0.0, 1.0, v)
        # the projection onto the simplex: v - s clipped at zero, s = 0.2
        assert np.max(np.abs(x - [0.7, 0.3, 0.0, 0.0])) <= 1e-10

    def test_linear_projection_runs_no_certificate_sweep(self, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("a projection ran the stationarity sweep")

        monkeypatch.setattr(qp, "stationarity_residual", sweep)
        v = np.array([0.9, 0.5, -0.2, 0.1])
        x = linear_projection(np.ones((1, 4)), np.ones(1), None, None, 0.0, 1.0, v)
        assert np.max(np.abs(x - [0.7, 0.3, 0.0, 0.0])) <= 1e-10
        with pytest.raises(InfeasibleSuspected):  # caps of 0.2 cannot sum to 1
            linear_projection(np.ones((1, 4)), np.ones(1), None, None, 0.0, 0.2, v)


class TestQpDual:
    def test_identity(self):
        qbar, rbar = qp_dual(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2))
        assert np.allclose(qbar, np.eye(2))
        assert np.allclose(rbar, 0.0)

    def test_scalar_kkt_oracle(self):
        # min x^2 s.t. x >= 1: primal x* = 1 with value 1
        qbar, rbar = qp_dual(np.array([[2.0]]), np.zeros(1), np.array([[-1.0]]),
                             np.array([-1.0]))
        assert np.allclose(qbar, [[0.5]])
        assert np.allclose(rbar, [1.0])
        lam = qp_solve(QpProblem(q=qbar, r=rbar, lower=0.0, upper=np.inf))
        assert abs(lam[0] - 2.0) <= 1e-8
        x = (0.0 - (-1.0) * lam[0]) / 2.0
        assert abs(x - 1.0) <= 1e-8
        dual_value = -(0.5 * lam @ qbar @ lam - lam @ rbar)
        assert abs(dual_value - 1.0) <= 1e-8

    def test_duality_gap_random(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = rng.standard_normal((n, n))
            q = m @ m.T + n * np.eye(n)
            r = rng.standard_normal(n)
            hi = np.abs(rng.standard_normal(n)) + 0.5
            p = QpProblem(q=q, r=r, lower=-hi, upper=hi)
            s, t = canonicalize(p)
            x = qp_solve(p)
            primal = p.objective(x)
            qbar, rbar = qp_dual(q, r, s, t)
            lam = qp_solve(QpProblem(q=qbar + 1e-10 * np.eye(s.shape[0]), r=rbar,
                                     lower=0.0, upper=np.inf))
            offset = 0.5 * float(r @ solve_spd(q, r))
            dual = -(0.5 * lam @ qbar @ lam - lam @ rbar) - offset
            assert abs(primal - dual) <= 1e-6

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            qp_dual(np.zeros((2, 2)), np.zeros(2), np.eye(2), np.zeros(2))
