"""Argument coercion has one owner, linalg: its rules, every catalogue
argument that goes through them, and a guard that keeps it the only owner."""

import ast
from pathlib import Path

import numpy as np
import pytest

from proxalloc import linalg
from proxalloc.cd import (ccd_erc, ccd_qp_box, ccd_qp_logbarrier, ccd_rb_stdev, cd_lasso,
                          projected_cd)
from proxalloc.errors import DimensionMismatch, NonFiniteValue, ProxallocError
from proxalloc.prox import (
    Box,
    LpBall,
    LpBallComplement,
    project,
    prox_bid_ask,
    prox_kl,
    prox_log_barrier,
    prox_lp_norm,
    prox_max,
    prox_scale_translate,
    prox_sum_k_largest,
    soft_threshold,
    soft_threshold_two_sided,
    truncate,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "proxalloc"

V = np.array([0.3, -1.2, 2.0])
N = V.size
Q = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
X_MAT = np.array([[1.0, 0.2], [0.1, 1.0], [0.5, 0.5], [0.3, -0.4]])
Y = np.array([0.4, -0.2, 0.1, 0.3])

# (function, argument) -> (call with that argument replaced, a good value):
# every per-coordinate argument of a public prox or cd function, and every
# cd vector whose length the solver's matrix, R or x_mat sets
BAD_INPUT = {
    ("soft_threshold", "lam"): (lambda a: soft_threshold(V, a), 0.5),
    ("soft_threshold_two_sided", "lam_minus"):
        (lambda a: soft_threshold_two_sided(V, a, 0.1), 0.5),
    ("soft_threshold_two_sided", "lam_plus"):
        (lambda a: soft_threshold_two_sided(V, 0.1, a), 0.5),
    ("truncate", "lower"): (lambda a: truncate(V, a, 5.0), -1.0),
    ("truncate", "upper"): (lambda a: truncate(V, -5.0, a), 1.0),
    ("prox_log_barrier", "weights"): (lambda a: prox_log_barrier(V, 0.5, a), 1.0),
    ("prox_kl", "reference"): (lambda a: prox_kl(V, 0.5, a), 0.3),
    ("prox_bid_ask", "bid_cost"): (lambda a: prox_bid_ask(V, 0.5, a, 0.1, 0.2), 0.1),
    ("prox_bid_ask", "ask_cost"): (lambda a: prox_bid_ask(V, 0.5, 0.1, a, 0.2), 0.1),
    ("prox_bid_ask", "anchor"): (lambda a: prox_bid_ask(V, 0.5, 0.1, 0.1, a), 0.2),
    ("prox_scale_translate", "b"):
        (lambda a: prox_scale_translate(lambda u: u, 2.0, a, V), 0.1),
    ("project LpBall", "center"): (lambda a: project(LpBall(2, a, 1.0), V), 0.0),
    ("project LpBallComplement", "center"):
        (lambda a: project(LpBallComplement(1, a, 1.0), V), 0.0),
    ("ccd_qp_box", "lower"): (lambda a: ccd_qp_box(Q, V, a, 1.0), -1.0),
    ("ccd_qp_box", "upper"): (lambda a: ccd_qp_box(Q, V, -1.0, a), 1.0),
    ("ccd_qp_box", "r"): (lambda a: ccd_qp_box(Q, a, -1.0, 1.0), V),
    ("ccd_qp_box", "x0"): (lambda a: ccd_qp_box(Q, V, -1.0, 1.0, x0=a), np.zeros(N)),
    ("ccd_qp_logbarrier", "lam_vec"): (lambda a: ccd_qp_logbarrier(Q, V, a, np.ones(N)), 0.1),
    ("ccd_qp_logbarrier", "r"): (lambda a: ccd_qp_logbarrier(Q, a, 0.1, np.ones(N)), V),
    ("ccd_qp_logbarrier", "x0"): (lambda a: ccd_qp_logbarrier(Q, V, 0.1, a), np.ones(N)),
    ("ccd_erc", "lam"): (lambda a: ccd_erc(Q, a, np.ones(N)), 0.1),
    ("ccd_erc", "x0"): (lambda a: ccd_erc(Q, 0.1, a), np.ones(N)),
    ("ccd_rb_stdev", "mu"): (lambda a: ccd_rb_stdev(a, 0.0, 1.0, Q, np.ones(N)), np.zeros(N)),
    ("ccd_rb_stdev", "budgets"):
        (lambda a: ccd_rb_stdev(np.zeros(N), 0.0, 1.0, Q, a), np.ones(N)),
    ("cd_lasso", "y"): (lambda a: cd_lasso(X_MAT, a, 0.1), Y),
    ("cd_lasso", "x0"): (lambda a: cd_lasso(X_MAT, Y, 0.1, x0=a), np.zeros(2)),
    ("projected_cd", "x0"): (lambda a: projected_cd(lambda x: x, [Box(-1.0, 1.0)] * N, 0.5, a),
                             np.ones(N)),
}

# the three cases, built from an argument's good value at its length n: a
# NaN entry, one entry too many and an (n, 1) column
CASES = {
    "nan": (lambda good, n: np.where(np.arange(n) == 1, np.nan, np.broadcast_to(good, n)),
            NonFiniteValue),
    "wrong length": (lambda good, n: np.resize(np.broadcast_to(good, n), n + 1),
                     DimensionMismatch),
    "column": (lambda good, n: np.broadcast_to(good, n).reshape(n, 1), DimensionMismatch),
}


class TestBadInputTable:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("key", BAD_INPUT, ids=" ".join)
    def test_bad_argument_raises_the_typed_error(self, key, case):
        call, good = BAD_INPUT[key]
        make, error = CASES[case]
        with pytest.raises(error):
            call(make(good, np.size(good) if np.ndim(good) else N))

    @pytest.mark.parametrize("key", BAD_INPUT, ids=" ".join)
    def test_good_argument_runs(self, key):
        # the table is not vacuous: with the good value each call succeeds
        call, good = BAD_INPUT[key]
        assert np.isfinite(call(good)).all()


SCALARS = {
    "prox_max lam": lambda s: prox_max(V, s),
    "prox_lp_norm lam": lambda s: prox_lp_norm(V, s, 2),
    "prox_log_barrier lam": lambda s: prox_log_barrier(V, s),
    "prox_kl lam": lambda s: prox_kl(V, s, 1.0),
    "prox_bid_ask lam": lambda s: prox_bid_ask(V, s, 0.1, 0.1, 0.0),
    "prox_sum_k_largest lam": lambda s: prox_sum_k_largest(V, s, 2),
    "prox_scale_translate a": lambda s: prox_scale_translate(lambda u: u, s, 0.0, V),
    "cd_lasso lam": lambda s: cd_lasso(X_MAT, Y, s),
    "ccd_erc lam": lambda s: ccd_erc(Q, s, np.ones(N)),
    "ccd_rb_stdev xi": lambda s: ccd_rb_stdev(np.zeros(N), 0.0, s, Q, np.ones(N)),
    "ccd_rb_stdev xi polished":
        lambda s: ccd_rb_stdev(np.zeros(N), 0.0, s, Q, np.ones(N), polish=True),
    "ccd_rb_stdev rate": lambda s: ccd_rb_stdev(np.zeros(N), s, 1.0, Q, np.ones(N)),
    "projected_cd eta": lambda s: projected_cd(lambda x: x, [Box(-1.0, 1.0)] * N, s, np.ones(N)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("case", SCALARS)
def test_non_finite_scalar_raises_at_entry(case, bad, monkeypatch):
    # the cd solvers used to run cycle 1 and raise InfeasibleSuspected on
    # its NaN iterate, and the proxes returned NaN
    from proxalloc import cd

    def no_cycles(*args, **kwargs):
        raise AssertionError("a cycle ran")

    monkeypatch.setattr(cd, "_run_cycles", no_cycles)
    with pytest.raises(NonFiniteValue):
        SCALARS[case](bad)


class TestRules:
    def test_non_finite_value_is_a_typed_value_error(self):
        assert issubclass(NonFiniteValue, ProxallocError)
        assert issubclass(NonFiniteValue, ValueError)

    def test_exact_length(self):
        assert linalg.as_vector([1, 2], "w", 2).tolist() == [1.0, 2.0]
        with pytest.raises(DimensionMismatch, match="w has 3 entries, not 2"):
            linalg.as_vector([1, 2, 3], "w", 2)
        assert linalg.as_matrix(np.eye(2), "q", 2).shape == (2, 2)
        for m in (np.eye(3), np.ones((2, 3))):
            with pytest.raises(DimensionMismatch, match=r"q has shape .*, not \(2, 2\)"):
                linalg.as_matrix(m, "q", 2)

    def test_scalar(self):
        assert linalg.as_scalar(np.float64(2)) == 2.0
        with pytest.raises(DimensionMismatch, match="lam must be a scalar"):
            linalg.as_scalar([0.5], "lam")
        with pytest.raises(NonFiniteValue, match="lam is nan"):
            linalg.as_scalar(np.nan, "lam")

    def test_per_coordinate_broadcasts_a_scalar_or_one_entry(self):
        for value in (0.5, [0.5], np.full(3, 0.5)):
            out = linalg.per_coordinate(value, 3, "lam")
            assert out.shape == (3,) and out.tolist() == [0.5] * 3
        with pytest.raises(NonFiniteValue, match="lam contains NaN or Inf"):
            linalg.per_coordinate(np.inf, 3, "lam")
        with pytest.raises(DimensionMismatch, match=r"lam has shape \(3, 1\), not a scalar"):
            linalg.per_coordinate(np.ones((3, 1)), 3, "lam")

    def test_bound_allows_inf_and_fills_none(self):
        assert linalg.as_bound(None, -np.inf, 2).tolist() == [-np.inf, -np.inf]
        assert linalg.as_bound(np.inf, 0.0, 2).tolist() == [np.inf, np.inf]
        with pytest.raises(NonFiniteValue, match="upper contains NaN"):
            linalg.as_bound([1.0, np.nan], 1.0, 2, "upper")
        with pytest.raises(DimensionMismatch):
            linalg.as_bound([1.0, 1.0, 1.0], 1.0, 2, "upper")


def test_soft_threshold_of_a_column_lam_is_not_a_matrix():
    # an (n, 1) lam used to broadcast v of shape (n,) into an n x n answer
    with pytest.raises(DimensionMismatch):
        soft_threshold(V, np.full((N, 1), 0.1))


def test_ccd_qp_box_keeps_a_nan_bound_out():
    # a NaN bound used to drop out of min/max and leave the answer unbounded
    with pytest.raises(NonFiniteValue):
        ccd_qp_box(Q, 10.0 * V, np.nan, 1.0)


def broadcast_calls(path):
    """Line numbers of the calls to a function named broadcast_to in a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "attr", None) == "broadcast_to"
                 or getattr(node.func, "id", None) == "broadcast_to")]


def test_linalg_is_the_only_module_that_broadcasts():
    found = {path.name: broadcast_calls(path) for path in sorted(SRC.glob("*.py"))
             if path.name != "linalg.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert broadcast_calls(SRC / "linalg.py")  # the guard still sees a call
