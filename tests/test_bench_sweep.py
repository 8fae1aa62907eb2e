import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_sweep.py"


def bench_sweep():
    spec = importlib.util.spec_from_file_location("bench_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_at_n8_writes_every_case(tmp_path, capsys):
    from proxalloc import portfolios, qp

    real = portfolios.admm_solve
    argv = ["--sizes", "8", "--extra", "12", "risk_budgeting * admm", "--label", "t",
            "--out", str(tmp_path)]
    assert bench_sweep().main(argv) == 0
    assert portfolios.admm_solve is real and qp.admm_solve is real  # the spy is undone
    path = tmp_path / "BENCH_t.json"
    assert capsys.readouterr().out.strip() == str(path)
    result = json.loads(path.read_text())
    assert result["label"] == "t" and result["repeat"] == 3
    assert "OPENBLAS_NUM_THREADS" in result["machine"]["threads"]
    assert 0.0 < result["import_s"] < 60.0
    for row in result["reproduce"].values():
        assert row["exit_code"] == 0 and 0.0 < row["seconds"] < 60.0
        assert 0.0 < row["fresh_s"] < 60.0  # import included
    cases = {(row["case"], row["n"]): row for row in result["cases"]}
    assert len(cases) == 25 and len([key for key in cases if key[1] == 8]) == 23
    # --extra ran the two matching cases at n = 12, and nothing else
    assert {key for key in cases if key[1] != 8} == {
        ("risk_budgeting stdev admm", 12), ("risk_budgeting vol admm", 12)}
    for name, row in cases.items():
        assert "error" not in row, (name, row)
        assert row["wall_s"] > 0.0 and len(row["weights_sha256"]) == 64
        assert row["scaled_s"] > 0.0 and row["budget_gap"] <= 1e-2 and row["box_gap"] <= 1e-9
        # the gmv, mvo_target, gmv_herfindahl and index_sampling rows meet their
        # KKT gate and the erc and risk_budgeting rows their RC-spread gate; no
        # other row has one
        if name[0] in ("gmv", "erc") or name[0].startswith(
                ("mvo_target", "gmv_herfindahl", "index_sampling", "risk_budgeting")):
            gate = 1e-8 if name[0] == "erc" or name[0].startswith("risk_budgeting") else 1e-9
            assert row["kkt_gate"] == gate and row["kkt_residual"] <= gate, (name, row)
        else:
            assert "kkt_residual" not in row
        assert all(isinstance(it, int) and isinstance(done, bool) for it, done in row["admm"])
    # the volatility target walks the critical line down from the frontier's top: no ADMM
    assert cases["mvo_target vol 1.1x gmv", 8]["admm"] == []
    assert cases["erc", 8]["admm"] == []  # coordinate descent: no ADMM solve
    # a book's first account runs ADMM; the seven after it polish from its active set
    assert [done for _, done in cases["mvo_gamma sector book x8", 8]["admm"]] == [True]
    # the ADMM engine's polish certifies its start, before any ADMM iteration
    assert cases["risk_budgeting vol admm", 12]["admm"] == []
    # and so does the Herfindahl polish, at the split's first iterate
    assert cases["gmv_herfindahl halfway", 8]["admm"] == []


def test_frontier_residual_passes_frontier_points_and_flags_others():
    import numpy as np

    from proxalloc import portfolios

    tool = bench_sweep()
    u = tool.universe(tool._perfbench("universe"), 30)
    box = dict(lower=np.zeros(30), upper=np.ones(30))
    gmv = portfolios.mvo_gamma(u, 0.0, **box).w
    point = portfolios.mvo_target(u, target_return=float(np.percentile(u.mu, 70)), **box).w
    assert tool.frontier_residual(u, gmv, fit_t=False) <= 1e-9
    assert tool.frontier_residual(u, point, fit_t=True) <= 1e-9
    assert tool.frontier_residual(u, point, fit_t=False) > 1e-4  # not the GMV: t > 0
    assert tool.frontier_residual(u, np.full(30, 1.0 / 30), fit_t=True) > 1e-4


def test_herfindahl_residual_passes_the_answer_at_n8_and_flags_others():
    import numpy as np

    from proxalloc import portfolios, qp

    tool = bench_sweep()
    u = tool.universe(tool._perfbench("universe"), 8)
    gmv = portfolios.mvo_gamma(u, 0.0, lower=np.zeros(8), upper=np.ones(8)).w
    bets = 0.5 * (portfolios.effective_bets(gmv) + 8)
    w, lam = portfolios.gmv_herfindahl(u, min_bets=bets)
    assert 0.0 < lam < np.inf
    assert tool.herfindahl_residual(u, w.w, lam, bets) <= qp.POLISH_TOL
    assert tool.herfindahl_residual(u, w.w, 2.0 * lam, bets) > 1e-4  # a wrong multiplier
    assert tool.herfindahl_residual(u, w.w, 0.0, bets) > 1e-4  # the ridge dropped
    assert tool.herfindahl_residual(u, gmv, 0.0, bets) > 1e-4  # outside the ball
    # a looser floor: the same point, inside its ball, with the same lam
    assert tool.herfindahl_residual(u, w.w, lam, bets - 0.5) > 1e-4
    # the tighter floor's equal share, the limit lam = inf
    assert tool.herfindahl_residual(u, np.full(8, 1.0 / 8), np.inf, 8.0) <= qp.POLISH_TOL


def test_tracking_residual_and_rc_spread_pass_the_answers_and_flag_others():
    import numpy as np

    from proxalloc import portfolios
    from proxalloc.portfolios import Volatility

    tool = bench_sweep()
    u = tool.universe(tool._perfbench("universe"), 12)
    b = np.random.default_rng(3).dirichlet(np.ones(12))
    w = portfolios.index_sampling(u, b, 4).w
    assert tool.tracking_residual(u, w, b) <= 1e-9
    assert tool.tracking_residual(u, w, np.full(12, 1.0 / 12)) > 1e-4  # another benchmark
    held = np.flatnonzero(w)
    moved = w.copy()
    moved[held[:2]] += [1e-3, -1e-3]  # on the budget and the support, off the optimum
    assert tool.tracking_residual(u, moved, b) > 1e-6
    erc = portfolios.erc(u).w
    assert tool.rc_spread(u, erc, Volatility()) <= 1e-8
    assert tool.rc_spread(u, np.full(12, 1.0 / 12), Volatility()) > 1e-4
