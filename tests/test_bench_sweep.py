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
        # the gmv and mvo_target rows meet their KKT gate; no other row has one
        if name[0] == "gmv" or name[0].startswith("mvo_target"):
            assert row["kkt_residual"] <= row["kkt_gate"], (name, row)
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
