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
    assert bench_sweep().main(["--sizes", "8", "--label", "t", "--out", str(tmp_path)]) == 0
    assert portfolios.admm_solve is real and qp.admm_solve is real  # the spy is undone
    path = tmp_path / "BENCH_t.json"
    assert capsys.readouterr().out.strip() == str(path)
    result = json.loads(path.read_text())
    assert result["label"] == "t" and result["repeat"] == 3
    assert "OPENBLAS_NUM_THREADS" in result["machine"]["threads"]
    assert 0.0 < result["import_s"] < 60.0
    assert {row["exit_code"] for row in result["reproduce"].values()} == {0}
    cases = {row["case"]: row for row in result["cases"]}
    assert len(cases) == 22 and {row["n"] for row in cases.values()} == {8}
    for name, row in cases.items():
        assert "error" not in row, (name, row)
        assert row["wall_s"] > 0.0 and len(row["weights_sha256"]) == 64
        assert all(isinstance(it, int) and isinstance(done, bool) for it, done in row["admm"])
    # the volatility target runs the GMV's bridge solve, then walks the critical line
    assert cases["mvo_target vol 1.1x gmv"]["admm"] == [[1, True]]
    assert cases["erc"]["admm"] == []  # coordinate descent: no ADMM solve
