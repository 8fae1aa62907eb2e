import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_diff.py"


def bench_diff():
    spec = importlib.util.spec_from_file_location("bench_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_file(path, cases):
    path.write_text(json.dumps({"label": path.stem, "cases": cases}))
    return str(path)


def row(case, n, sha="a" * 64, admm=((1, True),), wall_s=0.01):
    return {"case": case, "n": n, "wall_s": wall_s, "admm": [list(p) for p in admm],
            "weights_sha256": sha}


def test_prints_each_differing_row_and_a_summary(tmp_path, capsys):
    old = sweep_file(tmp_path / "old.json", [
        row("gmv", 8), row("gmv", 100), row("mdp entropy", 8), row("erc", 8, admm=()),
        row("index_sampling", 8)])
    new = sweep_file(tmp_path / "new.json", [
        row("gmv", 8, wall_s=9.0),  # a time alone is no difference
        row("gmv", 100, sha="b" * 64),
        row("mdp entropy", 8, admm=((2, True),)),
        {"case": "erc", "n": 8, "error": "MaxIterExceeded: cd"},
        row("kl", 8)])
    assert bench_diff().main([old, new]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"gmv n=100: weights {'a' * 64} -> {'b' * 64}",
        "mdp entropy n=8: ADMM solves [[1, True]] -> [[2, True]]",
        f"erc n=8: weights {'a' * 64} -> None",
        "erc n=8: ADMM solves [] -> None",
        "erc n=8: error None -> MaxIterExceeded: cd",
        "index_sampling n=8: only in OLD",
        "kl n=8: only in NEW",
        "4 rows in both files: 2 differ in weights, 2 differ in ADMM solves, "
        "1 differ in error; 1 only in OLD, 1 only in NEW"]


def test_equal_files_print_the_summary_alone(tmp_path, capsys):
    cases = [row("gmv", 8), row("erc", 8, admm=())]
    old = sweep_file(tmp_path / "old.json", cases)
    new = sweep_file(tmp_path / "new.json", cases)
    assert bench_diff().main([old, new]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "2 rows in both files: 0 differ in weights, 0 differ in ADMM solves, "
        "0 differ in error; 0 only in OLD, 0 only in NEW"]


def test_reports_a_residual_that_passes_in_old_and_fails_in_new(tmp_path, capsys):
    def checked(case, residual, **kwargs):
        return {**row(case, 8, **kwargs), "kkt_residual": residual, "kkt_gate": 1e-9}

    old = sweep_file(tmp_path / "old.json", [
        checked("gmv", 1e-15), checked("mvo_target a", 1e-15), checked("mvo_target b", 1e-6),
        checked("mvo_target c", 1e-15), row("erc", 8)])
    new = sweep_file(tmp_path / "new.json", [
        checked("gmv", 2e-9, sha="b" * 64),  # the hash moved too
        checked("mvo_target a", 1e-12),  # still within its gate
        checked("mvo_target b", 1e-5),  # failed in OLD already
        {"case": "mvo_target c", "n": 8, "error": "TargetUnreachable: x"},
        row("erc", 8)])
    assert bench_diff().main([old, new]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"gmv n=8: weights {'a' * 64} -> {'b' * 64}",
        "gmv n=8: KKT residual 1e-15 passes its gate 1e-09 in OLD, 2e-09 fails it in NEW",
        f"mvo_target c n=8: weights {'a' * 64} -> None",
        "mvo_target c n=8: ADMM solves [[1, True]] -> None",
        "mvo_target c n=8: error None -> TargetUnreachable: x",
        "mvo_target c n=8: KKT residual 1e-15 passes its gate 1e-09 in OLD, None fails it in NEW",
        "5 rows in both files: 2 differ in weights, 1 differ in ADMM solves, "
        "1 differ in error; 0 only in OLD, 0 only in NEW"]
