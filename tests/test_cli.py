import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from proxalloc.cli import EXIT_DOMAIN, EXIT_INPUT, EXIT_OK, main

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(*args):
    """Run the interpreter on ``args`` in a fresh process with the source tree on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_import_proxalloc_leaves_the_cli_unloaded():
    out = fresh_python("-c", "import sys, proxalloc; "
                       "print([m for m in ('proxalloc.cli', 'argparse') if m in sys.modules])")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
    # run as a module, the CLI is not imported twice, so runpy has nothing to warn of
    out = fresh_python("-W", "error::RuntimeWarning", "-m", "proxalloc.cli", "--help")
    assert out.returncode == 0 and out.stdout.startswith("usage: proxalloc"), out.stderr


def write_payload(tmp_path, payload, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestProxCommand:
    def test_soft_threshold(self, tmp_path):
        inp = write_payload(tmp_path, {"prox": "soft_threshold",
                                       "v": [3.0, -0.5], "lambda": 1.0})
        out = tmp_path / "out.json"
        assert main(["prox", "--input", inp, "--output", str(out)]) == EXIT_OK
        result = read_json(out)
        assert result["result"] == [2.0, 0.0]

    def test_unknown_prox_is_input_error(self, tmp_path):
        inp = write_payload(tmp_path, {"prox": "nope", "v": [1.0]})
        assert main(["prox", "--input", inp]) == EXIT_INPUT

    def test_kl_prox_matches_module(self, tmp_path):
        from proxalloc.prox import prox_kl

        inp = write_payload(tmp_path, {"prox": "kl", "v": [1.0, 0.5],
                                       "lambda": 1.0, "reference": [1.0, 1.0]})
        out = tmp_path / "out.json"
        assert main(["prox", "--input", inp, "--output", str(out)]) == EXIT_OK
        result = read_json(out)
        expected = prox_kl(np.array([1.0, 0.5]), 1.0, np.ones(2))
        assert np.allclose(result["result"], expected)
        assert result["stationarity_residual"] <= 1e-9

    def test_domain_error_exit_code(self, tmp_path):
        inp = write_payload(tmp_path, {"prox": "soft_threshold",
                                       "v": [1.0], "lambda": -2.0})
        assert main(["prox", "--input", inp]) == EXIT_DOMAIN

    def test_json_roundtrip_bitwise(self, tmp_path):
        from proxalloc.prox import prox_log_barrier

        v = [0.31415926535, -2.718281828, 1.0]
        inp = write_payload(tmp_path, {"prox": "log_barrier", "v": v,
                                       "lambda": 0.7})
        out = tmp_path / "out.json"
        main(["prox", "--input", inp, "--output", str(out)])
        result = np.asarray(read_json(out)["result"])
        expected = prox_log_barrier(np.asarray(v), 0.7)
        assert np.array_equal(result, expected)  # bitwise round-trip


class TestProjectCommand:
    def test_hyperplane(self, tmp_path):
        inp = write_payload(tmp_path, {"set": "hyperplane", "a": [1.0, 1.0],
                                       "b": 1.0, "v": [1.0, 1.0]})
        out = tmp_path / "out.json"
        assert main(["project", "--input", inp, "--output", str(out)]) == EXIT_OK
        assert read_json(out)["result"] == [0.5, 0.5]

    def test_unknown_set(self, tmp_path):
        inp = write_payload(tmp_path, {"set": "mystery", "v": [1.0]})
        assert main(["project", "--input", inp]) == EXIT_INPUT


class TestQpCommand:
    def test_budget_qp(self, tmp_path):
        inp = write_payload(tmp_path, {
            "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [0.0, 0.0],
            "A": [[1.0, 1.0]], "B": [1.0],
        })
        out = tmp_path / "out.json"
        assert main(["qp", "--input", inp, "--output", str(out)]) == EXIT_OK
        result = read_json(out)
        assert np.allclose(result["solution"], [0.5, 0.5])

    def test_a_zero_phi_is_checked_not_ignored(self, tmp_path, capsys):
        inp = write_payload(tmp_path, {"Q": np.eye(2).tolist(), "R": [0.0, 0.0],
                                       "A": [[1.0, 1.0]], "B": [1.0], "lower": [0.0, 0.0]})
        assert main(["qp", "--input", inp, "--phi", "0"]) == EXIT_DOMAIN
        assert "phi0 must be positive" in capsys.readouterr().err

    def test_a_zero_iteration_cap_runs_no_admm_iteration(self, tmp_path, monkeypatch, capsys):
        from proxalloc import qp

        iterations = []
        real = qp.admm_solve

        def spy(*args, **kwargs):
            x, y, report = real(*args, **kwargs)
            iterations.append(report.iterations)
            return x, y, report

        monkeypatch.setattr(qp, "admm_solve", spy)
        inp = write_payload(tmp_path, {"Q": [[2.0, 0.5], [0.5, 1.0]], "R": [1.0, 0.0],
                                       "A": [[1.0, 1.0]], "B": [1.0], "lower": [0.0, 0.0]})
        assert main(["qp", "--input", inp, "--max-iter", "0"]) == EXIT_DOMAIN
        assert iterations == [0]
        assert "after 0 iterations" in capsys.readouterr().err

    def test_mis_shaped_block_is_a_one_line_domain_error(self, tmp_path, capsys):
        inp = write_payload(tmp_path, {"Q": np.eye(3).tolist(), "R": [1.0, 1.0]})
        assert main(["qp", "--input", inp]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("domain error: Q") and err.count("\n") == 1


class TestAllocateCommand:
    def test_erc_weights(self, tmp_path):
        from proxalloc.data import ERC_WEIGHTS_SET1

        inp = write_payload(tmp_path, {"model": "erc", "set": 1})
        out = tmp_path / "out.json"
        assert main(["allocate", "--input", inp, "--output", str(out)]) == EXIT_OK
        result = read_json(out)
        weights = 100 * np.asarray(result["weights"])
        assert np.max(np.abs(weights - ERC_WEIGHTS_SET1)) <= 0.005

    @pytest.mark.parametrize("payload", [{"model": "erc", "set": 1},
                                         {"model": "rb", "set": 1,
                                          "budgets": [1, 2, 1, 2, 1, 2, 1, 2]}])
    def test_risk_budgeting_reports_its_certificate(self, tmp_path, payload):
        inp = write_payload(tmp_path, payload)
        out = tmp_path / "out.json"
        assert main(["allocate", "--input", inp, "--output", str(out)]) == EXIT_OK
        result = read_json(out)
        assert result["cycles"] >= 1 and result["polished"] is True
        assert result["rc_spread"] <= 1e-8

    def test_gmv_full_diversification(self, tmp_path):
        inp = write_payload(tmp_path, {"model": "gmv", "set": 1, "min_bets": 8})
        out = tmp_path / "out.json"
        assert main(["allocate", "--input", inp, "--output", str(out)]) == EXIT_OK
        result = read_json(out)
        assert np.allclose(result["weights"], 1 / 8)
        assert result["ridge_weight"] == np.inf

    def test_gmv_reports_the_ridge_weight_of_its_floor(self, tmp_path):
        from proxalloc.data import MINVAR_GRID_RIDGE

        inp = write_payload(tmp_path, {"model": "gmv", "set": 1, "min_bets": 5})
        out = tmp_path / "out.json"
        assert main(["allocate", "--input", inp, "--output", str(out)]) == EXIT_OK
        assert abs(100 * read_json(out)["ridge_weight"] - MINVAR_GRID_RIDGE[4]) <= 0.1

    def test_mdp_grid_column(self, tmp_path):
        from proxalloc.data import MDP_GRID_WEIGHTS

        inp = write_payload(tmp_path, {"model": "mdp", "set": "mdp_table",
                                       "long_only": True, "min_bets": 6})
        out = tmp_path / "out.json"
        assert main(["allocate", "--input", inp, "--output", str(out)]) == EXIT_OK
        weights = 100 * np.asarray(read_json(out)["weights"])
        assert np.max(np.abs(weights - MDP_GRID_WEIGHTS[:, 5])) <= 0.01

    def test_mdp_reads_its_caps(self, tmp_path):
        from proxalloc import data, portfolios

        inp = write_payload(tmp_path, {"model": "mdp", "set": "mdp_table", "upper": 0.2})
        out = tmp_path / "out.json"
        assert main(["allocate", "--input", inp, "--output", str(out)]) == EXIT_OK
        weights = np.asarray(read_json(out)["weights"])
        assert np.max(weights) <= 0.2 + 1e-12
        expected = portfolios.mdp(data.mdp_table_universe(), upper=0.2).w
        assert np.max(np.abs(weights - expected)) <= 1e-12

    def test_infeasible_model_domain_exit(self, tmp_path):
        inp = write_payload(tmp_path, {"model": "gmv", "set": 1, "min_bets": 9})
        assert main(["allocate", "--input", inp]) == EXIT_DOMAIN

    def test_csv_output(self, tmp_path):
        inp = write_payload(tmp_path, {"model": "erc", "set": 1})
        out = tmp_path / "out.csv"
        assert main(["allocate", "--input", inp, "--output", str(out),
                     "--format", "csv"]) == EXIT_OK
        text = out.read_text()
        header = text.splitlines()[0]
        assert "," in header
        assert "." in text  # decimal separator


class TestReproduceCommand:
    def test_erc_table(self, tmp_path):
        out = tmp_path / "erc.csv"
        assert main(["reproduce", "erc", "--output", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("asset")
        assert len(lines) == 9
        out = tmp_path / "erc.json"
        assert main(["reproduce", "erc", "--format", "json", "--output", str(out)]) == EXIT_OK
        result = read_json(out)
        assert result["polished"] is True and result["rc_spread"] <= 1e-8

    def test_box_qp_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["reproduce", "box_qp_trace", "--output", str(out)]) == EXIT_OK
        text = out.read_text()
        assert "from_zeros" in text and "from_ones" in text

    def test_seed_only_on_reproduce(self, tmp_path):
        inp = write_payload(tmp_path, {"model": "erc", "set": 1})
        with pytest.raises(SystemExit) as exit_info:
            main(["allocate", "--input", inp, "--seed", "1"])
        assert exit_info.value.code == EXIT_INPUT

    def test_solver_options_only_on_qp(self, tmp_path):
        # --tol/--phi/--max-iter reach the QP solver only; elsewhere they
        # are rejected rather than silently ignored
        inp = write_payload(tmp_path, {"model": "erc", "set": 1})
        for argv in (["allocate", "--input", inp, "--tol", "1e-6"],
                     ["prox", "--input", inp, "--phi", "2"],
                     ["project", "--input", inp, "--max-iter", "10"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == EXIT_INPUT
        qp = write_payload(tmp_path, {"Q": [[1.0, 0.0], [0.0, 1.0]], "R": [0.0, 0.0],
                                      "A": [[1.0, 1.0]], "B": [1.0]}, name="qp.json")
        assert main(["qp", "--input", qp, "--tol", "1e-9", "--phi", "2",
                     "--max-iter", "1000"]) == EXIT_OK

    def test_missing_file_is_input_error(self):
        assert main(["prox", "--input", "/nonexistent/file.json"]) == EXIT_INPUT
