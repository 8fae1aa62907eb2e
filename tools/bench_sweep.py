"""Wall time, ADMM iterations and polish flags of every portfolios model, by size.

    OPENBLAS_NUM_THREADS=1 python3 tools/bench_sweep.py [--sizes 8 100 500]
        [--extra N PATTERN] [--label LABEL] [--out DIR]

Each case solves one model (the book case, eight accounts of one model)
on perfbench/universe.py's seeded factor_universe(default_rng(0), n),
imported read-only.  "GMV" is the long-only minimum variance and "EW"
equal weights, used as benchmark, reference, holdings or budgets.  A
universe caches its penalty factors, its bridge active sets and its
eigendecomposition, so every timed run is cold: it gets a fresh
universe, built outside the timer, that no earlier run, case or input
computation has touched, and the inputs (the GMV, its volatility, the
stdev scale xi) are computed on a separate copy with the same seed.  A
case's time is the best of REPEAT (3) runs; its ADMM solves are read
from a spy on admm_solve in portfolios and qp, one (iterations,
polished) pair per solve in call order, and its weights are kept as a
SHA-256 of their bytes (a book's weights concatenated), so two files
show bit-identical answers.  perfbench/run.py's SpeedProbe, also
imported read-only, runs before and after each timed run, and scaled_s
is the best run's time at the probe's reference speed, so files from
different sessions compare.  Each row also records its answer's budget
and box gaps, the gmv and mvo_target rows the KKT residual of
min 0.5 x'cov x - t mu'x on the budget and the box at the answer, the
gmv_herfindahl rows that of min x'cov x under the effective-bets floor
with the multiplier the answer returns, the index_sampling row the
stationarity of its final pinned tracking QP, and the erc and
risk_budgeting rows the relative spread of their risk contributions,
each with its gate (``correctness``).  A case
that raises is recorded with its error, never dropped.  Every case runs
at each of --sizes; each --extra N PATTERN also runs, at size N, the
cases whose name matches the glob PATTERN (``--extra 2000
"risk_budgeting * admm"``).  The file also holds the time of `import
proxalloc` in a fresh interpreter (best of 3), each `proxalloc reproduce`
table's time in a fresh interpreter with that import included (best of
3) and after import in this process, the machine facts and the BLAS
thread settings.  The package loads scipy's kernels on first use, so the
first table here that factors a matrix pays for that import, and only
the fresh time shows each table's whole cost.  It is written to
DIR/BENCH_<LABEL>.json (the repository root and the source tree's short
commit hash by default).
"""

import argparse
import fnmatch
import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from proxalloc import cli, portfolios, qp  # noqa: E402
from proxalloc.portfolios import (  # noqa: E402
    EffectiveBets,
    RoboConfig,
    ShannonEntropyFloor,
    StdevRisk,
    Volatility,
    effective_bets,
    stats,
)

TABLES = ("table4", "table5", "erc", "lasso_trace", "box_qp_trace")
REPEAT = 3
RC_GATE = 1e-8  # relative spread of equal-budget risk contributions
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _perfbench(name):
    """perfbench/<name>.py, loaded read-only.  Loading run.py sets the BLAS
    thread variables; they are put back, so the file records the caller's
    and the fresh interpreters inherit them."""
    saved = {var: os.environ.get(var) for var in THREAD_VARS}
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for var, value in saved.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value
    return module


def universe(universe_module, n):
    """A fresh copy of the sweep's universe at size n, with nothing cached on it."""
    return universe_module.factor_universe(np.random.default_rng(0), n)


def cases(universe_module, n):
    """({name: solve(universe)}, {name: input}) of the sweep at size n, the
    inputs those ``correctness`` checks a row against: the gmv_herfindahl
    row's effective-bets floor, the index_sampling row's benchmark and the
    erc and risk_budgeting rows' risk measures.  They are computed on a
    copy of the universe that no solve is given."""
    inputs = universe(universe_module, n)
    ew = np.full(n, 1.0 / n)
    box = dict(lower=np.zeros(n), upper=np.ones(n))
    gmv = portfolios.mvo_gamma(inputs, 0.0, **box)
    vol = stats(gmv, inputs).volatility
    log_third = np.log(n / 3.0)
    p70 = float(np.percentile(inputs.mu, 70))
    robo = RoboConfig(benchmark=ew, reference=ew, current=ew, gamma=0.1, l1_current=0.002,
                      l2_reference=0.3, barrier=0.01, risk_budgets=ew)
    xi = universe_module.well_posed_xi(inputs)
    k = max(2, n // 10)  # sectors of every k-th asset, each capped at 1.5 / k
    sectors = (np.arange(n) % k == np.arange(k)[:, None]).astype(float)
    book = dict(box, ineq=(sectors, np.full(k, 1.5 / k)))
    params = {"gmv_herfindahl halfway": 0.5 * (effective_bets(gmv.w) + n),
              "index_sampling n/4 ew": ew, "erc": Volatility(),
              "risk_budgeting stdev admm": StdevRisk(xi), "risk_budgeting vol admm": Volatility()}
    return {
        "risk_budgeting stdev admm": lambda u: portfolios.risk_budgeting(
            u, np.ones(n), params["risk_budgeting stdev admm"], engine="admm"),
        # the volatility-measure ADMM engine, as in rb_ccd's rb_admm slot
        "risk_budgeting vol admm": lambda u: portfolios.risk_budgeting(
            u, np.ones(n), engine="admm"),
        **{f"mvo_target vol {k}x gmv": (lambda u, k=k: portfolios.mvo_target(
            u, target_volatility=k * vol, **box)) for k in (1.01, 1.1, 1.3)},
        "index_sampling n/4 ew": lambda u: portfolios.index_sampling(u, ew, max(1, n // 4)),
        "gmv_herfindahl halfway": lambda u: portfolios.gmv_herfindahl(
            u, min_bets=params["gmv_herfindahl halfway"]),
        "kl_portfolio cap 1.2x gmv": lambda u: portfolios.kl_portfolio(
            u, ew, max_volatility=1.2 * vol),
        "kl_portfolio return p70 cap 1.5x gmv": lambda u: portfolios.kl_portfolio(
            u, ew, target_return=p70, max_volatility=1.5 * vol),
        "gmv_diversified entropy ln(n/3)": lambda u: portfolios.gmv_diversified(
            u, constraint=ShannonEntropyFloor(log_third)),
        "mdp entropy ln(n/3)": lambda u: portfolios.mdp(
            u, constraint=ShannonEntropyFloor(log_third)),
        # caps of 0.05 leave no budget portfolio below n = 20
        "mdp caps max(0.05, 2/n)": lambda u: portfolios.mdp(u, upper=max(0.05, 2.0 / n)),
        "rqe_portfolio 1-rho": lambda u: portfolios.rqe_portfolio(1.0 - u.rho),
        "robo_advisor loaded": lambda u: portfolios.robo_advisor(u, robo),
        "mvo_turnover cap 0.3": lambda u: portfolios.mvo_turnover(u, 0.1, ew, 0.3),
        "mdp bets n/3": lambda u: portfolios.mdp(u, constraint=EffectiveBets(n / 3.0)),
        "mdp no floor": lambda u: portfolios.mdp(u),
        "mvo_target return p70": lambda u: portfolios.mvo_target(u, target_return=p70, **box),
        "gmv": lambda u: portfolios.mvo_gamma(u, 0.0, **box),
        "rebalance_penalized 20bp cap 0.3": lambda u: portfolios.rebalance_penalized(
            u, ew, cost_scale=1.0, bid_cost=0.002, ask_cost=0.002, turnover_cap=0.3),
        "erc": lambda u: portfolios.erc(u),
        "mvo_costs 10bp": lambda u: portfolios.mvo_costs(u, 0.1, ew, 0.001, 0.001),
        # eight accounts on one universe and rows: the first solve runs ADMM, and
        # each later one polishes first from the active set the last one ended on
        "mvo_gamma sector book x8": lambda u: [portfolios.mvo_gamma(u, gamma, **book)
                                               for gamma in np.linspace(0.1, 0.25, 8)],
    }, params


class AdmmSpy:
    """Records (iterations, polished) of every admm_solve that portfolios and qp run."""

    def __init__(self):
        self.solves = []
        self._real = portfolios.admm_solve

    def __enter__(self):
        def spy(*args, **kwargs):
            x, y, report = self._real(*args, **kwargs)
            self.solves.append([report.iterations, bool(report.polished)])
            return x, y, report

        portfolios.admm_solve = qp.admm_solve = spy
        return self

    def __exit__(self, *exc):
        portfolios.admm_solve = qp.admm_solve = self._real


def weights(answer):
    """The weight vectors of a case's answer: one, or a book's accounts."""
    w = answer[0] if isinstance(answer, tuple) else answer
    return [p.w for p in w] if isinstance(w, list) else [w.w]


def run_case(solve, fresh, probe, scale):
    """{wall_s, scaled_s, admm, weights_sha256, weights, lam} of one case, lam
    the multiplier a (weights, lam) answer returns or None, or {error} when
    it raises; each run solves on its own universe from
    ``fresh()``, built untimed, between two runs of the speed ``probe``.
    scaled_s is the best run's time times ``scale`` over the sum of its two
    probes: its time at the probe's reference speed."""
    best = scaled = np.inf
    for _ in range(REPEAT):
        u = fresh()
        with AdmmSpy() as spy:
            before = probe.time()
            start = time.perf_counter()
            try:
                answer = solve(u)
            except Exception as exc:  # recorded, so a failing case stays in the file
                return {"error": f"{type(exc).__name__}: {exc}"}
            seconds = time.perf_counter() - start
            best, scaled = min(best, seconds), min(scaled, seconds * scale / (before + probe.time()))
    w = weights(answer)
    digest = hashlib.sha256(np.ascontiguousarray(np.concatenate(w)).tobytes()).hexdigest()
    return {"wall_s": best, "scaled_s": scaled, "admm": spy.solves, "weights_sha256": digest,
            "weights": w, "lam": answer[1] if isinstance(answer, tuple) else None}


def frontier_residual(u, w, fit_t):
    """The KKT residual of min 0.5 x'cov x - t mu'x on the budget and the
    box [0, 1] at w, relative to 1 + max |cov w|.  t (0 unless ``fit_t``)
    and nu come from least squares on the free names, where
    (cov w)_i - t mu_i - nu must be 0; a name within 1e-10 of 0 needs it
    >= 0 and one within 1e-10 of 1 <= 0, and t itself must be >= 0."""
    g = u.cov @ w
    at_low, at_high = w <= 1e-10, w >= 1.0 - 1e-10
    free = ~(at_low | at_high)
    cols = np.column_stack([u.mu[free], np.ones(free.sum())])[:, 0 if fit_t else 1:]
    fit = np.linalg.lstsq(cols, g[free], rcond=None)[0]
    t, nu = (fit if fit_t else (0.0, fit[0]))
    lam = g - t * u.mu - nu
    worst = max(np.abs(lam[free]).max(initial=0.0), -lam[at_low].min(initial=0.0),
                lam[at_high].max(initial=0.0), -t)
    return float(worst / (1.0 + np.abs(g).max()))


def herfindahl_residual(u, w, lam, bets):
    """The KKT residual of min x'cov x on the budget, the box [0, 1] and
    the ball ||x||^2 <= 1/bets at w, with the ball's multiplier lam as the
    answer returned it, relative to 1 + max |g|, g = cov w + lam w.  nu is
    the mean of g on the free names, where g_i - nu must be 0; a name
    within 1e-10 of 0 needs it >= 0 and one within 1e-10 of 1 <= 0.  lam
    must be >= 0, and lam (||w||^2 - 1/bets) = 0 and ||w||^2 <= 1/bets are
    taken relative to 1/bets, the first also times lam / (1 + max |g|).
    lam = inf is the limit of the equal share, g = w, the ball binding."""
    g = u.cov @ w + lam * w if np.isfinite(lam) else w
    at_low, at_high = w <= 1e-10, w >= 1.0 - 1e-10
    free = ~(at_low | at_high)
    scale = 1.0 + np.abs(g).max()
    mult = g - g[free].mean()
    gap = float(w @ w) * bets - 1.0  # the ball's slack, relative to 1/bets
    slack = abs(gap) if not np.isfinite(lam) else lam * abs(gap) / scale
    return float(max(np.abs(mult[free]).max(initial=0.0) / scale,
                     -mult[at_low].min(initial=0.0) / scale,
                     mult[at_high].max(initial=0.0) / scale, -lam, slack, gap))


def tracking_residual(u, w, b):
    """The stationarity of index_sampling's final pinned tracking QP,
    min 0.5 x'cov x - x'cov b on the budget with the names off w's support
    pinned at 0: cov w - cov b - nu on the support, nu its mean there,
    relative to 1 + max |cov w| + max |cov b|."""
    g, r = u.cov @ w, u.cov @ b
    grad = (g - r)[w > 0]
    return float(np.abs(grad - grad.mean()).max() / (1.0 + np.abs(g).max() + np.abs(r).max()))


def rc_spread(u, w, measure):
    """The relative spread (max - min) / |mean| of w's risk contributions
    under ``measure``; every risk-budgeting row's budgets are equal."""
    rc = portfolios.risk_contributions(w, u, measure)
    return float((rc.max() - rc.min()) / abs(rc.mean()))


def correctness(name, u, ws, lam=None, param=None):
    """{budget_gap, box_gap} of a row's weight vectors ``ws`` on its universe
    u, and {kkt_residual, kkt_gate} for the gmv and mvo_target rows
    (frontier_residual), the gmv_herfindahl rows (herfindahl_residual
    with the answer's ``lam`` and the floor ``param``) and the
    index_sampling row (tracking_residual with the benchmark ``param``),
    the gate qp.POLISH_TOL, and for the erc and risk_budgeting rows
    (rc_spread under the measure ``param``), the gate RC_GATE.  The box
    is [0, 1], or [0, the cap] for the capped mdp row; mvo_costs' weights
    sum to 1 less the costs it financed, so its budget gap is those
    costs."""
    upper = max(0.05, 2.0 / u.n) if name == "mdp caps max(0.05, 2/n)" else 1.0
    out = {"budget_gap": max(abs(float(w.sum()) - 1.0) for w in ws),
           "box_gap": max(max(-float(w.min()), float(w.max()) - upper, 0.0) for w in ws)}
    if name == "gmv" or name.startswith("mvo_target"):
        out.update(kkt_residual=frontier_residual(u, ws[0], fit_t=name != "gmv"),
                   kkt_gate=qp.POLISH_TOL)
    elif name.startswith("gmv_herfindahl"):
        out.update(kkt_residual=herfindahl_residual(u, ws[0], lam, param),
                   kkt_gate=qp.POLISH_TOL)
    elif name.startswith("index_sampling"):
        out.update(kkt_residual=tracking_residual(u, ws[0], param), kkt_gate=qp.POLISH_TOL)
    elif name == "erc" or name.startswith("risk_budgeting"):
        out.update(kkt_residual=rc_spread(u, ws[0], param), kkt_gate=RC_GATE)
    return out


def fresh_seconds(code, *args):
    """Best of 3 times that ``code``, run in a fresh interpreter on the source
    tree with ``args`` as sys.argv[1:], prints as its last line of output."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return min(float(subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                                    capture_output=True, text=True).stdout.split()[-1])
               for _ in range(3))


def import_seconds():
    """Best of 3 times of `import proxalloc` in a fresh interpreter."""
    return fresh_seconds("import time; t = time.perf_counter(); import proxalloc; "
                         "print(time.perf_counter() - t)")


# `proxalloc reproduce ...` from before `import proxalloc` to its exit code
REPRODUCE = ("import sys, time; t = time.perf_counter(); from proxalloc import cli; "
             "code = cli.main(sys.argv[1:]); print(time.perf_counter() - t); sys.exit(code)")


def reproduce_seconds():
    """{table: {fresh_s, seconds, exit_code}} of each `proxalloc reproduce` table:
    its time in a fresh interpreter, import included, and after import here."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for table in TABLES:
            path = os.path.join(tmp, table)
            start = time.perf_counter()
            code = cli.main(["reproduce", table, "--output", path])
            seconds = time.perf_counter() - start
            fresh = None  # a table that fails here is not run again
            if code == 0:
                fresh = fresh_seconds(REPRODUCE, "reproduce", table, "--output", path)
            out[table] = {"fresh_s": fresh, "seconds": seconds, "exit_code": code}
    return out


def machine():
    facts = {"platform": platform.platform(), "machine": platform.machine(),
             "processor": platform.processor(), "cpu_count": os.cpu_count(),
             "python": platform.python_version(), "numpy": np.__version__,
             "threads": {var: os.environ.get(var) for var in THREAD_VARS}}
    try:  # the model name, where the platform reports one
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy before 1.26 has no dict mode
        pass
    return facts


def git_label():
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "local"


def sweep(sizes, extra=()):
    """The rows of every case at each of ``sizes``, then of the cases matching
    each (n, pattern) of ``extra`` at n."""
    module, run = _perfbench("universe"), _perfbench("run")
    probe, scale = run.SpeedProbe(), 2.0 * run.PROBE_REF_S
    rows = []
    for n, pattern in [(n, "*") for n in sizes] + [(int(n), p) for n, p in extra]:
        solves, params = cases(module, n)
        for name, solve in solves.items():
            if fnmatch.fnmatchcase(name, pattern):
                fresh = lambda n=n: universe(module, n)
                row = {"case": name, "n": n, **run_case(solve, fresh, probe, scale)}
                if "error" not in row:
                    row.update(correctness(name, fresh(), row.pop("weights"), row.pop("lam"),
                                           params.get(name)))
                rows.append(row)
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 100, 500])
    parser.add_argument("--extra", nargs=2, action="append", default=[],
                        metavar=("N", "PATTERN"),
                        help="also run, at size N, the cases whose name matches PATTERN")
    parser.add_argument("--label", default=None)
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    label = args.label or git_label()
    result = {"label": label, "machine": machine(), "import_s": import_seconds(),
              "reproduce": reproduce_seconds(), "repeat": REPEAT,
              "cases": sweep(args.sizes, args.extra)}
    path = args.out / f"BENCH_{label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
