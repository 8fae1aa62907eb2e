"""proxalloc benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload rb_ccd --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  The workloads are in ``workloads.py``; each run is one
single-threaded process (BLAS is pinned to one thread) that

1. sets up ``SETUP_REPS`` times: a fresh interpreter times ``import
   proxalloc``, then the workload's inputs are generated and each model
   gets one warm-up solve; ``setup_s`` is the median, at the reference
   speed (below);
2. runs the workload's passes, a fixed number for a given ``--seconds``
   (``passes`` scaled by ``--seconds`` / ``NOMINAL_SECONDS``, at least
   ``MIN_PASSES``), each with new cases, timing each solve alone and
   checking its answer afterwards;
3. prints a readable summary and, as the last line, the result JSON.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` one pass runs untraced and then again under
``tracer.Tracer``; the metrics are the per-layer sums over the traced
pass plus the tracing overhead, and the spans go to ``.perfbench_out/``.

The solve times of the end-to-end metrics are taken at a reference
speed.  A shared host runs this process faster or slower by tens of
percent for seconds to minutes at a time, which moves wall times between
runs of the same code far more than the changes the benchmark is there to
see.  So a fixed reference kernel (``SpeedProbe``) is timed between
solves, about every ``PROBE_EVERY_S`` of solving, and around each
set-up, and each solve's or set-up's wall time is multiplied by
``PROBE_REF_S`` over the mean of the probes just before and after it.
A change to the library moves the solve times and not the probe, so it
shows in full.  The summary prints the wall-clock figures and the
machine's slowdown against the reference too.  The per-layer times of a
traced run are wall times; its tracing overhead is at the reference
speed.

End-to-end metrics: ``solves_per_s`` is solves divided by their summed
scaled time (inputs are built and answers checked between solves, off
the clock); ``solve_p50_ms`` and ``solve_tail_ms`` are Harrell-Davis
percentiles of the scaled solve times, the tail at the highest of
``TAIL_LADDER`` with ``TAIL_BEYOND`` solves above it; ``pass_frac`` is
1 - fail_frac, because fail_frac is zero on a clean workload (the summary
prints fail_frac too); ``setup_s`` and ``peak_rss_mb`` as their names
say.

``correct`` is false when a returned answer fails its check.  ``failed``
counts every failed solve: a wrong answer, an exception a solve should
not raise, or the wrong exception type for an ill-posed input.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 5
MIN_PASSES = 2
NOMINAL_SECONDS = 30.0  # the run length Workload.passes is sized for
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10  # solves that must lie above the reported tail percentile
PROBE_EVERY_S = 0.05  # solve time between two speed probes
PROBE_REF_S = 0.004  # the probe's time on an unloaded 2-core OpenBLAS machine
MAX_MEASURE_S = 120.0  # stop mid-pass past this, so a run ends within its time limit
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import proxalloc; print(time.perf_counter() - t)")

# one BLAS thread: the benchmark is a single caller, and it keeps the
# numbers steady on a shared machine; must be set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_clock = time.perf_counter


def _need_source():
    if not os.path.isfile(os.path.join(SRC, "proxalloc", "__init__.py")):
        sys.stderr.write(f"perfbench: no proxalloc package under {SRC}; "
                         "run from the root of a source checkout\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def machine_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def timed_setup(name, seed, small=False):
    """One set-up: import in a fresh interpreter, build inputs, warm each model up."""
    from workloads import WORKLOADS

    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                           text=True, timeout=120, check=True)
    import_s = float(probe.stdout.strip())
    start = _clock()
    workload = WORKLOADS[name](seed, small)
    for warmup in workload.warmups:
        warmup()
    return import_s + _clock() - start, workload


def judge(case, out, exc):
    """(reason, wrong_answer): why the solve failed, or None."""
    if case.expect is not None:
        if exc is None:
            return f"expected {case.expect.__name__}, got an answer", False
        if not isinstance(exc, case.expect):
            return (f"expected {case.expect.__name__}, got {type(exc).__name__}: {exc}",
                    False)
        return None, False
    if exc is not None:
        return f"raised {type(exc).__name__}: {exc}", False
    try:
        reason = case.check(out)
    except Exception as err:  # a check that cannot run counts as a wrong answer
        reason = f"check raised {type(err).__name__}: {err}"
    return reason, reason is not None


class SpeedProbe:
    """A fixed reference kernel, timed between solves and around set-ups.

    A shared host runs this process at a speed that drifts by tens of
    percent over seconds to minutes.  The probe, a Python loop and small
    matrix-vector products like the solves' own, measures that speed:
    each solve's time times PROBE_REF_S over the mean of the probes
    taken just before and just after it is the time the solve takes at
    the reference speed.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.m = rng.standard_normal((16, 16)) / 8.0
        self.x = rng.standard_normal(16)
        self.samples = []

    def time(self):
        t0 = _clock()
        acc, x = 0.0, self.x
        for i in range(20000):
            acc += i * 0.5
        for _ in range(2000):
            x = self.np.tanh(self.m @ x)
        elapsed = _clock() - t0
        self.samples.append(elapsed)
        return elapsed


def run_pass(workload, first, deadline, tracer=None, probe=None):
    """Cases ``first`` .. ``first + pass_size - 1``, each solved once.

    Returns per-solve times, failure reasons, whether any returned answer
    was wrong and, with a ``probe``, the times scaled to the reference
    speed.  Inputs are built and answers checked outside the timed call
    (and outside the trace).  Stops early past ``deadline``.
    """
    times, failures, wrong, scaled = [], [], False, []
    before, pending = (probe.time() if probe else None), []
    for i in range(first, first + workload.pass_size):
        case = workload.case(i)
        frame = tracer.begin_solve(i, case.label) if tracer else None
        if tracer:
            tracer.enabled = True
        t0 = _clock()
        try:
            out, exc = case.solve(), None
        except Exception as err:  # the run goes on; the failure is counted
            out, exc = None, err
        t1 = _clock()
        if tracer:
            tracer.enabled = False
            tracer.end_solve(frame)
        times.append(t1 - t0)
        pending.append(t1 - t0)
        last = i == first + workload.pass_size - 1 or t1 > deadline
        if probe and (sum(pending) >= PROBE_EVERY_S or last):
            after = probe.time()
            scaled += [t * 2.0 * PROBE_REF_S / (before + after) for t in pending]
            before, pending = after, []
        reason, bad = judge(case, out, exc)
        if reason:
            failures.append(f"{case.label}: {reason}")
            wrong = wrong or bad
        if last:
            break
    return times, failures, wrong, scaled


def measure(workload, seconds, probe):
    """The workload's passes, scaled to ``seconds``, each with new cases.

    Returns the solves' wall times and their times at the reference speed,
    the failure reasons and whether any answer was wrong.
    """
    times, scaled, failures, wrong = [], [], [], False
    start = _clock()
    passes = max(MIN_PASSES, round(workload.passes * seconds / NOMINAL_SECONDS))
    for k in range(passes):
        pass_times, pass_failures, pass_wrong, pass_scaled = run_pass(
            workload, k * workload.pass_size, start + MAX_MEASURE_S, probe=probe)
        times += pass_times
        scaled += pass_scaled
        failures += pass_failures
        wrong = wrong or pass_wrong
        if _clock() - start > MAX_MEASURE_S:
            break
    return times, scaled, failures, wrong


def percentile(times, pct):
    """Harrell-Davis estimate of the ``pct`` percentile of ``times``.

    It weighs every order statistic by a beta kernel centred on the
    percentile, so one solve hit by a slow spell of the shared machine
    moves it less than it moves a single order statistic.
    """
    import numpy as np
    from scipy.special import betainc

    n = len(times)
    q = pct / 100.0
    edges = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ np.sort(times))


def tail(times):
    """(percentile, ms): the highest ladder percentile with TAIL_BEYOND solves above it."""
    n = len(times)
    # rounded, so that 100 solves do have ten beyond p90 in binary floating point
    pct = max([p for p in TAIL_LADDER if round(n * (100.0 - p) / 100.0, 6) >= TAIL_BEYOND],
              default=TAIL_LADDER[0])
    return pct, 1e3 * percentile(times, pct)


def end_to_end(times, scaled, failures, setup_s, probe):
    """Metrics over the scaled solve times; the wall-clock figures go to the notes."""
    n = len(scaled)
    pct, tail_ms = tail(scaled)
    metrics = {
        "solves_per_s": (n / sum(scaled), "1/s"),
        "solve_p50_ms": (1e3 * percentile(scaled, 50.0), "ms"),
        "solve_tail_ms": (tail_ms, "ms"),
        "pass_frac": ((n - len(failures)) / n, "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"solves": n, "tail_percentile": pct, "fail_frac": len(failures) / n,
             "slowdown": statistics.median(probe.samples) / PROBE_REF_S,
             "wall_solves_per_s": n / sum(times),
             "wall_solve_p50_ms": 1e3 * percentile(times, 50.0),
             "wall_solve_tail_ms": 1e3 * percentile(times, pct)}
    return metrics, notes


def trace_pass(workload, probe=None):
    """One pass under a freshly installed Tracer; returns its results and the tracer.

    With a ``probe`` the returned times are at the reference speed.
    """
    import proxalloc
    from proxalloc import admm, cd, cli, data, dykstra, linalg, portfolios, prox, qp
    from tracer import Tracer

    tracer = Tracer()
    tracer.install({"proxalloc": proxalloc, "portfolios": portfolios, "qp": qp,
                    "admm": admm, "dykstra": dykstra, "cd": cd, "prox": prox,
                    "linalg": linalg, "cli": cli, "data": data})
    try:
        times, failures, wrong, scaled = run_pass(workload, 0, _clock() + MAX_MEASURE_S,
                                                  tracer, probe)
    finally:
        tracer.uninstall()
    return (scaled if probe else times), failures, wrong, tracer


def traced(workload, name, seed, facts, probe):
    """The per-layer metrics of one traced pass; the overhead is at the reference speed."""
    plain = run_pass(workload, 0, _clock() + MAX_MEASURE_S, probe=probe)[3]
    times, failures, wrong, tracer = trace_pass(workload, probe)
    metrics = {k: (v, _layer_unit(k)) for k, v in tracer.layer_metrics().items()}
    metrics["trace.overhead_frac"] = (sum(times) / sum(plain) - 1.0, "frac")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json")
    tracer.write(path, {"workload": name, "seed": seed, "machine": facts,
                        "metrics": {k: v for k, (v, _) in metrics.items()}})
    notes = {"solves": len(times), "untraced_solves_per_s": len(plain) / sum(plain),
             "traced_solves_per_s": len(times) / sum(times), "trace_file": path,
             "dropped_spans": tracer.dropped_spans}
    return times, failures, wrong, metrics, notes


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("rb_ccd", "qp_bridge", "admm_split"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _need_source()

    facts = machine_facts()
    print("machine " + json.dumps(facts), flush=True)
    probe = SpeedProbe()
    setups = []
    for _ in range(SETUP_REPS):
        before = probe.time()
        setup_s, workload = timed_setup(args.workload, args.seed)
        setups.append(setup_s * 2.0 * PROBE_REF_S / (before + probe.time()))
    setup_s = statistics.median(setups)

    if args.trace:
        times, failures, wrong, metrics, notes = traced(workload, args.workload, args.seed,
                                                        facts, probe)
    else:
        times, scaled, failures, wrong = measure(workload, args.seconds, probe)
        metrics, notes = end_to_end(times, scaled, failures, setup_s, probe)
        print(f"fail_frac {notes['fail_frac']:.6g} frac ({len(failures)} of {len(times)})")
        print(f"solve_tail_ms is p{notes['tail_percentile']:g} of {len(times)} solves")

    print(f"workload {args.workload} seed {args.seed}: " + json.dumps(notes))
    for key, (value, unit) in metrics.items():
        print(f"  {key:24s} {value:14.6g} {unit}")
    for reason in failures[:20]:
        print("FAILED " + reason[:300])
    result = {"correct": not wrong, "attempted": len(times), "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
