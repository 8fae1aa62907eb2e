"""Smoke test of the benchmark: every workload at tiny size, traced.

    python3 perfbench/smoke.py

Runs one small pass of each workload under the tracer and asserts the
layer isolation the workloads rely on (no QP or Dykstra work in
``rb_ccd``, no coordinate descent in ``qp_bridge``, no QP in
``admm_split``) and that the tracer sees the mechanism each workload is
there to measure.  Exits non-zero on the first failed assertion.
"""

import sys

import run

EXPECT = {
    "rb_ccd": {"zero": ("qp.solves", "dykstra.calls"),
               "positive": ("cd.solves", "cd.cycles")},
    "qp_bridge": {"zero": ("cd.solves",),
                  "positive": ("qp.solves", "admm.iters", "dykstra.nested_calls",
                               "linalg.pinv_calls", "linalg.factorizations")},
    "admm_split": {"zero": ("qp.solves",),
                   "positive": ("admm.solves", "dykstra.cycles", "dykstra.op_calls",
                                "prox.calls", "linalg.root_finds")},
}


def main():
    run._need_source()
    problems = []
    for name, expect in EXPECT.items():
        _, workload = run.timed_setup(name, seed=0, small=True)
        times, failures, _, tracer = run.trace_pass(workload)
        metrics = tracer.layer_metrics()
        print(f"{name}: {len(times)} solves, {len(failures)} failed, "
              f"{tracer.dropped_spans} spans dropped")
        problems += [f"{name}: {key} = {metrics[key]}, expected 0"
                     for key in expect["zero"] if metrics[key] != 0]
        problems += [f"{name}: {key} = {metrics[key]}, expected > 0"
                     for key in expect["positive"] if not metrics[key] > 0]
        if not tracer.spans["name"]:
            problems.append(f"{name}: no spans recorded")
    for problem in problems:
        print("FAIL " + problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
