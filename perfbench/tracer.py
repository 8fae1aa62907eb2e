"""Per-layer tracing of proxalloc, done from outside the package.

``Tracer.install`` wraps every public function of the measured layers at
every module attribute that binds it.  The engines import names with
``from .x import y`` (``portfolios.dykstra_cycle``, ``qp.project_general_linear``),
so patching only the defining module would miss most calls.  ``uninstall``
puts the original objects back.

Calls are split in two kinds:

* spans (solve, model, qp, admm, dykstra and cd levels) are kept with
  name, start, end, parent span and solve id;
* leaves (prox, linalg, operator and ADMM callbacks, small helpers) are
  aggregated into per-parent-span counts and summed time, because one
  QP-bridge solve makes hundreds of thousands of them.

Self time of a call is its duration minus the time of the wrapped calls
made inside it.  Callbacks (Dykstra operators, ADMM x-updates and
y-proxes) are closures written in the models or the QP bridge; their self
time goes to the module that defines them, so an engine's self time is
only its own loop.
"""

import dataclasses
import functools
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("portfolios", "qp", "admm", "dykstra", "cd", "prox", "linalg")

# public functions that are leaves although they live in a span layer
LEAF_NAMES = {
    "portfolios": {"herfindahl", "effective_bets", "shannon_entropy", "stats",
                   "risk_contributions"},
    "qp": {"canonicalize", "default_qp_config", "qp_dual", "stationarity_residual"},
    "admm": {"penalty_update"},
    "cd": {"coordinate_probabilities"},
}

DYKSTRA_LOOPS = ("dykstra_two", "dykstra_cycle", "project_polyhedron",
                 "project_general_linear", "project_box_ball")

SPAN_CAP = 200_000  # spans kept for the trace file; later ones are only counted

_clock = time.perf_counter


class _Frame:
    __slots__ = ("name", "layer", "owner", "kind", "start", "child", "span", "parent")

    def __init__(self, name, layer, owner, kind, start, span, parent):
        self.name = name
        self.layer = layer
        self.owner = owner
        self.kind = kind
        self.start = start
        self.child = 0.0
        self.span = span
        self.parent = parent


class Tracer:
    """Collects spans, leaf aggregates and per-layer counters.

    Wrappers do nothing but call through while ``enabled`` is false, so
    correctness checks run with the wrappers installed stay untraced.
    """

    def __init__(self):
        self.enabled = False
        self.stack = []
        self.solve_id = -1
        self.counts = defaultdict(int)
        self.seconds = defaultdict(float)
        self.spans = {"name": [], "start": [], "end": [], "parent": [], "solve": []}
        self.dropped_spans = 0
        self.leaves = defaultdict(lambda: [0, 0.0])
        self._patched = []
        self._depth = defaultdict(int)  # open frames per name
        self._open_spans = defaultdict(int)  # open span frames per layer

    # -- frames -------------------------------------------------------------

    def _enter(self, name, layer, owner, kind):
        parent = self.stack[-1] if self.stack else None
        span = -1
        if kind == "span":
            if layer == "dykstra" and self._open_spans["dykstra"]:
                self.counts["dykstra.nested"] += 1
            self._open_spans[layer] += 1
            if len(self.spans["name"]) < SPAN_CAP:
                span = len(self.spans["name"])
                self.spans["name"].append(name)
                self.spans["start"].append(0.0)
                self.spans["end"].append(0.0)
                self.spans["parent"].append(_enclosing_span(parent))
                self.spans["solve"].append(self.solve_id)
            else:
                self.dropped_spans += 1
        self._depth[name] += 1
        frame = _Frame(name, layer, owner, kind, 0.0, span, parent)
        self.stack.append(frame)
        frame.start = _clock()
        return frame

    def _exit(self, frame):
        end = _clock()
        elapsed = end - frame.start
        self.stack.pop()
        self._depth[frame.name] -= 1
        self.seconds[frame.owner + ".self_s"] += elapsed - frame.child
        self.counts[frame.name + ".calls"] += 1
        if self._depth[frame.name] == 0:
            self.seconds[frame.name + ".outer_s"] += elapsed
        parent = frame.parent
        if parent is not None:
            parent.child += elapsed
        if frame.kind == "span":
            self._open_spans[frame.layer] -= 1
            if frame.span >= 0:
                self.spans["start"][frame.span] = frame.start
                self.spans["end"][frame.span] = end
        else:
            agg = self.leaves[(_enclosing_span(parent), frame.name)]
            agg[0] += 1
            agg[1] += elapsed
        # an operator application is a call a Dykstra loop makes itself
        if parent is not None and parent.kind == "span" and parent.layer == "dykstra" \
                and (frame.kind == "op" or frame.layer in ("prox", "dykstra")):
            self.counts["dykstra.op_calls"] += 1
            self.seconds["dykstra.op_s"] += elapsed

    def begin_solve(self, solve_id, label):
        self.solve_id = solve_id
        return self._enter("solve." + label, "solve", "solve", "span")

    def end_solve(self, frame):
        self._exit(frame)

    def _call(self, fn, name, layer, owner, kind, args, kwargs, after=None):
        frame = self._enter(name, layer, owner, kind)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._exit(frame)
            if after is not None:
                after(None, exc)
            raise
        self._exit(frame)
        if after is not None:
            after(result, None)
        return result

    # -- wrappers -------------------------------------------------------------

    def callback(self, fn, name):
        """Wrap a callable handed to an engine; its self time goes to its module."""
        owner = _layer_of(getattr(fn, "__module__", None))

        def wrapped(*args, **kwargs):
            return self._call(fn, name, "callback", owner, "op", args, kwargs)

        return wrapped

    def _wrap(self, fn, layer, name):
        qual = f"{layer}.{name}"
        kind = "leaf" if layer in ("prox", "linalg") or name in LEAF_NAMES.get(layer, ()) \
            else "span"
        if qual == "admm.admm_solve":
            return self._admm_solve(fn, qual)
        if qual in ("dykstra.dykstra_cycle", "dykstra.dykstra_two"):
            return self._dykstra_ops(fn, qual)
        if layer == "cd" and kind == "span":
            return self._cd_solver(fn, qual)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer._call(fn, qual, layer, layer, kind, args, kwargs)

        return wrapper

    def _admm_solve(self, fn, qual):
        """Wraps the AdmmProblem callables to time x- and y-updates."""
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            problem = bound.arguments["problem"]
            builder = problem.y_prox

            def y_prox(phi):
                tracer.counts["admm.prox_builds"] += 1
                return tracer.callback(builder(phi), "admm.y_update")

            bound.arguments["problem"] = dataclasses.replace(
                problem, x_update=tracer.callback(problem.x_update, "admm.x_update"),
                y_prox=y_prox)

            def after(result, exc):
                tracer.counts["admm.solves"] += 1
                if result is not None:
                    tracer.counts["admm.iters"] += result[2].iterations
                    tracer.counts["admm.converged"] += int(result[2].converged)

            return tracer._call(fn, qual, "admm", "admm", "span", bound.args, bound.kwargs,
                                after)

        return wrapper

    def _dykstra_ops(self, fn, qual):
        """Wraps the operators handed to a Dykstra loop; sums reported cycles."""
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            if "fns" in bound.arguments:
                bound.arguments["fns"] = [tracer.callback(f, "dykstra.op")
                                          for f in bound.arguments["fns"]]
            else:
                for key in ("f1", "f2"):
                    bound.arguments[key] = tracer.callback(bound.arguments[key],
                                                           "dykstra.op")

            def after(result, exc):
                report = result[1] if result is not None else getattr(exc, "report", None)
                if report is not None:
                    tracer.counts["dykstra.cycles"] += report.iterations

            return tracer._call(fn, qual, "dykstra", "dykstra", "span", bound.args,
                                bound.kwargs, after)

        return wrapper

    def _cd_solver(self, fn, qual):
        """CD solvers are always asked for their report, so cycles are known."""
        tracer = self
        sig = inspect.signature(fn)
        has_report = "return_report" in sig.parameters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            asked = True
            if has_report:
                bound = sig.bind(*args, **kwargs)
                asked = bool(bound.arguments.get("return_report", False))
                bound.arguments["return_report"] = True
                args, kwargs = bound.args, bound.kwargs
            outer = tracer._open_spans["cd"] == 0

            def after(result, exc):
                if not outer:
                    return
                tracer.counts["cd.solves"] += 1
                report = (result[1] if result is not None and has_report
                          else getattr(exc, "report", None))
                if report is not None:
                    tracer.counts["cd.cycles"] += report.iterations
                    tracer.counts["cd.converged"] += int(report.converged)

            result = tracer._call(fn, qual, "cd", "cd", "span", args, kwargs, after)
            return result if asked else result[0]

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, modules):
        """Wrap the public functions of ``LAYERS`` wherever ``modules`` bind them.

        ``modules`` maps names to module objects and must contain every
        layer; any other module in it (the package itself, the CLI) is
        patched too, because it binds the same functions.
        """
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, name))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        spd = modules["linalg"].SpdFactor
        self._patched.append((spd, "solve", spd.solve))
        spd.solve = self._wrap(spd.solve, "linalg", "SpdFactor.solve")

    def uninstall(self):
        for owner, name, obj in reversed(self._patched):
            setattr(owner, name, obj)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def layer_metrics(self):
        """The per-layer metrics, summed over every traced solve.

        Times named ``*_s`` other than ``self_s`` are inclusive: they
        count the outermost call of that function, children included.
        """
        c, s = self.counts, self.seconds

        def calls(prefix):
            return sum(v for k, v in c.items() if k.startswith(prefix) and k.endswith(".calls"))

        def frac(part, whole):
            return c[part] / c[whole] if c[whole] else 0.0

        return {
            "portfolios.calls": calls("portfolios."),
            "portfolios.self_s": s["portfolios.self_s"],
            "qp.solves": c["qp.qp_solve.calls"],
            "qp.self_s": s["qp.self_s"],
            "admm.solves": c["admm.solves"],
            "admm.iters": c["admm.iters"],
            "admm.converged_frac": frac("admm.converged", "admm.solves"),
            "admm.phi_changes": c["admm.prox_builds"] - c["admm.solves"],
            "admm.self_s": s["admm.self_s"],
            "admm.x_update_s": s["admm.x_update.outer_s"],
            "admm.y_update_s": s["admm.y_update.outer_s"],
            "dykstra.calls": sum(c[f"dykstra.{name}.calls"] for name in DYKSTRA_LOOPS),
            "dykstra.nested_calls": c["dykstra.nested"],
            "dykstra.cycles": c["dykstra.cycles"],
            "dykstra.op_calls": c["dykstra.op_calls"],
            "dykstra.op_s": s["dykstra.op_s"],
            "dykstra.self_s": s["dykstra.self_s"],
            "cd.solves": c["cd.solves"],
            "cd.cycles": c["cd.cycles"],
            "cd.converged_frac": frac("cd.converged", "cd.solves"),
            "cd.self_s": s["cd.self_s"],
            "prox.calls": calls("prox."),
            "prox.self_s": s["prox.self_s"],
            "linalg.factorizations": c["linalg.cholesky_lower.calls"],
            "linalg.factor_s": s["linalg.cholesky_lower.outer_s"],
            "linalg.solves": c["linalg.SpdFactor.solve.calls"],
            "linalg.solve_s": s["linalg.SpdFactor.solve.outer_s"],
            "linalg.pinv_calls": c["linalg.pseudo_inverse.calls"],
            "linalg.pinv_s": s["linalg.pseudo_inverse.outer_s"],
            "linalg.root_finds": c["linalg.bisect.calls"],
            "linalg.root_find_s": s["linalg.bisect.outer_s"],
            "linalg.validate_calls": c["linalg.as_vector.calls"] + c["linalg.as_matrix.calls"],
            "linalg.validate_s": s["linalg.as_vector.outer_s"] + s["linalg.as_matrix.outer_s"],
        }

    def write(self, path, header):
        """Write spans and leaf aggregates as one JSON document."""
        doc = dict(header)
        doc["spans"] = self.spans
        doc["dropped_spans"] = self.dropped_spans
        doc["leaves"] = [[span, name, n, t] for (span, name), (n, t) in self.leaves.items()]
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _enclosing_span(frame):
    while frame is not None and frame.kind != "span":
        frame = frame.parent
    return -1 if frame is None else frame.span


def _layer_of(module_name):
    """The layer that owns code from ``module_name``; other code is the benchmark's."""
    if module_name and module_name.startswith("proxalloc."):
        layer = module_name.split(".", 1)[1]
        if layer in LAYERS:
            return layer
    return "bench"
