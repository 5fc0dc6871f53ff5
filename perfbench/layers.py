"""Outside-in layer trace of scendo, recorded from the benchmark's files.

No file of the program changes.  ``installed(tracer)`` rebinds, for the
length of a ``with`` block, the module attributes that scendo's callers
look up at call time (``scendo.programs.requirement_values``,
``scendo.nlp.minimize``, ...) to wrappers that open a span around the
call and count the work from the argument shapes and results.  The
circle callables are wrapped in the benchmark's own ``ProblemSpec``
(``traced_spec``), and each ``NlpProblem`` handed to ``nlp.minimize`` is
copied with counting wrappers on its callables; the caller's objects are
never mutated.

A span records its name (``<layer>.<call>``), start, end, parent span and
run id.  Spans stay in memory until ``write_spans``.  A layer's self time
is the time of its spans minus the time of their child spans.  ``core``
has no span of its own: ``r_max`` and the dataset checks run inside the
spans of their callers and the circle kernels.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import gzip
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from scendo import montecarlo, nlp, programs, risk_bounds, seqdesign, weights

# per-layer metric name -> unit; the order is the order of the report
METRICS = {
    "circle.req_calls": "count",
    "circle.req_points": "count",
    "circle.req_s": "s",
    "programs.grid_designs": "count",
    "programs.requirement_values_s": "s",
    "programs.self_s": "s",
    "ecdf.calls": "count",
    "ecdf.rows": "count",
    "ecdf.elems": "count",
    "ecdf.s": "s",
    "weights.calls": "count",
    "weights.s": "s",
    "nlp.minimize_calls": "count",
    "nlp.minimize_s": "s",
    "nlp.self_s": "s",
    "nlp.merit_batches": "count",
    "nlp.merit_rows": "count",
    "nlp.scalar_evals": "count",
    "nlp.nfev": "count",
    "nlp.starts": "count",
    "nlp.converged_ratio": "ratio",
    "montecarlo.analyze_calls": "count",
    "montecarlo.analyze_s": "s",
    "montecarlo.grid_points": "count",
    "montecarlo.clopper_pearson_s": "s",
    "risk_bounds.loo_solves": "count",
    "risk_bounds.support_s": "s",
    "risk_bounds.support_ratio": "ratio",
    "risk_bounds.containment_calls": "count",
    "risk_bounds.containment_s": "s",
    "risk_bounds.epsilon_bar_s": "s",
    "seqdesign.iterations": "count",
    "seqdesign.select_aleatory_s": "s",
    "seqdesign.select_epistemic_s": "s",
    "seqdesign.solve_s": "s",
    "seqdesign.analyze_s": "s",
    "seqdesign.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

#: metrics that count work; two traced runs of the same inputs must agree on them
COUNT_METRICS = tuple(k for k, unit in METRICS.items() if unit == "count") + (
    "nlp.converged_ratio",
    "risk_bounds.support_ratio",
)

ROOT = "bench.run"


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (id, parent, name, start, end)
        self.counts = defaultdict(int)
        self._stack = [0]
        self._next_id = 1

    def call(self, name: str, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(counts, result, *args, **kwargs)``
        runs after each call that returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result

        return traced


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _owner(fn) -> str:
    """Layer that built a problem callable, from the module defining it."""
    return (getattr(fn, "__module__", None) or "callbacks").rsplit(".", 1)[-1]


def _leading(arr) -> int:
    shape = np.shape(arr)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


# ---------------------------------------------------------------------------
# counters, one per wrapped call site
# ---------------------------------------------------------------------------


def _count_requirement(counts, result, *args, **kwargs):
    counts["circle.req_calls"] += 1
    counts["circle.req_points"] += int(np.size(result))


def _count_grid(counts, result, spec, data, theta, *args, **kwargs):
    counts["programs.grid_designs"] += _leading(theta)


def _count_ecdf(counts, result, values, *args, **kwargs):
    counts["ecdf.calls"] += 1
    counts["ecdf.rows"] += _leading(values)
    counts["ecdf.elems"] += int(np.size(values))


def _count_weights(counts, result, *args, **kwargs):
    counts["weights.calls"] += 1


def _count_analyze(counts, result, spec, theta, data, cfg):
    counts["montecarlo.analyze_calls"] += 1
    n_req = 1 if cfg.worst_case else spec.n_r
    counts["montecarlo.grid_points"] += data.n_a_test * data.n_e_test * n_req


def _count_support(counts, result, solver, data, *args, **kwargs):
    counts["risk_bounds.loo_solves"] += data.n_a
    counts["risk_bounds.support_found"] += int(np.size(result))


def _count_containment(counts, result, *args, **kwargs):
    counts["risk_bounds.containment_calls"] += 1


def _count_sd(counts, result, *args, **kwargs):
    _, trace = result
    counts["seqdesign.iterations"] += len(trace)


def _count_minimize(counts, result):
    counts["nlp.minimize_calls"] += 1
    counts["nlp.nfev"] += int(result.diagnostics.get("nfev", 0))
    counts["nlp.starts"] += int(result.diagnostics.get("n_starts", 0))
    counts["nlp.converged"] += int(result.status == "converged")


# ---------------------------------------------------------------------------
# wrappers on the benchmark's own objects
# ---------------------------------------------------------------------------


def traced_spec(tracer: Tracer, spec):
    """Copy of ``spec`` whose objective and requirements run in circle spans."""
    return dataclasses.replace(
        spec,
        objective=tracer.wrap("circle.objective", spec.objective),
        requirements=[
            tracer.wrap("circle.requirement", rk, _count_requirement) for rk in spec.requirements
        ],
    )


#: NlpProblem callables: batch ones take a (B, dim) stack, scalar ones one point
_BATCH_FIELDS = ("objective_batch", "constraints_batch")
_SCALAR_FIELDS = ("objective", "constraints_vec")


def _traced_problem(tracer: Tracer, problem):
    """Copy of an NlpProblem with its callables in spans of the layer that
    built them.  Works whichever of the scalar fields the class still has;
    without them ``nlp.scalar_evals`` stays 0."""
    changes = {}
    batch_counted = "objective_batch" if getattr(problem, "objective_batch", None) else "constraints_batch"

    def count_batch(counts, result, X, *args, **kwargs):
        counts["nlp.merit_batches"] += 1
        counts["nlp.merit_rows"] += int(np.shape(X)[0])

    def count_scalar(counts, result, *args, **kwargs):
        counts["nlp.scalar_evals"] += 1

    for name in _BATCH_FIELDS + _SCALAR_FIELDS:
        fn = getattr(problem, name, None)
        if fn is None:
            continue
        if name in _BATCH_FIELDS:
            count = count_batch if name == batch_counted else None
        else:
            count = count_scalar
        changes[name] = tracer.wrap(f"{_owner(fn)}.{name}", fn, count)
    if getattr(problem, "inequalities", None):
        changes["inequalities"] = [
            tracer.wrap(f"{_owner(g)}.inequality", g, count_scalar) for g in problem.inequalities
        ]
    return dataclasses.replace(problem, **changes)


def _minimize_wrapper(tracer: Tracer, original):
    @functools.wraps(original)
    def minimize(problem, opts=None):
        result = tracer.call("nlp.minimize", original, _traced_problem(tracer, problem), opts)
        _count_minimize(tracer.counts, result)
        return result

    return minimize


_SOLVES = (
    "solve_risk_averse_global",
    "solve_risk_averse_local",
    "solve_risk_agnostic_global",
    "solve_risk_agnostic_local",
    "solve_feasibility_seed",
)

#: (module, attribute, span name, counter) for every rebound call site
_SITES = [(programs, s, f"programs.{s}", None) for s in _SOLVES] + [
    (programs, "requirement_values", "programs.requirement_values", _count_grid),
    (programs, "quantile_of", "ecdf.quantile_of", _count_ecdf),
    (programs, "weights_from_values", "weights.weights_from_values", _count_weights),
    (weights, "cdf_of", "ecdf.cdf_of", _count_ecdf),
    (weights, "quantile_of", "ecdf.quantile_of", _count_ecdf),
    (montecarlo, "quantile_of", "ecdf.quantile_of", _count_ecdf),
    (montecarlo, "sorted_cdf", "ecdf.sorted_cdf", _count_ecdf),
    (montecarlo, "strictify_sorted", "ecdf.strictify_sorted", _count_ecdf),
    (montecarlo, "clopper_pearson", "montecarlo.clopper_pearson", None),
    (montecarlo, "analyze", "montecarlo.analyze", _count_analyze),
    (risk_bounds, "risk_bound", "risk_bounds.risk_bound", None),
    (risk_bounds, "support_scenarios", "risk_bounds.support_scenarios", _count_support),
    (risk_bounds, "set_containment_opt", "risk_bounds.set_containment_opt", _count_containment),
    (risk_bounds, "epsilon_bar", "risk_bounds.epsilon_bar", None),
    (seqdesign, "run_sd", "seqdesign.run_sd", _count_sd),
    (seqdesign, "analyze", "montecarlo.analyze", _count_analyze),
    (seqdesign, "select_training_aleatory", "seqdesign.select_training_aleatory", None),
    (seqdesign, "select_training_epistemic", "seqdesign.select_training_epistemic", None),
    (seqdesign, "solve_risk_agnostic_local", "programs.solve_risk_agnostic_local", None),
]


@contextmanager
def installed(tracer: Tracer):
    """Rebind every traced call site for the duration of the block."""
    saved = []
    try:
        for module, attr, name, count in _SITES:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        original = nlp.minimize
        saved.append((nlp, "minimize", original))
        nlp.minimize = _minimize_wrapper(tracer, original)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict:
    """Every METRICS entry except trace.overhead_s, from one traced run."""
    children = defaultdict(float)
    names = {}
    for sid, parent, name, start, end in tracer.spans:
        children[parent] += end - start
        names[sid] = name
    total = defaultdict(float)  # inclusive time per span name
    own = defaultdict(float)  # exclusive time per span name
    below_sd = defaultdict(float)  # inclusive time of direct children of run_sd
    for sid, parent, name, start, end in tracer.spans:
        total[name] += end - start
        own[name] += end - start - children[sid]
        if names.get(parent) == "seqdesign.run_sd":
            below_sd[name] += end - start
    self_time = defaultdict(float)  # exclusive time per layer
    for name, t in own.items():
        self_time[_layer(name)] += t
    c = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    out = {k: c[k] for k, unit in METRICS.items() if unit == "count"}
    out.update({
        "circle.req_s": total["circle.requirement"],
        "programs.requirement_values_s": total["programs.requirement_values"],
        "programs.self_s": self_time["programs"],
        "ecdf.s": self_time["ecdf"],
        "weights.s": total["weights.weights_from_values"],
        "nlp.minimize_s": total["nlp.minimize"],
        "nlp.self_s": self_time["nlp"],
        "nlp.converged_ratio": ratio(c["nlp.converged"], c["nlp.minimize_calls"]),
        "montecarlo.analyze_s": total["montecarlo.analyze"],
        "montecarlo.clopper_pearson_s": total["montecarlo.clopper_pearson"],
        "risk_bounds.support_s": total["risk_bounds.support_scenarios"],
        "risk_bounds.support_ratio": ratio(c["risk_bounds.support_found"], c["risk_bounds.loo_solves"]),
        "risk_bounds.containment_s": total["risk_bounds.set_containment_opt"],
        "risk_bounds.epsilon_bar_s": total["risk_bounds.epsilon_bar"],
        "seqdesign.select_aleatory_s": below_sd["seqdesign.select_training_aleatory"],
        "seqdesign.select_epistemic_s": below_sd["seqdesign.select_training_epistemic"],
        "seqdesign.solve_s": sum((v for k, v in below_sd.items() if k.startswith("programs.solve")), 0.0),
        "seqdesign.analyze_s": below_sd["montecarlo.analyze"],
        "seqdesign.self_s": own["seqdesign.run_sd"],
        "trace.coverage": 1.0 - own[ROOT] / total[ROOT],
    })
    return {k: out[k] for k in METRICS if k in out}


def count_metrics(metrics: dict) -> dict:
    return {k: metrics[k] for k in COUNT_METRICS}


def write_spans(path, tracers) -> None:
    """Gzipped CSV, one row per span: run, id, parent, name, start, end (s)."""
    with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("run", "id", "parent", "name", "start", "end"))
        for tracer in tracers:
            writer.writerows((tracer.run_id, *span) for span in tracer.spans)
