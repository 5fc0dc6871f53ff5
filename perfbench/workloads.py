"""The three benchmark workloads, each on the circle problem through
scendo's public API.

Every workload is a closed loop with one client: one process makes the
calls one after another.  Its scenario sets come from a fixed data seed
(``--data-seed`` runs another instance) and ``--seed`` shuffles their rows
(see ``make_data``); scendo receives only the generated inputs.  Solver
seeds are fixed, so the same arguments always make the same calls and
return the same outputs.

* ``solve``: the ``scendo solve`` path, ``solve_risk_averse_global`` on 30x20.
  The requirement grid, the per-row epistemic quantiles, the weight rule and
  the 66-probe finite-difference batch do almost all of the work.  It is the
  only workload that runs ``weights``.
* ``certify``: the ``scendo analyze`` path on a 12x10 design: solve, robust
  Monte Carlo, the scenario risk bound with optimization-based containment
  and ``epsilon_bar(5000, 4)``.  Many small design-only NLPs with a cheap
  merit, so per-call ``nlp`` cost and the leave-one-out solves dominate.
* ``sequential``: ``run_sd`` from the risk-agnostic baseline on 20000x400
  testing sets: a few long ECDF rows instead of many short ones, the
  budgeted greedy/log-det selection, and the most memory.

A run of a workload returns an ``Outcome``: one entry per top-level public
call (a solve, a leave-one-out solve, a containment test, ``analyze``,
``epsilon_bar`` or an sd iteration), the checks it failed, and the outputs
that two runs of the same inputs must reproduce bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from scendo import circle, montecarlo, nlp, programs, risk_bounds, seqdesign
from scendo.core import AlphaConfig, ProblemSpec, ScenarioData

#: data seeds whose outputs were recorded in reference.json
DEFAULT_SEEDS = {"solve": 7, "certify": 7, "sequential": 2024}

REFERENCE_FILE = Path(__file__).with_name("reference.json")

#: relative tolerance on objectives and epsilon_bar against the reference
REL_TOL = 1e-9

#: epsilon_bar(5000, 4, 1e-4) checked at every seed
EPS_5000_4 = 0.0044
EPS_5000_4_TOL = 2e-4

SD_THRESHOLD = 1e-3


def base_spec() -> ProblemSpec:
    """The benchmark's own circle spec; traced runs wrap its callables."""
    return ProblemSpec(
        objective=circle.circle_objective,
        requirements=[circle.circle_requirement],
        design_bounds=circle.DEFAULT_DESIGN_BOUNDS,
        m_a=2,
        m_e=3,
    )


def make_data(name: str, data_seed: int, seed: int) -> ScenarioData:
    """The workload's scenario sets from ``data_seed``, rows shuffled by ``seed``.

    Scenario programs do not depend on the order of the scenarios, and the
    ``certify`` and ``sequential`` paths are exactly invariant to it: every
    order gives the same outputs bit for bit, so each seed checks that.
    ``solve`` keeps the generated order.  Its penalty sums over slacks and
    constraints in row order, and a different rounding sends L-BFGS-B down
    another path: five orders of the 30x20 set took 88842 to 132124 merit
    evaluations.  A seeded order would make run-to-run spread a property of
    the inputs rather than of the code.
    """
    if name == "solve":
        return circle.generate_dataset(30, 20, seed=data_seed)
    if name == "certify":
        data = circle.generate_dataset(12, 10, seed=data_seed, n_a_test=10000, n_e_test=200)
    elif name == "sequential":
        data = circle.generate_dataset(30, 30, seed=data_seed, n_a_test=20000, n_e_test=400)
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng = np.random.default_rng(seed)

    def shuffle(rows):
        return rows[rng.permutation(rows.shape[0])]

    return ScenarioData(
        shuffle(data.aleatory), shuffle(data.epistemic),
        shuffle(data.testing_aleatory), shuffle(data.testing_epistemic),
    )


@dataclass
class Outcome:
    """Operations attempted, failed checks, and the reproducible outputs."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    def op(self, what: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{what}: {why}")


def _bits(x) -> list:
    """Exact representation of floats, for bit-for-bit comparison."""
    return [float(v).hex() for v in np.ravel(np.asarray(x, dtype=float))]


def _fast_opts() -> nlp.NlpOptions:
    return nlp.NlpOptions(seed=0, n_starts=4, max_inner=150)


def run_solve(spec: ProblemSpec, data: ScenarioData, out: Outcome) -> None:
    cfg = AlphaConfig(np.array([2 / 29]), np.array([2 / 19]))
    res = programs.solve_risk_averse_global(spec, data, cfg, nlp.NlpOptions(seed=0, n_starts=4))
    out.op("solve", res.solver_status == "converged", f"status {res.solver_status}")
    out.outputs.update(
        status=res.solver_status,
        nfev=int(res.diagnostics["nfev"]),
        objective=float(res.objective),
        objective_bits=_bits(res.objective),
        theta_bits=_bits(res.theta_star),
    )


def run_certify(spec: ProblemSpec, data: ScenarioData, out: Outcome) -> None:
    cfg = AlphaConfig.uniform(1)
    opts = _fast_opts()
    base = programs.solve_risk_agnostic_local(spec, data, cfg, opts)
    out.op("solve", base.solver_status == "converged", f"status {base.solver_status}")

    rmc = montecarlo.RmcConfig(alpha_a=np.zeros(1), alpha_e=np.zeros(1))
    report = montecarlo.analyze(spec, base.theta_star, data, rmc)
    ranges = np.concatenate([report.range_a.ravel(), report.range_b.ravel()])
    out.op(
        "analyze",
        bool(np.all((ranges >= 0) & (ranges <= 1)))
        and bool(np.all(report.range_a[:, 0] <= report.range_a[:, 1])),
        f"range_a {report.range_a.tolist()}",
    )

    loo_status = []

    def solver(d: ScenarioData):
        res = programs.solve_risk_agnostic_local(spec, d, cfg, opts)
        loo_status.append(res.solver_status)
        return res

    rb = risk_bounds.risk_bound(
        spec, solver, data, base.theta_star, circle.epistemic_box(),
        beta=1e-4, containment="optimization",
    )
    # support_scenarios re-solves the full set first, then leaves each row out
    for status in loo_status:
        out.op("leave-one-out solve", status == "converged", f"status {status}")
    # one containment test per scenario; one that raised has ended the run
    for _ in range(data.n_a):
        out.op("containment test", True)
    n_s, n_v, s = rb.n_support, rb.n_violation, rb.set_complexity
    out.op(
        "risk_bound epsilon_bar",
        max(n_s, n_v) <= s <= n_s + n_v and 0.0 < rb.epsilon_bar <= 1.0,
        f"n_s={n_s} n_v={n_v} s={s} epsilon_bar={rb.epsilon_bar}",
    )

    eps = risk_bounds.epsilon_bar(5000, 4, 1e-4)
    out.op("epsilon_bar", abs(eps - EPS_5000_4) <= EPS_5000_4_TOL, f"epsilon_bar(5000, 4) = {eps}")
    out.outputs.update(
        status=base.solver_status,
        nfev=int(base.diagnostics["nfev"]),
        objective=float(base.objective),
        objective_bits=_bits(base.objective),
        range_bits=_bits(ranges),
        n_s=n_s, n_v=n_v, s=s,
        epsilon_bar=float(rb.epsilon_bar),
        epsilon_bar_bits=_bits(rb.epsilon_bar),
        epsilon_bar_5000=float(eps),
    )


def sd_config() -> seqdesign.SdConfig:
    """Acceptance criterion c10's loop with smaller training sets and budget."""
    return seqdesign.SdConfig(
        rmc=montecarlo.RmcConfig(
            alpha_a=np.zeros(1), alpha_e=np.zeros(1), sigma=0.95, p_max=np.array([1e-3])
        ),
        metric="a_hi", threshold=SD_THRESHOLD, max_iter=12,
        n_a_init=30, n_e_init=30, n_a_cap=60, n_e_cap=120, growth=1.3,
        lambda_div=2.0, density=circle.aleatory_density,
        budgets=np.array([15]), seed=0,
    )


def run_sequential(spec: ProblemSpec, data: ScenarioData, out: Outcome) -> None:
    cfg = sd_config()
    opts = _fast_opts()
    baseline = programs.solve_risk_agnostic_local(spec, data, AlphaConfig.uniform(1), opts)
    out.op("solve", baseline.solver_status == "converged", f"status {baseline.solver_status}")

    theta, trace = seqdesign.run_sd(spec, data, baseline.theta_star, cfg, opts)
    # the iteration that ended the loop carries its verdict
    for r in trace.records:
        out.op(
            f"sd iteration {r.iteration}",
            r.iteration < len(trace) or (trace.met_spec and not trace.failed),
            f"met_spec={trace.met_spec} failed={trace.failed}",
        )

    report = montecarlo.analyze(spec, theta, data, cfg.rmc)
    a_hi = float(np.max(report.range_a[:, 1]))
    out.op("analyze", a_hi <= SD_THRESHOLD, f"final a_hi {a_hi} above {SD_THRESHOLD}")
    out.outputs.update(
        status=baseline.solver_status,
        nfev=int(baseline.diagnostics["nfev"]),
        iterations=len(trace),
        met_spec=bool(trace.met_spec),
        final_objective=float(trace.records[-1].objective),
        trajectory=[
            [r.iteration, r.n_a, r.n_e, _bits(r.alpha_a), _bits(r.objective),
             _bits(r.metric), _bits(r.theta)]
            for r in trace.records
        ],
        a_hi_bits=_bits(a_hi),
    )


RUNNERS = {"solve": run_solve, "certify": run_certify, "sequential": run_sequential}


# outputs compared with reference.json: discrete ones exactly, floats to REL_TOL
EXACT_KEYS = {
    "solve": ("status", "nfev"),
    "certify": ("status", "nfev", "n_s", "n_v", "s"),
    "sequential": ("status", "nfev", "iterations", "met_spec"),
}
CLOSE_KEYS = {
    "solve": ("objective",),
    "certify": ("objective", "epsilon_bar", "epsilon_bar_5000"),
    "sequential": ("final_objective",),
}


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def reference_problems(name: str, outputs: dict, reference: dict) -> list:
    """Differences between a default-seed run and the recorded values."""
    problems = []
    for key in EXACT_KEYS[name]:
        if outputs[key] != reference[key]:
            problems.append(f"{key} {outputs[key]!r} != reference {reference[key]!r}")
    for key in CLOSE_KEYS[name]:
        got, want = outputs[key], reference[key]
        if abs(got - want) > REL_TOL * abs(want):
            problems.append(f"{key} {got!r} not within {REL_TOL} of reference {want!r}")
    return problems

