import ast
import csv
import dataclasses
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scendo import circle, cli, nlp, programs, seqdesign
from scendo.core import AlphaConfig, InputError, ProblemBundle, ProblemSpec, register_problem
from scendo.circle import epistemic_box
from scendo.montecarlo import RmcConfig
from scendo.seqdesign import SdConfig


@register_problem("cli_test_unreachable")
def _unreachable_factory():
    """1-D problem with one scenario no design can satisfy."""
    spec = ProblemSpec(
        objective=lambda th: th[..., 0],
        requirements=[lambda th, a, e: a[..., 0] - th[..., 0] + 0.0 * e[..., 0]],
        design_bounds=[[0.0, 1.0]],
        m_a=1,
        m_e=1,
    )
    return ProblemBundle(spec=spec, epistemic_set=epistemic_box())


@register_problem("cli_test_nan")
def _nan_factory():
    """1-D problem whose objective is NaN at every design."""
    spec = ProblemSpec(
        objective=lambda th: np.nan * th[..., 0],
        requirements=[lambda th, a, e: a[..., 0] - th[..., 0] + 0.0 * e[..., 0]],
        design_bounds=[[0.0, 1.0]],
        m_a=1,
        m_e=1,
    )
    return ProblemBundle(spec=spec, epistemic_set=epistemic_box())


@register_problem("cli_test_nan_density")
def _nan_density_factory():
    """The unreachable 1-D problem with a likelihood that is NaN everywhere."""
    bundle = _unreachable_factory()
    return dataclasses.replace(bundle, density=lambda a: np.full(len(a), np.nan))


def _write_config(path: Path, **overrides) -> Path:
    config = {
        "problem": {"name": "circle"},
        "data": {"generate": {"n_a": 8, "n_e": 6, "seed": 3}},
        "formulation": "risk_agnostic_local",
        "alphas": {"alpha_a": 0.0, "alpha_e": 0.0},
        "solver": {"n_starts": 3, "max_inner": 100},
        "seed": 0,
        "output_dir": str(path.parent / "out"),
    }
    config.update(overrides)
    cfg_path = path
    cfg_path.write_text(json.dumps(config))
    return cfg_path


def test_solve_writes_deterministic_solution(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    sol_path = tmp_path / "out" / "solution.json"
    first = sol_path.read_bytes()
    sol = json.loads(first)
    assert sol["solver_status"] == "converged"
    assert len(sol["theta_star"]) == 3
    assert sol["trained_iid"] is True
    assert "config_hash" in sol and "version" in sol
    assert (tmp_path / "out" / "outliers.csv").exists()
    diag = sol["diagnostics"]
    assert {"nfev", "n_starts", "best_start", "violation", "viol_history"} <= set(diag)
    assert diag["n_starts"] == 3 and 0 <= diag["best_start"] < 3
    assert diag["nfev"] > 0
    assert diag["violation"] == diag["viol_history"][-1] <= 1e-6
    starts = diag["starts"]
    assert len(starts) == 3 and sum(s["nfev"] for s in starts) == diag["nfev"]
    best = starts[diag["best_start"]]
    assert best["violation"] == diag["violation"] and best["stages"] == len(diag["viol_history"])
    assert best["converged"] is True
    for s in starts:  # how each L-BFGS-B stage ended
        assert len(s["stage_exits"]) == s["stages"]
        assert all(set(e) == {"stop", "nit"} and e["nit"] >= 0 for e in s["stage_exits"])
    # byte-identical on re-run
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    assert sol_path.read_bytes() == first


@pytest.mark.parametrize("formulation", ["risk_agnostic_global", "risk_agnostic_local"])
def test_outliers_csv_lists_the_epistemic_outliers(tmp_path, formulation):
    # alpha_e 0.34 of 6 draws: two epistemic outliers, shared by every
    # scenario in the global program and per scenario in the local one
    cfg = _write_config(tmp_path / "cfg.json", formulation=formulation,
                        alphas={"alpha_a": 0.0, "alpha_e": 0.34})
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    sol = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert sol["epistemic_outliers"]
    with open(tmp_path / "out" / "outliers.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    cells = [(r["kind"], r["aleatory_index"], r["epistemic_index"]) for r in rows]
    want = [("aleatory", str(i), "") for i in sol["aleatory_outliers"]]
    if formulation == "risk_agnostic_global":
        want += [("epistemic_global", "", str(j)) for j in sol["epistemic_outliers"]]
    else:
        want += [
            ("epistemic", str(i), str(j))
            for i, per_i in enumerate(sol["epistemic_outliers"]) for j in per_i
        ]
    assert cells == want


def test_solve_malformed_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["solve", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"problem": {"name": "circle"}}))
    assert cli.main(["solve", "--config", str(missing)]) == 2


def test_solve_both_data_sources_exit_2(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        data={"generate": {"n_a": 6, "n_e": 4, "seed": 0}, "files": {"aleatory": "x"}},
    )
    assert cli.main(["solve", "--config", str(cfg)]) == 2


def _one_dim_config(tmp_path: Path, problem: str, testing: bool = False, **overrides) -> Path:
    """Config of a 1-D problem on five scenarios, one of them at a = 1000;
    with ``testing`` the same scenarios are the testing sets too."""
    a_csv = tmp_path / "a.csv"
    a_csv.write_text("a1\n0.5\n1000.0\n0.2\n0.1\n0.4\n")
    e_csv = tmp_path / "e.csv"
    e_csv.write_text("e1\n0.0\n0.0\n")
    files = {"aleatory": str(a_csv), "epistemic": str(e_csv)}
    if testing:
        files.update(testing_aleatory=str(a_csv), testing_epistemic=str(e_csv))
    return _write_config(
        tmp_path / "cfg.json", problem={"name": problem}, data={"files": files}, **overrides
    )


def test_infeasible_solve_exit_3_with_suggestion(tmp_path):
    out = tmp_path / "out"
    cfg = _one_dim_config(tmp_path, "cli_test_unreachable")
    assert cli.main(["solve", "--config", str(cfg)]) == 3
    sol = json.loads((out / "solution.json").read_text())
    assert sol["solver_status"] == "infeasible"
    assert sol["suggested_alpha_a"][0] > 0.15


def test_gen_data_round_trip(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        data={"generate": {"n_a": 10, "n_e": 7, "seed": 5, "n_a_test": 12, "n_e_test": 9}},
    )
    assert cli.main(["gen-data", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    a = np.loadtxt(out / "aleatory.csv", delimiter=",", skiprows=1)
    e = np.loadtxt(out / "epistemic.csv", delimiter=",", skiprows=1)
    assert a.shape == (10, 2) and e.shape == (7, 3)
    assert (out / "testing_aleatory.csv").exists()
    header = (out / "aleatory.csv").read_text().splitlines()[0]
    assert header == "a1,a2"
    # the CSVs round-trip through the file data source
    cfg2 = _write_config(
        tmp_path / "cfg2.json",
        data={"files": {"aleatory": str(out / "aleatory.csv"),
                        "epistemic": str(out / "epistemic.csv")}},
        output_dir=str(tmp_path / "out2"),
    )
    assert cli.main(["solve", "--config", str(cfg2)]) == 0


def test_analyze_writes_reports_and_risk_bound(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        data={"generate": {"n_a": 6, "n_e": 4, "seed": 2, "n_a_test": 300, "n_e_test": 25}},
        scenario_theory={"beta": 1e-4, "containment": "sampling", "n_probe": 300},
        solver={"n_starts": 2, "max_inner": 80},
    )
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    design = tmp_path / "out" / "solution.json"
    assert cli.main(["analyze", "--config", str(cfg), "--design", str(design)]) == 0
    out = tmp_path / "out"
    rows = (out / "rmc_report.csv").read_text().splitlines()
    assert rows[0] == "requirement,a_lo,a_hi,b_lo,b_hi,c,d_lo,d_hi"
    assert len(rows) == 2
    numbers = np.loadtxt(out / "rmc_report.csv", delimiter=",", skiprows=1)
    assert numbers.shape == (8,)
    assert np.all((numbers[1:] >= 0) & (numbers[1:] <= 1))
    rb = json.loads((out / "risk_bound.json").read_text())
    assert rb["validity"] == "valid"
    assert max(rb["n_s"], rb["n_v"]) <= rb["s_E"] <= rb["n_s"] + rb["n_v"]
    assert 0.0 <= rb["epsilon_bar"] <= 1.0


def test_analyze_non_iid_design_flagged(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        data={"generate": {"n_a": 6, "n_e": 4, "seed": 2, "n_a_test": 200, "n_e_test": 20}},
        scenario_theory={"beta": 1e-4, "containment": "sampling", "n_probe": 200},
        solver={"n_starts": 2, "max_inner": 80},
    )
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"theta_star": [0.5, 0.3, 6.0], "trained_iid": False}))
    assert cli.main(["analyze", "--config", str(cfg), "--design", str(design)]) == 0
    rb = json.loads((tmp_path / "out" / "risk_bound.json").read_text())
    assert rb["validity"] == "not-valid-non-iid"


def test_analyze_scenario_theory_on_two_scenarios_exit_2(tmp_path, capsys):
    # leaving one of two scenarios out leaves too few to solve on
    cfg = _write_config(
        tmp_path / "cfg.json",
        data={"generate": {"n_a": 2, "n_e": 4, "seed": 2, "n_a_test": 50, "n_e_test": 5}},
        scenario_theory={"containment": "sampling", "n_probe": 50},
        solver={"n_starts": 2, "max_inner": 40},
    )
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"theta_star": [0.5, 0.3, 6.0]}))
    assert cli.main(["analyze", "--config", str(cfg), "--design", str(design)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: scenario theory needs at least 3 aleatory scenarios to leave one out, got 2\n"
    )


def test_analyze_bad_beta_exit_2_before_any_work(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        pytest.fail("analyze solved before checking beta")

    monkeypatch.setattr(cli, "solve_program", never)
    cfg = _write_config(tmp_path / "cfg.json", data=_TESTED_DATA, scenario_theory={"beta": 0})
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"theta_star": [0.5, 0.3, 6.0]}))
    assert cli.main(["analyze", "--config", str(cfg), "--design", str(design)]) == 2
    assert capsys.readouterr().err == "error: beta must lie in (0, 1)\n"
    assert not (tmp_path / "out" / "rmc_report.json").exists()


def _files_config(tmp_path: Path, **widths) -> Path:
    """Circle config reading its four datasets from CSV files; ``widths``
    overrides a file's column count (the circle has m_a = 2, m_e = 3)."""
    rng = np.random.default_rng(0)
    shapes = {"aleatory": (8, 2), "epistemic": (4, 3),
              "testing_aleatory": (40, 2), "testing_epistemic": (6, 3)}
    files = {}
    for key, (rows, cols) in shapes.items():
        cols = widths.get(key, cols)
        files[key] = str(tmp_path / f"{key}.csv")
        header = ",".join(f"c{i + 1}" for i in range(cols))
        np.savetxt(files[key], rng.uniform(-0.5, 0.5, size=(rows, cols)),
                   delimiter=",", header=header, comments="")
    return _write_config(
        tmp_path / "cfg.json",
        data={"files": files},
        sd={"metric": "a_hi", "threshold": 0.0, "max_iter": 1, "n_a_init": 8, "n_e_init": 4},
    )


@pytest.mark.parametrize(
    "verb,widths,key",
    [
        ("solve", {"aleatory": 3, "testing_aleatory": 3}, "data.files.aleatory"),
        ("solve", {"epistemic": 2, "testing_epistemic": 2}, "data.files.epistemic"),
        ("sequential", {"aleatory": 3, "testing_aleatory": 3}, "data.files.aleatory"),
        ("sequential", {"epistemic": 4, "testing_epistemic": 4}, "data.files.epistemic"),
        ("sequential", {"testing_aleatory": 1}, "data.files.testing_aleatory"),
        ("sequential", {"testing_epistemic": 2}, "data.files.testing_epistemic"),
    ],
)
def test_data_file_width_mismatch_exit_2(tmp_path, capsys, verb, widths, key):
    cfg = _files_config(tmp_path, **widths)
    assert cli.main([verb, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{key} has {next(iter(widths.values()))} columns" in err


def test_analyze_dimension_mismatch_exit_2(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        data={"generate": {"n_a": 6, "n_e": 4, "seed": 2, "n_a_test": 50, "n_e_test": 10}},
    )
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"theta_star": [1.0, 2.0]}))
    assert cli.main(["analyze", "--config", str(cfg), "--design", str(design)]) == 2


def test_sequential_meets_loose_spec(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        data={"generate": {"n_a": 4, "n_e": 4, "seed": 6, "n_a_test": 500, "n_e_test": 25}},
        sd={"metric": "a_hi", "threshold": 0.05, "max_iter": 6, "n_a_init": 10,
            "n_e_init": 8, "n_a_cap": 40, "n_e_cap": 20, "lambda_div": 1.0},
        solver={"n_starts": 3, "max_inner": 100},
    )
    assert cli.main(["sequential", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    trace = (out / "sd_trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,n_a,alpha_a,J,metric,n_violated,n_e"
    assert 2 <= len(trace) <= 7
    final = json.loads((out / "design.json").read_text())
    assert final["met_spec"] is True
    assert final["trained_iid"] is False


def test_sequential_exit_4_when_unattainable(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        data={"generate": {"n_a": 4, "n_e": 4, "seed": 6, "n_a_test": 200, "n_e_test": 10}},
        sd={"metric": "a_hi", "threshold": 0.0, "max_iter": 1, "n_a_init": 8,
            "n_e_init": 6},
        solver={"n_starts": 2, "max_inner": 60},
    )
    assert cli.main(["sequential", "--config", str(cfg)]) == 4
    assert (tmp_path / "out" / "sd_trace.csv").exists()


def test_solve_moment_formulation(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        formulation="moment_risk_averse",
        solver={"n_starts": 2, "max_inner": 80},
    )
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    sol = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert sol["lambda_star"] is not None
    assert sol["objective"] == sol["lambda_star"]


def test_epsilon_verb(capsys):
    assert cli.main(["epsilon", "--n", "50", "--k", "2", "--beta", "1e-4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["epsilon_bar"] == pytest.approx(0.303, abs=1e-3)


def test_epsilon_verb_rejects_bad_inputs(capsys):
    assert cli.main(["epsilon", "--n", "50", "--k", "60"]) == 2
    assert capsys.readouterr().err == "error: need 0 <= k <= n_a, got k=60, n_a=50\n"
    assert cli.main(["epsilon", "--n", "0", "--k", "0"]) == 2
    assert capsys.readouterr().err == "error: need n_a >= 1, got n_a=0\n"


def test_log_env_validation(tmp_path, monkeypatch):
    monkeypatch.setenv("SCENDO_LOG", "chatty")
    cfg = _write_config(tmp_path / "cfg.json")
    assert cli.main(["solve", "--config", str(cfg)]) == 2


def test_failed_alpha_suggestion_is_not_retried(tmp_path, monkeypatch):
    calls = []

    def failing_seed(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("seed diverged")

    monkeypatch.setattr(programs, "solve_feasibility_seed", failing_seed)
    cfg = _one_dim_config(tmp_path, "cli_test_unreachable")
    assert cli.main(["solve", "--config", str(cfg)]) == 3
    assert len(calls) == 1
    sol = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert sol["suggested_alpha_a"] is None
    assert sol["diagnostics"]["alpha_suggestion_error"] == "RuntimeError: seed diverged"


def test_non_finite_merit_exit_5(tmp_path, capsys):
    cfg = _one_dim_config(tmp_path, "cli_test_nan")
    assert cli.main(["solve", "--config", str(cfg)]) == 5
    err = capsys.readouterr().err
    assert err == (
        "error: ArithmeticError: non-finite merit value at finite-difference probe of coordinate 0 of start 0\n"
    )


def test_runtime_error_exit_5(tmp_path, capsys, monkeypatch):
    def failing_solve(*args, **kwargs):
        raise RuntimeError("leave-one-out solve failed for scenario 3")

    monkeypatch.setattr(cli, "solve_program", failing_solve)
    cfg = _write_config(tmp_path / "cfg.json")
    assert cli.main(["solve", "--config", str(cfg)]) == 5
    assert capsys.readouterr().err == "error: RuntimeError: leave-one-out solve failed for scenario 3\n"


def test_sequential_training_solve_nan_exit_5(tmp_path, capsys):
    # the baseline is given, so the first solve that meets the NaN objective
    # is a training solve of the loop
    cfg = _one_dim_config(
        tmp_path, "cli_test_nan", testing=True,
        sd={"baseline": [0.5], "max_iter": 2, "n_a_init": 3, "n_e_init": 2},
    )
    assert cli.main(["sequential", "--config", str(cfg)]) == 5
    assert capsys.readouterr().err == (
        "error: ArithmeticError: non-finite merit value at finite-difference probe of coordinate 0 of start 0\n"
    )
    assert not (tmp_path / "out" / "sd_trace.csv").exists()
    assert not (tmp_path / "out" / "design.json").exists()


def test_sequential_nan_likelihood_exit_2(tmp_path, capsys):
    # the baseline violates at a = 1000, so the loop selects training scenarios
    cfg = _one_dim_config(
        tmp_path, "cli_test_nan_density", testing=True,
        sd={"baseline": [0.5], "max_iter": 2, "n_a_init": 3, "n_e_init": 2},
    )
    assert cli.main(["sequential", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: the density must return one finite, nonnegative value per testing aleatory point\n"
    )
    assert not (tmp_path / "out" / "sd_trace.csv").exists()


def test_analyze_reports_the_distance_to_the_re_solved_design(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        data={"generate": {"n_a": 6, "n_e": 4, "seed": 2, "n_a_test": 200, "n_e_test": 20}},
        scenario_theory={"beta": 1e-4, "containment": "sampling", "n_probe": 200},
        solver={"n_starts": 2, "max_inner": 80},
    )
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    solution = json.loads((out / "solution.json").read_text())
    assert cli.main(["analyze", "--config", str(cfg), "--design", str(out / "solution.json")]) == 0
    rb = json.loads((out / "risk_bound.json").read_text())
    assert rb["design_distance"] == 0.0 and rb["validity"] == "valid"

    moved = tmp_path / "moved.json"
    theta = np.asarray(solution["theta_star"]) + np.array([0.0, 0.0, 0.05])
    moved.write_text(json.dumps({"theta_star": theta.tolist()}))
    assert cli.main(["analyze", "--config", str(cfg), "--design", str(moved)]) == 0
    rb = json.loads((out / "risk_bound.json").read_text())
    assert rb["design_distance"] == pytest.approx(0.05, rel=1e-9)
    assert rb["validity"] == "not-reproduced"


def test_sequential_training_solve_input_error_exit_2(tmp_path, capsys, monkeypatch):
    def failing_solve(*args, **kwargs):
        raise InputError("no design on these scenarios")

    monkeypatch.setattr(seqdesign, "solve_risk_agnostic_local", failing_solve)
    cfg = _write_config(
        tmp_path / "cfg.json", data=_TESTED_DATA,
        sd={"baseline": [0.5, 0.3, 6.0], "max_iter": 2, "n_a_init": 6, "n_e_init": 4,
            "j_bound": -1.0},
    )
    assert cli.main(["sequential", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: no design on these scenarios\n"
    assert not (tmp_path / "out" / "sd_trace.csv").exists()


def _broad_handlers(tree: ast.AST, scope: str = ""):
    """(scope, line) of every bare ``except:`` and every handler naming
    Exception or BaseException, with scope the dotted class/function path."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(c is None or (isinstance(c, ast.Name) and c.id in ("Exception", "BaseException"))
                   for c in caught):
                yield scope, node.lineno
        yield from _broad_handlers(node, inner)


def test_library_catches_no_broad_exception_but_in_the_replay_screen():
    src = Path(cli.__file__).resolve().parent
    found = {
        f"{path.stem}:{scope}:{line}"
        for path in sorted(src.glob("*.py"))
        for scope, line in _broad_handlers(ast.parse(path.read_text()))
    }
    screen = {f for f in found if f.startswith("replay:_Entry.replays:")}
    assert len(screen) == 1 and found == screen, sorted(found)


#: data with testing sets, for the verbs that need them
_TESTED_DATA = {"generate": {"n_a": 6, "n_e": 4, "seed": 2, "n_a_test": 50, "n_e_test": 5}}

#: one misspelled key per config section: (section, verb, overrides, bad key)
_MISSPELLED = [
    ("<top level>", "solve", {"sead": 0}, "sead"),
    ("problem", "solve", {"problem": {"name": "circle", "param": {}}}, "param"),
    ("data", "solve", {"data": {"generate": {"n_a": 8, "n_e": 6}, "iiid": True}}, "iiid"),
    ("data.generate", "solve", {"data": {"generate": {"n_a": 8, "n_e": 6, "sed": 3}}}, "sed"),
    ("data.files", "solve",
     {"data": {"files": {"aleatory": "a.csv", "epistemic": "e.csv", "testing_aleatroy": "t.csv"}}},
     "testing_aleatroy"),
    ("alphas", "solve", {"alphas": {"alpha_aa": 0.5}}, "alpha_aa"),
    ("solver", "solve", {"solver": {"n_start": 3}}, "n_start"),
    ("rmc", "analyze", {"data": _TESTED_DATA, "rmc": {"sigmaa": 0.9}}, "sigmaa"),
    ("scenario_theory", "analyze",
     {"data": _TESTED_DATA, "scenario_theory": {"beta": 1e-4, "containment": "sampling",
                                                "n_probe": 50, "betta": 1e-3}},
     "betta"),
    ("sd", "sequential",
     {"data": _TESTED_DATA, "sd": {"max_iter": 1, "n_a_init": 6, "n_e_init": 4, "treshold": 0.5}},
     "treshold"),
]

#: keys the solver section rejects though NlpOptions once had them, each at
#: its old default: the penalty schedule and tolerances are constants of scendo.nlp
_REMOVED_SOLVER_KEYS = {
    "penalty_init": 10.0, "penalty_growth": 10.0, "penalty_max": 1e9, "fd_step": 1e-6,
    "max_outer": 12, "tol_x": 1e-8, "tol_con": 1e-6,
}
#: keys the sd section rejects though SdConfig once had them, at their old
#: defaults: no program the loop runs reads the slack penalty rho
_REMOVED_SD_KEYS = {"rho": 1e6}
_REMOVED = [
    ("solver", "solve", {"solver": {key: value}}, key) for key, value in _REMOVED_SOLVER_KEYS.items()
] + [
    ("sd", "sequential", {"data": _TESTED_DATA, "sd": {key: value}}, key)
    for key, value in _REMOVED_SD_KEYS.items()
]
_UNKNOWN_KEYS = _MISSPELLED + _REMOVED


@pytest.mark.parametrize(
    "section,verb,overrides,bad",
    _UNKNOWN_KEYS,
    ids=[case[0] for case in _MISSPELLED] + [f"{case[0]}.{case[3]}" for case in _REMOVED],
)
def test_unknown_config_key_exit_2(tmp_path, capsys, section, verb, overrides, bad):
    cfg = _write_config(tmp_path / "cfg.json", **overrides)
    argv = [verb, "--config", str(cfg)]
    if verb == "analyze":
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"theta_star": [0.5, 0.3, 6.0]}))
        argv += ["--design", str(design)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"unknown key(s) in config section {section!r}: [{bad!r}]" in err


def test_analyze_feasibility_seed_design_with_scenario_theory(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        data={"generate": {"n_a": 6, "n_e": 4, "seed": 2, "n_a_test": 50, "n_e_test": 5}},
        formulation="feasibility_seed",
        scenario_theory={"containment": "sampling", "n_probe": 50},
        solver={"n_starts": 2, "max_inner": 60},
    )
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    sol = json.loads((out / "solution.json").read_text())
    assert sol["solver_status"] == "converged"
    assert sol["objective"] == sol["alpha_a_lower"][0]
    assert {"diagnostics", "aleatory_outliers"} <= set(sol)
    assert sol["diagnostics"]["n_starts"] == 2
    assert (out / "outliers.csv").exists()
    design = out / "solution.json"
    assert cli.main(["analyze", "--config", str(cfg), "--design", str(design)]) == 0
    rb = json.loads((out / "risk_bound.json").read_text())
    assert 0.0 <= rb["epsilon_bar"] <= 1.0


#: one wrong-typed value per config section, then out-of-range values:
#: (verb, overrides, key named on stderr)
_BAD_VALUES = [
    ("solve", {"seed": "0"}, "seed"),
    ("solve", {"problem": {"name": ["circle"]}}, "problem.name"),
    ("solve", {"problem": {"name": "circle", "params": {"radius_max": 3}}}, "radius_max"),
    ("solve", {"data": {"generate": {"n_a": 8, "n_e": 6}, "iid": "false"}}, "data.iid"),
    ("solve", {"data": {"generate": {"n_a": 6.7, "n_e": 6}}}, "data.generate.n_a"),
    ("solve", {"data": {"generate": {"n_a": "eight", "n_e": 6}}}, "data.generate.n_a"),
    ("solve", {"data": {"files": {"aleatory": 1, "epistemic": "e.csv"}}}, "data.files.aleatory"),
    ("solve", {"alphas": {"alpha_a": "x"}}, "alphas.alpha_a"),
    ("solve", {"alphas": {"alpha_e": {"k": 0.1}}}, "alphas.alpha_e"),
    ("solve", {"alphas": {"rho": True}}, "alphas.rho"),
    ("solve", {"solver": {"n_starts": "2"}}, "solver.n_starts"),
    ("solve", {"solver": {"max_inner": 6.7}}, "solver.max_inner"),
    ("analyze", {"data": _TESTED_DATA, "rmc": {"worst_case": "false"}}, "rmc.worst_case"),
    ("analyze", {"data": _TESTED_DATA, "rmc": {"p_max": {"k": 0.1}}}, "rmc.p_max"),
    ("analyze", {"data": _TESTED_DATA, "rmc": {"alpha_a": [0.1, "x"]}}, "rmc.alpha_a"),
    ("analyze", {"data": _TESTED_DATA, "scenario_theory": {"n_probe": 6.7}},
     "scenario_theory.n_probe"),
    ("analyze", {"data": _TESTED_DATA, "scenario_theory": {"containment": 1}},
     "scenario_theory.containment"),
    ("sequential", {"data": _TESTED_DATA, "sd": {"max_iter": 6.7}}, "sd.max_iter"),
    ("sequential", {"data": _TESTED_DATA, "sd": {"use_density": "false"}}, "sd.use_density"),
    ("sequential", {"data": _TESTED_DATA, "sd": {"threshold": "1e-3"}}, "sd.threshold"),
    ("sequential", {"data": _TESTED_DATA, "sd": {"baseline": {"theta": 1}}}, "sd.baseline"),
    ("solve", {"problem": {"name": "circle", "params": {"design_bounds": "x"}}}, "design_bounds"),
    ("solve", {"solver": {"n_starts": 0}}, "n_starts"),
    ("solve", {"solver": {"max_inner": 0}}, "max_inner"),
    ("sequential", {"data": _TESTED_DATA, "sd": {"baseline": [1.0, 2.0]}}, "sd.baseline"),
    ("sequential", {"data": _TESTED_DATA, "sd": {"baseline": [0.5, 0.3, 6.0, 1.0]}},
     "sd.baseline"),
]


@pytest.mark.parametrize(
    "verb,overrides,key", _BAD_VALUES, ids=[f"{case[2]}-{i}" for i, case in enumerate(_BAD_VALUES)]
)
def test_wrong_typed_config_value_exit_2(tmp_path, capsys, verb, overrides, key):
    cfg = _write_config(tmp_path / "cfg.json", **overrides)
    argv = [verb, "--config", str(cfg)]
    if verb == "analyze":
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"theta_star": [0.5, 0.3, 6.0]}))
        argv += ["--design", str(design)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err


def test_wrong_typed_design_value_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", data=_TESTED_DATA)
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"theta_star": [0.5, 0.3, 6.0], "trained_iid": "yes"}))
    assert cli.main(["analyze", "--config", str(cfg), "--design", str(design)]) == 2
    assert "design.trained_iid" in capsys.readouterr().err
    design.write_text(json.dumps({"theta_star": ["a", 0.3, 6.0]}))
    assert cli.main(["analyze", "--config", str(cfg), "--design", str(design)]) == 2
    assert "design.theta_star" in capsys.readouterr().err


#: a negative seed or dataset size: (extra arguments, overrides, key named on stderr)
_NEGATIVE = [
    (["--seed", "-1"], {}, "seed"),
    ([], {"seed": -1}, "seed"),
    ([], {"solver": {"seed": -1}}, "seed"),
    ([], {"data": {"generate": {"n_a": -4, "n_e": 6}}}, "data.generate.n_a"),
    ([], {"data": {"generate": {"n_a": 8, "n_e": 6, "seed": -2}}}, "data.generate.seed"),
]


@pytest.mark.parametrize(
    "extra,overrides,key", _NEGATIVE,
    ids=["--seed", "seed", "solver.seed", "data.generate.n_a", "data.generate.seed"],
)
def test_negative_seed_or_size_exit_2(tmp_path, capsys, extra, overrides, key):
    cfg = _write_config(tmp_path / "cfg.json", **overrides)
    assert cli.main(["solve", "--config", str(cfg), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err and "nonnegative" in err
    assert not (tmp_path / "out").exists()


#: a non-finite number Python's json module writes and reads but JSON does
#: not allow: (verb, overrides, the constant named on stderr)
_NON_FINITE = [
    ("analyze", {"rmc": {"alpha_a": float("nan")}}, "NaN"),
    ("analyze", {"rmc": {"p_max": float("nan")}}, "NaN"),
    ("solve", {"alphas": {"rho": float("inf")}}, "Infinity"),
    ("solve", {"alphas": {"kappa": float("-inf")}}, "-Infinity"),
]


@pytest.mark.parametrize(
    "verb,overrides,constant", _NON_FINITE,
    ids=["rmc.alpha_a", "rmc.p_max", "alphas.rho", "alphas.kappa"],
)
def test_non_finite_config_number_exit_2(tmp_path, capsys, verb, overrides, constant):
    cfg = _write_config(tmp_path / "cfg.json", data=_TESTED_DATA, **overrides)
    argv = [verb, "--config", str(cfg)]
    if verb == "analyze":
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"theta_star": [0.5, 0.3, 6.0]}))
        argv += ["--design", str(design)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: config {cfg} holds {constant}, which is not a JSON number\n"
    )
    assert not (tmp_path / "out").exists()


#: the library dataclasses behind config sections, with the fields the CLI fills
_SECTIONS = [
    ("alphas", AlphaConfig, {}),
    ("solver", nlp.NlpOptions, {}),
    ("rmc", RmcConfig, {}),
    ("sd", SdConfig, {"rmc": None, "density": None, "seed": 0, "budgets": None}),
]


@pytest.mark.parametrize("section,cls,given", _SECTIONS, ids=[case[0] for case in _SECTIONS])
def test_omitted_section_loads_dataclass_defaults(section, cls, given):
    default = repr(cls(**given))
    all_null = dict.fromkeys((f.name for f in dataclasses.fields(cls) if f.name not in given))
    for conf in (None, {}, all_null):
        assert repr(cli._load(section, conf, cls, **given)) == default


def _readme_config() -> dict:
    """The jsonc example under "Config schema" in README.md, comments stripped."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("### Config schema", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    return json.loads(re.sub(r"//.*", "", block))


def test_readme_config_example_shows_the_dataclass_defaults():
    config = cli._section(cli._TOP_LEVEL, _readme_config(), cli.CONFIG_KEYS)
    # the two sd keys that are not SdConfig fields, at the CLI's defaults
    sd = dict(config["sd"])
    assert sd.pop("use_density") is True and sd.pop("baseline") is None
    config["sd"] = sd
    for section, cls, given in _SECTIONS:
        assert repr(cli._load(section, config[section], cls, **given)) == repr(cls(**given)), section
    # scenario_theory shows risk_bound's defaults
    defaults = inspect.signature(cli.risk_bound).parameters
    st = config["scenario_theory"]
    assert st == {key: defaults[key].default for key in st}


def test_sequential_loads_sdconfig_defaults(tmp_path, monkeypatch):
    captured = {}

    def fake_run_sd(spec, data, baseline, cfg, opts):
        captured.update(baseline=baseline, cfg=cfg, opts=opts)
        raise RuntimeError("captured")

    monkeypatch.setattr(cli, "run_sd", fake_run_sd)
    cfg = _write_config(
        tmp_path / "cfg.json", data=_TESTED_DATA, solver=None, sd={"baseline": [0.5, 0.3, 6.0]}
    )
    assert cli.main(["sequential", "--config", str(cfg)]) == 5
    expected = SdConfig(rmc=RmcConfig(), density=circle.aleatory_density, seed=0)
    assert repr(captured["cfg"]) == repr(expected)
    assert repr(captured["opts"]) == repr(nlp.NlpOptions())
    assert captured["baseline"].tolist() == [0.5, 0.3, 6.0]


@settings(max_examples=50, deadline=None)
@given(
    st.fixed_dictionaries({}, optional={
        "alpha_a": st.floats(0.0, 1.0) | st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
        "alpha_e": st.floats(0.0, 1.0),
        "rho": st.floats(0.0, 1e9),
        "kappa": st.floats(1.0, 1e4),
        "gamma": st.floats(1.0, 1e4),
    }),
    st.fixed_dictionaries({}, optional={
        "max_inner": st.integers(1, 1000), "n_starts": st.integers(1, 20),
        "seed": st.integers(0, 2**32),
    }),
)
def test_valid_sections_load_like_the_constructor(alphas, solver):
    expected = AlphaConfig(**alphas)
    assert repr(cli._load("alphas", alphas, AlphaConfig)) == repr(expected)
    assert repr(cli._load("solver", solver, nlp.NlpOptions)) == repr(nlp.NlpOptions(**solver))
