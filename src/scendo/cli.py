"""Command-line interface.

Verbs:
  solve       run one scenario-program formulation, write solution.json
              and outliers.csv
  analyze     robust Monte Carlo + risk-bound analysis of a saved design,
              write rmc_report.csv/.json and risk_bound.json
  sequential  run the sequential design loop, write sd_trace.csv and the
              final design
  gen-data    write the configured datasets as CSV files
  epsilon     print the risk bound for given (n, k, beta)

Configuration is a single JSON document (see README for the schema); CSV
is used for all tabular data; every config section rejects keys it does
not read.  Exit codes: 0 ok, 2 input error, 3 infeasible, 4 specification
not met, 5 numerical failure (a non-finite merit value, a failed
leave-one-out solve).  The environment variable
SCENDO_LOG in {error, info, debug} controls log verbosity.  All commands
are deterministic given (config, seed); every JSON report embeds the
config hash and the tool version.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

import scendo
import scendo.circle  # registers the built-in problem
from scendo import nlp
from scendo.core import AlphaConfig, InputError, ScenarioData, make_problem
from scendo.montecarlo import RmcConfig, analyze
from scendo.programs import (
    Formulation,
    FormulationTag,
    MomentSpec,
    solve as solve_program,
    solve_feasibility_seed,
)
from scendo.risk_bounds import risk_bound
from scendo.seqdesign import SdConfig, run_sd

logger = logging.getLogger("scendo")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_SPEC_NOT_MET = 4
EXIT_NUMERICAL = 5

#: top-level keys of the run configuration
CONFIG_KEYS = (
    "problem", "data", "formulation", "alphas", "solver", "rmc", "scenario_theory", "sd",
    "seed", "output_dir",
)


def _configure_logging() -> None:
    level_name = os.environ.get("SCENDO_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise InputError(f"SCENDO_LOG must be one of {sorted(levels)}, got {level_name!r}")
    logging.basicConfig(level=levels[level_name], format="%(levelname)s %(name)s: %(message)s")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _check_keys(section: str, conf, allowed) -> dict:
    """``conf`` itself, after checking it is an object with only ``allowed`` keys."""
    if not isinstance(conf, dict):
        raise InputError(f"config section {section!r} must be a JSON object")
    unknown = set(conf) - set(allowed)
    if unknown:
        raise InputError(f"unknown key(s) in config section {section!r}: {sorted(unknown)}")
    return conf


def _load_config(path: str, keys=None) -> dict:
    """The JSON object in ``path``; with ``keys``, only those top-level keys are allowed."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from None
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON (line {exc.lineno}: {exc.msg})") from None
    if not isinstance(config, dict):
        raise InputError("config root must be a JSON object")
    if keys is not None:
        _check_keys("<top level>", config, keys)
    return config


def _field(config: dict, name: str, required: bool = True, default=None):
    if name not in config:
        if required:
            raise InputError(f"config field {name!r} is missing")
        return default
    return config[name]


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _csv_cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return int(v)
    return v


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


def _load_matrix_csv(path: str) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise InputError(f"cannot read data file {path}: {exc}") from None
    except ValueError as exc:
        raise InputError(f"malformed CSV {path}: {exc}") from None


def _save_matrix_csv(path: Path, mat: np.ndarray, prefix: str) -> None:
    header = [f"{prefix}{i + 1}" for i in range(mat.shape[1])]
    _write_csv(path, header, ([float(v) for v in row] for row in mat))


def _build_problem(config: dict):
    pconf = _check_keys("problem", _field(config, "problem"), ("name", "params"))
    if "name" not in pconf:
        raise InputError("config field 'problem' must be {\"name\": ..., \"params\": {...}}")
    return make_problem(pconf["name"], **pconf.get("params", {}))


def _build_data(config: dict, bundle) -> tuple[ScenarioData, bool]:
    dconf = _check_keys("data", _field(config, "data"), ("generate", "files", "iid"))
    gen = dconf.get("generate")
    files = dconf.get("files")
    if (gen is None) == (files is None):
        raise InputError("config field 'data' needs exactly one of 'generate' or 'files'")
    iid = bool(dconf.get("iid", True))
    if gen is not None:
        _check_keys("data.generate", gen, ("n_a", "n_e", "seed", "n_a_test", "n_e_test"))
        if bundle.generate is None:
            raise InputError("the selected problem has no dataset generator")
        data = bundle.generate(
            int(gen.get("n_a", 50)),
            int(gen.get("n_e", 50)),
            int(gen.get("seed", 0)),
            int(gen.get("n_a_test", 0)),
            int(gen.get("n_e_test", 0)),
        )
        return data, iid
    file_keys = ("aleatory", "epistemic", "testing_aleatory", "testing_epistemic")
    _check_keys("data.files", files, file_keys)
    mats = {}
    for key in file_keys:
        if key in files:
            mats[key] = _load_matrix_csv(files[key])
    if "aleatory" not in mats or "epistemic" not in mats:
        raise InputError("data.files needs at least 'aleatory' and 'epistemic'")
    return ScenarioData(**mats), iid


def _build_alphas(config: dict, n_r: int) -> AlphaConfig:
    aconf = _field(config, "alphas", required=False, default={}) or {}
    _check_keys("alphas", aconf, ("alpha_a", "alpha_e", "rho", "kappa", "gamma"))

    def vec(key):
        v = aconf.get(key, 0.0)
        return np.asarray(v if isinstance(v, list) else [float(v)] * n_r, float)

    return AlphaConfig(
        vec("alpha_a"),
        vec("alpha_e"),
        rho=float(aconf.get("rho", 1e6)),
        kappa=float(aconf.get("kappa", 1000.0)),
        gamma=float(aconf.get("gamma", 100.0)),
    )


def _build_opts(config: dict, seed_override) -> nlp.NlpOptions:
    sconf = _field(config, "solver", required=False, default={}) or {}
    _check_keys("solver", sconf, nlp.NlpOptions().__dict__.keys())
    opts = nlp.NlpOptions(**sconf)
    if seed_override is not None:
        opts.seed = int(seed_override)
    elif "seed" in config:
        opts.seed = int(config["seed"])
    return opts


def _build_formulation(config: dict, bundle) -> Formulation:
    name = _field(config, "formulation")
    try:
        tag = FormulationTag(name)
    except ValueError:
        known = ", ".join(t.value for t in FormulationTag)
        raise InputError(f"unknown formulation {name!r}; one of: {known}") from None
    moment = None
    if tag in (FormulationTag.MOMENT_RISK_AVERSE, FormulationTag.MOMENT_RISK_AGNOSTIC):
        if bundle.response is None:
            raise InputError("moment formulations need a problem with a response function")
        moment = MomentSpec(response=bundle.response)
    return Formulation(tag=tag, moment=moment)


def _build_rmc(config: dict, n_r: int) -> RmcConfig:
    rconf = _field(config, "rmc", required=False, default={}) or {}
    _check_keys("rmc", rconf, ("alpha_a", "alpha_e", "sigma", "p_max", "worst_case"))

    def vec(key, default):
        v = rconf.get(key, default)
        return np.asarray(v if isinstance(v, list) else [float(v)] * n_r, float)

    return RmcConfig(
        alpha_a=vec("alpha_a", 0.0),
        alpha_e=vec("alpha_e", 0.0),
        sigma=float(rconf.get("sigma", 0.95)),
        p_max=vec("p_max", 0.01),
        worst_case=bool(rconf.get("worst_case", False)),
    )


def _provenance(config: dict) -> dict:
    return {"config_hash": _config_hash(config), "version": scendo.__version__}


def _out_dir(config: dict, override) -> Path:
    out = Path(override) if override else Path(_field(config, "output_dir", required=False, default="."))
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


#: SolveResult.diagnostics entries copied into solution.json
SOLUTION_DIAGNOSTICS = (
    "nfev", "n_starts", "best_start", "violation", "viol_history", "alpha_suggestion_error",
)


def cmd_solve(args) -> int:
    config = _load_config(args.config, CONFIG_KEYS)
    bundle = _build_problem(config)
    spec = bundle.spec
    data, iid = _build_data(config, bundle)
    cfg = _build_alphas(config, spec.n_r)
    opts = _build_opts(config, args.seed)
    formulation = _build_formulation(config, bundle)
    out = _out_dir(config, args.output)

    result = solve_program(formulation, spec, data, cfg, opts)
    if formulation.tag == FormulationTag.FEASIBILITY_SEED:
        theta, alpha = result
        payload = {
            "problem": config["problem"]["name"],
            "formulation": formulation.tag.value,
            "theta_star": theta,
            "alpha_a_lower": alpha,
            "trained_iid": iid,
            **_provenance(config),
        }
        _write_json(out / "solution.json", payload)
        return EXIT_OK

    payload = {
        "problem": config["problem"]["name"],
        "formulation": formulation.tag.value,
        "theta_star": result.theta_star,
        "objective": result.objective,
        "solver_status": result.solver_status,
        "restarts_used": result.restarts_used,
        "xi_star": result.xi_star,
        "lambda_star": result.lambda_star,
        "aleatory_outliers": result.aleatory_outliers,
        "epistemic_outliers": result.epistemic_outliers,
        "trained_iid": iid,
        "diagnostics": {
            k: result.diagnostics[k] for k in SOLUTION_DIAGNOSTICS if k in result.diagnostics
        },
        **_provenance(config),
    }
    rows = [("aleatory", int(i), "") for i in result.aleatory_outliers]
    if isinstance(result.epistemic_outliers, np.ndarray):
        rows += [("epistemic_global", "", int(j)) for j in result.epistemic_outliers]
    else:
        rows += [
            ("epistemic", int(i), int(j))
            for i, per_i in enumerate(result.epistemic_outliers or [])
            for j in per_i
        ]
    _write_csv(out / "outliers.csv", ["kind", "aleatory_index", "epistemic_index"], rows)
    if result.solver_status == "infeasible":
        diag = result.diagnostics
        if "suggested_alpha_a" in diag or "alpha_suggestion_error" in diag:
            # the program already tried the seed; a failed try is not repeated
            suggestion = diag.get("suggested_alpha_a")
        else:
            _, suggestion = solve_feasibility_seed(spec, data, cfg, opts=opts)
        payload["suggested_alpha_a"] = suggestion
        _write_json(out / "solution.json", payload)
        logger.error("program infeasible; suggested alpha_a = %s", suggestion)
        return EXIT_INFEASIBLE
    _write_json(out / "solution.json", payload)
    return EXIT_OK


def _solver_closure(formulation, spec, cfg, opts):
    def solver(d: ScenarioData):
        return solve_program(formulation, spec, d, cfg, opts)

    return solver


def cmd_analyze(args) -> int:
    config = _load_config(args.config, CONFIG_KEYS)
    bundle = _build_problem(config)
    spec = bundle.spec
    data, iid = _build_data(config, bundle)
    design = _load_config(args.design)
    theta = np.asarray(_field(design, "theta_star"), dtype=float)
    if theta.shape != (spec.m_theta,):
        raise InputError(
            f"design dimension {theta.shape} does not match the problem ({spec.m_theta},)"
        )
    trained_iid = bool(design.get("trained_iid", iid))
    st_conf = _field(config, "scenario_theory", required=False, default=None)
    if st_conf is not None:
        _check_keys("scenario_theory", st_conf, ("beta", "containment", "n_probe"))
    out = _out_dir(config, args.output)

    rmc_cfg = _build_rmc(config, spec.n_r)
    report = analyze(spec, theta, data, rmc_cfg)
    _write_csv(
        out / "rmc_report.csv",
        ["requirement", "a_lo", "a_hi", "b_lo", "b_hi", "c", "d_lo", "d_hi"],
        ((k, *row) for k, row in enumerate(report.rows())),
    )
    _write_json(
        out / "rmc_report.json",
        {
            "range_a": report.range_a,
            "range_b": report.range_b,
            "point_c": report.point_c,
            "range_d": report.range_d,
            "sigma": report.sigma,
            "worst_case": report.worst_case,
            **_provenance(config),
        },
    )

    if st_conf is not None:
        cfg = _build_alphas(config, spec.n_r)
        opts = _build_opts(config, args.seed)
        formulation = _build_formulation(config, bundle)
        moment = formulation.tag in (
            FormulationTag.MOMENT_RISK_AVERSE,
            FormulationTag.MOMENT_RISK_AGNOSTIC,
        )
        rb = risk_bound(
            spec,
            _solver_closure(formulation, spec, cfg, opts),
            data,
            theta,
            bundle.epistemic_set,
            beta=float(st_conf.get("beta", 1e-4)),
            containment=st_conf.get("containment", "auto"),
            moment=moment,
            iid=trained_iid,
            n_probe=int(st_conf.get("n_probe", 2000)),
            seed=opts.seed,
        )
        _write_json(out / "risk_bound.json", {**rb.to_dict(), **_provenance(config)})
    return EXIT_OK


def cmd_sequential(args) -> int:
    config = _load_config(args.config, CONFIG_KEYS)
    bundle = _build_problem(config)
    spec = bundle.spec
    data, _ = _build_data(config, bundle)
    data.require_testing()
    opts = _build_opts(config, args.seed)
    sdc = _check_keys("sd", _field(config, "sd"), (
        "metric", "threshold", "j_bound", "max_iter", "n_a_init", "n_e_init", "n_a_cap",
        "n_e_cap", "growth", "alpha_e", "lambda_div", "use_density", "program", "rho", "baseline",
    ))
    rmc_cfg = _build_rmc(config, spec.n_r)
    j_bound = sdc.get("j_bound")
    sd_cfg = SdConfig(
        rmc=rmc_cfg,
        metric=sdc.get("metric", "a_hi"),
        threshold=float(sdc.get("threshold", 1e-3)),
        j_bound=float(j_bound) if j_bound is not None else np.inf,
        max_iter=int(sdc.get("max_iter", 15)),
        n_a_init=int(sdc.get("n_a_init", 50)),
        n_e_init=int(sdc.get("n_e_init", 50)),
        n_a_cap=int(sdc.get("n_a_cap", 100)),
        n_e_cap=int(sdc.get("n_e_cap", 200)),
        growth=float(sdc.get("growth", 1.3)),
        alpha_e=float(sdc.get("alpha_e", 0.0)),
        lambda_div=float(sdc.get("lambda_div", 0.0)),
        density=bundle.density if sdc.get("use_density", True) else None,
        program=sdc.get("program", "risk_agnostic_local"),
        rho=float(sdc.get("rho", 1e6)),
        seed=opts.seed,
    )
    out = _out_dir(config, args.output)

    baseline = sdc.get("baseline")
    if baseline is None:
        train = ScenarioData(
            data.testing_aleatory[: sd_cfg.n_a_init],
            data.testing_epistemic[: sd_cfg.n_e_init],
            data.testing_aleatory,
            data.testing_epistemic,
        )
        alphas = AlphaConfig.uniform(spec.n_r, alpha_e=sd_cfg.alpha_e, rho=sd_cfg.rho)
        base_form = Formulation(FormulationTag.RISK_AGNOSTIC_LOCAL)
        baseline = solve_program(base_form, spec, train, alphas, opts).theta_star
    baseline = np.asarray(baseline, dtype=float)

    theta, trace = run_sd(spec, data, baseline, sd_cfg, opts)
    _write_csv(
        out / "sd_trace.csv",
        ["iteration", "n_a", "alpha_a", "J", "metric", "n_violated", "n_e"],
        trace.rows(),
    )
    final = {
        "problem": config["problem"]["name"],
        "theta_star": theta,
        "objective": float(np.asarray(spec.objective(theta))),
        "iterations": len(trace),
        "met_spec": trace.met_spec,
        "failed": trace.failed,
        "trained_iid": False,
        **_provenance(config),
    }
    _write_json(out / "design.json", final)
    if not trace.met_spec:
        logger.error("sequential design stopped without meeting the specification")
        return EXIT_SPEC_NOT_MET
    return EXIT_OK


def cmd_gen_data(args) -> int:
    config = _load_config(args.config, CONFIG_KEYS)
    bundle = _build_problem(config)
    dconf = _field(config, "data")
    if not isinstance(dconf, dict) or dconf.get("generate") is None:
        raise InputError("gen-data needs a data.generate block")
    data, _ = _build_data(config, bundle)
    out = _out_dir(config, args.output)
    _save_matrix_csv(out / "aleatory.csv", data.aleatory, "a")
    _save_matrix_csv(out / "epistemic.csv", data.epistemic, "e")
    if data.testing_aleatory is not None:
        _save_matrix_csv(out / "testing_aleatory.csv", data.testing_aleatory, "a")
    if data.testing_epistemic is not None:
        _save_matrix_csv(out / "testing_epistemic.csv", data.testing_epistemic, "e")
    return EXIT_OK


def cmd_epsilon(args) -> int:
    from scendo.risk_bounds import epsilon_bar

    value = epsilon_bar(int(args.n), int(args.k), float(args.beta))
    print(json.dumps({"n_a": int(args.n), "k": int(args.k), "beta": float(args.beta),
                      "epsilon_bar": value}))
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scendo", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--output", default=None, help="override the output directory")

    common(sub.add_parser("solve", help="solve one scenario program"))
    p_an = sub.add_parser("analyze", help="robust Monte Carlo + risk bound for a design")
    common(p_an)
    p_an.add_argument("--design", required=True, help="design JSON (from solve/sequential)")
    common(sub.add_parser("sequential", help="run the sequential design loop"))
    common(sub.add_parser("gen-data", help="write the configured datasets as CSV"))
    p_eps = sub.add_parser("epsilon", help="evaluate the risk bound")
    p_eps.add_argument("--n", required=True, type=int, help="number of training scenarios")
    p_eps.add_argument("--k", required=True, type=int, help="set complexity")
    p_eps.add_argument("--beta", type=float, default=1e-4, help="confidence parameter")
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "analyze": cmd_analyze,
    "sequential": cmd_sequential,
    "gen-data": cmd_gen_data,
    "epsilon": cmd_epsilon,
}


def main(argv=None) -> int:
    try:
        _configure_logging()
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ArithmeticError, RuntimeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
