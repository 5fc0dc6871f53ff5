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
is used for all tabular data.  The solver, alphas, rmc and sd sections set
fields of NlpOptions, AlphaConfig, RmcConfig and SdConfig, and the
scenario_theory section sets beta, containment and n_probe of
``risk_bound``; an omitted or null key keeps the default of the dataclass
or function.  The solver section sets only n_starts, max_inner and seed;
the penalty schedule and tolerances are fixed.  An unknown key, a value of
the wrong type (6.7 for an integer), NaN or (-)Infinity anywhere in a
config or design file, a solver n_starts or max_inner below 1, an
sd.baseline of the wrong length, a data file whose column count is not
the problem's m_a or m_e, and an unknown or wrong-typed problem parameter
are input errors.  Exit codes: 0 ok, 2 input error, 3 infeasible, 4
specification not met, 5 numerical failure (a non-finite merit value, a
failed leave-one-out solve, a NaN requirement value in a containment
test).  A training solve of ``sequential`` that
raises exits 2 or 5 like ``solve`` and writes no outputs; ``analyze``
computes its reports before it writes any of them, so a failed one writes
none.  Any other exception ends the command with exit 1 and a traceback:
a bug in scendo or in a problem callable.  The environment variable
SCENDO_LOG in {error, info, debug} controls log verbosity.  All commands
are deterministic given (config, seed); every JSON report embeds the
config hash and the tool version.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import os
import sys
import typing
from pathlib import Path

import numpy as np

import scendo
import scendo.circle  # registers the built-in problem
from scendo import nlp
from scendo.core import AlphaConfig, InputError, ScenarioData, make_problem
from scendo.montecarlo import RmcConfig, analyze
from scendo.programs import MOMENT_TAGS, FormulationTag, solve as solve_program
from scendo.risk_bounds import epsilon_bar, risk_bound
from scendo.seqdesign import SdConfig, run_sd

logger = logging.getLogger("scendo")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_SPEC_NOT_MET = 4
EXIT_NUMERICAL = 5

#: top-level keys of the run configuration and the types of their values
CONFIG_KEYS = {
    "problem": dict, "data": dict, "formulation": str, "alphas": dict, "solver": dict,
    "rmc": dict, "scenario_theory": dict, "sd": dict, "seed": int, "output_dir": str,
}
_TOP_LEVEL = "<top level>"

#: keys of config section data.generate: the problem's dataset generator arguments
_GENERATE_KEYS = ("n_a", "n_e", "seed", "n_a_test", "n_e_test")
#: keys of config section data.files, each the path of one CSV dataset
_DATA_FILES = ("aleatory", "epistemic", "testing_aleatory", "testing_epistemic")


def _configure_logging() -> None:
    level_name = os.environ.get("SCENDO_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise InputError(f"SCENDO_LOG must be one of {sorted(levels)}, got {level_name!r}")
    logging.basicConfig(level=levels[level_name], format="%(levelname)s %(name)s: %(message)s")


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


_TYPE_NAMES = {
    int: "an integer", float: "a number", bool: "true or false", str: "a string",
    dict: "a JSON object", np.ndarray: "a number or a list of numbers",
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _checked(key: str, value, kind):
    """The JSON ``value`` of config key ``key`` as type ``kind``, else InputError.

    An int takes an integral number, a float any number, a vector
    (``np.ndarray``) a number or a list of numbers, bool, str and dict
    only their own type.
    """
    if kind is np.ndarray:
        if _is_number(value):
            return float(value)  # a scalar applies to every requirement
        if isinstance(value, list) and all(map(_is_number, value)):
            return np.asarray(value, dtype=float)
    elif kind is float:
        if _is_number(value):
            return float(value)
    elif kind is int:
        if _is_number(value) and (isinstance(value, int) or value.is_integer()):
            return int(value)
    elif isinstance(value, kind):
        return value
    raise InputError(f"config value {key} must be {_TYPE_NAMES[kind]}, got {json.dumps(value)}")


def _section(section: str, conf, types: dict) -> dict:
    """The values that config section ``section`` sets, checked against ``types``.

    ``conf`` is the section's JSON object, ``None`` when it is omitted.  A
    key set to null is left out like an omitted one, so its default applies.
    """
    if conf is None:
        return {}
    if not isinstance(conf, dict):
        raise InputError(f"config section {section!r} must be a JSON object")
    unknown = set(conf) - set(types)
    if unknown:
        raise InputError(f"unknown key(s) in config section {section!r}: {sorted(unknown)}")
    prefix = "" if section == _TOP_LEVEL else f"{section}."
    return {k: _checked(prefix + k, v, types[k]) for k, v in conf.items() if v is not None}


def _field_types(cls, *skip) -> dict:
    """Field name -> type of the dataclass ``cls``, without the fields ``skip``."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.name not in skip}


def _load(section: str, conf, cls, **given):
    """The dataclass ``cls`` built from config section ``section``.

    The section may set every field that ``given`` does not fill; a field
    it omits or sets to null keeps the dataclass default.
    """
    return cls(**given, **_section(section, conf, _field_types(cls, *given)))


def _load_config(path: str) -> dict:
    """The JSON object in ``path``; NaN, Infinity and -Infinity, which
    Python's json module accepts but JSON does not, are input errors."""

    def non_finite(name):
        raise InputError(f"config {path} holds {name}, which is not a JSON number")

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from None
    try:
        config = json.loads(text, parse_constant=non_finite)
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON (line {exc.lineno}: {exc.msg})") from None
    if not isinstance(config, dict):
        raise InputError("config root must be a JSON object")
    return config


def _run_config(path: str) -> tuple[dict, dict]:
    """The checked run configuration in ``path`` and its provenance entries."""
    raw = _load_config(path)
    provenance = {"config_hash": _config_hash(raw), "version": scendo.__version__}
    return _section(_TOP_LEVEL, raw, CONFIG_KEYS), provenance


def _field(config: dict, name: str):
    if name not in config:
        raise InputError(f"config field {name!r} is missing")
    return config[name]


def _write_json(path: Path, payload: dict) -> None:
    """``payload`` as JSON; numpy arrays and scalars are written by ``tolist``."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=lambda v: v.tolist())
    path.write_text(text + "\n")


def _write_csv(path: Path, header, rows) -> None:
    """``header`` and ``rows`` as CSV; a float or numpy value is written by
    ``str``, which gives ``repr`` of the float."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_matrix_csv(path: str) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise InputError(f"cannot read data file {path}: {exc}") from None
    except ValueError as exc:
        raise InputError(f"malformed CSV {path}: {exc}") from None


def _build_problem(config: dict):
    pconf = _section("problem", _field(config, "problem"), {"name": str, "params": dict})
    if "name" not in pconf:
        raise InputError("config field 'problem' must be {\"name\": ..., \"params\": {...}}")
    return make_problem(pconf["name"], **pconf.get("params", {}))


def _build_data(config: dict, bundle) -> tuple[ScenarioData, bool]:
    dconf = _section("data", _field(config, "data"), {"generate": dict, "files": dict, "iid": bool})
    gen = dconf.get("generate")
    files = dconf.get("files")
    if (gen is None) == (files is None):
        raise InputError("config field 'data' needs exactly one of 'generate' or 'files'")
    iid = dconf.get("iid", True)
    if gen is not None:
        g = _section("data.generate", gen, dict.fromkeys(_GENERATE_KEYS, int))
        for key, value in g.items():
            if value < 0:
                raise InputError(
                    f"config value data.generate.{key} must be nonnegative, got {value}"
                )
        if bundle.generate is None:
            raise InputError("the selected problem has no dataset generator")
        return bundle.generate(g.pop("n_a", 50), g.pop("n_e", 50), g.pop("seed", 0), **g), iid
    files = _section("data.files", files, dict.fromkeys(_DATA_FILES, str))
    if "aleatory" not in files or "epistemic" not in files:
        raise InputError("data.files needs at least 'aleatory' and 'epistemic'")
    matrices = {k: _load_matrix_csv(path) for k, path in files.items()}
    for key, mat in matrices.items():
        width = bundle.spec.m_a if key.endswith("aleatory") else bundle.spec.m_e
        if mat.shape[1] != width:
            raise InputError(
                f"data.files.{key} has {mat.shape[1]} columns; the problem needs {width}"
            )
    return ScenarioData(**matrices), iid


def _build_opts(config: dict, seed_override) -> nlp.NlpOptions:
    opts = _load("solver", config.get("solver"), nlp.NlpOptions)
    seed = config.get("seed") if seed_override is None else seed_override
    # replace, not assignment, so NlpOptions checks the seed
    return opts if seed is None else dataclasses.replace(opts, seed=seed)


def _build_formulation(config: dict) -> FormulationTag:
    name = _field(config, "formulation")
    try:
        return FormulationTag(name)
    except ValueError:
        known = ", ".join(t.value for t in FormulationTag)
        raise InputError(f"unknown formulation {name!r}; one of: {known}") from None


def _out_dir(config: dict, override) -> Path:
    out = Path(override or config.get("output_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


#: SolveResult.diagnostics entries copied into solution.json
SOLUTION_DIAGNOSTICS = (
    "nfev", "n_starts", "best_start", "violation", "viol_history", "starts", "alpha_suggestion_error",
)


def cmd_solve(args) -> int:
    config, provenance = _run_config(args.config)
    bundle = _build_problem(config)
    spec = bundle.spec
    data, iid = _build_data(config, bundle)
    cfg = _load("alphas", config.get("alphas"), AlphaConfig)
    opts = _build_opts(config, args.seed)
    tag = _build_formulation(config)
    out = _out_dir(config, args.output)

    result = solve_program(tag, spec, data, cfg, opts, bundle.response)
    payload = {
        "problem": config["problem"]["name"],
        "formulation": tag.value,
        "theta_star": result.theta_star,
        "objective": result.objective,
        "solver_status": result.solver_status,
        "xi_star": result.xi_star,
        "lambda_star": result.lambda_star,
        "aleatory_outliers": result.aleatory_outliers,
        "epistemic_outliers": result.epistemic_outliers,
        "trained_iid": iid,
        "diagnostics": {
            k: result.diagnostics[k] for k in SOLUTION_DIAGNOSTICS if k in result.diagnostics
        },
        **provenance,
    }
    if result.alpha_a_lower is not None:
        payload["alpha_a_lower"] = result.alpha_a_lower
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
        suggestion = result.diagnostics.get("suggested_alpha_a")
        payload["suggested_alpha_a"] = suggestion
        _write_json(out / "solution.json", payload)
        logger.error("program infeasible; suggested alpha_a = %s", suggestion)
        return EXIT_INFEASIBLE
    _write_json(out / "solution.json", payload)
    return EXIT_OK


def cmd_analyze(args) -> int:
    config, provenance = _run_config(args.config)
    bundle = _build_problem(config)
    spec = bundle.spec
    data, iid = _build_data(config, bundle)
    design = _load_config(args.design)
    theta = np.asarray(_checked("design.theta_star", _field(design, "theta_star"), np.ndarray))
    if theta.shape != (spec.m_theta,):
        raise InputError(
            f"design dimension {theta.shape} does not match the problem ({spec.m_theta},)"
        )
    trained_iid = design.get("trained_iid")
    trained_iid = iid if trained_iid is None else _checked("design.trained_iid", trained_iid, bool)
    st_types = {"beta": float, "containment": str, "n_probe": int}
    st = _section("scenario_theory", config.get("scenario_theory"), st_types)
    out = _out_dir(config, args.output)

    # every result is computed before the first file is written, so a
    # failed analysis leaves no partial reports
    report = analyze(spec, theta, data, _load("rmc", config.get("rmc"), RmcConfig))
    rb = None
    if "scenario_theory" in config:
        cfg = _load("alphas", config.get("alphas"), AlphaConfig)
        opts = _build_opts(config, args.seed)
        tag = _build_formulation(config)
        rb = risk_bound(
            spec,
            lambda d: solve_program(tag, spec, d, cfg, opts, bundle.response),
            data,
            theta,
            bundle.epistemic_set,
            moment=tag in MOMENT_TAGS,
            iid=trained_iid,
            seed=opts.seed,
            **st,
        )
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
            **provenance,
        },
    )
    if rb is not None:
        _write_json(out / "risk_bound.json", {**rb.to_dict(), **provenance})
    return EXIT_OK


#: SdConfig fields the sd section does not set: the CLI fills rmc, density
#: and seed, and the loop scales the testing violation counts for budgets
_SD_FILLED = ("rmc", "density", "seed", "budgets")


def cmd_sequential(args) -> int:
    config, provenance = _run_config(args.config)
    bundle = _build_problem(config)
    spec = bundle.spec
    data, _ = _build_data(config, bundle)
    data.require_testing()
    opts = _build_opts(config, args.seed)
    sd_types = {**_field_types(SdConfig, *_SD_FILLED), "use_density": bool, "baseline": np.ndarray}
    sdc = _section("sd", _field(config, "sd"), sd_types)
    use_density = sdc.pop("use_density", True)
    baseline = sdc.pop("baseline", None)
    if baseline is not None and np.shape(baseline) != (spec.m_theta,):
        raise InputError(
            f"config value sd.baseline has shape {np.shape(baseline)}, not ({spec.m_theta},)"
        )
    sd_cfg = SdConfig(
        rmc=_load("rmc", config.get("rmc"), RmcConfig),
        density=bundle.density if use_density else None,
        seed=opts.seed,
        **sdc,
    )
    out = _out_dir(config, args.output)

    if baseline is None:
        train = ScenarioData(
            data.testing_aleatory[: sd_cfg.n_a_init],
            data.testing_epistemic[: sd_cfg.n_e_init],
            data.testing_aleatory,
            data.testing_epistemic,
        )
        alphas = AlphaConfig.uniform(spec.n_r, alpha_e=sd_cfg.alpha_e)
        baseline = solve_program(
            FormulationTag.RISK_AGNOSTIC_LOCAL, spec, train, alphas, opts, bundle.response
        ).theta_star
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
        **provenance,
    }
    _write_json(out / "design.json", final)
    if not trace.met_spec:
        logger.error("sequential design stopped without meeting the specification")
        return EXIT_SPEC_NOT_MET
    return EXIT_OK


def cmd_gen_data(args) -> int:
    config, _ = _run_config(args.config)
    bundle = _build_problem(config)
    if _field(config, "data").get("generate") is None:
        raise InputError("gen-data needs a data.generate block")
    data, _ = _build_data(config, bundle)
    out = _out_dir(config, args.output)
    for name in _DATA_FILES:
        mat = getattr(data, name)
        if mat is not None:
            prefix = "a" if name.endswith("aleatory") else "e"
            _write_csv(out / f"{name}.csv", [f"{prefix}{i + 1}" for i in range(mat.shape[1])], mat)
    return EXIT_OK


def cmd_epsilon(args) -> int:
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
