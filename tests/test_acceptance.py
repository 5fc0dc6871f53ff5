"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v` (or -s to see the lines).
Numerical tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from oracles import welzl_circle
from scendo import circle, nlp
from scendo.core import AlphaConfig, ScenarioData, r_max
from scendo.ecdf import cdf_of, quantile_of, strictify_sorted
from scendo.montecarlo import RmcConfig, analyze, clopper_pearson
from scendo.programs import (
    _local_outliers,
    requirement_values,
    solve_moment_risk_agnostic,
    solve_risk_agnostic_local,
    solve_risk_averse_global,
    solve_risk_averse_local,
)
from scendo.risk_bounds import (
    epsilon_bar,
    risk_bound,
    set_containment_opt,
    set_containment_sampling,
)
from scendo.seqdesign import SdConfig, run_sd

SPEC = circle.make_spec()


def _verdict(num: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_c01_risk_bound_table():
    expected_50 = {2: 0.303, 4: 0.369, 8: 0.477, 10: 0.525, 13: 0.590, 18: 0.687}
    ok = True
    for k, want in expected_50.items():
        t0 = time.time()
        got = epsilon_bar(50, k, 1e-4)
        ok &= abs(got - want) <= 1e-3 and (time.time() - t0) < 1.0
    t0 = time.time()
    ok &= abs(epsilon_bar(100, 2, 1e-4) - 0.164) <= 1e-3 and (time.time() - t0) < 1.0
    t0 = time.time()
    ok &= abs(epsilon_bar(5000, 4, 1e-4) - 0.0044) <= 2e-4 and (time.time() - t0) < 1.0
    _verdict(1, "risk-bound table", ok)


def test_c02_ecdf_properties():
    # unit-scale sequences: the inversion error grows like eps*|z|/gap, so
    # the 1e-12 identity is a statement about well-conditioned samples
    rng = np.random.default_rng(12345)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        samples = rng.normal(size=n)
        knots = strictify_sorted(np.sort(samples, kind="stable"))
        alpha = rng.uniform(1e-9, 1.0 - 1e-9, size=8)
        ok &= bool(np.max(np.abs(cdf_of(samples, quantile_of(samples, alpha)) - alpha)) <= 1e-12)
        ok &= quantile_of(samples, 0.0) == knots[0] and quantile_of(samples, 1.0) == knots[-1]
    _verdict(2, "ecdf round trip and endpoints", ok)


def test_c03_deterministic_reduction_oracle():
    rng = np.random.default_rng(42)
    pts = circle.sample_aleatory(30, rng)
    data = ScenarioData(pts, np.zeros((1, 3)))
    t0 = time.time()
    res = solve_risk_averse_local(SPEC, data, AlphaConfig.uniform(1, rho=1e6),
                                  nlp.NlpOptions(seed=0))
    elapsed = time.time() - t0
    _, radius = welzl_circle(pts)
    oracle_area = np.pi * radius**2
    rel = abs(res.objective - oracle_area) / oracle_area
    _verdict(3, f"enclosing-circle reduction (rel err {rel:.1e}, {elapsed:.1f}s)",
             rel <= 1e-3 and elapsed < 5.0)


def test_c04_global_local_equivalence():
    cfg = AlphaConfig.uniform(1, alpha_e=0.0, rho=1e6)
    opts = nlp.NlpOptions(seed=0, n_starts=6, max_inner=200)
    worst = 0.0
    for seed in (11, 12, 13):
        data = circle.generate_dataset(16, 12, seed=seed)
        loc = solve_risk_averse_local(SPEC, data, cfg, opts)
        glob = solve_risk_averse_global(SPEC, data, cfg, opts)
        worst = max(worst, abs(loc.objective - glob.objective))
    _verdict(4, f"global/local agreement at zero fraction (max diff {worst:.1e})",
             worst <= 1e-4)


def test_c05_outlier_count_bound():
    ok = True
    for seed, (n_a, n_e) in ((21, (25, 13)), (22, (20, 11))):
        data = circle.generate_dataset(n_a, n_e, seed=seed)
        alpha_a, alpha_e = 2.0 / (n_a - 1), 2.0 / (n_e - 1)
        cfg = AlphaConfig(np.array([alpha_a]), np.array([alpha_e]))
        res = solve_risk_agnostic_local(SPEC, data, cfg,
                                        nlp.NlpOptions(seed=0, n_starts=4))
        values = requirement_values(SPEC, data, res.theta_star)
        o_a, o_e = _local_outliers(values, cfg.alpha_e)
        ok &= bool(np.array_equal(o_a, res.aleatory_outliers))
        cap = int(np.floor(n_e * alpha_e))
        inliers = np.setdiff1d(np.arange(n_a), o_a)
        ok &= all(o_e[i].size <= cap for i in inliers)
    _verdict(5, "outlier cardinality bound and recount", ok)


def test_c06_relaxation_monotonicity():
    data = circle.generate_dataset(50, 20, seed=31)
    opts = nlp.NlpOptions(seed=0, n_starts=4)
    objectives = []
    for frac in (0.0, 1.0 / 49.0, 2.0 / 49.0, 4.0 / 49.0):
        cfg = AlphaConfig(np.array([frac]), np.array([0.0]))
        objectives.append(solve_risk_agnostic_local(SPEC, data, cfg, opts).objective)
    drops = [b <= a + 1e-3 for a, b in zip(objectives, objectives[1:])]
    label = " -> ".join(f"{j:.2f}" for j in objectives)
    _verdict(6, f"objective nonincreasing in alpha_a ({label})", all(drops))


def test_c07_rmc_structure():
    ok = True
    # interval nesting across several designs
    data = circle.generate_dataset(5, 5, seed=9, n_a_test=2000, n_e_test=100)
    cfg = RmcConfig(alpha_a=np.zeros(1), alpha_e=np.zeros(1), sigma=0.95)
    rng = np.random.default_rng(5)
    for _ in range(10):
        theta = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 6)])
        rep = analyze(SPEC, theta, data, cfg)
        ok &= bool(rep.range_b[0, 0] <= rep.range_a[0, 0] + 1e-12)
        ok &= bool(rep.range_a[0, 1] <= rep.range_b[0, 1] + 1e-12)
    # zero-failure closed form
    for n in (50, 100, 1000):
        _, hi = clopper_pearson(0, n, 0.95)
        ok &= abs(hi[0] - (1 - 0.05 ** (1 / n))) <= 1e-10
    # mixed-interval width decays with the epistemic testing size
    widths = []
    for n_e_test in (50, 200, 1000):
        d = circle.generate_dataset(5, 5, seed=9, n_a_test=800, n_e_test=n_e_test)
        rep = analyze(SPEC, np.array([0.4, 0.3, 3.0]), d, cfg)
        widths.append(float(rep.range_d[0, 1] - rep.range_d[0, 0]))
    ok &= widths[0] > widths[1] > widths[2]
    _verdict(7, "rmc nesting, zero-failure bound, width decay", ok)


def test_c08_containment_cross_oracle():
    eset = circle.epistemic_box()
    rng = np.random.default_rng(202)
    agree = 0
    borderline_ok = True
    for _ in range(100):
        theta = np.array([
            rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(1.0, 4.0)
        ])
        a = circle.sample_aleatory(1, rng)[0]
        samp = set_containment_sampling(SPEC, theta, a, eset, 2000, rng=rng)
        opt = set_containment_opt(SPEC, theta, a, eset)
        if samp.violated == opt.violated:
            agree += 1
        else:
            # a disagreement is admissible only right at the containment
            # boundary: either a real violation, at a point of the set
            # within 1e-3 of its radius, that sampling missed, or a
            # violation that is itself <= 1e-3 (a sliver too thin for 2000
            # probes to register)
            worst = None if opt.e_star is None else float(r_max(SPEC, theta, a, opt.e_star))
            near_radius = (
                worst is not None
                and abs(opt.radius - eset.radius) <= 1e-3
                and bool(eset.contains(opt.e_star))
                and worst > 0.0
            )
            tiny = worst is not None and worst <= 1e-3
            borderline_ok &= bool(near_radius or tiny)
    _verdict(8, f"containment cross-oracle ({agree}/100 agree)",
             agree >= 98 and borderline_ok)


def test_c09_set_complexity_bounds():
    rng = np.random.default_rng(7)
    data = ScenarioData(circle.sample_aleatory(10, rng), circle.sample_epistemic(8, rng))
    cfg = AlphaConfig.uniform(1)
    opts = nlp.NlpOptions(seed=0, n_starts=4, max_inner=120)

    def solver(d):
        return solve_risk_agnostic_local(SPEC, d, cfg, opts)

    theta = solver(data).theta_star
    rep = risk_bound(
        SPEC, solver, data, theta, circle.epistemic_box(),
        containment="optimization",
    )
    n_s, n_v, s = rep.n_support, rep.n_violation, rep.set_complexity
    ok = max(n_s, n_v) <= s <= n_s + n_v
    # moment-based programs are fully supported: the bound saturates
    moment = solve_moment_risk_agnostic(SPEC, data, cfg, circle.circle_response, opts)
    rep = risk_bound(
        SPEC, solver, data, moment.theta_star, circle.epistemic_box(),
        beta=1e-4, containment="sampling", moment=True, n_probe=500,
    )
    ok &= rep.epsilon_bar == 1.0 and rep.set_complexity == data.n_a
    _verdict(9, f"set-complexity bounds (n_s={n_s}, n_v={n_v}, s={s}; moment -> 1)", ok)


def test_c10_sequential_design_desk_run():
    t0 = time.time()
    data = circle.generate_dataset(50, 50, seed=2024, n_a_test=10000, n_e_test=200)
    opts = nlp.NlpOptions(seed=0, n_starts=4, max_inner=150)
    baseline = solve_risk_agnostic_local(SPEC, data, AlphaConfig.uniform(1), opts)
    cfg = SdConfig(
        rmc=RmcConfig(alpha_a=np.zeros(1), alpha_e=np.zeros(1), sigma=0.95,
                      p_max=np.array([1e-3])),
        metric="a_hi", threshold=1e-3, max_iter=12,
        n_a_init=50, n_e_init=50, n_a_cap=100, n_e_cap=200, growth=1.3,
        lambda_div=2.0, density=circle.aleatory_density,
        budgets=np.array([25]), seed=0,
    )
    theta, trace = run_sd(SPEC, data, baseline.theta_star, cfg, opts)
    elapsed = time.time() - t0
    max_n_a = max(r.n_a for r in trace.records)
    ok = (
        trace.met_spec
        and not trace.failed
        and len(trace) <= 12
        and max_n_a <= 100
        and elapsed < 600.0
    )
    _verdict(
        10,
        f"sequential design ({len(trace)} iters, n_a<={max_n_a}, {elapsed:.0f}s, "
        f"final a_hi={np.max(trace.records[-1].metric):.1e})",
        ok,
    )


def test_c11_reference_values_regime_only():
    # exact objective values from the originating study are out of reach
    # (its 50-point dataset was never published); this artifact checks the
    # qualitative regime instead: eliminating outliers lowers the
    # objective, and the risk-agnostic design undercuts the risk-averse
    # one at the same fractions
    data = circle.generate_dataset(30, 20, seed=77)
    opts = nlp.NlpOptions(seed=0, n_starts=4)
    robust = solve_risk_averse_local(SPEC, data, AlphaConfig.uniform(1, rho=1e6), opts)
    cfg_relaxed = AlphaConfig(np.array([2 / 29]), np.array([2 / 19]))
    agnostic = solve_risk_agnostic_local(SPEC, data, cfg_relaxed, opts)
    ok = agnostic.objective < robust.objective
    # the generator documents itself as an artifact choice
    ok &= "artifact choice" in circle.__doc__
    _verdict(11, "reference values treated as regime-only", ok)
