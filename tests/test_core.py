import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scendo
from oracles import circle_requirement_stacked, circle_response_stacked
from scendo import circle
from scendo.core import (
    AlphaConfig,
    EpistemicSet,
    InputError,
    ProblemSpec,
    ScenarioData,
    make_problem,
    r_max,
    register_problem,
)


def _const_spec(values):
    reqs = [lambda th, a, e, v=v: np.broadcast_to(v, np.broadcast_shapes(
        th.shape[:-1], a.shape[:-1], e.shape[:-1])) for v in values]
    return ProblemSpec(
        objective=lambda th: np.sum(th, axis=-1),
        requirements=reqs,
        design_bounds=[[0.0, 1.0]],
        m_a=1,
        m_e=1,
    )


def test_r_max_single_requirement_is_identity():
    spec = _const_spec([-0.25])
    assert r_max(spec, np.zeros(1), np.zeros(1), np.zeros(1)) == -0.25


def test_r_max_constant_functions():
    spec = _const_spec([-1.0, 2.0])
    assert r_max(spec, np.zeros(1), np.zeros(1), np.zeros(1)) == 2.0


def test_r_max_circle_hand_value(circle_spec):
    theta = np.array([0.0, 0.0, 1.0])
    val = r_max(circle_spec, theta, np.array([2.0, 0.0]), np.zeros(3))
    assert val == pytest.approx(3.0)


def test_r_max_dimension_mismatch(circle_spec):
    with pytest.raises(InputError):
        r_max(circle_spec, np.zeros(3), np.zeros(3), np.zeros(3))


def test_r_max_iff_all_requirements_nonpositive():
    # exhaustive small-case check of the worst-case reduction
    rng = np.random.default_rng(0)
    for _ in range(50):
        vals = rng.normal(size=3)
        spec = _const_spec(list(vals))
        rm = r_max(spec, np.zeros(1), np.zeros(1), np.zeros(1))
        assert (rm <= 0) == bool(np.all(vals <= 0))


def test_scenario_data_validation():
    with pytest.raises(InputError):
        ScenarioData(np.zeros((1, 2)), np.zeros((3, 3)))
    with pytest.raises(InputError):
        ScenarioData(np.zeros((3, 2)), np.zeros((0, 3)))
    data = ScenarioData(np.zeros((3, 2)), np.zeros((2, 3)))
    assert (data.n_a, data.n_e, data.n_a_test) == (3, 2, 0)


def test_scenario_data_drop_aleatory():
    data = ScenarioData(np.arange(8.0).reshape(4, 2), np.zeros((2, 3)))
    dropped = data.drop_aleatory(1)
    assert dropped.n_a == 3
    assert np.array_equal(dropped.aleatory[1], [4.0, 5.0])


def test_epistemic_box_round_trip():
    lo, hi = np.array([0.0, -1.0, 2.0]), np.array([0.2, 3.0, 7.0])
    box = EpistemicSet.from_box(lo, hi)
    assert box.contains(box.center)


def test_box_membership_matches_interval_test():
    rng = np.random.default_rng(1)
    for _ in range(100):
        lo = rng.normal(size=3)
        hi = lo + rng.uniform(0.1, 2.0, size=3)
        eset = EpistemicSet.from_box(lo, hi)
        pts = rng.normal(scale=2.0, size=(40, 3))
        direct = np.all((pts >= lo) & (pts <= hi), axis=1)
        assert np.array_equal(eset.contains(pts), direct)


def test_membership_reflexive_at_center():
    eset = EpistemicSet(center=np.array([1.0, 2.0]), radius=0.0, kind="ellipsoid",
                        scale=np.array([1.0, 3.0]))
    assert eset.contains(eset.center)


def test_epistemic_set_rejects_a_non_finite_or_negative_radius():
    for radius in (float("nan"), float("inf"), -1.0):
        with pytest.raises(InputError, match="radius"):
            EpistemicSet(center=np.zeros(2), radius=radius)


def test_epistemic_sampling_stays_inside():
    rng = np.random.default_rng(2)
    box = EpistemicSet.from_box(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    assert np.all(box.contains(box.sample(500, rng)))
    ell = EpistemicSet(center=np.zeros(2), radius=2.0, kind="ellipsoid",
                       scale=np.array([1.0, 0.5]))
    assert np.all(ell.norm(ell.sample(500, rng)) <= 2.0)


def test_alpha_config_validation():
    with pytest.raises(InputError):
        AlphaConfig(np.array([1.5]), np.array([0.0]))
    with pytest.raises(InputError):
        AlphaConfig(np.array([0.1]), np.array([0.1]), rho=-1.0)
    cfg = AlphaConfig.uniform(2, alpha_a=0.1)
    assert cfg.alpha_a.shape == (2,)
    assert cfg.kappa == 1000.0 and cfg.gamma == 100.0


@pytest.mark.parametrize("field", ["rho", "kappa", "gamma"])
def test_alpha_config_rejects_nan(field):
    with pytest.raises(InputError, match=field):
        AlphaConfig(np.array([0.1]), np.array([0.1]), **{field: float("nan")})


@pytest.mark.parametrize("field", ["rho", "kappa", "gamma"])
def test_alpha_config_rejects_infinite_weights(field):
    # an infinite weight turns the penalty, the moment weights or the weight
    # rule into inf * 0 = NaN at the first solve
    with pytest.raises(InputError, match=f"{field}.* finite"):
        AlphaConfig(np.array([0.1]), np.array([0.1]), **{field: np.inf})


def test_registry_round_trip():
    bundle = make_problem("circle")
    assert bundle.spec.n_r == 1
    assert bundle.generate is not None
    with pytest.raises(InputError):
        make_problem("no-such-problem")
    with pytest.raises(InputError, match="radius_max"):
        make_problem("circle", radius_max=3)

    @register_problem("core_test_any_params")
    def _factory(**params):
        assert params == {"anything": 1}
        return bundle

    assert make_problem("core_test_any_params", anything=1) is bundle


def test_circle_requirement_hand_values():
    theta = np.array([1.0, 0.0, 1.0])
    e = np.array([0.2, 0.0, 0.2])
    a = np.array([0.0, 0.0])
    assert circle.circle_requirement(theta, a, e) == pytest.approx(0.3584)
    assert circle.circle_response(theta, a, e) == pytest.approx(2.2816)
    # zero perturbation reduces to the nominal circle
    assert circle.circle_requirement(theta, a, np.zeros(3)) == pytest.approx(0.0)
    assert circle.circle_objective(np.array([0.0, 0.0, 2.0])) == pytest.approx(4 * np.pi)


# (theta, a, e) shapes the library hands the circle kernels: the program
# grid, one analyze block, the r_max probe of the containment tests, and a
# single point, where the kernels' in-place steps meet numpy scalars
_KERNEL_LAYOUTS = {
    "program_grid": ((4, 1, 1, 3), (30, 1, 2), (1, 7, 3)),
    "analyze_block": ((3,), (1, 50, 2), (6, 1, 3)),
    "r_max_probe": ((3,), (2,), (9, 3)),
    "single_point": ((3,), (2,), (3,)),
}


@pytest.mark.parametrize("layout", sorted(_KERNEL_LAYOUTS))
def test_circle_kernels_match_stacked_formula_bit_for_bit(layout):
    theta_shape, a_shape, e_shape = _KERNEL_LAYOUTS[layout]
    rng = np.random.default_rng(5)
    bounds = circle.DEFAULT_DESIGN_BOUNDS
    theta = rng.uniform(bounds[:, 0], bounds[:, 1], size=theta_shape)
    a = circle.sample_aleatory(int(np.prod(a_shape[:-1])), rng).reshape(a_shape)
    e = circle.sample_epistemic(int(np.prod(e_shape[:-1])), rng).reshape(e_shape)
    for kernel, stacked in (
        (circle.circle_requirement, circle_requirement_stacked),
        (circle.circle_response, circle_response_stacked),
    ):
        got, want = kernel(theta, a, e), stacked(theta, a, e)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_circle_dataset_determinism_and_support():
    d1 = circle.generate_dataset(40, 30, seed=3)
    d2 = circle.generate_dataset(40, 30, seed=3)
    assert np.array_equal(d1.aleatory, d2.aleatory)
    assert np.array_equal(d1.epistemic, d2.epistemic)
    assert np.all(d1.epistemic >= circle.E_LOWER)
    assert np.all(d1.epistemic <= circle.E_UPPER)


def test_circle_mixture_mean():
    data = circle.generate_dataset(100_000, 2, seed=11)
    mean = data.aleatory.mean(axis=0)
    target = 0.8 * circle.MIX_MEAN_0 + 0.2 * circle.MIX_MEAN_1
    # 3 sigma / sqrt(n) with per-component sigma ~ 1
    assert np.all(np.abs(mean - target) < 3.0 / np.sqrt(100_000) * 2.5)


# ---------------------------------------------------------------------------
# scendo loads four of scipy's extension modules from their files, without
# the scipy.optimize and scipy.special packages
# ---------------------------------------------------------------------------

_EXTENSIONS = [
    "scipy.optimize._lbfgsb", "scipy.optimize._zeros",
    "scipy.special._special_ufuncs", "scipy.special._ufuncs_cxx",
]

# scipy's own calls that run the four extensions: L-BFGS-B, brentq, beta.ppf
# (the betaincinv ufunc over _ufuncs_cxx), gammaln and logsumexp
_SCIPY_RUN = """
import sys
{before}
import numpy as np, scipy.optimize, scipy.special, scipy.stats
{after}
r = scipy.optimize.minimize(scipy.optimize.rosen, [-1.2, 1.0, 0.5, 2.0], method="L-BFGS-B",
                            bounds=[(-2, 2), (-2, 0.9), (None, 3), (0, None)])
print(r.x.tobytes().hex(), float(r.fun).hex(), r.nit, r.nfev, r.status)
print(float(scipy.optimize.brentq(lambda t: np.cos(t) - t, 0.0, 1.0, xtol=1e-15)).hex())
x = np.linspace(0.5, 40.0, 64)
print(scipy.stats.beta.ppf(np.linspace(0.0, 1.0, 64), x, x[::-1]).tobytes().hex())
print(scipy.special.gammaln(x).tobytes().hex())
print(scipy.special.logsumexp(np.outer(x, x[:8]) % 7.0, axis=-1).tobytes().hex())
"""


def _fresh_run(code: str) -> str:
    src = str(Path(scendo.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    return out.stdout


@pytest.mark.parametrize("scendo_first", [True, False])
def test_scipy_shares_scendos_extensions_in_either_order(scendo_first):
    # one module per extension in the process, whichever is imported first,
    # and scipy's own calls take the bits of a process without scendo
    alone = _fresh_run(_SCIPY_RUN.format(before="", after='assert "scendo" not in sys.modules'))
    first = f"first = {{n: sys.modules[n] for n in {_EXTENSIONS!r}}}"
    shared = "\n".join([
        "assert all(sys.modules[n] is first[n] for n in first)",
        'assert scendo.nlp._lbfgsb is sys.modules["scipy.optimize._lbfgsb"]',
        'assert scendo.risk_bounds._zeros is sys.modules["scipy.optimize._zeros"]',
        "assert scendo.risk_bounds.gammaln is scipy.special.gammaln",
    ])
    if scendo_first:
        code = _SCIPY_RUN.format(before=f"import scendo, scendo.cli\n{first}", after=shared)
    else:
        code = _SCIPY_RUN.format(before="", after=f"{first}\nimport scendo, scendo.cli\n{shared}")
    assert _fresh_run(code) == alone
    assert int(alone.split()[3]) > 10  # the L-BFGS-B run took real steps


def test_scipy_extension_sets_the_attribute_of_an_imported_package():
    # scendo loads an extension whose package is imported but lacks it; the
    # package then has the module as its attribute, as an import would set
    code = f"""
import sys, scipy.optimize, scipy.special
for name in {_EXTENSIONS!r}:
    package, _, child = name.rpartition(".")
    del sys.modules[name]
    delattr(sys.modules[package], child)
import scendo.cli
for name in {_EXTENSIONS!r}:
    package, _, child = name.rpartition(".")
    assert getattr(sys.modules[package], child) is sys.modules[name]
x = [0.5, 3.0, 40.0]
print((scipy.special.gammaln(x) == scendo.risk_bounds.gammaln(x)).all())
"""
    assert _fresh_run(code).split() == ["True"]
