import numpy as np
import pytest

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
