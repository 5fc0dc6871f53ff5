import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scendo import circle
from scendo.programs import requirement_values
from scendo.weights import (
    sign_fraction,
    smooth_sign_fraction,
    weights_from_values,
)


def test_alpha_e_zero_gives_unit_weights():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(6, 9))
    w, v, s = weights_from_values(vals, 0.0, 0.0, 100.0)
    assert s == pytest.approx(np.max(v))
    assert np.all(w == 1.0)


def test_hand_worked_threshold_and_weights():
    # worst-case values (0, 1, 5) with alpha_e = 0.5: threshold is the
    # median knot, the last scenario decays to exp(-400)
    vals = np.array([[0.0, 1.0, 5.0], [-1.0, 0.5, 4.0]])
    w, v, s = weights_from_values(vals, 0.0, 0.5, 100.0)
    assert np.array_equal(v, [0.0, 1.0, 5.0])
    assert s == 1.0
    assert w[0] == 1.0 and w[1] == 1.0
    assert w[2] == pytest.approx(np.exp(-400.0))


def test_weights_in_unit_interval_and_threshold_rule():
    rng = np.random.default_rng(1)
    for _ in range(50):
        vals = rng.normal(size=(8, 12))
        alpha_e = rng.uniform(0, 0.9)
        w, v, s = weights_from_values(vals, rng.uniform(0, 0.5), alpha_e, 50.0)
        assert np.all((w >= 0) & (w <= 1))
        assert np.all(w[v <= s] == 1.0)


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=9),
               elements=st.floats(-1e3, 1e3)),
    st.floats(0.0, 0.99),
    st.floats(0.0, 0.99),
    st.floats(1.0, 1e3),
)
def test_weight_bounds_property(vals, alpha_a, alpha_e, gamma):
    w, v, s = weights_from_values(vals, alpha_a, alpha_e, gamma)
    assert np.all((w >= 0) & (w <= 1))
    assert np.all(w[v <= s] == 1.0)
    # exp rounds tiny excesses over s to exactly 1, so w < 1 beyond s is not
    # guaranteed; the weights only never increase with v
    order = np.argsort(v, kind="stable")
    assert np.all(np.diff(w[order]) <= 0)


def test_downweighted_count_bounded_by_quantile_cutoff():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n_e = int(rng.integers(2, 30))
        vals = rng.normal(size=(5, n_e))
        alpha_e = rng.uniform(0, 0.9)
        w, _, _ = weights_from_values(vals, 0.0, alpha_e, 100.0)
        assert np.count_nonzero(w < 1.0) <= int(np.ceil(n_e * alpha_e))


def test_invariant_under_inlier_permutation():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(7, 5))
    w1, _, _ = weights_from_values(vals, 0.0, 0.3, 80.0)
    w2, _, _ = weights_from_values(vals[rng.permutation(7)], 0.0, 0.3, 80.0)
    assert np.allclose(w1, w2)


def test_gamma_limit_is_indicator():
    rng = np.random.default_rng(4)
    vals = rng.normal(size=(6, 10))
    _, v, s = weights_from_values(vals, 0.0, 0.4, 1.0)
    w_big, _, _ = weights_from_values(vals, 0.0, 0.4, 1e12)
    indicator = (v <= s).astype(float)
    assert np.allclose(w_big, indicator, atol=1e-9)


def test_inlier_selection_uses_failure_probability_quantile():
    # scenarios with the highest failure probabilities drop out of step 1
    vals = np.array(
        [[-1.0, -1.0, -1.0, -1.0],  # p = 0
         [-1.0, -1.0, -1.0, -1.0],  # p = 0
         [9.0, 9.0, 9.0, 9.0]]      # p = 1, the outlier row
    )
    w, v, _ = weights_from_values(vals, 0.4, 0.0, 100.0)
    assert np.all(v == -1.0)  # the p=1 row was excluded from the max
    assert np.all(w == 1.0)


def test_sign_fraction_surrogate_and_report():
    xi = np.array([0.0, 0.0, 1e-3, 2.0])
    assert sign_fraction(xi) == 0.5
    smooth = smooth_sign_fraction(xi)
    assert 0.45 < smooth < 0.5  # approaches the exact count from below
    assert smooth_sign_fraction(np.zeros(4)) == 0.0


def test_outlier_weights_vanish_on_benchmark_solve(circle_spec):
    # with a positive epistemic fraction the down-weighted draws get
    # weights that are numerically zero
    data = circle.generate_dataset(12, 10, seed=6)
    theta = np.array([0.4, 0.3, 1.2])  # deliberately tight: violations exist
    values = requirement_values(circle_spec, data, theta)[..., 0, :, :]
    w, _, _ = weights_from_values(values, 0.0, 2.0 / 9.0, 100.0)
    below = w[w < 1.0]
    assert below.size > 0
    assert np.all(below < 1e-6)
