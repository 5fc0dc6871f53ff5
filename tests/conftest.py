import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles module

from scendo import circle, nlp
from scendo.core import AlphaConfig, ScenarioData

#: a fixed, larger sample for the properties that leave max_examples to the
#: profile: ``pytest --hypothesis-profile=derandomized``
settings.register_profile("derandomized", derandomize=True, max_examples=2000, deadline=None)


@pytest.fixture(scope="session")
def circle_spec():
    return circle.make_spec()


@pytest.fixture(scope="session")
def small_data():
    """Benchmark training data small enough for fast solves."""
    return circle.generate_dataset(20, 15, seed=7)


@pytest.fixture(scope="session")
def tested_data():
    """Small training data plus moderate testing sets."""
    return circle.generate_dataset(20, 15, seed=7, n_a_test=2000, n_e_test=100)


@pytest.fixture()
def fast_opts():
    return nlp.NlpOptions(seed=0, n_starts=4, max_inner=150)


@pytest.fixture()
def robust_cfg():
    return AlphaConfig.uniform(1, rho=1e6)


@pytest.fixture(scope="session")
def nominal_only_data():
    """30 mixture points with the single nominal epistemic scenario."""
    rng = np.random.default_rng(42)
    pts = circle.sample_aleatory(30, rng)
    return ScenarioData(pts, np.zeros((1, 3)))
