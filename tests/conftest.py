import numpy as np
import pytest
from hypothesis import settings

from covertuav.scenario import baseline_config

# one profile for every property test: reproducible draws, no time limit
settings.register_profile("covertuav", derandomize=True, deadline=None)
settings.load_profile("covertuav")


@pytest.fixture(scope="session")
def cfg():
    """Baseline study scenario (300 slots)."""
    return baseline_config()


@pytest.fixture(scope="session")
def small_cfg():
    """Shrunk scenario that solves in well under a second."""
    return baseline_config(
        flight_period_T=24.0,
        q_init=(-50.0, 10.0),
        q_final=(50.0, 10.0),
        bob_est=(-10.0, 30.0),
        willie_est=(10.0, 30.0),
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(20240)
