import pytest

from sqtransport import medium as md
from sqtransport.validation import (  # noqa: F401
    haar_unitary,
    random_contraction,
    scalar_channel,
)


@pytest.fixture(scope="session")
def calibrated_n50():
    """Mean free path of the eps = 0.45 slice model, shared by the MC tests."""
    result = md.calibrate_mean_free_path(50, 0.45, [5, 10, 20, 40], 120, seed=101)
    return result


def absorbing_spec(n_modes, length, seed, decay=400.0, occupation=1e-3,
                   scatter_strength=0.32):
    return md.MediumSpec(n_modes, length, scatter_strength, 1, decay, occupation, seed)
