import os

# outputs are bitwise reproducible only at a fixed BLAS thread count; pin it
# before numpy is first imported, unless the caller chose a setting
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

from sqtransport import medium as md  # noqa: E402
from sqtransport.validation import (  # noqa: E402, F401
    absorbing_spec,
    random_contraction,
    random_homodyne_case,
    scalar_channel,
)


@pytest.fixture(scope="session")
def workers():
    """Processes for the heavy Monte Carlo tests: the cores this process may use."""
    return md.usable_cores()


@pytest.fixture(scope="session")
def calibrated_n50(workers):
    """Mean free path of the eps = 0.45 slice model, shared by the MC tests."""
    return md.calibrate_mean_free_path(50, 0.45, [5, 10, 20, 40], 120, seed=101,
                                       workers=workers)
