import math

import numpy as np
import pytest

from sqtransport import fock
from sqtransport import medium as md
from sqtransport import photostatistics as ps
from sqtransport import validation
from sqtransport.errors import TruncationLeak

from conftest import scalar_channel

# each property's one copy is a fast check of ``validation``; test_cli's
# test_fast_check runs every check, and these names keep this module's test ids
test_lossy_channel_matches_scalar_closed_form = validation.check_fock_oracle_lossy
test_amplifier_matches_scalar_closed_form = validation.check_fock_oracle_amplifying


def test_coherent_amplitudes_are_poisson():
    alpha = 1.1 - 0.6j
    state = fock.squeezed_coherent_fock(alpha, 0.0, 0.0, 80)
    n = np.arange(81)
    log_weights = -abs(alpha) ** 2 + n * math.log(abs(alpha) ** 2) - [
        math.lgamma(k + 1) for k in n
    ]
    assert np.allclose(state.photon_distribution(), np.exp(log_weights), atol=1e-12)


def test_squeezed_vacuum_even_parity():
    state = fock.squeezed_coherent_fock(0.0, 0.6, 1.2, 80)
    p = state.photon_distribution()
    assert np.all(p[1::2] < 1e-28)
    assert state.mean_photon_number() == pytest.approx(math.sinh(0.6) ** 2, abs=1e-10)


def test_state_mean_and_fano_match_closed_forms():
    # two independent code paths: amplitude recursion vs moment formulas
    for alpha, rho, phi in [(1.3, 0.5, 0.7), (0.4 + 0.9j, 0.9, 2.1), (2.0, 0.0, 0.0)]:
        spec = ps.SqueezedInput(alpha, rho, phi)
        state = fock.squeezed_coherent_fock(alpha, rho, phi, 140)
        assert state.mean_photon_number() == pytest.approx(spec.mean_photon_number, rel=1e-10)
        p = state.photon_distribution()
        n = np.arange(p.size)
        k1 = n @ p
        k2 = (n * (n - 1)) @ p - k1**2
        assert 1 + k2 / k1 == pytest.approx(ps.fano_in_squeezed(spec), rel=1e-9)


def test_truncation_rule_enforced():
    with pytest.raises(ValueError):
        fock.squeezed_coherent_fock(3.0, 0.0, 0.0, 50)  # needs >= 4*9 + 40


def test_truncation_leak_detected():
    # strongly squeezed vacuum barely satisfying the rule still leaks
    with pytest.raises(TruncationLeak):
        fock.squeezed_coherent_fock(0.0, 2.0, 0.0, 95)


def test_lossy_identity_channel():
    state = fock.squeezed_coherent_fock(1.0, 0.4, 0.3, 100)
    out = fock.lossy_channel_photostats(state, 1.0, 0.0)
    p_in = state.photon_distribution()
    assert np.allclose(out.distribution[: p_in.size], p_in, atol=1e-12)


def test_lossy_dark_channel():
    state = fock.squeezed_coherent_fock(1.0, 0.4, 0.3, 100)
    out = fock.lossy_channel_photostats(state, 0.0, 0.0)
    assert out.kappa1 == pytest.approx(0.0, abs=1e-12)
    assert out.kappa2 == pytest.approx(0.0, abs=1e-12)


def test_lossy_channel_mean_bookkeeping():
    # kappa1 = |t|^2 <n_in> + (1 - |t|^2) f, exactly
    rng = np.random.default_rng(40)
    state = fock.squeezed_coherent_fock(0.9, 0.6, 1.0, 110)
    for _ in range(5):
        transmission = math.sqrt(rng.uniform(0.1, 1.0))
        f_env = rng.uniform(0.0, 0.5)
        out = fock.lossy_channel_photostats(state, transmission, f_env)
        expected = transmission**2 * state.mean_photon_number() + (1 - transmission**2) * f_env
        assert out.kappa1 == pytest.approx(expected, rel=1e-10)


def test_lossy_channel_distribution_physical():
    state = fock.squeezed_coherent_fock(1.3, 0.5, 0.7, 120)
    out = fock.lossy_channel_photostats(state, math.sqrt(0.6), 0.1)
    assert np.all(out.distribution >= -1e-12)
    assert 1 - 1e-8 <= out.distribution.sum() <= 1 + 1e-12


def test_amplifier_identity():
    state = fock.squeezed_coherent_fock(1.0, 0.4, 0.0, 100)
    out = fock.amplifying_channel_photostats(state, 1.0)
    p_in = state.photon_distribution()
    assert np.allclose(out.distribution[: p_in.size], p_in, atol=1e-12)


def test_amplifier_on_vacuum_is_thermal():
    vacuum = fock.squeezed_coherent_fock(0.0, 0.0, 0.0, 60)
    out = fock.amplifying_channel_photostats(vacuum, math.sqrt(2.0))
    assert out.kappa1 == pytest.approx(1.0, rel=1e-12)
    assert out.fano == pytest.approx(2.0, rel=1e-10)
    assert out.kappa2 == pytest.approx(out.kappa1**2, rel=1e-10)
    n = np.arange(out.distribution.size)
    assert np.allclose(out.distribution, 0.5**(n + 1), atol=1e-12)


def test_amplifier_partial_inversion_emulation():
    # a thermal idler with occupation n_id realizes f = -(1 + n_id) exactly
    state = fock.squeezed_coherent_fock(0.8, 0.3, 1.4, 110)
    s = scalar_channel(math.sqrt(1.4), md.AMPLIFYING)
    for n_id in (0.2, 0.6):
        out = fock.amplifying_channel_photostats(state, math.sqrt(1.4),
                                                 idler_occupation=n_id)
        closed = ps.direct_cumulants_squeezed(
            s, ps.SqueezedInput(0.8, 0.3, 1.4), ps.DetectionConfig(1.0), -(1 + n_id))
        assert out.kappa1 == pytest.approx(closed.kappa1, rel=1e-9)
        assert out.kappa2 == pytest.approx(closed.kappa2, rel=1e-9)


def test_amplifier_rejects_gain_below_one():
    state = fock.squeezed_coherent_fock(0.5, 0.0, 0.0, 60)
    with pytest.raises(ValueError):
        fock.amplifying_channel_photostats(state, 0.9)
