import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqtransport import ensemble as en
from sqtransport import medium as md
from sqtransport import photostatistics as ps
from sqtransport import validation
from sqtransport.errors import (
    GeneratingFunctionDomainError,
    ImaginaryResidue,
    ZeroMeanCount,
    ZeroTransmission,
)

from conftest import random_contraction, random_homodyne_case, scalar_channel

# each property's one copy is a fast check of ``validation``; test_cli's
# test_fast_check runs every check, and these names keep this module's test ids
test_fano_in_coherent_is_poisson = validation.check_fano_in_limits
test_fano_in_squeezed_vacuum = validation.check_fano_in_limits
test_fano_in_large_amplitude_squeezed = validation.check_fano_in_limits
test_thermal_cumulants_scalar_channel = validation.check_thermal_cumulants_scalar
test_m_element_limits = validation.check_m_element_scalar
test_numeric_cumulants_match_closed_forms = validation.check_generating_function_consistency
test_fano_homodyne_min_at_optimal_phase = validation.check_homodyne_scan_minimum
test_fano_breakdown_decomposition_identity = validation.check_breakdown_identity


def test_fano_in_zero_mean_count():
    with pytest.raises(ZeroMeanCount):
        ps.fano_in_squeezed(ps.SqueezedInput(alpha=0.0, rho=0.0))


def test_fano_in_phase_covariance():
    # depends on the relative phase 2*arg(alpha) - phi only
    rng = np.random.default_rng(20)
    for _ in range(100):
        alpha = complex(rng.normal(), rng.normal())
        rho = rng.uniform(0, 1.5)
        phi = rng.uniform(0, 2 * math.pi)
        delta = rng.uniform(-math.pi, math.pi)
        base = ps.fano_in_squeezed(ps.SqueezedInput(alpha, rho, phi))
        shifted = ps.fano_in_squeezed(
            ps.SqueezedInput(alpha * cmath.exp(1j * delta), rho, phi + 2 * delta))
        assert shifted == pytest.approx(base, rel=1e-10)


def test_squeezed_bracket_matches_expansion():
    # |a ch - a* e^{i phi} sh|^2 - |a|^2 + sh^2 ch2 expands to
    # |a|^2 (ch2 - 1) - sh2 Re[a^2 e^{-i phi}] + sh^2 ch2
    rng = np.random.default_rng(21)
    for _ in range(50):
        alpha = complex(rng.normal(), rng.normal())
        rho = rng.uniform(0, 1.5)
        phi = rng.uniform(0, 2 * math.pi)
        state = ps.SqueezedInput(alpha, rho, phi)
        expanded = (
            abs(alpha) ** 2 * (math.cosh(2 * rho) - 1)
            - math.sinh(2 * rho) * (alpha**2 * cmath.exp(-1j * phi)).real
            + math.sinh(rho) ** 2 * math.cosh(2 * rho)
        )
        assert ps.squeezed_number_bracket(state) == pytest.approx(expanded, rel=1e-12, abs=1e-12)


def test_thermal_cumulants_unitary_vanish():
    s = md.sample_slice(4, 0.3, np.random.default_rng(22))
    k1, k2 = ps.thermal_cumulant_densities(s, ps.DetectionConfig(1.0), 0.3)
    assert abs(k1) < 1e-12 and abs(k2) < 1e-12


@pytest.mark.parametrize("mode_set", [ps.TRANSMISSION, ps.REFLECTION, ps.ALL_MODES])
def test_thermal_cumulants_spectral_oracle(mode_set):
    # independent path: eigenvalues of the detected block of 1 - SS+
    rng = np.random.default_rng(23)
    for _ in range(10):
        s = random_contraction(rng, 3)
        config = ps.DetectionConfig(0.7, mode_set)
        f = 0.2
        k1, k2 = ps.thermal_cumulant_densities(s, config, f)
        mask = config.mode_mask(3)
        block = md.deviation_from_unitarity(s)[np.ix_(mask, mask)]
        mu = np.linalg.eigvalsh(block)
        assert k1 == pytest.approx(0.7 * f * mu.sum(), rel=1e-12)
        assert k2 == pytest.approx((0.7 * f) ** 2 * (mu**2).sum(), rel=1e-12)


def _coherent_cumulants_reference(s, alpha, mode, config, f):
    """Coherent-state cumulants written directly from the t-block formulas."""
    t = s.t
    column = t[:, mode]
    x_bb = np.eye(s.n_modes) - s.r @ s.r.conj().T - t @ t.conj().T
    d = config.efficiency
    k1_th, k2_th = ps.thermal_cumulant_densities(s, config, f)
    intensity = abs(alpha) ** 2
    kappa1 = intensity * d * float(np.sum(np.abs(column) ** 2)) + k1_th
    kappa2 = 2 * intensity * d**2 * f * float((column.conj() @ x_bb @ column).real) + k2_th
    return kappa1, kappa2


def test_direct_cumulants_coherent_reduction():
    rng = np.random.default_rng(24)
    for _ in range(20):
        s = random_contraction(rng, 3)
        alpha = complex(rng.normal(), rng.normal())
        mode = int(rng.integers(0, 3))
        config = ps.DetectionConfig(float(rng.uniform(0.2, 1.0)))
        f = float(rng.uniform(0, 0.4))
        state = ps.SqueezedInput(alpha, 0.0, 0.0, mode)
        got = ps.direct_cumulants_squeezed(s, state, config, f)
        k1_ref, k2_ref = _coherent_cumulants_reference(s, alpha, mode, config, f)
        assert got.kappa1 == pytest.approx(k1_ref, rel=1e-12)
        assert got.kappa2 == pytest.approx(k2_ref, rel=1e-12, abs=1e-15)


def test_direct_cumulants_unitary_full_detection_preserves_statistics():
    s = md.sample_slice(3, 0.4, np.random.default_rng(25))
    state = ps.SqueezedInput(1.1 + 0.4j, 0.6, 0.9, 1)
    config = ps.DetectionConfig(1.0, ps.ALL_MODES)
    got = ps.direct_cumulants_squeezed(s, state, config, 0.25)
    excess = state.mean_photon_number * (ps.fano_in_squeezed(state) - 1.0)
    assert got.kappa2 - got.thermal_kappa2 == pytest.approx(excess, rel=1e-12)
    assert got.kappa1 - got.thermal_kappa1 == pytest.approx(state.mean_photon_number, rel=1e-12)


def test_m_element_real_across_random_suite():
    rng = np.random.default_rng(27)
    for _ in range(100):
        s = random_contraction(rng, int(rng.integers(1, 4)))
        config = ps.DetectionConfig(float(rng.uniform(0.2, 1.0)))
        # m_element raises ImaginaryResidue above an imaginary part of 1e-10
        value = ps.m_element(s, 0, config, float(rng.uniform(0, 0.5)),
                             float(rng.uniform(-0.5, 0.5)))
        assert isinstance(value, float)


def test_m_element_raises_on_imaginary_residue(monkeypatch):
    s = scalar_channel(math.sqrt(0.6), md.ABSORBING)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1 + 1e-6j))
    with pytest.raises(ImaginaryResidue):
        ps.m_element(s, 0, ps.DetectionConfig(1.0), 0.1, 0.3)


def test_generating_function_zero_at_origin():
    s = random_contraction(np.random.default_rng(28), 2)
    state = ps.SqueezedInput(0.7, 0.5, 0.3)
    assert ps.log_generating_density_direct(0.0, s, state, ps.DetectionConfig(0.9), 0.2) == 0.0


def test_generating_function_coherent_reduction():
    # at rho = 0 the density must equal the full-resolvent coherent expression
    rng = np.random.default_rng(29)
    for _ in range(10):
        s = random_contraction(rng, 2)
        alpha = complex(rng.normal(), rng.normal())
        state = ps.SqueezedInput(alpha, 0.0, 0.0, 1)
        config = ps.DetectionConfig(0.8)
        f, z = 0.15, 0.3
        got = ps.log_generating_density_direct(z, s, state, config, f)

        full = s.full
        d_diag = 0.8 * config.mode_mask(2).astype(float)
        x = md.deviation_from_unitarity(s)
        resolvent = np.eye(4) - z * f * (d_diag[:, None] * x)
        thermal = -math.log(np.linalg.det(resolvent).real)
        vec = np.zeros(4, complex)
        vec[1] = alpha
        sv = full @ vec
        direct = z * (sv.conj() @ np.linalg.solve(resolvent, d_diag * sv)).real
        assert got == pytest.approx(thermal + direct, rel=1e-12)


def test_generating_function_domain_error():
    s = scalar_channel(math.sqrt(0.9), md.ABSORBING)
    state = ps.SqueezedInput(0.0, 2.5, 0.0)
    with pytest.raises(GeneratingFunctionDomainError):
        ps.log_generating_density_direct(0.9, s, state, ps.DetectionConfig(1.0), 0.0)


def test_numeric_cumulants_poisson_higher_orders_vanish():
    # coherent input, lossless medium, full unit-efficiency detection
    s = md.sample_slice(3, 0.4, np.random.default_rng(31))
    state = ps.SqueezedInput(1.3, 0.0, 0.0, 0)
    config = ps.DetectionConfig(1.0, ps.ALL_MODES)
    cumulants = ps.numeric_factorial_cumulants(s, state, config, 0.0, order=4)
    assert cumulants[0] == pytest.approx(abs(state.alpha) ** 2, rel=1e-9)
    for higher in cumulants[1:]:
        assert abs(higher) < 1e-6


def test_numeric_cumulants_squeezed_vacuum_mean():
    s = random_contraction(np.random.default_rng(32), 2)
    state = ps.SqueezedInput(0.0, 0.7, 1.1, 0)
    config = ps.DetectionConfig(0.85)
    column = s.t[:, 0]
    expected = math.sinh(0.7) ** 2 * 0.85 * float(np.sum(np.abs(column) ** 2))
    closed = ps.direct_cumulants_squeezed(s, state, config, 0.0)
    numeric = ps.numeric_factorial_cumulants(s, state, config, 0.0, order=1)
    assert closed.kappa1 == pytest.approx(expected, rel=1e-12)
    assert numeric[0] == pytest.approx(expected, rel=1e-7)


def test_fano_direct_unitary_medium():
    s = md.sample_slice(3, 0.4, np.random.default_rng(33))
    state = ps.SqueezedInput(0.9, 0.5, 0.4, 2)
    config = ps.DetectionConfig(0.75)
    breakdown = ps.fano_direct(s, state, config, 0.3)
    transmittance = float(np.sum(np.abs(s.t[:, 2]) ** 2))
    fano_in = ps.fano_in_squeezed(state)
    assert breakdown.beating_term == pytest.approx(0.0, abs=1e-12)
    assert breakdown.value == pytest.approx(1 + 0.75 * transmittance * (fano_in - 1), rel=1e-12)


def test_fano_direct_zero_length_limit():
    ident = md.ScatteringMatrix.identity_transmission(3)
    state = ps.SqueezedInput(1.2, 0.4, 0.7, 1)
    for d in (0.3, 1.0):
        breakdown = ps.fano_direct(ident, state, ps.DetectionConfig(d), 0.2)
        fano_in = ps.fano_in_squeezed(state)
        assert breakdown.value == pytest.approx(1 + d * (fano_in - 1), rel=1e-12)


def test_fano_direct_beating_spectral_oracle():
    # coherent input: F - 1 must equal 2 d f [t+ X t]/[t+ t] computed in the
    # eigenbasis of X = 1 - r r+ - t t+
    rng = np.random.default_rng(34)
    for _ in range(10):
        s = random_contraction(rng, 3)
        state = ps.SqueezedInput(1.0, 0.0, 0.0, 1)
        d, f = float(rng.uniform(0.2, 1.0)), float(rng.uniform(0, 0.4))
        breakdown = ps.fano_direct(s, state, ps.DetectionConfig(d), f)
        x_bb = np.eye(3) - s.r @ s.r.conj().T - s.t @ s.t.conj().T
        mu, basis = np.linalg.eigh(x_bb)
        column = basis.conj().T @ s.t[:, 1]
        ratio = float((np.abs(column) ** 2 @ mu) / np.sum(np.abs(column) ** 2))
        assert breakdown.incident_term == 0.0
        assert breakdown.value - 1 == pytest.approx(2 * d * f * ratio, rel=1e-12)


def test_fano_direct_zero_transmission():
    zero = np.zeros((1, 1), complex)
    r_only = md.ScatteringMatrix(np.ones((1, 1), complex), zero, zero, zero, md.ABSORBING)
    with pytest.raises(ZeroTransmission):
        ps.fano_direct(r_only, ps.SqueezedInput(1.0), ps.DetectionConfig(1.0), 0.1)


def test_fano_homodyne_coherent_input():
    rng = np.random.default_rng(35)
    s, state, config, f = random_homodyne_case(rng)
    state = dataclasses.replace(state, rho=0.0)
    breakdown = ps.fano_homodyne(s, state, config, f)
    hom = config.homodyne
    x_bb = np.eye(3) - s.r @ s.r.conj().T - s.t @ s.t.conj().T
    expected = 1 + 2 * config.efficiency * hom.coupling * f * x_bb[hom.probe_mode, hom.probe_mode].real
    assert breakdown.value == pytest.approx(expected, rel=1e-12)
    assert breakdown.incident_term == 0.0 and breakdown.probe_term == 0.0


def test_fano_homodyne_min_zero_length_limits():
    ident = md.ScatteringMatrix.identity_transmission(3)
    state = ps.SqueezedInput(0.5, 0.8, 0.2, incident_mode=1)
    same = ps.DetectionConfig(1.0, ps.TRANSMISSION, ps.HomodyneConfig(0.5, 1))
    other = ps.DetectionConfig(1.0, ps.TRANSMISSION, ps.HomodyneConfig(0.5, 2))
    got_same = ps.fano_homodyne_min(ident, state, same, 0.0).value
    got_other = ps.fano_homodyne_min(ident, state, other, 0.0).value
    assert got_same == pytest.approx(1 - 2 * 0.5 * math.exp(-0.8) * math.sinh(0.8), rel=1e-12)
    assert got_other == pytest.approx(1.0, abs=1e-15)


def test_detection_config_validation():
    with pytest.raises(ValueError):
        ps.DetectionConfig(1.5)
    with pytest.raises(ValueError):
        ps.DetectionConfig(0.5, "sideways")
    with pytest.raises(ValueError):
        ps.HomodyneConfig(coupling=1.0)
    with pytest.raises(ValueError):
        ps.SqueezedInput(alpha=1.0, rho=-0.1)


def _close(value, reference, tol=1e-12):
    return abs(value - reference) <= tol * max(1.0, abs(reference))


@given(
    n_modes=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
    amplifying=st.booleans(),
    alpha=st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
    rho=st.floats(0.0, 1.5), phi=st.floats(0.0, 2 * math.pi),
    efficiency=st.floats(0.0, 1.0), occupation=st.floats(0.0, 0.5),
    coupling=st.floats(0.05, 0.95), probe_phase=st.floats(-math.pi, math.pi),
    modes=st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
@settings(max_examples=80, deadline=None)
def test_single_matrix_fano_equals_one_sample_ensemble(
        n_modes, seed, amplifying, alpha, rho, phi, efficiency, occupation, coupling,
        probe_phase, modes):
    rng = np.random.default_rng(seed)
    if amplifying:  # singular values above 1 and an inverted population
        s = random_contraction(rng, n_modes, 1.05, 2.0, md.AMPLIFYING)
        occupation = -1.0 - occupation
    else:
        s = random_contraction(rng, n_modes)
    incident, probe = (m % n_modes for m in modes)
    state = ps.SqueezedInput(alpha, rho, phi, incident)
    config = ps.DetectionConfig(efficiency, ps.TRANSMISSION,
                                ps.HomodyneConfig(coupling, probe, probe_phase))
    stats = [ps.sample_statistics(s, incident, probe)]

    direct = ps.fano_direct(s, state, config, occupation)
    fixed = ps.fano_homodyne(s, state, config, occupation)
    best = ps.fano_homodyne_min(s, state, config, occupation)
    one_sample = {
        "direct": en.assemble_direct_fano(stats, ps.fano_in_squeezed(state), efficiency,
                                          occupation, en.MEAN_OF_RATIOS),
        "fixed": en.assemble_homodyne_fano(stats, rho, phi, efficiency, coupling, occupation,
                                           probe_phase, en.MEAN_OF_RATIOS),
        "min": en.assemble_homodyne_fano(stats, rho, phi, efficiency, coupling, occupation,
                                         None, en.MEAN_OF_RATIOS),
    }
    for name, breakdown in (("direct", direct), ("fixed", fixed), ("min", best)):
        assert _close(breakdown.value, one_sample[name][0]), name
        assert one_sample[name][1] == 0.0
        total = 1 + breakdown.incident_term + breakdown.beating_term + breakdown.probe_term
        assert _close(breakdown.value, total), name
    assert direct.probe_term == 0.0
    assert best.value <= fixed.value + 1e-12 * max(1.0, abs(fixed.value))
