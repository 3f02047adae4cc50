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
    SingularResolvent,
    ZeroMeanCount,
    ZeroTransmission,
)

from conftest import random_contraction, random_homodyne_case, scalar_channel

# each property's one copy is a fast check of ``validation``; test_cli's
# test_fast_check runs every check, and these names keep this module's test ids
test_fano_in_coherent_is_poisson = validation.check_fano_in_limits
test_thermal_cumulants_scalar_channel = validation.check_thermal_cumulants_scalar
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


def test_thermal_cumulants_spectral_oracle():
    # independent path: eigenvalues of the transmitted block of the 2N x 2N 1 - SS+
    rng = np.random.default_rng(23)
    for _ in range(10):
        s = random_contraction(rng, 3)
        config = ps.DetectionConfig(0.7)
        f = 0.2
        k1, k2 = ps.thermal_cumulant_densities(s, config, f)
        block = md.deviation_from_unitarity(s)[3:, 3:]
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
    # a lossless medium, detected at unit efficiency, thins the input by T:
    # no thermal part, kappa1 = T n and excess kappa2 = T^2 n (F_in - 1)
    s = md.sample_slice(3, 0.4, np.random.default_rng(25))
    state = ps.SqueezedInput(1.1 + 0.4j, 0.6, 0.9, 1)
    got = ps.direct_cumulants_squeezed(s, state, ps.DetectionConfig(1.0), 0.25)
    transmittance = float(np.sum(np.abs(s.t[:, 1]) ** 2))
    mean = state.mean_photon_number
    excess = transmittance**2 * mean * (ps.fano_in_squeezed(state) - 1.0)
    assert abs(got.thermal_kappa1) < 1e-12 and abs(got.thermal_kappa2) < 1e-12
    assert got.kappa2 - got.thermal_kappa2 == pytest.approx(excess, rel=1e-12)
    assert got.kappa1 - got.thermal_kappa1 == pytest.approx(transmittance * mean, rel=1e-12)


def test_m_element_real_across_random_suite():
    rng = np.random.default_rng(27)
    for _ in range(100):
        s = random_contraction(rng, int(rng.integers(1, 4)))
        config = ps.DetectionConfig(float(rng.uniform(0.2, 1.0)))
        # a real sum over the eigenvalues of the Hermitian d X
        value = ps.m_element(s, 0, config, float(rng.uniform(0, 0.5)),
                             float(rng.uniform(-0.5, 0.5)))
        assert isinstance(value, float)


def _m_element_reference(s, incident_mode, config, occupation, z):
    """-z d [t+ (1 - z d f X)^-1 t]_{m0 m0} by one N x N solve, X = 1 - r r+ - t t+."""
    if z == 0:
        return 0.0
    d = config.efficiency
    x_bb = np.eye(s.n_modes) - s.r @ s.r.conj().T - s.t @ s.t.conj().T
    column = s.t[:, incident_mode]
    solved = np.linalg.solve(np.eye(s.n_modes) - z * occupation * (d * x_bb), d * column)
    m = -z * complex(column.conj() @ solved)
    assert abs(m.imag) < 1e-10
    return m.real


def _log_generating_reference(z, s, state, config, occupation):
    """The generating density from eigvalsh for the thermal part and the solved m."""
    x_bb = np.eye(s.n_modes) - s.r @ s.r.conj().T - s.t @ s.t.conj().T
    factors = 1.0 - z * occupation * np.linalg.eigvalsh(config.efficiency * x_bb)
    assert np.all(factors > 0)
    thermal = -float(np.sum(np.log(factors)))
    m = _m_element_reference(s, state.incident_mode, config, occupation, z)
    sh, ch = math.sinh(state.rho), math.cosh(state.rho)
    gauge = 1.0 + 2.0 * m * sh * sh - m * m * sh * sh
    assert gauge > 0
    phase = math.cos(2.0 * cmath.phase(complex(state.alpha)) - state.phi)
    displaced = -m * abs(state.alpha) ** 2 * (1.0 + m * sh * (sh + ch * phase)) / gauge
    return thermal - 0.5 * math.log(gauge) + displaced


@given(
    n_modes=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
    amplifying=st.booleans(),
    alpha=st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
    rho=st.floats(0.0, 1.0), phi=st.floats(0.0, 2 * math.pi),
    efficiency=st.floats(0.05, 1.0), occupation=st.floats(0.0, 0.5),
    reach=st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3), mode=st.integers(0, 3),
)
@settings(max_examples=80, deadline=None)
def test_spectral_generating_function_matches_solve_reference(
        n_modes, seed, amplifying, alpha, rho, phi, efficiency, occupation, reach, mode):
    rng = np.random.default_rng(seed)
    if amplifying:  # singular values above 1 and an inverted population
        s = random_contraction(rng, n_modes, 1.05, 2.0, md.AMPLIFYING)
        occupation = -1.0 - occupation
    else:
        s = random_contraction(rng, n_modes)
    state = ps.SqueezedInput(alpha, rho, phi, mode % n_modes)
    config = ps.DetectionConfig(efficiency)
    # |z f lambda_i| <= 0.2 and |m| <= 0.25 keep every logarithm argument
    # above 0.2 at rho <= 1, so z lies well inside the domain
    x_bb = np.eye(n_modes) - s.r @ s.r.conj().T - s.t @ s.t.conj().T
    scale = (abs(occupation) * float(np.max(np.abs(np.linalg.eigvalsh(x_bb))))
             + float(np.sum(np.abs(s.t[:, state.incident_mode]) ** 2)))
    z = 0.2 * reach / (1.0 + scale)
    m = ps.m_element(s, state.incident_mode, config, occupation, z)
    reference_m = _m_element_reference(s, state.incident_mode, config, occupation, z)
    assert m == pytest.approx(reference_m, rel=1e-12, abs=0.0)
    density = ps.log_generating_density_direct(z, s, state, config, occupation)
    reference = _log_generating_reference(z, s, state, config, occupation)
    assert density == pytest.approx(reference, rel=1e-12, abs=0.0)


# the fourth order's extrapolations disagree at these inputs; only the count is tested
@pytest.mark.filterwarnings("ignore::sqtransport.errors.PrecisionLossWarning")
@pytest.mark.parametrize("order, evaluations", [(2, 12), (4, 14)])
def test_numeric_cumulants_evaluate_each_stencil_point_once(order, evaluations, monkeypatch):
    s = random_contraction(np.random.default_rng(38), 2)
    state = ps.SqueezedInput(0.8 + 0.3j, 0.4, 0.6, 1)
    calls = []
    generating = ps.log_generating_density_direct

    def counted(z, *args):
        calls.append(z)
        return generating(z, *args)

    monkeypatch.setattr(ps, "log_generating_density_direct", counted)
    ps.numeric_factorial_cumulants(s, state, ps.DetectionConfig(0.9), 0.1, order=order)
    assert len(calls) == len(set(calls)) == evaluations


def test_m_element_raises_on_exactly_singular_factor():
    # X = 1 - 1/4 - 1/4 = 1/2 exactly, so 1 - z f X = 1 - 4 * 0.5 * 0.5 = 0
    half = np.full((1, 1), 0.5, complex)
    s = md.ScatteringMatrix(half, half, half, half, md.ABSORBING)
    with pytest.raises(SingularResolvent):
        ps.m_element(s, 0, ps.DetectionConfig(1.0), 0.5, 4.0)


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
        d_diag = 0.8 * np.array([0.0, 0.0, 1.0, 1.0])  # D on the transmitted modes
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
    # coherent input, lossless medium, unit efficiency: kappa1 = |alpha|^2 T
    s = md.sample_slice(3, 0.4, np.random.default_rng(31))
    state = ps.SqueezedInput(1.3, 0.0, 0.0, 0)
    config = ps.DetectionConfig(1.0)
    cumulants = ps.numeric_factorial_cumulants(s, state, config, 0.0, order=4)
    transmittance = float(np.sum(np.abs(s.t[:, 0]) ** 2))
    assert cumulants[0] == pytest.approx(abs(state.alpha) ** 2 * transmittance, rel=1e-9)
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
    same = ps.DetectionConfig(1.0, homodyne=ps.HomodyneConfig(0.5, 1))
    other = ps.DetectionConfig(1.0, homodyne=ps.HomodyneConfig(0.5, 2))
    got_same = ps.fano_homodyne_min(ident, state, same, 0.0).value
    got_other = ps.fano_homodyne_min(ident, state, other, 0.0).value
    assert got_same == pytest.approx(1 - 2 * 0.5 * math.exp(-0.8) * math.sinh(0.8), rel=1e-12)
    assert got_other == pytest.approx(1.0, abs=1e-15)


def test_detection_config_validation():
    with pytest.raises(ValueError):
        ps.DetectionConfig(1.5)
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
    config = ps.DetectionConfig(efficiency,
                                homodyne=ps.HomodyneConfig(coupling, probe, probe_phase))
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
