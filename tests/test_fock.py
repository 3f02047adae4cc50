import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def beamsplitter_blocks_reference(t_amp, n_total):
    """The beam-splitter blocks a second way: the column-by-column loop, every block kept.

    Block N holds <m1, N-m1| U |n1, N-n1> for U+ a U = t a + r b with
    r = sqrt(1 - |t|^2), raised from the vacuum block one column n1 at a time.
    """
    r_amp = math.sqrt(max(0.0, 1.0 - abs(t_amp) ** 2))
    blocks = [np.ones((1, 1), dtype=complex)]
    for total in range(1, n_total + 1):
        prev = blocks[total - 1]
        block = np.zeros((total + 1, total + 1), dtype=complex)
        m_root = np.sqrt(np.arange(1, total + 1))
        for n1 in range(total + 1):
            n2 = total - n1
            column = np.zeros(total, dtype=complex)
            if n1 >= 1:
                column += t_amp * math.sqrt(n1) * prev[:, n1 - 1]
            if n2 >= 1:
                column += r_amp * math.sqrt(n2) * prev[:, n1]
            block[1:, n1] = column / m_root
            # the m1 = 0 row follows from the conjugate relation for mode b
            low = 0.0
            if n1 >= 1:
                low += -np.conj(r_amp) * math.sqrt(n1) * prev[0, n1 - 1]
            if n2 >= 1:
                low += np.conj(t_amp) * math.sqrt(n2) * prev[0, n1]
            block[0, n1] = low / math.sqrt(total)
        blocks.append(block)
    return blocks


def thermal_weights(occupation):
    """Bose-Einstein weights of occupations 0..k_max, k_max the first with ratio^k <= 1e-12."""
    if occupation == 0:
        return np.array([1.0])
    ratio = occupation / (1.0 + occupation)
    k_max = max(1, int(math.ceil(math.log(1e-12) / math.log(ratio))))
    return ratio ** np.arange(k_max + 1) / (1.0 + occupation)


def full_blocks_reference(t_amp, n_total):
    """Reference beam splitter: every full block, each raised array-at-once.

    Block N holds <m1, N-m1| U |n1, N-n1> for U+ a U = t a + r b with
    r = sqrt(1 - |t|^2).  Each entry follows from block N-1 through a on the
    output side (dividing by sqrt(m1)) or through b (dividing by sqrt(m2)),
    and takes the relation whose coefficient vector has norm at most 1: a
    where m1 >= <m1> = |t|^2 n1 + r^2 n2.  Yields the blocks in order of N,
    holding only the last one.
    """
    r_amp = math.sqrt(max(0.0, 1.0 - abs(t_amp) ** 2))
    dtype = np.result_type(t_amp, 1.0)
    block = np.ones((1, 1), dtype=dtype)
    yield block
    for total in range(1, n_total + 1):
        index = np.arange(total + 1)  # m1 down the rows, n1 across the columns
        root_n1 = np.sqrt(index)
        root_n2 = root_n1[::-1]
        # padded[i, j] = B'[i - 1, j - 1], zero outside B'
        padded = np.zeros((total + 2, total + 2), dtype=dtype)
        padded[1:-1, 1:-1] = block
        via_a = (t_amp * root_n1 * padded[:-1, :-1] + r_amp * root_n2 * padded[:-1, 1:]) / (
            np.maximum(root_n1, 1.0)[:, None])
        via_b = (np.conj(t_amp) * root_n2 * padded[1:, 1:] - r_amp * root_n1 * padded[1:, :-1]) / (
            np.maximum(root_n2, 1.0)[:, None])
        mean_m1 = abs(t_amp) ** 2 * index + r_amp**2 * (total - index)
        block = np.where(index[:, None] >= np.clip(mean_m1, 1, total), via_a, via_b)
        yield block


def lossy_channel_reference(state, transmission_amplitude, env_occupation):
    """Reference loss channel: a beam splitter with a thermal environment, unitary by unitary.

    The environment is mixed over its occupations k, weights cut at 1e-12.
    In branch |psi> x |k> output (m1, m2) receives only the input with
    n1 = m1 + m2 - k, so block N contributes its columns n1 with k = N - n1.
    """
    n_max = state.n_max
    weights = thermal_weights(env_occupation)
    k_max = weights.size - 1
    n_total = n_max + k_max
    p_in = state.photon_distribution()
    p_out = np.zeros(n_total + 1)
    for total, block in enumerate(full_blocks_reference(abs(transmission_amplitude), n_total)):
        n1 = np.arange(max(0, total - k_max), min(total, n_max) + 1)
        p_out[: total + 1] += np.square(block[:, n1]) @ (weights[total - n1] * p_in[n1])
    return p_out


def amplifier_layer_reference(gain, n_sig, idler_in, m2_max, previous):
    """Amplitudes B[n + m2 - j, m2; n, j] of the two-mode squeezer at idler occupation j.

    The squeezer realizes a_out = g a + h c+ with h = sqrt(g^2 - 1).  Layer j
    is raised from layer j - 1 (``previous``) one signal occupation n at a
    time; layer 0 is the squeezed-vacuum column (h/g)^m2 / g, raised over n.
    """
    h = math.sqrt(gain**2 - 1.0)
    root_m2 = np.sqrt(np.arange(m2_max + 1))
    layer = np.zeros((n_sig + 1, m2_max + 1))
    if idler_in == 0:
        layer[0] = (h / gain) ** np.arange(m2_max + 1) / gain
        for n in range(1, n_sig + 1):
            layer[n] = layer[n - 1] * np.sqrt(np.arange(m2_max + 1) + n) / (gain * math.sqrt(n))
        return layer
    shifted = np.zeros(m2_max + 1)
    for n in range(n_sig + 1):
        shifted[1:] = previous[n, :-1]
        lowered = h * math.sqrt(n) * previous[n - 1] if n else 0.0
        layer[n] = (root_m2 * shifted - lowered) / (gain * math.sqrt(idler_in))
    return layer


def amplifying_channel_reference(state, gain_amplitude, idler_occupation):
    """Reference gain channel: the two-mode squeezer with a thermal idler, layer by layer.

    The idler is mixed over its occupations j, weights cut at 1e-12; the
    output m1 = n + m2 - j is summed over the signal occupations n and the
    idler's output occupations m2 <= 3 (|g|^2 - 1)(n_max + j_max + 1) + 60.
    """
    gain = abs(gain_amplitude)
    weights = thermal_weights(idler_occupation)
    n_sig = state.n_max
    m2_max = int(math.ceil((gain**2 - 1.0) * (n_sig + weights.size) * 3)) + 60
    p_in = state.photon_distribution()
    p_out = np.zeros(n_sig + m2_max + 1)
    layer = None
    for j, weight in enumerate(weights):
        layer = amplifier_layer_reference(gain, n_sig, j, m2_max, layer)
        for n in range(n_sig + 1):
            m1 = n + np.arange(m2_max + 1) - j
            inside = m1 >= 0
            p_out[m1[inside]] += weight * p_in[n] * layer[n, inside] ** 2
    return p_out


def padded_difference(p, q):
    """Largest entrywise difference of two distributions, zero-padded to one length."""
    size = max(p.size, q.size)
    return np.max(np.abs(np.pad(p, (0, size - p.size)) - np.pad(q, (0, size - q.size))))


@pytest.mark.parametrize("t_amp", [0.0, 1.0, 0.37, 0.6 + 0.3j])
def test_beamsplitter_blocks_match_column_loop(t_amp):
    # two constructions of the reference blocks: the column loop's own blocks
    # drift from unitarity exponentially in N (5e-11 at N = 60 for t = 0.37),
    # so it is a reference only up to N = 25, where it is unitary to 1e-13;
    # the two-relation blocks must stay unitary to N = 60
    reference = beamsplitter_blocks_reference(t_amp, 25)
    blocks = list(full_blocks_reference(t_amp, 60))
    assert len(blocks) == 61
    for total, block in enumerate(blocks):
        assert block.shape == (total + 1, total + 1)
        assert np.max(np.abs(block.conj().T @ block - np.eye(total + 1))) <= 1e-12
        if total < len(reference):
            assert np.max(np.abs(np.abs(block) ** 2 - np.abs(reference[total]) ** 2)) <= 1e-13


# the oracle workload's grid, and two hot environments, where k_max > n_max.
# The decomposition sums different terms than the unitary, so the two agree
# to rounding, not bit for bit: 2.4e-14 per entry at most on this grid
@pytest.mark.parametrize("rho, env_occupation", [
    *((rho, f) for rho in (0.0, 0.4, 0.8) for f in (0.0, 0.1, 0.3)), (0.4, 5.0), (0.4, 10.0)])
def test_lossy_channel_bitwise_equal_to_full_blocks(rho, env_occupation):
    state = fock.squeezed_coherent_fock(cmath.exp(0.3j), rho, 0.7, 120)
    out = fock.lossy_channel_photostats(state, math.sqrt(0.6), env_occupation)
    reference = lossy_channel_reference(state, math.sqrt(0.6), env_occupation)
    assert padded_difference(out.distribution, reference) <= 1e-13


def test_lossy_channel_rejects_probability_gained(monkeypatch):
    # an amplifier output scaled by 1 + 2e-6 sums to 1 + 2e-6
    amplify = fock._amplify
    monkeypatch.setattr(fock, "_amplify", lambda *args: amplify(*args) * (1 + 2e-6))
    state = fock.squeezed_coherent_fock(1.3, 0.5, 0.7, 120)
    with pytest.raises(TruncationLeak, match="gained"):
        fock.lossy_channel_photostats(state, math.sqrt(0.6), 0.1)


def test_lossy_channel_in_hot_environment():
    # f = 5: the unitary picture reads blocks up to N = 272, where one raising
    # relation alone gave kappa1 4 % off; thinning and amplifier have no blocks
    state = fock.squeezed_coherent_fock(1.3, 0.5, 0.7, 120)
    out = fock.lossy_channel_photostats(state, math.sqrt(0.5), 5.0)
    closed = ps.direct_cumulants_squeezed(
        scalar_channel(math.sqrt(0.5), md.ABSORBING), ps.SqueezedInput(1.3, 0.5, 0.7),
        ps.DetectionConfig(1.0), 5.0)
    assert out.kappa1 == pytest.approx(closed.kappa1, rel=1e-13)
    assert out.kappa2 == pytest.approx(closed.kappa2, rel=1e-13)


def test_amplifier_matches_squeezer_reference():
    # the two-mode squeezer with a thermal idler, against thinning and the
    # quantum-limited amplifier, at 1e-13 per entry
    state = fock.squeezed_coherent_fock(cmath.exp(0.3j), 0.4, 0.7, 120)
    for gain in (1.5, 3.0):
        for idler_occupation in (0.0, 0.2, 1.0):
            out = fock.amplifying_channel_photostats(state, math.sqrt(gain), idler_occupation)
            reference = amplifying_channel_reference(state, math.sqrt(gain), idler_occupation)
            assert padded_difference(out.distribution, reference) <= 1e-13, (
                gain, idler_occupation)


def squeezed_state(amplitude, alpha_phase, rho, phi):
    """A displaced squeezed state at the truncation rule's n_max, or no example."""
    alpha = amplitude * complex(math.cos(alpha_phase), math.sin(alpha_phase))
    n_max = math.ceil(4 * (amplitude**2 + math.sinh(rho) ** 2) + 40)
    try:
        return fock.squeezed_coherent_fock(alpha, rho, phi, n_max)
    except TruncationLeak:
        assume(False)  # the rule holds but the squeezed tail still leaks


STATES = dict(amplitude=st.floats(0.0, 2.0), alpha_phase=st.floats(0.0, 2 * math.pi),
              rho=st.floats(0.0, 0.8), phi=st.floats(0.0, 2 * math.pi))
# the means are compared relative to 1e-12; a mean near the smallest normal
# double (below 1e-290) carries subnormal products and is compared absolutely
MEAN_FLOOR = 1e-290


@given(transmittance=st.floats(0.0, 1.0, allow_subnormal=False),
       env_occupation=st.floats(0.0, 10.0, allow_subnormal=False), **STATES)
@settings(max_examples=60, deadline=None)
def test_lossy_channel_is_nonnegative_with_exact_mean(transmittance, env_occupation, **state):
    state = squeezed_state(**state)
    t_amp = math.sqrt(transmittance)
    out = fock.lossy_channel_photostats(state, t_amp, env_occupation)
    assert np.all(out.distribution >= 0)
    transmittance = abs(t_amp) ** 2
    expected = transmittance * state.mean_photon_number() + (1 - transmittance) * env_occupation
    assert out.kappa1 == pytest.approx(expected, rel=1e-12, abs=MEAN_FLOOR)


@given(gain=st.floats(1.0, 3.0), idler_occupation=st.floats(0.0, 1.0, allow_subnormal=False),
       **STATES)
@settings(max_examples=60, deadline=None)
def test_amplifying_channel_is_nonnegative_with_exact_mean(gain, idler_occupation, **state):
    state = squeezed_state(**state)
    g_amp = math.sqrt(gain)
    out = fock.amplifying_channel_photostats(state, g_amp, idler_occupation)
    assert np.all(out.distribution >= 0)
    gain = abs(g_amp) ** 2
    expected = gain * state.mean_photon_number() + (gain - 1) * (1 + idler_occupation)
    assert out.kappa1 == pytest.approx(expected, rel=1e-12, abs=MEAN_FLOOR)


@given(transmittance=st.floats(0.0, 1.0), phase=st.floats(0.0, 2 * math.pi), **STATES)
@settings(max_examples=60, deadline=None)
def test_lossy_channel_at_zero_temperature_is_binomial_thinning(transmittance, phase, **state):
    # f = 0: P(m) = sum_n p_n C(n, m) T^m (1 - T)^(n - m), with no recursion
    state = squeezed_state(**state)
    n_max = state.n_max
    t_amp = math.sqrt(transmittance) * complex(math.cos(phase), math.sin(phase))
    out = fock.lossy_channel_photostats(state, t_amp, 0.0)
    thinning = np.array([[math.comb(n, m) * transmittance**m * (1 - transmittance) ** (n - m)
                          if m <= n else 0.0
                          for n in range(n_max + 1)] for m in range(n_max + 1)])
    expected = thinning @ state.photon_distribution()
    assert out.distribution.shape == expected.shape
    assert np.max(np.abs(out.distribution - expected)) <= 1e-12


def test_lossy_channel_memory_bounded():
    # the channel keeps one kernel row and the output distribution, no kernel
    # matrix and no mixture over environment occupations
    state = fock.squeezed_coherent_fock(1.3, 0.5, 0.7, 120)
    for env_occupation, transmittance, bound in ((0.3, 0.6, 8e6), (10.0, 0.5, 10e6)):
        tracemalloc.start()
        try:
            fock.lossy_channel_photostats(state, math.sqrt(transmittance), env_occupation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, env_occupation


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
