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
    """Reference for the block recursion: the column-by-column loop, every block kept.

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


def full_blocks_reference(t_amp, n_total):
    """Reference for the slabs: every full block, each raised array-at-once.

    Block N holds <m1, N-m1| U |n1, N-n1>; each entry takes the output-side
    relation (a or b) whose coefficient vector has norm at most 1, as
    ``fock._beamsplitter_blocks`` does, but over all columns n1 = 0..N.
    Yields the blocks in order of N, holding only the last one.
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
    """Reference for the loss channel's output distribution, read off the full blocks."""
    n_max = state.n_max
    weights = fock._thermal_weights(env_occupation)
    k_max = weights.size - 1
    n_total = n_max + k_max
    p_in = state.photon_distribution()
    p_out = np.zeros(n_total + 1)
    for total, block in enumerate(full_blocks_reference(abs(transmission_amplitude), n_total)):
        n1 = np.arange(max(0, total - k_max), min(total, n_max) + 1)
        # block[:, n1] is Fortran-ordered, and its product would round differently
        columns = np.ascontiguousarray(block[:, n1])
        p_out[: total + 1] += np.square(columns) @ (weights[total - n1] * p_in[n1])
    return p_out


def amplifier_layer_reference(gain, idler_in, previous):
    """Reference for the squeezer's j > 0 layer: the loop over signal occupations n."""
    h = math.sqrt(gain**2 - 1.0)
    n_sig, m2_max = previous.shape[0] - 1, previous.shape[1] - 1
    root_m2 = np.sqrt(np.arange(m2_max + 1))
    layer = np.zeros_like(previous)
    shifted = np.zeros(m2_max + 1)
    shifted[1:] = previous[0, :-1]
    layer[0] = root_m2 * shifted / (gain * math.sqrt(idler_in))
    for n in range(1, n_sig + 1):
        shifted[1:] = previous[n, :-1]
        shifted[0] = 0.0
        layer[n] = (root_m2 * shifted - h * math.sqrt(n) * previous[n - 1]) / (
            gain * math.sqrt(idler_in)
        )
    return layer


@pytest.mark.parametrize("t_amp", [0.0, 1.0, 0.37, 0.6 + 0.3j])
def test_beamsplitter_blocks_match_column_loop(t_amp):
    # the loop's own blocks drift from unitarity exponentially in N (5e-11 at
    # N = 60 for t = 0.37), so it is a reference only up to N = 25, where it
    # is unitary to 1e-13; the new blocks must stay unitary to N = 60
    reference = beamsplitter_blocks_reference(t_amp, 25)
    blocks = list(fock._beamsplitter_blocks(t_amp, 60, 60, 60))
    assert len(blocks) == 61
    for total, block in enumerate(blocks):
        assert block.shape == (total + 1, total + 1)
        assert np.max(np.abs(block.conj().T @ block - np.eye(total + 1))) <= 1e-12
        if total < len(reference):
            assert np.max(np.abs(np.abs(block) ** 2 - np.abs(reference[total]) ** 2)) <= 1e-13


@pytest.mark.parametrize("t_amp", [0.0, 1.0, 0.37, 0.6 + 0.3j])
def test_beamsplitter_slabs_are_columns_of_full_blocks(t_amp):
    # the slab of block N holds its columns n2 = N - n1 <= n2_max, bit for bit
    reference = list(full_blocks_reference(t_amp, 60))
    for n2_max in (0, 1, 7, 60):
        slabs = list(fock._beamsplitter_blocks(t_amp, 60, n2_max, 60))
        assert len(slabs) == 61
        for total, slab in enumerate(slabs):
            width = min(n2_max, total) + 1
            assert slab.shape == (total + 1, width)
            assert np.array_equal(slab, reference[total][:, total + 1 - width :])
    # banded: only the columns N - n1_max <= n2 <= n2_max, as the loss channel
    # raises them with n2_max = k_max and n1_max = n_max = n_total - k_max
    for n2_max, n1_max in ((0, 60), (1, 59), (7, 53), (40, 20), (53, 7), (60, 0), (30, 45)):
        slabs = list(fock._beamsplitter_blocks(t_amp, 60, n2_max, n1_max))
        assert len(slabs) == 61
        for total, slab in enumerate(slabs):
            low, high = max(0, total - n2_max), min(total, n1_max)
            assert slab.shape == (total + 1, high - low + 1)
            assert np.array_equal(slab, reference[total][:, low : high + 1])


# the oracle workload's grid, and two hot environments, where k_max > n_max
# and the slabs are banded
@pytest.mark.parametrize("rho, env_occupation", [
    *((rho, f) for rho in (0.0, 0.4, 0.8) for f in (0.0, 0.1, 0.3)), (0.4, 5.0), (0.4, 10.0)])
def test_lossy_channel_bitwise_equal_to_full_blocks(rho, env_occupation):
    state = fock.squeezed_coherent_fock(cmath.exp(0.3j), rho, 0.7, 120)
    out = fock.lossy_channel_photostats(state, math.sqrt(0.6), env_occupation)
    assert np.array_equal(out.distribution, lossy_channel_reference(state, math.sqrt(0.6),
                                                                    env_occupation))


def test_lossy_channel_rejects_probability_gained(monkeypatch):
    # blocks scaled by 1 + 1e-6 are no longer unitary: the output sums to 1 + 2e-6
    blocks = fock._beamsplitter_blocks
    monkeypatch.setattr(fock, "_beamsplitter_blocks",
                        lambda *args: (block * (1 + 1e-6) for block in blocks(*args)))
    state = fock.squeezed_coherent_fock(1.3, 0.5, 0.7, 120)
    with pytest.raises(TruncationLeak, match="gained"):
        fock.lossy_channel_photostats(state, math.sqrt(0.6), 0.1)


def test_lossy_channel_in_hot_environment():
    # a hot environment reads the middle columns of blocks up to N = 272,
    # where the raising relation alone gives kappa1 4 % off
    state = fock.squeezed_coherent_fock(1.3, 0.5, 0.7, 120)
    out = fock.lossy_channel_photostats(state, math.sqrt(0.5), 5.0)
    closed = ps.direct_cumulants_squeezed(
        scalar_channel(math.sqrt(0.5), md.ABSORBING), ps.SqueezedInput(1.3, 0.5, 0.7),
        ps.DetectionConfig(1.0), 5.0)
    assert out.kappa1 == pytest.approx(closed.kappa1, rel=1e-8)
    assert out.kappa2 == pytest.approx(closed.kappa2, rel=1e-8)


def test_amplifier_layers_bitwise_equal_to_loop():
    for gain in (math.sqrt(1.5), math.sqrt(3.0)):
        layer = fock._amplifier_kernel(gain, 70, 0, 150, None)
        for j in range(1, 12):
            expected = amplifier_layer_reference(gain, j, layer)
            layer = fock._amplifier_kernel(gain, 70, j, 150, layer)
            assert np.array_equal(layer, expected)


@given(transmittance=st.floats(0.0, 1.0), phase=st.floats(0.0, 2 * math.pi),
       amplitude=st.floats(0.0, 2.0), alpha_phase=st.floats(0.0, 2 * math.pi),
       rho=st.floats(0.0, 0.8), phi=st.floats(0.0, 2 * math.pi))
@settings(max_examples=60, deadline=None)
def test_lossy_channel_at_zero_temperature_is_binomial_thinning(
        transmittance, phase, amplitude, alpha_phase, rho, phi):
    # f = 0: P(m) = sum_n p_n C(n, m) T^m (1 - T)^(n - m), with no recursion
    alpha = amplitude * complex(math.cos(alpha_phase), math.sin(alpha_phase))
    n_max = math.ceil(4 * (amplitude**2 + math.sinh(rho) ** 2) + 40)
    try:
        state = fock.squeezed_coherent_fock(alpha, rho, phi, n_max)
    except TruncationLeak:
        assume(False)  # the rule holds but the squeezed tail still leaks
    t_amp = math.sqrt(transmittance) * complex(math.cos(phase), math.sin(phase))
    out = fock.lossy_channel_photostats(state, t_amp, 0.0)
    thinning = np.array([[math.comb(n, m) * transmittance**m * (1 - transmittance) ** (n - m)
                          if m <= n else 0.0
                          for n in range(n_max + 1)] for m in range(n_max + 1)])
    expected = thinning @ state.photon_distribution()
    assert out.distribution.shape == expected.shape
    assert np.max(np.abs(out.distribution - expected)) <= 1e-12


def test_lossy_channel_memory_bounded():
    # the channel keeps one slab and a running output distribution, not every
    # block or the mixture's columns (f = 10: k_max = 290, n_total = 410)
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
