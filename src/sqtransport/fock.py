"""Brute-force photon-number statistics in a truncated Fock basis.

Single-channel verification engine: a squeezed or coherent state is sent
through a beam-splitter loss channel (thermal environment) or a two-mode
squeezer gain channel (inverted-population environment), and the exact output
photon-number distribution is computed by applying the two-mode unitaries
through their Fock-basis matrix elements.  Thermal environments are handled
as mixtures over environment occupation numbers, so every branch stays a pure
state.

The beam splitter conserves the total photon number N, so its matrix is one
block per N.  The thermal mixture reads only the band of columns with
n2 = N - n1 <= k_max, k_max the last environment occupation kept, and
n1 <= n_max, and the raising recursion closes on that band.  The loss channel
raises just it, one N at a time up to n_total = n_max + k_max, as array
operations over all its entries, and adds each slab's weighted |.|^2 to one
running output distribution: work O(n_total^2 min(n_max, k_max)) rather than
O(n_total^3), memory O(n_total) beyond the slab and the recursion's own
arrays.  The squeezer's layers likewise advance one idler occupation at a
time over all signal occupations at once.

This module is deliberately independent of the scattering-matrix machinery:
it shares no code with it beyond elementary arithmetic.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import TruncationLeak

#: environment occupation branches are included up to this probability weight
ENV_WEIGHT_CUTOFF = 1e-12
#: maximum tolerated probability lost to truncation, or gained by rounding
LEAK_TOL = 1e-8


@dataclass(frozen=True)
class FockState:
    """Single-mode pure state as amplitudes over occupations 0..n_max."""

    amplitudes: np.ndarray
    n_max: int

    def __post_init__(self):
        amplitudes = np.array(self.amplitudes, dtype=complex)
        if amplitudes.ndim != 1 or amplitudes.size != self.n_max + 1:
            raise ValueError("amplitudes must be a vector of length n_max + 1")
        amplitudes.setflags(write=False)
        object.__setattr__(self, "amplitudes", amplitudes)

    def photon_distribution(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def mean_photon_number(self) -> float:
        p = self.photon_distribution()
        return float(np.arange(p.size) @ p)


@dataclass(frozen=True)
class ChannelStatistics:
    """Exact output photon-number distribution and its first two factorial cumulants."""

    distribution: np.ndarray
    kappa1: float
    kappa2: float
    fano: float


def _statistics_from_distribution(p: np.ndarray) -> ChannelStatistics:
    total = float(p.sum())
    # truncation only loses probability, and no distribution sums above 1
    if abs(1.0 - total) > LEAK_TOL:
        change = "lost" if total < 1.0 else "gained"
        raise TruncationLeak(f"output distribution {change} {abs(1.0 - total):.3e} probability")
    n = np.arange(p.size)
    kappa1 = float(n @ p)
    kappa2 = float((n * (n - 1)) @ p) - kappa1**2
    fano = 1.0 + kappa2 / kappa1 if kappa1 > 0 else float("nan")
    return ChannelStatistics(distribution=p, kappa1=kappa1, kappa2=kappa2, fano=fano)


def squeezed_coherent_fock(alpha: complex, rho: float, phi: float, n_max: int) -> FockState:
    """Fock amplitudes of the displaced squeezed vacuum.

    The state is the eigenstate of a cosh(rho) + a+ e^{i phi} sinh(rho) with
    eigenvalue gamma = alpha cosh(rho) + alpha* e^{i phi} sinh(rho); its
    amplitudes satisfy

        cosh(rho) sqrt(n+1) c_{n+1} = gamma c_n - e^{i phi} sinh(rho) sqrt(n) c_{n-1}

    seeded by the exact vacuum overlap, then renormalized.

    Raises:
        ValueError: n_max below 4 (|alpha|^2 + sinh^2 rho) + 40.
        TruncationLeak: more than ``LEAK_TOL`` of the norm lies above n_max.
    """
    if rho < 0:
        raise ValueError("rho must be >= 0")
    mean = abs(alpha) ** 2 + math.sinh(rho) ** 2
    if n_max < 4 * mean + 40:
        raise ValueError(f"n_max={n_max} below the truncation rule 4*{mean:.2f}+40")

    ch = math.cosh(rho)
    sh = math.sinh(rho)
    phase = cmath.exp(1j * phi)
    gamma = alpha * ch + np.conj(alpha) * phase * sh
    c = np.zeros(n_max + 1, dtype=complex)
    c[0] = math.sqrt(1.0 / ch) * cmath.exp(
        -0.5 * abs(alpha) ** 2 - 0.5 * np.conj(alpha) ** 2 * phase * math.tanh(rho)
    )
    c[1] = gamma * c[0] / ch
    for n in range(1, n_max):
        c[n + 1] = (gamma * c[n] - phase * sh * math.sqrt(n) * c[n - 1]) / (
            ch * math.sqrt(n + 1)
        )
    norm_sq = float(np.sum(np.abs(c) ** 2))
    if 1.0 - norm_sq > LEAK_TOL:
        raise TruncationLeak(f"state lost {1.0 - norm_sq:.3e} of its norm at n_max={n_max}")
    return FockState(amplitudes=c / math.sqrt(norm_sq), n_max=n_max)


def _thermal_weights(occupation: float) -> np.ndarray:
    """Bose-Einstein occupation-number weights, cut at ``ENV_WEIGHT_CUTOFF``."""
    if occupation < 0:
        raise ValueError("thermal occupation must be >= 0")
    if occupation == 0:
        return np.array([1.0])
    ratio = occupation / (1.0 + occupation)
    k_max = max(1, int(math.ceil(math.log(ENV_WEIGHT_CUTOFF) / math.log(ratio))))
    k = np.arange(k_max + 1)
    return ratio**k / (1.0 + occupation)


def _beamsplitter_blocks(t_amp: complex, n_total: int, n2_max: int,
                         n1_max: int) -> Iterator[np.ndarray]:
    """Yield the matrix elements <m1, N-m1| U |n1, N-n1> of the two-mode mixer.

    U satisfies U+ a U = t a + r b and U+ b U = -r a + t* b, with
    r = sqrt(1 - |t|^2).  One unitary block per conserved total photon number
    N = 0..n_total, raised from the vacuum block; only the previous slab
    (below) is held.  Each slab is a few array operations over all its
    entries at once.
    Every entry obeys two exact relations on the previous block, from a and
    from b on the output side:

        sqrt(m1) B[m1, n1] = t sqrt(n1) B'[m1-1, n1-1] + r sqrt(n2) B'[m1-1, n1]
        sqrt(m2) B[m1, n1] = t* sqrt(n2) B'[m1, n1] - r sqrt(n1) B'[m1, n1-1]

    Column n1 thus reads only columns n1 - 1 and n1 of the previous block, so
    the recursion closes on the band N - ``n1_max`` <= n2 <= ``n2_max``: each
    yield is the (N+1)-row slab of block N holding the columns
    n1 = max(0, N - n2_max) .. min(N, n1_max), in that order, and the work is
    O(n_total^2 min(n1_max, n2_max)).  n1_max = n2_max = n_total yields the
    full blocks.

    The first relation has coefficient norm sqrt(<m1>/m1), the second
    sqrt((N - <m1>)/m2), with <m1> = |t|^2 n1 + r^2 n2 the mean output in
    mode a.  Each entry takes the one not above 1 (the first where
    m1 >= <m1>), so rounding errors grow far more slowly from block to block
    than with the first relation alone, which loses unitarity exponentially
    in N; the blocks stay unitary to 4e-11 or better up to N = 139.  The
    blocks are real when t is.
    """
    r_amp = math.sqrt(max(0.0, 1.0 - abs(t_amp) ** 2))
    dtype = np.result_type(t_amp, 1.0)
    widest = min(n2_max, n_total) + 1
    index = np.arange(n_total + 1)
    root = np.sqrt(index)
    # the coefficients per occupation n; reversed, they run over n2 = N - n1
    t_root, r_root = t_amp * root, r_amp * root
    r_root_rev, t_conj_root_rev = r_root[::-1], (np.conj(t_amp) * root)[::-1]
    # <m1> = |t|^2 n1 + r^2 n2 clipped to [1, N] at every (N, n2 <= n2_max), held in
    # padded's columns (c = widest - 1 - n2, below); entries with n2 > N are never read
    n, n2_all = index[:, None], index[widest - 1 :: -1]
    mean_m1 = np.minimum(np.maximum(abs(t_amp) ** 2 * (n - n2_all) + r_amp**2 * n2_all, 1), n)
    # rows divide by sqrt(m1) and sqrt(m2); the row each relation cannot
    # reach (m1 = 0 for a, m2 = 0 for b) divides by 1 and is never chosen
    root_floor = np.maximum(root, 1.0)
    # at step N, padded[i, widest - N + n1] = B'[i - 1, n1], zero outside B'
    padded = np.zeros((n_total + 2, widest + 1), dtype=dtype)
    block, low = np.ones((1, 1), dtype=dtype), 0
    yield block
    for total in range(1, n_total + 1):
        shift = widest - total
        padded[1 : total + 1, shift + low : shift + low + block.shape[1]] = block
        low, high = max(0, total - n2_max), min(total, n1_max)
        n1 = slice(low, high + 1)  # the slab's columns
        n2 = slice(n_total - total + low, n_total - total + high + 1)  # N - n1, reversed arrays
        window = padded[: total + 2, shift + low - 1 : shift + high + 1]
        # window[i, j] = B'[i - 1, n1[j] - 1]
        via_a = (t_root[n1] * window[:-1, :-1] + r_root_rev[n2] * window[:-1, 1:]) / (
            root_floor[: total + 1, None])
        via_b = (t_conj_root_rev[n2] * window[1:, 1:] - r_root[n1] * window[1:, :-1]) / (
            root_floor[total::-1, None])
        mean = mean_m1[total, shift + low - 1 : shift + high]
        block = np.where(index[: total + 1, None] >= mean, via_a, via_b)
        yield block


def lossy_channel_photostats(state: FockState, transmission_amplitude: complex,
                             env_occupation: float) -> ChannelStatistics:
    """Send the state through a beam splitter coupled to a thermal environment.

    The environment mode (occupation ``env_occupation``) is mixed over its
    occupation numbers k up to the ``ENV_WEIGHT_CUTOFF`` weight.  In branch
    |psi> x |k> each output cell (m1, m2) receives exactly one input amplitude,
    the one with n1 = m1 + m2 - k, so tracing out the environment needs only
    the columns |<m1, N-m1| U |n1, N-n1>|^2 with N = n1 + k, n1 <= n_max and
    k <= k_max.  Only this band of each block is raised, at most
    min(n_max, k_max) + 1 columns, and slab N adds
    sum_n1 |B[m1, n1]|^2 w_{N-n1} p_in(n1) to the running output p_out(m1),
    so work is O(n_total^2 min(n_max, k_max)) with n_total = n_max + k_max,
    and memory O(n_total) beyond what ``_beamsplitter_blocks`` holds.

    Returns the exact output distribution, its factorial cumulants and Fano
    factor.
    """
    if abs(transmission_amplitude) > 1 + 1e-12:
        raise ValueError("loss channel needs |t| <= 1")
    n_max = state.n_max
    weights = _thermal_weights(env_occupation)
    k_max = weights.size - 1
    n_total = n_max + k_max

    # |B|^2 does not depend on the phase of t, which phase shifters on the
    # modes absorb, so the blocks are built real from |t|; column n1 of the
    # slab of block N is read in the branch k = N - n1
    p_in = state.photon_distribution()
    p_out = np.zeros(n_total + 1)
    slabs = _beamsplitter_blocks(abs(transmission_amplitude), n_total, k_max, n_max)
    for total, slab in enumerate(slabs):
        n1 = np.arange(max(0, total - k_max), min(total, n_max) + 1)
        p_out[: total + 1] += np.square(slab) @ (weights[total - n1] * p_in[n1])
    return _statistics_from_distribution(p_out)


def _amplifier_kernel(gain: float, n_sig: int, idler_in: int, m2_max: int,
                      previous: np.ndarray | None) -> np.ndarray:
    """Amplitudes B[n + m2 - j, m2; n, j] of the two-mode squeezer at one idler j.

    ``previous`` is the (n_sig+1, m2_max+1) layer at idler occupation j-1;
    pass None for j = 0 (built directly from the squeezed-vacuum column).
    """
    h = math.sqrt(gain**2 - 1.0)
    m2 = np.arange(m2_max + 1)
    if previous is None:
        layer = np.zeros((n_sig + 1, m2_max + 1))
        layer[0] = (h / gain) ** m2 / gain
        for n in range(1, n_sig + 1):
            layer[n] = layer[n - 1] * np.sqrt(m2 + n) / (gain * math.sqrt(n))
        return layer
    # the whole layer at once, in the loop's order of multiply, subtract, divide
    shifted = np.zeros_like(previous)  # column m2 holds previous[:, m2 - 1]
    shifted[:, 1:] = previous[:, :-1]
    lowered = np.zeros_like(previous)  # row n holds h sqrt(n) previous[n - 1]
    lowered[1:] = (h * np.sqrt(np.arange(1, n_sig + 1)))[:, None] * previous[:-1]
    return (np.sqrt(m2) * shifted - lowered) / (gain * math.sqrt(idler_in))


def amplifying_channel_photostats(state: FockState, gain_amplitude: complex,
                                  idler_occupation: float = 0.0) -> ChannelStatistics:
    """Send the state through a phase-insensitive amplifier.

    The two-mode squeezer realizes a_out = g a_in + sqrt(|g|^2 - 1) c+ with
    the idler mode in vacuum (complete population inversion, occupation -1 in
    the signed convention).  A thermal ``idler_occupation`` n_id > 0 emulates
    a partially inverted medium with signed occupation -(1 + n_id), again as a
    mixture over idler Fock states.

    The output truncation is enlarged by the gain factor |g|^2 relative to the
    input truncation.
    """
    gain = abs(gain_amplitude)
    if gain < 1:
        raise ValueError("amplifying channel needs |g| >= 1")
    weights = _thermal_weights(idler_occupation)
    j_max = weights.size - 1

    p_in = state.photon_distribution()
    occupied = np.nonzero(p_in > 1e-30)[0]
    n_sig = int(occupied[-1]) if occupied.size else 0
    m2_max = int(math.ceil((gain**2 - 1.0) * (n_sig + j_max + 1) * 3)) + 60
    m_out_max = n_sig + m2_max

    p_out = np.zeros(m_out_max + 1)
    layer = None
    for j, weight in enumerate(weights):
        layer = _amplifier_kernel(gain, n_sig, j, m2_max, layer if j else None)
        # output cells (m1 = n + m2 - j, m2); drop the few with m1 < 0.  add.at
        # sums each cell over n in increasing order, as a loop over n would
        prob = p_in[occupied, None] * layer[occupied] ** 2
        m1 = occupied[:, None] + np.arange(m2_max + 1) - j
        inside = m1 >= 0
        np.add.at(p_out, m1[inside], weight * prob[inside])
    return _statistics_from_distribution(p_out)
