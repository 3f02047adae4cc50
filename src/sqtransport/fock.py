"""Exact photon-number statistics of one mode sent through a noisy channel.

Single-channel verification engine for the closed-form cumulants: a squeezed
or coherent state, held as Fock amplitudes, is sent through a loss channel
(transmittance T = |t|^2 into a thermal environment of occupation f) or a
gain channel (gain G = |g|^2, idler of thermal occupation n_id), and the
exact output photon-number distribution is computed.

Both are phase-insensitive Gaussian channels, and every such channel is pure
loss T' followed by a quantum-limited amplifier G' (Caruso, Giovannetti and
Holevo, New J. Phys. 8, 310 (2006)), with

    loss:  G' = 1 + (1 - T) f,          T' = T / G',
    gain:  G' = 1 + (G - 1)(1 + n_id),  T' = G / G',

so that the output mean G' T' n + G' - 1 is T n + (1 - T) f, or
G n + (G - 1)(1 + n_id).  Both stages commute with phase shifts, so the
output distribution depends on the input distribution p_in alone:

* pure loss is binomial thinning, P(m|n) = C(n, m) T'^m (1 - T')^(n - m),
  raised over n by P(m|n) = (1 - T') P(m|n-1) + T' P(m-1|n-1);
* the quantum-limited amplifier adds a negative-binomial number of photons,
  P(m|n) = C(m, n) G'^-(n+1) (1 - 1/G')^(m - n), raised over m by
  P(m|n) = P(m-1|n-1) / G' + (1 - 1/G') P(m-1|n).

Each stage is one loop of numpy row operations with non-negative
coefficients, adding each row into the output distribution, so no output
probability is a difference: every one is >= 0, and its rounding error is
bounded by its number of terms.  A stage whose T' or G' is exactly 1 is
skipped, so f = 0 is pure thinning and the identity channels are exact.

This module is deliberately independent of the scattering-matrix machinery:
it shares no code with it beyond elementary arithmetic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationLeak

#: maximum tolerated probability lost to truncation, or gained by rounding
LEAK_TOL = 1e-8
# relative share of probability and mean the amplifier's output truncation may drop
_TAIL = 1e-18


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


def _thin(p: np.ndarray, transmittance: float) -> np.ndarray:
    """Binomial thinning of ``p``: each photon survives with ``transmittance``.

    ``row`` holds P(.|n) over m = 0..n_max, raised one n at a time.
    """
    row = np.zeros(p.size)
    row[0] = 1.0
    out = p[0] * row
    for n in range(1, p.size):
        row[1 : n + 1] = (1.0 - transmittance) * row[1 : n + 1] + transmittance * row[:n]
        row[0] *= 1.0 - transmittance
        out += p[n] * row
    return out


def _amplify(p: np.ndarray, added: float) -> np.ndarray:
    """Quantum-limited amplifier of gain G' = 1 + ``added`` > 1 applied to ``p``.

    ``column`` holds P(m|.) over n = 0..n_max, raised one m at a time, and
    output m is its dot product with ``p``.  Input n becomes n + K photons,
    K negative-binomial with generating function (G' - (G' - 1) z)^-(n+1).
    At z = 1/sqrt(q), q = 1 - 1/G', Markov's inequality gives the tail bound

        P(K >= k) <= (1 + sqrt(q))^(n+1) q^(k/2),

    and n + K grows with n.  Let n_top be the smallest occupation above
    which the input holds sum (n + 1) p(n) <= _TAIL sum n p(n).  Then the
    output truncation

        m_max = n_top + ceil(2 [(n_top + 1) ln(1 + sqrt(q)) + ln(1/_TAIL)] / ln(1/q))

    drops at most ``_TAIL`` of the probability of every input n <= n_top.
    The inputs above n_top can lose at most their whole mean output,
    sum [G' (n + 1) - 1] p(n) <= _TAIL G' <n>, which is at most ``_TAIL``
    of the output mean G' (<n> + 1) - 1, so a tiny mean keeps its relative
    accuracy.  q is formed from ``added`` itself, so a gain within rounding
    of 1 still adds its photons.
    """
    q = added / (1.0 + added)
    stay = 1.0 / (1.0 + added)  # 1/G'
    n = np.arange(p.size)
    above = np.cumsum(((n + 1) * p)[::-1])[::-1]  # above[n] = sum (n' + 1) p(n'), n' >= n
    n_top = int(np.count_nonzero(above > _TAIL * (n @ p))) - 1
    m_max = n_top + math.ceil(2.0 * ((n_top + 1) * math.log1p(math.sqrt(q))
                                     - math.log(_TAIL)) / -math.log(q))
    column = np.zeros(p.size)
    column[0] = stay
    out = np.empty(m_max + 1)
    out[0] = column @ p
    for m in range(1, m_max + 1):
        column[1:] = stay * column[:-1] + q * column[1:]
        column[0] *= q
        out[m] = column @ p
    return out


def _channel(state: FockState, transmittance: float, added: float) -> ChannelStatistics:
    """Thinning by ``transmittance`` T', then amplification by G' = 1 + ``added``."""
    p = state.photon_distribution()
    if transmittance != 1.0:
        p = _thin(p, transmittance)
    if added != 0.0:
        p = _amplify(p, added)
    return _statistics_from_distribution(p)


def lossy_channel_photostats(state: FockState, transmission_amplitude: complex,
                             env_occupation: float) -> ChannelStatistics:
    """Send the state through a beam splitter coupled to a thermal environment.

    Transmittance T = |t|^2 into an environment of occupation f: thinning by
    T' = T / G' then the quantum-limited amplifier G' = 1 + (1 - T) f.  The
    phase of t does not change the photon-number distribution.

    Returns the exact output distribution, its factorial cumulants and Fano
    factor.
    """
    if abs(transmission_amplitude) > 1 + 1e-12:
        raise ValueError("loss channel needs |t| <= 1")
    if env_occupation < 0:
        raise ValueError("thermal occupation must be >= 0")
    transmittance = min(abs(transmission_amplitude) ** 2, 1.0)
    added = (1.0 - transmittance) * env_occupation  # G' - 1
    return _channel(state, transmittance / (1.0 + added), added)


def amplifying_channel_photostats(state: FockState, gain_amplitude: complex,
                                  idler_occupation: float = 0.0) -> ChannelStatistics:
    """Send the state through a phase-insensitive amplifier.

    The two-mode squeezer realizes a_out = g a_in + sqrt(|g|^2 - 1) c+ with
    the idler mode in vacuum (complete population inversion, occupation -1 in
    the signed convention).  A thermal ``idler_occupation`` n_id > 0 emulates
    a partially inverted medium with signed occupation -(1 + n_id).  The
    channel is thinning by T' = G / G' then the quantum-limited amplifier
    G' = 1 + (G - 1)(1 + n_id), with G = |g|^2; n_id = 0 is the amplifier
    alone.
    """
    gain = abs(gain_amplitude) ** 2
    if gain < 1:
        raise ValueError("amplifying channel needs |g| >= 1")
    if idler_occupation < 0:
        raise ValueError("thermal occupation must be >= 0")
    added = (gain - 1.0) * (1.0 + idler_occupation)  # G' - 1
    return _channel(state, gain / (1.0 + added), added)
