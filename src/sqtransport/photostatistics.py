"""Photocount statistics of coherent and squeezed light behind a scattering medium.

All cumulants are spectral densities at a single working frequency: counts per
unit time and unit bandwidth/(2 pi).  Fano factors are ratios of such
densities, so the overall detection-time prefactor never appears.  The signal
is a single-mode ideal squeezed state entering the medium from the left; the
medium injects thermal (or, for an amplifier, inverted-population) noise with
signed occupation f through the deviation of S from unitarity.

The generating function diagonalises the Hermitian d X, X = 1 - r r+ - t t+,
once per z: with its eigenvalues lambda_i, m(z) = -z sum_i w_i / (1 - z f
lambda_i) is real by construction.  ``m_element`` raises SingularResolvent only
at an exactly zero factor 1 - z f lambda_i, and the generating function raises
GeneratingFunctionDomainError at a factor or squeezed log argument <= 0.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    GeneratingFunctionDomainError,
    PrecisionLossWarning,
    SingularResolvent,
    ZeroMeanCount,
    ZeroTransmission,
)
from .medium import ScatteringMatrix


@dataclass(frozen=True)
class SqueezedInput:
    """Single-mode ideal squeezed state |alpha, rho e^{i phi}> entering mode m0.

    Attributes:
        alpha: complex displacement.
        rho: squeezing magnitude, >= 0.
        phi: squeezing phase.
        incident_mode: 0-based left-side mode index carrying the input.
    """

    alpha: complex
    rho: float = 0.0
    phi: float = 0.0
    incident_mode: int = 0

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("squeezing magnitude rho must be >= 0")
        if self.incident_mode < 0:
            raise ValueError("incident_mode must be a 0-based mode index")

    @property
    def mean_photon_number(self) -> float:
        return abs(self.alpha) ** 2 + math.sinh(self.rho) ** 2


@dataclass(frozen=True)
class HomodyneConfig:
    """Strong coherent probe superimposed on the transmitted beam.

    Attributes:
        coupling: beam-splitter coupling kappa in (0, 1); the signal reaches
            the detector with weight kappa.
        probe_mode: 0-based transmitted-mode index carrying the probe.
        probe_phase: phase of the probe displacement (its magnitude drops out
            in the strong-probe limit).
    """

    coupling: float
    probe_mode: int = 0
    probe_phase: float = 0.0

    def __post_init__(self):
        if not 0 < self.coupling < 1:
            raise ValueError("homodyne coupling must lie in (0, 1)")
        if self.probe_mode < 0:
            raise ValueError("probe_mode must be a 0-based mode index")


@dataclass(frozen=True)
class DetectionConfig:
    """Detection of the transmitted (right-side) modes, and how efficiently.

    Attributes:
        efficiency: detector efficiency d in [0, 1], equal for all
            transmitted modes.
        homodyne: optional strong-probe configuration.
    """

    efficiency: float = 1.0
    homodyne: HomodyneConfig | None = None

    def __post_init__(self):
        if not 0 <= self.efficiency <= 1:
            raise ValueError("efficiency must lie in [0, 1]")


@dataclass(frozen=True)
class CumulantDensities:
    """First two factorial cumulant densities, with their thermal parts."""

    kappa1: float
    kappa2: float
    thermal_kappa1: float
    thermal_kappa2: float


@dataclass(frozen=True)
class FanoBreakdown:
    """A Fano factor with its additive decomposition.

    value = 1 + incident_term + beating_term + probe_term holds by
    construction.  ``incident_term`` carries the incident radiation's own
    excess noise, ``beating_term`` the beating against the medium's thermal or
    spontaneous-emission fluctuations, and ``probe_term`` the probe-phase
    sensitive homodyne part (zero for direct detection).
    """

    incident_term: float
    beating_term: float
    probe_term: float = 0.0
    optimal_probe_phase: float | None = None

    @property
    def value(self) -> float:
        return 1.0 + self.incident_term + self.beating_term + self.probe_term


def squeezed_number_bracket(state: SqueezedInput) -> float:
    """|alpha cosh(rho) - alpha* e^{i phi} sinh(rho)|^2 - |alpha|^2 + sinh^2(rho) cosh(2 rho).

    This combination equals (mean photon number) * (F_in - 1) and is the
    state-dependent part of the second factorial cumulant.
    """
    c = math.cosh(state.rho)
    s = math.sinh(state.rho)
    quadrature = abs(state.alpha * c - np.conj(state.alpha) * cmath.exp(1j * state.phi) * s) ** 2
    return quadrature - abs(state.alpha) ** 2 + s * s * (c * c + s * s)


def fano_in_squeezed(state: SqueezedInput) -> float:
    """Fano factor of the incident squeezed state under unit-efficiency counting.

    1 for a coherent state, 1 + cosh(2 rho) for squeezed vacuum, approaching
    exp(-2 rho) for a large real displacement with phi = 0.
    """
    mean = state.mean_photon_number
    if mean == 0:
        raise ZeroMeanCount("the vacuum state has no mean count to normalize by")
    return 1.0 + squeezed_number_bracket(state) / mean


def _noise_matrix(s: ScatteringMatrix) -> np.ndarray:
    """1 - r r+ - t t+, the transmitted-mode block of 1 - S S+."""
    t = s.t
    return np.eye(s.n_modes) - s.r @ s.r.conj().T - t @ t.conj().T


def thermal_cumulant_densities(s: ScatteringMatrix, config: DetectionConfig,
                               occupation: float) -> tuple[float, float]:
    """Thermal factorial cumulant densities of the transmitted modes.

    kappa1 = d f tr X and kappa2 = d^2 f^2 tr X^2, with X = 1 - r r+ - t t+.
    Both vanish for a lossless medium.
    """
    block = _noise_matrix(s)
    d = config.efficiency
    trace = float(np.trace(block).real)
    trace_sq = float(np.sum(np.abs(block) ** 2))  # tr(A^2) = |A|_F^2 for Hermitian A
    return d * occupation * trace, (d * occupation) ** 2 * trace_sq


def direct_cumulants_squeezed(s: ScatteringMatrix, state: SqueezedInput,
                              config: DetectionConfig, occupation: float) -> CumulantDensities:
    """First two factorial cumulant densities for direct detection::

        kappa1 = kappa1_th + d (|alpha|^2 + sinh^2 rho) [t+ t]_{m0 m0}
        kappa2 = kappa2_th
                 + 2 d^2 f (|alpha|^2 + sinh^2 rho) [t+ (1 - r r+ - t t+) t]_{m0 m0}
                 + d^2 [t+ t]^2_{m0 m0} (|alpha|^2 + sinh^2 rho) (F_in - 1)

    where the last bracket is evaluated through ``squeezed_number_bracket``.
    """
    k1_th, k2_th = thermal_cumulant_densities(s, config, occupation)
    stats = sample_statistics(s, state.incident_mode, state.incident_mode)
    d = config.efficiency
    weight, beating = d * stats.transmittance, d * d * stats.beating
    mean = state.mean_photon_number
    kappa1 = k1_th + mean * weight
    kappa2 = k2_th + 2.0 * occupation * mean * beating + weight**2 * squeezed_number_bracket(state)
    return CumulantDensities(kappa1=kappa1, kappa2=kappa2,
                             thermal_kappa1=k1_th, thermal_kappa2=k2_th)


def _resolvent_factors(s: ScatteringMatrix, incident_mode: int, config: DetectionConfig,
                       occupation: float, z: float) -> tuple[np.ndarray, np.ndarray]:
    """Factors 1 - z f lambda_i of 1 - z f d X and the incident column's weights
    w_i = d |(W+ t_{. m0})_i|^2, lambda_i and W the eigensystem of the Hermitian d X."""
    d = config.efficiency
    eigenvalues, basis = np.linalg.eigh(d * _noise_matrix(s))
    weights = d * np.abs(basis.conj().T @ s.t[:, incident_mode]) ** 2
    return 1.0 - z * occupation * eigenvalues, weights


def _m(z: float, factors: np.ndarray, weights: np.ndarray) -> float:
    """m(z) = -z sum_i w_i / (1 - z f lambda_i) from ``_resolvent_factors``."""
    if np.any(factors == 0):
        raise SingularResolvent("a factor 1 - z f lambda_i of the resolvent is exactly 0")
    return -z * float(np.sum(weights / factors))


def m_element(s: ScatteringMatrix, incident_mode: int, config: DetectionConfig,
              occupation: float, z: float) -> float:
    """Diagonal element -z [S+ (1 - z D (1 - S S+) f)^-1 D S]_{m0 m0}.

    D is d on the transmitted modes and 0 on the reflected ones, so the
    resolvent is block triangular and the element is -z d [t+ (1 - z d f X)^-1
    t]_{m0 m0}, X = 1 - r r+ - t t+: in the eigenbasis of the Hermitian d X the
    real sum -z sum_i w_i / (1 - z f lambda_i) of ``_resolvent_factors``.

    Raises:
        SingularResolvent: a factor 1 - z f lambda_i is exactly 0.
    """
    return _m(z, *_resolvent_factors(s, incident_mode, config, occupation, z))


def log_generating_density_direct(z: float, s: ScatteringMatrix, state: SqueezedInput,
                                  config: DetectionConfig, occupation: float) -> float:
    """Spectral density of the log generating function of the photocount.

    Thermal part -ln det[1 - z d f X] = -sum_i ln(1 - z f lambda_i), with X =
    1 - r r+ - t t+, plus the single-incident-mode squeezed-state part::

        -1/2 ln(1 + 2 m sinh^2 rho - m^2 sinh^2 rho)
        - m |alpha|^2 (1 + m sinh rho [sinh rho + cosh rho cos(2 arg alpha - phi)])
          / (1 + 2 m sinh^2 rho - m^2 sinh^2 rho)

    Both parts, with m of ``m_element``, come from one ``_resolvent_factors``.
    The factorial cumulant densities are its derivatives at z = 0.

    Raises:
        GeneratingFunctionDomainError: a factor 1 - z f lambda_i, or the
            squeezed log argument, is not positive.
    """
    factors, weights = _resolvent_factors(s, state.incident_mode, config, occupation, z)
    if np.any(factors <= 0):
        raise GeneratingFunctionDomainError("thermal determinant crossed zero")
    thermal = -float(np.sum(np.log(factors)))

    m = _m(z, factors, weights)
    sh, ch = math.sinh(state.rho), math.cosh(state.rho)
    gauge = 1.0 + 2.0 * m * sh * sh - m * m * sh * sh
    if gauge <= 0:
        raise GeneratingFunctionDomainError("squeezed log argument crossed zero")
    squeezed = -0.5 * math.log(gauge)
    phase = math.cos(2.0 * cmath.phase(complex(state.alpha)) - state.phi)
    displaced = -m * abs(state.alpha) ** 2 * (1.0 + m * sh * (sh + ch * phase)) / gauge
    return thermal + squeezed + displaced


_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}
#: the first differentiation step of ``numeric_factorial_cumulants``
_STEP = 1e-3


def numeric_factorial_cumulants(s: ScatteringMatrix, state: SqueezedInput,
                                config: DetectionConfig, occupation: float,
                                order: int = 2) -> list[float]:
    """Factorial cumulant densities by numerical differentiation at z = 0.

    Central stencils with two Richardson extrapolation steps, starting from
    ``_STEP``.  Orders one and two must agree with the closed forms; higher
    orders probe the full generating function.

    Warns:
        PrecisionLossWarning: the two extrapolation levels disagree by more
            than 1e-5 relative.
    """
    if not 1 <= order <= 4:
        raise ValueError("order must be between 1 and 4")

    @functools.cache  # the stencils share points: each is evaluated once
    def generating(z: float) -> float:
        return log_generating_density_direct(z, s, state, config, occupation) if z else 0.0

    results = []
    for j in range(1, order + 1):
        stencil = _STENCILS[j]

        def estimate(h: float) -> float:
            return sum(w * generating(k * h) for k, w in stencil) / h**j

        candidates = []
        for h0 in (_STEP, 8.0 * _STEP):  # the larger step escapes the round-off floor
            d0, d1, d2 = estimate(h0), estimate(h0 / 2), estimate(h0 / 4)
            first, second = (4.0 * d1 - d0) / 3.0, (4.0 * d2 - d1) / 3.0
            candidates.append((abs(second - first) / max(abs(second), 1e-300),
                               (16.0 * second - first) / 15.0))
        disagreement, value = min(candidates)
        if disagreement > 1e-5:
            warnings.warn(f"order-{j} cumulant extrapolations disagree by {disagreement:.2e} "
                          "relative", PrecisionLossWarning, stacklevel=2)
        results.append(value)
    return results


@dataclass(frozen=True)
class SampleStatistics:
    """Disorder-dependent scalars of one realization, enough for any Fano factor.

    Attributes:
        transmittance: [t+ t]_{m0 m0}, or tr(t+ t)/N when mode-averaged.
        beating: [t+ (1 - r r+ - t t+) t]_{m0 m0}, or its trace/N.
        probe_transmittance: |t_{n0 m0}|^2, or tr(t t+)/N^2 when mode-averaged.
        probe_noise: (1 - r r+ - t t+)_{n0 n0}.
        probe_amplitude: the complex element t_{n0 m0}.
    """

    transmittance: float
    beating: float
    probe_transmittance: float
    probe_noise: float
    probe_amplitude: complex


def sample_statistics(s: ScatteringMatrix, incident_mode: int, probe_mode: int,
                      mode_average: bool = False) -> SampleStatistics:
    """The scalars of one realization that the direct and homodyne Fano factors use.

    Reads the noise matrix 1 - r r+ - t t+ of ``_noise_matrix``, as the
    cumulants and the generating function do.  With ``mode_average`` the
    transmittance and beating weights are averaged over the incident mode,
    and the probe transmittance over both mode indices.
    """
    t = s.t
    n = s.n_modes
    noise = _noise_matrix(s)
    if mode_average:
        transmittance = float(np.sum(np.abs(t) ** 2)) / n
        beating = float(np.trace(t.conj().T @ noise @ t).real) / n
        probe_transmittance = float(np.sum(np.abs(t) ** 2)) / n**2
    else:
        column = t[:, incident_mode]
        transmittance = float(np.sum(np.abs(column) ** 2))
        beating = float((column.conj() @ noise @ column).real)
        probe_transmittance = float(abs(t[probe_mode, incident_mode]) ** 2)
    return SampleStatistics(transmittance, beating, probe_transmittance,
                            float(noise[probe_mode, probe_mode].real),
                            complex(t[probe_mode, incident_mode]))


def direct_fano_terms(transmittance, beating, fano_in, efficiency, occupation):
    """Terms of F = 1 + incident + beating: d T (F_in - 1) and 2 d f B / T.

    T and B are the ``transmittance`` and ``beating`` of ``SampleStatistics``,
    as scalars or as numpy columns of samples.
    """
    return (efficiency * transmittance * (fano_in - 1.0),
            2.0 * efficiency * occupation * beating / transmittance)


def homodyne_fano_terms(probe_transmittance, probe_noise, probe_amplitude, rho, phi,
                        dk, occupation, probe_phase=None, offset=0.0):
    """Incident, beating and probe terms of homodyne detection.

    F = 1 + incident + beating + probe, with d k = ``dk``::

        incident = 2 d k |t_{n0 m0}|^2 sinh^2 rho
        beating  = 2 d k f (1 - r r+ - t t+)_{n0 n0}
        probe    = -d k Re[e^{i(phi - 2 arg beta)} t_{n0 m0}^2] sinh(2 rho)

    A ``probe_phase`` fixes arg beta.  ``None`` locks the probe to the optimal
    phase arg beta = phi/2 + arg t_{n0 m0} detuned by ``offset``, where
    probe = -d k |t_{n0 m0}|^2 cos(2 offset) sinh(2 rho).  Takes scalars or
    numpy columns of samples alike.
    """
    sh = math.sinh(rho)
    incident = 2.0 * dk * probe_transmittance * sh * sh
    beating = 2.0 * dk * occupation * probe_noise
    if probe_phase is None:
        probe = -dk * probe_transmittance * math.cos(2.0 * offset) * math.sinh(2.0 * rho)
    else:
        # Re[e^{i theta} t^2] product by product: numpy's vectorised complex
        # multiply rounds differently from its scalar one, and a column of
        # samples must give the bits of one sample at a time
        rotation = np.exp(1j * (phi - 2.0 * probe_phase))
        re, im = np.real(probe_amplitude), np.imag(probe_amplitude)
        rotated = rotation.real * (re * re - im * im) - rotation.imag * (re * im + im * re)
        probe = -dk * rotated * math.sinh(2.0 * rho)
    return incident, beating, probe


def fano_direct(s: ScatteringMatrix, state: SqueezedInput, config: DetectionConfig,
                occupation: float) -> FanoBreakdown:
    """Fano factor of direct detection in transmission, narrowband measurement.

    F = 1 + d [t+ t]_{m0 m0} (F_in - 1)
          + 2 d f [t+ (1 - r r+ - t t+) t]_{m0 m0} / [t+ t]_{m0 m0}

    The broadband thermal densities are excluded; they are available
    separately through ``thermal_cumulant_densities``.
    """
    stats = sample_statistics(s, state.incident_mode, state.incident_mode)
    if stats.transmittance < 1e-200:
        raise ZeroTransmission("no transmitted signal in the incident mode")
    return FanoBreakdown(*direct_fano_terms(
        stats.transmittance, stats.beating, fano_in_squeezed(state), config.efficiency,
        occupation))


def _homodyne(s: ScatteringMatrix, state: SqueezedInput, config: DetectionConfig,
              occupation: float, at_minimum: bool) -> tuple:
    if config.homodyne is None:
        raise ValueError("homodyne configuration required")
    hom = config.homodyne
    stats = sample_statistics(s, state.incident_mode, hom.probe_mode)
    terms = homodyne_fano_terms(stats.probe_transmittance, stats.probe_noise,
                                stats.probe_amplitude, state.rho, state.phi,
                                config.efficiency * hom.coupling, occupation,
                                None if at_minimum else hom.probe_phase)
    return stats, terms


def fano_homodyne(s: ScatteringMatrix, state: SqueezedInput, config: DetectionConfig,
                  occupation: float) -> FanoBreakdown:
    """Fano factor of strong-probe homodyne detection at the configured probe phase.

    The terms are those of ``homodyne_fano_terms``, independent of the
    displacement alpha and of the probe amplitude.
    """
    _, terms = _homodyne(s, state, config, occupation, at_minimum=False)
    return FanoBreakdown(*terms)


def fano_homodyne_min(s: ScatteringMatrix, state: SqueezedInput, config: DetectionConfig,
                      occupation: float) -> FanoBreakdown:
    """Homodyne Fano factor minimised over the probe phase.

    The minimum occurs at arg beta = phi/2 + arg t_{n0 m0}, where

        F = 1 - 2 d k |t_{n0 m0}|^2 e^{-rho} sinh rho
              + 2 d k f (1 - r r+ - t t+)_{n0 n0}

    The optimal phase is reported in ``optimal_probe_phase``; the incident and
    probe terms of the breakdown are those of ``fano_homodyne`` evaluated
    there, so their sum is the e^{-rho} sinh(rho) combination above.
    """
    stats, terms = _homodyne(s, state, config, occupation, at_minimum=True)
    best_phase = 0.5 * state.phi + cmath.phase(stats.probe_amplitude)
    return FanoBreakdown(*terms, optimal_probe_phase=best_phase)
