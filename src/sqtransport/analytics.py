"""Closed-form large-N disorder averages of the Fano factor.

These are the leading-order random-matrix results for a quasi-1D waveguide,
expressed through the dimensionless length s = L / xi_a and the ratio of the
mean free path to the absorption (amplification) length.  The absorbing and
amplifying expressions are analytic continuations of each other under
xi_a -> i xi_a, i.e. sinh -> sin and cotanh -> cotan.  The amplifying forms
hold below the laser threshold s = pi only.

All homodyne averages are ``_homo``,

    1 + (8 l d k / 3 N xi_a sinh s) c sinh rho + (8 l d k / 3 xi_a) f [cotanh s + 1/sinh s]

(sinh -> sin, cotanh -> cotan, + 1/sinh -> - 1/sin when amplifying), with an
incident factor c set by the probe phase.  A probe locked to each
realization's optimal phase and detuned by delta has
c = sinh rho - cosh rho cos(2 delta) (``fano_homo_detuned_avg``).  Its special
cases keep their exact factors: delta = 0 gives c = -e^{-rho}, the minimum
(``fano_homo_min_*_avg``), and delta = pi/4 gives c = sinh rho, the same as a
probe phase fixed across the ensemble (``fano_homo_fixed_phase_avg``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

from .errors import ThresholdReached, ValidityWarning
from .photostatistics import DetectionConfig, SqueezedInput, fano_in_squeezed

#: the diffusive window l << L << N l is flagged outside this safety factor
_VALIDITY_FACTOR = 5.0


@dataclass(frozen=True)
class WaveguideRatios:
    """Dimensionless parameters of an ensemble-averaged Fano factor.

    Attributes:
        s: waveguide length over absorption/amplification length, L / xi_a.
        l_over_xi: mean free path over absorption/amplification length.
        efficiency: detection efficiency d.
        occupation: signed Bose-Einstein occupation f of the medium.
        fano_in: Fano factor of the incident radiation (direct detection).
        rho: squeezing magnitude of the incident state (homodyne detection).
        coupling: homodyne beam-splitter coupling kappa.
        n_modes: number of propagating modes N (homodyne only).
    """

    s: float
    l_over_xi: float
    efficiency: float = 1.0
    occupation: float = 0.0
    fano_in: float | None = None
    rho: float | None = None
    coupling: float | None = None
    n_modes: int | None = None

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError("s must be positive")
        if self.l_over_xi <= 0:
            raise ValueError("l_over_xi must be positive")
        if not 0 <= self.efficiency <= 1:
            raise ValueError("efficiency must lie in [0, 1]")
        if self.n_modes is not None and self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")


def _check(w: WaveguideRatios, names: tuple, amplifying: bool, s_values) -> None:
    """Raise and warn as a closed form does at each s of ``s_values``, the rest from ``w``.

    The first failing point raises after the warnings of those before it, each
    issued once and at the caller of the public function.
    """
    for name in names:
        if getattr(w, name) is None:
            raise ValueError(f"WaveguideRatios.{name} is required here")
    valid = next((i for i, s in enumerate(s_values) if s <= 0 or amplifying and s >= math.pi),
                 len(s_values))
    lengths_over_l = [s / w.l_over_xi for s in s_values[:valid]]
    short = next((x for x in lengths_over_l if x < _VALIDITY_FACTOR), None)
    if short is not None:
        warnings.warn(f"L = {short:.2f} l is not large compared to the mean free path",
                      ValidityWarning, stacklevel=3)
    # localization sets in at L ~ N l; stay well below it
    if w.n_modes is not None and any(x >= _VALIDITY_FACTOR and x > w.n_modes / _VALIDITY_FACTOR
                                     for x in lengths_over_l):
        warnings.warn("L approaches the localization length N l", ValidityWarning, stacklevel=3)
    if valid < len(s_values):
        s = s_values[valid]
        replace(w, s=s)  # WaveguideRatios' own error for s <= 0
        raise ThresholdReached(f"s = {s:.6f} is at or beyond the laser threshold s = pi")


def direct_bracket_absorbing(s: float) -> float:
    """3 - (2s + cotanh s)/sinh s - (s cotanh s - 1)/sinh^2 s + s/sinh^3 s."""
    sh = math.sinh(s)
    coth = 1.0 / math.tanh(s)
    return 3.0 - (2.0 * s + coth) / sh - (s * coth - 1.0) / sh**2 + s / sh**3


def direct_bracket_amplifying(s: float) -> float:
    """3 - (2s - cotan s)/sin s + (s cotan s - 1)/sin^2 s - s/sin^3 s."""
    sn = math.sin(s)
    cot = math.cos(s) / sn
    return 3.0 - (2.0 * s - cot) / sn + (s * cot - 1.0) / sn**2 - s / sn**3


def _direct(s: float, w: WaveguideRatios, amplifying: bool) -> float:
    """The direct average at s, the other ratios from ``w``; unchecked."""
    geometry, bracket = ((math.sin, direct_bracket_amplifying) if amplifying
                         else (math.sinh, direct_bracket_absorbing))
    d = w.efficiency
    incident = (4.0 * w.l_over_xi * d / (3.0 * geometry(s))) * (w.fano_in - 1.0)
    return 1.0 + incident + 0.5 * d * w.occupation * bracket(s)


def _homo(s: float, w: WaveguideRatios, amplifying: bool, factor: float | None = None) -> float:
    """The homodyne average at s, incident factor c = ``factor`` or the minimum's; unchecked."""
    if factor is None:
        factor = -math.exp(-w.rho)
    front = 8.0 * w.l_over_xi * w.efficiency * w.coupling / 3.0
    sh = math.sinh(w.rho)
    if amplifying:
        geometry = math.sin(s)
        thermal_shape = math.cos(s) / geometry - 1.0 / geometry
    else:
        geometry = math.sinh(s)
        thermal_shape = math.cosh(s) / geometry + 1.0 / geometry
    incident = front / (w.n_modes * geometry) * factor * sh
    thermal = front * w.occupation * thermal_shape
    return 1.0 + incident + thermal


_DIRECT_FIELDS = ("fano_in",)
_HOMO_FIELDS = ("rho", "coupling", "n_modes")


def fano_direct_absorbing_avg(w: WaveguideRatios) -> float:
    """Average direct-detection Fano factor of an absorbing waveguide.

    1 + (4 l d / 3 xi_a sinh s)(F_in - 1) + (d f / 2) * bracket(s); tends to
    the universal value 1 + (3/2) d f for strong absorption.
    """
    _check(w, _DIRECT_FIELDS, False, (w.s,))
    return _direct(w.s, w, False)


def fano_direct_amplifying_avg(w: WaveguideRatios) -> float:
    """Average direct-detection Fano factor of an amplifying waveguide, s < pi.

    Obtained from the absorbing result by xi_a -> i xi_a; diverges at the
    laser threshold s = pi.

    Raises:
        ThresholdReached: s >= pi.
    """
    _check(w, _DIRECT_FIELDS, True, (w.s,))
    return _direct(w.s, w, True)


def fano_homo_min_absorbing_avg(w: WaveguideRatios) -> float:
    """Average phase-minimised homodyne Fano factor, absorbing waveguide.

    1 - (8 l d k / 3 N xi_a sinh s) e^{-rho} sinh rho
      + (8 l d k / 3 xi_a) f [cotanh s + 1/sinh s]
    """
    _check(w, _HOMO_FIELDS, False, (w.s,))
    return _homo(w.s, w, False)


def fano_homo_min_amplifying_avg(w: WaveguideRatios) -> float:
    """Average phase-minimised homodyne Fano factor, amplifying waveguide (s < pi)."""
    _check(w, _HOMO_FIELDS, True, (w.s,))
    return _homo(w.s, w, True)


def fano_homo_fixed_phase_avg(w: WaveguideRatios, amplifying: bool = False) -> float:
    """Average homodyne Fano factor at a fixed probe phase.

    The random phase of t_{n0 m0} averages the phase-sensitive term to zero,
    which amounts to replacing e^{-rho} by -sinh(rho) in the minimised
    expressions.
    """
    _check(w, _HOMO_FIELDS, amplifying, (w.s,))
    return _homo(w.s, w, amplifying, math.sinh(w.rho))


def fano_homo_detuned_avg(w: WaveguideRatios, offset: float, amplifying: bool = False) -> float:
    """Average homodyne Fano factor, each probe detuned by ``offset`` from its optimum.

    The formula and its two special cases are in the module docstring.
    """
    _check(w, _HOMO_FIELDS, amplifying, (w.s,))
    factor = math.sinh(w.rho) - math.cosh(w.rho) * math.cos(2.0 * offset)
    return _homo(w.s, w, amplifying, factor)


# the figure closed forms: name -> (required fields, amplifying, value at (s, w))
_CURVES = {
    "fano_direct_absorbing_avg": (_DIRECT_FIELDS, False, _direct),
    "fano_direct_amplifying_avg": (_DIRECT_FIELDS, True, _direct),
    "fano_homo_min_absorbing_avg": (_HOMO_FIELDS, False, _homo),
    "fano_homo_min_amplifying_avg": (_HOMO_FIELDS, True, _homo),
}


def fano_curve(formula: str, s_values: list[float], **fields) -> list[float]:
    """The figure average named ``formula`` at each s, the other ratios from ``fields``.

    Bit for bit the named function point by point, checked once as those calls
    would be: the first failing point raises the same error, and each
    ``ValidityWarning`` is issued once.
    """
    if not s_values:
        return []
    names, amplifying, value = _CURVES[formula]
    w = WaveguideRatios(s=s_values[0], **fields)
    _check(w, names, amplifying, s_values)
    return [value(s, w, amplifying) for s in s_values]


def zero_length_limits(state: SqueezedInput, config: DetectionConfig) -> tuple[float, float]:
    """Fano factors of a zero-length (fully transparent) segment.

    Returns (direct, homodyne-minimised): 1 + d (F_in - 1) and
    1 - 2 delta_{n0 m0} d k e^{-rho} sinh(rho).
    """
    d = config.efficiency
    direct = 1.0 + d * (fano_in_squeezed(state) - 1.0)
    if config.homodyne is None:
        return direct, 1.0
    same_mode = config.homodyne.probe_mode == state.incident_mode
    rho = state.rho
    homodyne = 1.0
    if same_mode:
        homodyne -= 2.0 * d * config.homodyne.coupling * math.exp(-rho) * math.sinh(rho)
    return direct, homodyne
