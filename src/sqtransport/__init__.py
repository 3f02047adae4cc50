"""Squeezed-light transport through absorbing and amplifying random media.

Builds random waveguide scattering matrices, evaluates photocount statistics
(direct and homodyne detection) for coherent and squeezed input, and compares
Monte Carlo disorder averages against closed-form large-N formulas.
"""

from . import analytics, ensemble, errors, fock, io, medium, photostatistics
from .analytics import (
    WaveguideRatios,
    fano_direct_absorbing_avg,
    fano_direct_amplifying_avg,
    fano_homo_fixed_phase_avg,
    fano_homo_min_absorbing_avg,
    fano_homo_min_amplifying_avg,
    zero_length_limits,
)
from .ensemble import EnsembleResult, run_ensemble, spec_for_ratios
from .fock import (
    FockState,
    amplifying_channel_photostats,
    lossy_channel_photostats,
    squeezed_coherent_fock,
)
from .medium import (
    ABSORBING,
    AMPLIFYING,
    PASSIVE,
    CalibrationResult,
    MediumSpec,
    ScatteringMatrix,
    build_medium,
    calibrate_mean_free_path,
    deviation_from_unitarity,
    propagation_unit,
    sample_slice,
    star_compose,
)
from .photostatistics import (
    CumulantDensities,
    DetectionConfig,
    FanoBreakdown,
    HomodyneConfig,
    SqueezedInput,
    bose_einstein,
    direct_cumulants_squeezed,
    fano_direct,
    fano_homodyne,
    fano_homodyne_min,
    fano_in_squeezed,
    log_generating_density_direct,
    m_element,
    numeric_factorial_cumulants,
    thermal_cumulant_densities,
)

__all__ = [
    "ABSORBING",
    "AMPLIFYING",
    "PASSIVE",
    "CalibrationResult",
    "CumulantDensities",
    "DetectionConfig",
    "EnsembleResult",
    "FanoBreakdown",
    "FockState",
    "HomodyneConfig",
    "MediumSpec",
    "ScatteringMatrix",
    "SqueezedInput",
    "WaveguideRatios",
    "amplifying_channel_photostats",
    "analytics",
    "bose_einstein",
    "build_medium",
    "calibrate_mean_free_path",
    "deviation_from_unitarity",
    "direct_cumulants_squeezed",
    "ensemble",
    "errors",
    "fano_direct",
    "fano_direct_absorbing_avg",
    "fano_direct_amplifying_avg",
    "fano_homo_fixed_phase_avg",
    "fano_homo_min_absorbing_avg",
    "fano_homo_min_amplifying_avg",
    "fano_homodyne",
    "fano_homodyne_min",
    "fano_in_squeezed",
    "fock",
    "io",
    "log_generating_density_direct",
    "lossy_channel_photostats",
    "m_element",
    "medium",
    "numeric_factorial_cumulants",
    "photostatistics",
    "propagation_unit",
    "run_ensemble",
    "sample_slice",
    "spec_for_ratios",
    "squeezed_coherent_fock",
    "star_compose",
    "thermal_cumulant_densities",
    "zero_length_limits",
]

__version__ = "0.1.0"
