"""Monte Carlo disorder averages of Fano factors.

Sample k of an ensemble uses the seed derived from (master_seed, k), so runs
are reproducible and media at different lengths share their leading slices
(common random numbers across a length sweep).  A sweep over s = L / xi_a is
one ``collect_statistics`` over all lengths, then, per length,
``drop_skipped`` and ``assemble_direct_fano`` or ``assemble_homodyne_fano``,
as the CLI runs it.  Averages follow the separate-averaging convention of the
large-N theory: the disorder averages of numerator and denominator of each
Fano-factor term are taken individually before forming the ratio ("ratio of
means"); the plain sample mean of the per-realization Fano factors ("mean of
ratios") is the diagnostic ``averaging_mode=MEAN_OF_RATIOS``.  Skipped
realizations (the None entries of ``collect_statistics``) are dropped and
counted in one place, ``drop_skipped``.  Standard errors come from
leave-one-out jackknife, which adds no random-number stream of its own.  The
samples run on the sample driver that the calibration shares,
``medium.map_seed_chunks``, in which the calling process is one of the
workers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AllSamplesAboveThreshold, GainPositivityViolation, NearSingularCavity
from .medium import (
    MediumSpec,
    build_batch_checkpoints,
    # unused here since the disorder loop builds whole batches; kept because
    # perfbench/tracing.py wraps ensemble.build_medium_checkpoints
    build_medium_checkpoints,  # noqa: F401
    derive_sample_seed,
    map_seed_chunks,
)
from .photostatistics import (
    SampleStatistics,
    direct_fano_terms,
    homodyne_fano_terms,
    sample_statistics,
)

RATIO_OF_MEANS = "ratio_of_means"
MEAN_OF_RATIOS = "mean_of_ratios"


def spec_for_ratios(n_modes: int, s: float, l_over_xi: float, mean_free_path: float,
                    loss_gain_sign: int, occupation: float, scatter_strength: float,
                    seed: int) -> MediumSpec:
    """Medium spec realizing the dimensionless ratios (s, l/xi_a).

    Uses the calibrated mean free path: xi_a = l / (l/xi_a), total length
    L = s xi_a, and ballistic decay length 3 xi_a^2 / l (the diffusive
    relation between the absorption length and the decay rate).
    """
    xi = mean_free_path / l_over_xi
    return MediumSpec(
        n_modes=n_modes,
        total_length=s * xi,
        scatter_strength=scatter_strength,
        loss_gain_sign=loss_gain_sign,
        ballistic_decay_length=3.0 * xi**2 / mean_free_path,
        occupation=occupation,
        seed=seed,
    )


def _collect_chunk(seeds, base_spec, lengths, incident_mode, probe_mode, mode_average):
    """Statistics of one chunk of samples, one row per seed; module-level for the pool."""
    return [
        [None if isinstance(matrix, (NearSingularCavity, GainPositivityViolation))
         else sample_statistics(matrix, incident_mode, probe_mode, mode_average)
         for matrix in matrices]
        for matrices in build_batch_checkpoints(base_spec, seeds, lengths)
    ]


def collect_statistics(base_spec: MediumSpec, lengths, n_samples: int, master_seed: int,
                       incident_mode: int = 0, probe_mode: int = 0,
                       mode_average: bool = True,
                       workers: int = 1) -> list[list[SampleStatistics | None]]:
    """Per-sample statistics at each length; entry None marks a skipped realization.

    The samples run in ``workers`` contiguous chunks on ``medium.map_seed_chunks``,
    the first in this process.  Results are ordered [length][sample] and
    bitwise independent of the worker count.
    """
    lengths = list(lengths)
    seeds = [derive_sample_seed(master_seed, k) for k in range(n_samples)]
    rows = map_seed_chunks(_collect_chunk, seeds, workers, base_spec, lengths,
                           incident_mode, probe_mode, mode_average)
    return [[row[j] for row in rows] for j in range(len(lengths))]


def drop_skipped(stats_with_gaps) -> tuple[list[SampleStatistics], int]:
    """The realizations that enter an average, and the count of skipped ones.

    Raises:
        AllSamplesAboveThreshold: every realization was skipped.
    """
    stats = [s for s in stats_with_gaps if s is not None]
    if not stats:
        raise AllSamplesAboveThreshold("every realization was at or beyond threshold")
    return stats, len(stats_with_gaps) - len(stats)


def _jackknife(samples: np.ndarray, assemble) -> tuple[float, float]:
    """Jackknife mean/stderr of assemble(column means) over sample rows.

    ``assemble`` maps a row of column means, or a stack of such rows, to values.
    """
    n = samples.shape[0]
    sums = samples.sum(axis=0)
    full = float(assemble(sums / n))
    if n < 2:
        return full, 0.0
    leave_out = assemble((sums - samples) / (n - 1))
    center = leave_out.mean()
    variance = (n - 1) / n * np.sum((leave_out - center) ** 2)
    return full, math.sqrt(variance)


def _jackknife_fano(columns: np.ndarray, fano, averaging_mode: str) -> tuple[float, float]:
    """Jackknifed Fano factor of per-sample ``columns`` [n_samples, k].

    ``fano`` maps a row, or a stack of rows, to Fano factors.  Ratio of means
    applies it to the column means; mean of ratios applies it to every sample
    row and averages the results.
    """
    if averaging_mode == RATIO_OF_MEANS:
        return _jackknife(columns, fano)
    if averaging_mode == MEAN_OF_RATIOS:
        return _jackknife(fano(columns)[:, None], lambda means: means[..., 0])
    raise ValueError(f"unknown averaging mode {averaging_mode!r}")


def assemble_direct_fano(stats: list[SampleStatistics], fano_in: float, efficiency: float,
                         occupation: float, averaging_mode: str = RATIO_OF_MEANS
                         ) -> tuple[float, float]:
    """Disorder-averaged direct-detection Fano factor from per-sample statistics."""
    def fano(columns):
        incident, beating = direct_fano_terms(columns[..., 0], columns[..., 1], fano_in,
                                              efficiency, occupation)
        return 1.0 + incident + beating

    columns = np.array([[s.transmittance, s.beating] for s in stats])
    return _jackknife_fano(columns, fano, averaging_mode)


def assemble_homodyne_fano(stats: list[SampleStatistics], rho: float, phi: float,
                           efficiency: float, coupling: float, occupation: float,
                           probe_phase: float | None = None,
                           averaging_mode: str = RATIO_OF_MEANS,
                           relative_offset: float = 0.0) -> tuple[float, float]:
    """Disorder-averaged homodyne Fano factor from per-sample statistics.

    ``probe_phase=None`` re-adjusts the probe phase per realization so each
    sample sits at its own minimum, optionally detuned from it by
    ``relative_offset``; a number holds the phase fixed across the ensemble,
    in which case the phase-sensitive term is averaged directly (and averages
    toward zero through the random phase of t_{n0 m0}).  The terms are linear
    in the per-sample statistics, so the ratio of means averages each term.
    """
    terms = homodyne_fano_terms(
        np.array([s.probe_transmittance for s in stats]),
        np.array([s.probe_noise for s in stats]),
        np.array([s.probe_amplitude for s in stats]),
        rho, phi, efficiency * coupling, occupation, probe_phase, relative_offset,
    )
    columns = np.column_stack(terms)
    return _jackknife_fano(columns, lambda rows: 1.0 + rows.sum(axis=-1), averaging_mode)
