import dataclasses
import math

import numpy as np
import pytest

from sqtransport import ensemble as en
from sqtransport import medium as md
from sqtransport import photostatistics as ps
from sqtransport import validation
from sqtransport.errors import AllSamplesAboveThreshold, NearSingularCavity

from conftest import absorbing_spec, random_contraction

# each property's one copy is a fast check of ``validation``; test_cli's
# test_fast_check runs every check, and these names keep this module's test ids
test_zero_length_matches_limits_exactly = validation.check_zero_length_ensemble


STATE = ps.SqueezedInput(alpha=1.2, rho=0.4, phi=0.3, incident_mode=1)


def _zero_length_spec(n_modes=4):
    return md.MediumSpec(n_modes, 0.0, 0.32, 1, 400.0, 1e-3, 0)


def _statistics(spec, n_samples, master_seed):
    """Per-sample statistics behind ``run_ensemble`` with the same arguments."""
    return en.collect_statistics(spec, [spec.total_length], n_samples, master_seed,
                                 incident_mode=STATE.incident_mode)[0]


def _sweep(base, s_values, mean_free_path, l_over_xi, n_samples, master_seed, **kwargs):
    """Results over s = L / xi_a the way the CLI sweeps: one collection, one result per s."""
    xi = mean_free_path / l_over_xi
    per_length = en.collect_statistics(base, [s * xi for s in s_values], n_samples,
                                       master_seed, incident_mode=STATE.incident_mode)
    return [en.result_from_statistics(stats, STATE, ps.DetectionConfig(1.0), base.occupation,
                                      **kwargs)
            for stats in per_length]


def test_passive_coherent_is_poisson():
    spec = md.MediumSpec(6, 25, 0.32, 0, None, 0.0, 0)
    result = en.run_ensemble(spec, ps.SqueezedInput(alpha=2.0), ps.DetectionConfig(1.0), 4, 9)
    assert result.mean_fano == pytest.approx(1.0, abs=1e-12)
    assert result.stderr < 1e-12


def test_reproducibility_bitwise():
    spec = absorbing_spec(5, 18, 0)
    a = en.run_ensemble(spec, STATE, ps.DetectionConfig(1.0), 6, 123)
    b = en.run_ensemble(spec, STATE, ps.DetectionConfig(1.0), 6, 123)
    assert a == b
    assert _statistics(spec, 6, 123) == _statistics(spec, 6, 123)


def test_workers_do_not_change_results():
    spec = absorbing_spec(4, 10, 0)
    serial = en.run_ensemble(spec, STATE, ps.DetectionConfig(1.0), 6, 3)
    parallel = en.run_ensemble(spec, STATE, ps.DetectionConfig(1.0), 6, 3, workers=2)
    assert serial == parallel


def test_incident_fano_override_is_linear_in_transmittance():
    spec = absorbing_spec(5, 20, 0)
    config = ps.DetectionConfig(0.9)
    r0 = en.run_ensemble(spec, STATE, config, 10, 11, incident_fano=0.0)
    r1 = en.run_ensemble(spec, STATE, config, 10, 11, incident_fano=1.0)
    mean_t = np.mean([s.transmittance for s in _statistics(spec, 10, 11)])
    assert r1.mean_fano - r0.mean_fano == pytest.approx(0.9 * mean_t, rel=1e-12)


def test_ratio_of_means_uses_separate_averages():
    spec = absorbing_spec(4, 15, 0)
    result = en.run_ensemble(spec, STATE, ps.DetectionConfig(1.0), 12, 5,
                             incident_fano=0.0)
    stats = _statistics(spec, 12, 5)
    t = np.array([s.transmittance for s in stats])
    b = np.array([s.beating for s in stats])
    expected = 1.0 - t.mean() + 2e-3 * b.mean() / t.mean()
    assert result.mean_fano == pytest.approx(expected, rel=1e-12)
    per_sample = 1.0 - t + 2e-3 * b / t
    assert result.mean_of_ratios == pytest.approx(per_sample.mean(), rel=1e-12)


def test_mean_of_ratios_jackknife_matches_standard_error():
    spec = absorbing_spec(4, 15, 0)
    result = en.run_ensemble(spec, STATE, ps.DetectionConfig(1.0), 16, 5,
                             incident_fano=0.0, averaging_mode=en.MEAN_OF_RATIOS)
    stats = _statistics(spec, 16, 5)
    t = np.array([s.transmittance for s in stats])
    b = np.array([s.beating for s in stats])
    per_sample = 1.0 - t + 2e-3 * b / t
    assert result.mean_fano == pytest.approx(per_sample.mean(), rel=1e-12)
    assert result.stderr == pytest.approx(per_sample.std(ddof=1) / math.sqrt(16), rel=1e-10)


@pytest.mark.slow
def test_averaging_modes_agree_for_many_modes(calibrated_n50, workers):
    # sample-to-sample fluctuations shrink with N, so the two conventions meet
    l = calibrated_n50.mean_free_path
    spec = en.spec_for_ratios(50, 0.5, 0.1, l, 1, 1e-3, 0.45, 0)
    rom = en.run_ensemble(spec, STATE, ps.DetectionConfig(1.0), 40, 17, incident_fano=0.0,
                          workers=workers)
    assert abs(rom.mean_fano - rom.mean_of_ratios) < 3 * (
        rom.stderr + rom.mean_of_ratios_stderr)


def test_all_samples_above_threshold(monkeypatch):
    def always_failing(spec, seeds, lengths):
        return [[NearSingularCavity("forced") for _ in lengths] for _ in seeds]

    monkeypatch.setattr(en, "build_batch_checkpoints", always_failing)
    spec = md.MediumSpec(3, 5, 0.32, -1, 50.0, -1.0, 0)
    with pytest.raises(AllSamplesAboveThreshold):
        en.run_ensemble(spec, STATE, ps.DetectionConfig(1.0), 4, 1)


def test_partial_skips_are_counted(monkeypatch):
    real = en.build_batch_checkpoints

    def flaky(spec, seeds, lengths):
        built = real(spec, seeds, lengths)
        return [[NearSingularCavity("forced") for _ in lengths] if seed % 2 == 0 else row
                for seed, row in zip(seeds, built)]

    monkeypatch.setattr(en, "build_batch_checkpoints", flaky)
    spec = md.MediumSpec(3, 5, 0.32, -1, 500.0, -1.0, 0)
    result = en.run_ensemble(spec, STATE, ps.DetectionConfig(1.0), 12, 1)
    assert result.n_samples + result.n_skipped_above_threshold == 12
    assert result.n_skipped_above_threshold > 0


def test_sweep_shares_slice_prefixes():
    l = 9.9
    base = en.spec_for_ratios(5, 2.0, 0.1, l, 1, 1e-3, 0.45, 0)
    points = _sweep(base, [0.5, 2.0], l, 0.1, 8, 22, incident_fano=0.0)
    short_spec = dataclasses.replace(base, total_length=0.5 * l / 0.1)
    alone = en.run_ensemble(short_spec, STATE, ps.DetectionConfig(1.0), 8, 22,
                            incident_fano=0.0)
    assert points[0].mean_fano == alone.mean_fano


def test_amplifying_near_threshold_skip_fixture():
    # observed behavior of this microscopic model: individual realizations
    # pass near their lasing poles (huge variance) but the star product stays
    # numerically regular, so no skips occur on this grid; the counts are
    # still reported per point
    l = 9.9
    base = en.spec_for_ratios(6, 4.0, 0.1, l, -1, -1.0, 0.45, 0)
    points = _sweep(base, [2.0, 3.0, 3.8], l, 0.1, 20, 11)
    skips = [p.n_skipped_above_threshold for p in points]
    assert skips == [0, 0, 0]
    assert all(b >= a for a, b in zip(skips, skips[1:]))
    stderrs = [p.stderr for p in points]
    assert stderrs[1] > stderrs[0] and max(stderrs) > 1.0


def test_run_ensemble_needs_two_samples():
    with pytest.raises(ValueError):
        en.run_ensemble(_zero_length_spec(), STATE, ps.DetectionConfig(1.0), 1, 0)


def test_spec_for_ratios_mapping():
    spec = en.spec_for_ratios(8, 1.5, 0.1, 20.0, 1, 1e-3, 0.32, 99)
    assert spec.total_length == pytest.approx(1.5 * 200.0)
    assert spec.ballistic_decay_length == pytest.approx(3 * 200.0**2 / 20.0)
    assert spec.medium_kind == md.ABSORBING and spec.seed == 99


def _homodyne_loop_reference(stats, rho, phi, dk, occupation, probe_phase, averaging_mode,
                             offset):
    """Per-sample loop reference for the vectorised homodyne assembly."""
    sh = math.sinh(rho)
    rows = []
    for s in stats:
        if probe_phase is None:
            phase_term = (-dk * s.probe_transmittance * math.cos(2.0 * offset)
                          * math.sinh(2.0 * rho))
        else:
            rotated = np.exp(1j * (phi - 2.0 * probe_phase)) * s.probe_amplitude**2
            phase_term = -dk * rotated.real * math.sinh(2.0 * rho)
        rows.append([2.0 * dk * s.probe_transmittance * sh * sh,
                     2.0 * dk * occupation * s.probe_noise, phase_term])
    columns = np.array(rows)
    if averaging_mode == en.RATIO_OF_MEANS:
        return en._jackknife(columns, lambda means: 1.0 + float(means.sum()))
    per_sample = 1.0 + columns.sum(axis=1)
    return en._jackknife(per_sample[:, None], lambda means: float(means[0]))


@pytest.mark.parametrize("mode_average", [True, False])
def test_homodyne_assembly_equals_per_sample_loop(mode_average):
    rng = np.random.default_rng(41)
    stats = [ps.sample_statistics(random_contraction(rng, 3), 1, 2, mode_average)
             for _ in range(9)]
    for probe_phase, offset in ((None, 0.0), (None, 0.9), (0.7, 0.0)):
        for mode in (en.RATIO_OF_MEANS, en.MEAN_OF_RATIOS):
            got = en.assemble_homodyne_fano(stats, 0.6, 0.4, 0.9, 0.5, 0.02, probe_phase,
                                            mode, relative_offset=offset)
            assert got == _homodyne_loop_reference(stats, 0.6, 0.4, 0.9 * 0.5, 0.02,
                                                   probe_phase, mode, offset)


def _per_sample_statistics(spec, lengths, seeds, incident_mode, probe_mode):
    """Reference: each sample built on its own and measured on its own."""
    rows = []
    for seed in seeds:
        built = md.build_medium_checkpoints(dataclasses.replace(spec, seed=seed), lengths)
        rows.append([None if isinstance(m, Exception)
                     else ps.sample_statistics(m, incident_mode, probe_mode, False)
                     for m in built])
    return rows


@pytest.mark.parametrize("spec", [
    md.MediumSpec(16, 20, 0.45, 0, None, 0.0, 0),
    absorbing_spec(16, 20, 0, decay=30.0, scatter_strength=0.45),
    md.MediumSpec(16, 20, 0.45, -1, 30.0, -1.0, 0),
], ids=["passive", "absorbing", "amplifying"])
def test_collect_statistics_across_batch_boundaries(spec):
    size = md._batch_size(spec.n_modes)
    assert size > 2
    lengths = [7, md.SAMPLING_BLOCK + 2.5]
    seeds = [md.derive_sample_seed(31, k) for k in range(2 * size + 1)]
    reference = _per_sample_statistics(spec, lengths, seeds, 1, 2)
    for n_samples in (1, size - 1, size, size + 1, 2 * size + 1):
        expected = [[reference[k][j] for k in range(n_samples)] for j in range(len(lengths))]
        for workers in (1, 2, 3):
            got = en.collect_statistics(spec, lengths, n_samples, 31, incident_mode=1,
                                        probe_mode=2, mode_average=False, workers=workers)
            assert got == expected, (n_samples, workers)


def test_collect_statistics_needs_a_worker():
    for workers in (0, -1):
        with pytest.raises(ValueError):
            en.collect_statistics(_zero_length_spec(), [0.0], 2, 1, workers=workers)
