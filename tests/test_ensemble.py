import dataclasses
import math

import numpy as np
import pytest

from sqtransport import analytics as an
from sqtransport import ensemble as en
from sqtransport import medium as md
from sqtransport import photostatistics as ps
from sqtransport.errors import AllSamplesAboveThreshold, NearSingularCavity

from conftest import absorbing_spec, random_contraction


STATE = ps.SqueezedInput(alpha=1.2, rho=0.4, phi=0.3, incident_mode=1)


def _zero_length_spec(n_modes=4):
    return md.MediumSpec(n_modes, 0.0, 0.32, 1, 400.0, 1e-3, 0)


def test_zero_length_matches_limits_exactly():
    config = ps.DetectionConfig(0.8)
    result = en.run_ensemble(_zero_length_spec(), STATE, config, 5, 7, mode_average=False)
    direct0, _ = an.zero_length_limits(STATE, config)
    assert result.mean_fano == direct0
    assert result.stderr == 0.0
    assert result.n_samples == 5 and result.n_skipped_above_threshold == 0


def test_zero_length_homodyne_limits():
    same = ps.DetectionConfig(0.8, ps.TRANSMISSION, ps.HomodyneConfig(0.5, 1))
    other = ps.DetectionConfig(0.8, ps.TRANSMISSION, ps.HomodyneConfig(0.5, 3))
    _, homodyne_same = an.zero_length_limits(STATE, same)
    result = en.run_ensemble(_zero_length_spec(), STATE, same, 4, 7, mode_average=False)
    assert result.mean_fano == pytest.approx(homodyne_same, abs=1e-14)
    result_other = en.run_ensemble(_zero_length_spec(), STATE, other, 4, 7,
                                   mode_average=False)
    assert result_other.mean_fano == pytest.approx(1.0, abs=1e-14)


def test_passive_coherent_is_poisson():
    spec = md.MediumSpec(6, 25, 0.32, 0, None, 0.0, 0)
    result = en.run_ensemble(spec, ps.SqueezedInput(alpha=2.0), ps.DetectionConfig(1.0), 4, 9)
    assert result.mean_fano == pytest.approx(1.0, abs=1e-12)
    assert result.stderr < 1e-12


def test_reproducibility_bitwise():
    spec = absorbing_spec(5, 18, 0)
    a = en.run_ensemble(spec, STATE, ps.DetectionConfig(1.0), 6, 123, keep_samples=True)
    b = en.run_ensemble(spec, STATE, ps.DetectionConfig(1.0), 6, 123, keep_samples=True)
    assert a == b


def test_workers_do_not_change_results():
    spec = absorbing_spec(4, 10, 0)
    serial = en.run_ensemble(spec, STATE, ps.DetectionConfig(1.0), 6, 3)
    parallel = en.run_ensemble(spec, STATE, ps.DetectionConfig(1.0), 6, 3, workers=2)
    assert serial == parallel


def test_incident_fano_override_is_linear_in_transmittance():
    spec = absorbing_spec(5, 20, 0)
    config = ps.DetectionConfig(0.9)
    r0 = en.run_ensemble(spec, STATE, config, 10, 11, incident_fano=0.0, keep_samples=True)
    r1 = en.run_ensemble(spec, STATE, config, 10, 11, incident_fano=1.0)
    mean_t = np.mean([s.transmittance for s in r0.per_sample])
    assert r1.mean_fano - r0.mean_fano == pytest.approx(0.9 * mean_t, rel=1e-12)


def test_ratio_of_means_uses_separate_averages():
    spec = absorbing_spec(4, 15, 0)
    result = en.run_ensemble(spec, STATE, ps.DetectionConfig(1.0), 12, 5,
                             incident_fano=0.0, keep_samples=True)
    t = np.array([s.transmittance for s in result.per_sample])
    b = np.array([s.beating for s in result.per_sample])
    expected = 1.0 - t.mean() + 2e-3 * b.mean() / t.mean()
    assert result.mean_fano == pytest.approx(expected, rel=1e-12)
    per_sample = 1.0 - t + 2e-3 * b / t
    assert result.mean_of_ratios == pytest.approx(per_sample.mean(), rel=1e-12)


def test_mean_of_ratios_jackknife_matches_standard_error():
    spec = absorbing_spec(4, 15, 0)
    result = en.run_ensemble(spec, STATE, ps.DetectionConfig(1.0), 16, 5,
                             incident_fano=0.0, averaging_mode=en.MEAN_OF_RATIOS,
                             keep_samples=True)
    t = np.array([s.transmittance for s in result.per_sample])
    b = np.array([s.beating for s in result.per_sample])
    per_sample = 1.0 - t + 2e-3 * b / t
    assert result.mean_fano == pytest.approx(per_sample.mean(), rel=1e-12)
    assert result.stderr == pytest.approx(per_sample.std(ddof=1) / math.sqrt(16), rel=1e-10)


def test_averaging_modes_agree_for_many_modes(calibrated_n50):
    # sample-to-sample fluctuations shrink with N, so the two conventions meet
    l = calibrated_n50.mean_free_path
    spec = en.spec_for_ratios(50, 0.5, 0.1, l, 1, 1e-3, 0.45, 0)
    rom = en.run_ensemble(spec, STATE, ps.DetectionConfig(1.0), 40, 17, incident_fano=0.0)
    assert abs(rom.mean_fano - rom.mean_of_ratios) < 3 * (
        rom.stderr + rom.mean_of_ratios_stderr)


def test_all_samples_above_threshold(monkeypatch):
    def always_failing(spec, lengths):
        return [NearSingularCavity("forced") for _ in lengths]

    monkeypatch.setattr(en, "build_medium_checkpoints", always_failing)
    spec = md.MediumSpec(3, 5, 0.32, -1, 50.0, -1.0, 0)
    with pytest.raises(AllSamplesAboveThreshold):
        en.run_ensemble(spec, STATE, ps.DetectionConfig(1.0), 4, 1)


def test_partial_skips_are_counted(monkeypatch):
    real = en.build_medium_checkpoints

    def flaky(spec, lengths):
        if spec.seed % 2 == 0:
            return [NearSingularCavity("forced") for _ in lengths]
        return real(spec, lengths)

    monkeypatch.setattr(en, "build_medium_checkpoints", flaky)
    spec = md.MediumSpec(3, 5, 0.32, -1, 500.0, -1.0, 0)
    result = en.run_ensemble(spec, STATE, ps.DetectionConfig(1.0), 12, 1)
    assert result.n_samples + result.n_skipped_above_threshold == 12
    assert result.n_skipped_above_threshold > 0


def test_sweep_single_point_equals_run_ensemble():
    l = 9.9
    base = en.spec_for_ratios(5, 1.0, 0.1, l, 1, 1e-3, 0.45, 0)
    points = en.sweep_lengths(base, [1.0], STATE, ps.DetectionConfig(1.0), 8, 21, l,
                              incident_fano=0.0)
    single = en.run_ensemble(base, STATE, ps.DetectionConfig(1.0), 8, 21,
                             incident_fano=0.0)
    assert points[0].result.mean_fano == single.mean_fano
    assert points[0].result.stderr == single.stderr


def test_sweep_shares_slice_prefixes():
    l = 9.9
    base = en.spec_for_ratios(5, 2.0, 0.1, l, 1, 1e-3, 0.45, 0)
    points = en.sweep_lengths(base, [0.5, 2.0], STATE, ps.DetectionConfig(1.0), 8, 22, l,
                              incident_fano=0.0)
    short_spec = dataclasses.replace(base, total_length=0.5 * l / 0.1)
    alone = en.run_ensemble(short_spec, STATE, ps.DetectionConfig(1.0), 8, 22,
                            incident_fano=0.0)
    assert points[0].result.mean_fano == alone.mean_fano


def test_sweep_records_point_errors(monkeypatch):
    def always_failing(spec, lengths):
        return [NearSingularCavity("forced") for _ in lengths]

    monkeypatch.setattr(en, "build_medium_checkpoints", always_failing)
    base = md.MediumSpec(3, 10, 0.32, -1, 100.0, -1.0, 0)
    points = en.sweep_lengths(base, [0.5, 1.0], STATE, ps.DetectionConfig(1.0), 4, 1, 10.0)
    assert all(p.result is None and p.error for p in points)


def test_amplifying_near_threshold_skip_fixture():
    # observed behavior of this microscopic model: individual realizations
    # pass near their lasing poles (huge variance) but the star product stays
    # numerically regular, so no skips occur on this grid; the counts are
    # still reported per point
    l = 9.9
    base = en.spec_for_ratios(6, 4.0, 0.1, l, -1, -1.0, 0.45, 0)
    points = en.sweep_lengths(base, [2.0, 3.0, 3.8], STATE, ps.DetectionConfig(1.0),
                              20, 11, l)
    skips = [p.result.n_skipped_above_threshold for p in points]
    assert skips == [0, 0, 0]
    assert all(b >= a for a, b in zip(skips, skips[1:]))
    stderrs = [p.result.stderr for p in points]
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
