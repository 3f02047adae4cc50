import dataclasses
import math
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sqtransport import medium as md
from sqtransport import validation
from sqtransport.errors import FitFailed, NearSingularCavity, PhysicalityError

from conftest import absorbing_spec, random_contraction, scalar_channel

# each property's one copy is a fast check of ``validation``; test_cli's
# test_fast_check runs every check, and these names keep this module's test ids
test_slice_unitarity = validation.check_slice_unitarity
test_star_identity_element = validation.check_star_identity_element
test_star_scalar_fabry_perot = validation.check_scalar_fabry_perot
test_build_passive_long_chain_unitary = validation.check_passive_composition_unitary
test_build_absorbing_contraction = validation.check_absorbing_contraction
test_build_amplifying_gain_positive = validation.check_amplifying_positivity
test_build_deterministic_bitwise = validation.check_determinism


def test_slice_zero_strength_is_transparent():
    s = md.sample_slice(1, 1e-7, np.random.default_rng(0))
    assert abs(s.t[0, 0] - 1.0) < 1e-6
    assert abs(s.t_prime[0, 0] - 1.0) < 1e-6
    assert abs(s.r[0, 0]) < 1e-6 and abs(s.r_prime[0, 0]) < 1e-6


def test_slice_first_order_in_strength():
    eps = 1e-3
    s = md.sample_slice(4, eps, np.random.default_rng(1))
    assert np.max(np.abs(s.t - np.eye(4))) < 10 * eps
    assert np.max(np.abs(s.r_prime)) < 10 * eps


def test_slice_mean_reflectance_fixture():
    # regression value from a 10^4-sample run: 0.0049652 (close to eps^2/2)
    rng = np.random.default_rng(2024)
    unitaries, _ = md._slice_unitaries(8, 0.1, rng, 1500)
    reflectance = np.mean(np.sum(np.abs(unitaries[:, 8:, :8]) ** 2, axis=(1, 2))) / 8
    assert abs(reflectance - 0.0049652) < 3e-4


def eigh_slice_unitaries(n_modes, eps, rng, count):
    """Reference for the sampler's law: exp(i eps K) through ``eigh`` of a drawn K.

    K is Hermitian 2N x 2N, (G + G+) / 2 of a complex Ginibre G scaled so
    that E|K_ij|^2 = 1/(2N).  Returns the unitaries and q = ||U - 1||_2.
    """
    m = 2 * n_modes
    draws = rng.standard_normal((count, 2, m, m))
    x, y = draws[:, 0], draws[:, 1]
    k = np.empty((count, m, m), dtype=complex)
    k.real = x + x.transpose(0, 2, 1)
    k.imag = y - y.transpose(0, 2, 1)
    k *= 0.5 / math.sqrt(m)
    w, v = np.linalg.eigh(k)
    phases = np.exp(1j * eps * w)
    return (v * phases[:, None, :]) @ np.conj(v).transpose(0, 2, 1), np.max(
        np.abs(phases - 1.0), axis=1)


def _slice_statistics(sampler, n_modes, eps, seed, count):
    """Per-slice reflectance, Re tr U / 2N, sum |t|^4 / N and q, in 16-slice blocks."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count // 16):
        unitaries, q = sampler(n_modes, eps, rng, 16)
        r_prime, _, t, _ = md._transparent_order(unitaries)
        rows.append(np.column_stack([
            np.sum(np.abs(r_prime) ** 2, axis=(1, 2)) / n_modes,
            np.trace(unitaries, axis1=1, axis2=2).real / (2 * n_modes),
            np.sum(np.abs(t) ** 4, axis=(1, 2)) / n_modes,
            q,
        ]))
    values = np.concatenate(rows)
    return values.mean(axis=0), values.std(axis=0, ddof=1) / math.sqrt(len(values))


@pytest.mark.parametrize("n_modes,eps,count", [(4, 0.45, 6400), (25, 0.45, 960), (8, 0.1, 6400)])
def test_slice_law_matches_eigh_reference(n_modes, eps, count):
    # the sampler draws U from a QR and a tridiagonal eigenvalue solve; its
    # law must be that of exp(i eps K) with K drawn and diagonalised directly
    mean, stderr = _slice_statistics(md._slice_unitaries, n_modes, eps, 71, count)
    ref_mean, ref_stderr = _slice_statistics(eigh_slice_unitaries, n_modes, eps, 72, count)
    assert np.all(np.abs(mean - ref_mean) < 4 * np.hypot(stderr, ref_stderr))


def test_slice_rejects_bad_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        md.sample_slice(0, 0.1, rng)
    with pytest.raises(ValueError):
        md.sample_slice(4, 0.0, rng)
    with pytest.raises(ValueError):
        md.sample_slice(4, -0.3, rng)


def propagation_unit(n_modes, loss_gain_sign, decay_length, rng):
    """Reference for the loop's diagonal step: one slice of free propagation.

    Pure transmission: r = r' = 0 and t = t' = diag(exp(i theta_n) * a) with
    independent uniform phases and amplitude a = exp(-sign / (2 * decay_length)).
    """
    theta = rng.uniform(0.0, 2.0 * np.pi, n_modes)
    amplitude = 1.0 if loss_gain_sign == 0 else math.exp(-loss_gain_sign / (2.0 * decay_length))
    diag = np.diag(amplitude * np.exp(1j * theta))
    zero = np.zeros((n_modes, n_modes), dtype=complex)
    return md.ScatteringMatrix(zero, diag, diag, zero, md._KIND_FROM_SIGN[loss_gain_sign])


@pytest.mark.parametrize("sign,decay,magnitude", [
    (0, None, 1.0),
    (1, 10.0, math.exp(-0.05)),
    (-1, 10.0, math.exp(0.05)),
])
def test_propagation_unit_amplitudes(sign, decay, magnitude):
    unit = propagation_unit(5, sign, decay, np.random.default_rng(3))
    assert np.allclose(np.abs(np.diagonal(unit.t)), magnitude, atol=1e-14)
    assert not unit.r.any() and not unit.r_prime.any()
    assert np.array_equal(unit.t, unit.t_prime)


def test_star_two_passive_slices_unitary():
    rng = np.random.default_rng(5)
    c = md.star_compose(md.sample_slice(5, 0.3, rng), md.sample_slice(5, 0.3, rng))
    assert np.max(np.abs(c.singular_values() - 1)) < 1e-10
    assert c.medium_kind == md.PASSIVE


def test_star_scalar_slabs():
    a = scalar_channel(math.sqrt(0.5), md.ABSORBING)
    c = md.star_compose(a, a)
    assert abs(abs(c.t[0, 0]) ** 2 - 0.25) < 1e-14


def test_star_near_singular_cavity():
    eye = np.eye(2, dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    mirror_right = md.ScatteringMatrix(zero, eye, eye, eye, md.AMPLIFYING)
    mirror_left = md.ScatteringMatrix(eye, eye, eye, zero, md.AMPLIFYING)
    with pytest.raises(NearSingularCavity):
        md.star_compose(mirror_right, mirror_left)


def test_star_mode_count_mismatch():
    with pytest.raises(ValueError):
        md.star_compose(md.ScatteringMatrix.identity_transmission(2),
                        md.ScatteringMatrix.identity_transmission(3))


def test_build_zero_length_is_identity_transmission():
    spec = md.MediumSpec(4, 0.0, 0.3, 0, None, 0.0, 1)
    built = md.build_medium(spec)
    assert np.array_equal(built.full, md.ScatteringMatrix.identity_transmission(4).full)


def test_checkpoints_match_independent_builds():
    spec = absorbing_spec(4, 40, seed=11)
    checkpoints = md.build_medium_checkpoints(spec, [10, 25, 40])
    for length, captured in zip([10, 25, 40], checkpoints):
        alone = md.build_medium(dataclasses.replace(spec, total_length=length))
        assert np.array_equal(captured.full, alone.full)


@given(n_modes=st.integers(1, 12), eps=st.floats(0.01, 3.0),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_slice_reflection_bounded_by_eigenphases(n_modes, eps, seed):
    # ||r'||_2 <= ||U - 1||_2 = max_j |exp(i eps w_j) - 1|, the cavity bound's q
    unitaries, q = md._slice_unitaries(n_modes, eps, np.random.default_rng(seed), 3)
    assert q is not None  # the polar fallback did not replace the batch
    for unitary, bound in zip(unitaries, q):
        r_prime = md._transparent_order(unitary)[0]
        assert np.linalg.norm(r_prime, 2) <= bound + 1e-12
        assert abs(np.linalg.norm(unitary - np.eye(2 * n_modes), 2) - bound) < 1e-12


def _star_fold(spec, n_periods):
    """Composites after each period, folded with the public star_compose."""
    slice_seq, phase_seq = np.random.SeedSequence(spec.seed).spawn(2)
    rng_slices = np.random.default_rng(slice_seq)
    rng_phases = np.random.default_rng(phase_seq)
    composite = md.ScatteringMatrix.identity_transmission(spec.n_modes, spec.medium_kind)
    out = [composite]
    for _ in range(n_periods):
        composite = md.star_compose(
            composite, md.sample_slice(spec.n_modes, spec.scatter_strength, rng_slices))
        composite = md.star_compose(
            composite, propagation_unit(spec.n_modes, spec.loss_gain_sign,
                                        spec.ballistic_decay_length, rng_phases))
        out.append(composite)
    return out


_SPECS = [
    absorbing_spec(5, 33, seed=12, decay=40.0, scatter_strength=0.45),
    md.MediumSpec(5, 33, 0.32, 0, None, 0.0, 13),
    md.MediumSpec(4, 33, 0.32, -1, 30.0, -1.0, 14),
]
_SPEC_IDS = ["absorbing", "passive", "amplifying"]


@pytest.mark.parametrize("spec", _SPECS, ids=_SPEC_IDS)
def test_checkpoints_across_sampling_blocks(spec):
    lengths = sorted([15, md.SAMPLING_BLOCK, 17, 2 * md.SAMPLING_BLOCK + 0.5, 33])
    checkpoints = md.build_medium_checkpoints(spec, lengths)
    folded = _star_fold(spec, 33)
    for length, captured in zip(lengths, checkpoints):
        alone = md.build_medium(dataclasses.replace(spec, total_length=length))
        assert np.array_equal(captured.full, alone.full)
        assert np.array_equal(captured.full, folded[math.ceil(length)].full)
        assert captured.medium_kind == spec.medium_kind


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("spec", _SPECS, ids=_SPEC_IDS)
def test_checkpoints_independent_of_sampling_block(monkeypatch, spec, block):
    # per-slice draws continue one stream, and the stacked qr and eigvalsh act
    # matrix by matrix, so the block size leaves every medium bitwise unchanged
    seeds = [md.derive_sample_seed(spec.seed, k) for k in range(3)]
    lengths = [7, md.SAMPLING_BLOCK + 0.5, 33]
    default = list(md.build_batch_checkpoints(spec, seeds, lengths))
    monkeypatch.setattr(md, "SAMPLING_BLOCK", block)
    for got, want in zip(md.build_batch_checkpoints(spec, seeds, lengths), default):
        assert all(np.array_equal(a.full, b.full) for a, b in zip(got, want))


def test_slice_buffers_stay_within_batch_bytes():
    for n in range(1, 201):
        block, size, slice_bytes = md._sampling_block(n), md._batch_size(n), (2 * n) ** 2 * 16
        assert 1 <= block <= md.SAMPLING_BLOCK
        if slice_bytes <= md.BATCH_BYTES:
            assert block * size * slice_bytes <= md.BATCH_BYTES, n
        else:
            assert (block, size) == (1, 1), n
    assert (md._sampling_block(10), md._batch_size(10)) == (16, 12)
    assert (md._sampling_block(50), md._batch_size(50)) == (8, 1)


def test_sampler_draws_at_most_one_sampling_block_per_call(monkeypatch):
    counts = []
    real = md._slice_unitaries

    def recording(n_modes, eps, rng, count, out):
        counts.append(count)
        return real(n_modes, eps, rng, count, out=out)

    monkeypatch.setattr(md, "_slice_unitaries", recording)
    md.build_medium(absorbing_spec(50, 20, seed=3, decay=40.0, scatter_strength=0.45))
    assert max(counts) == 8 == md._sampling_block(50)
    assert sum(counts) == 20


@pytest.mark.parametrize("spec", _SPECS, ids=_SPEC_IDS)
def test_checkpoints_independent_of_batch_bytes(monkeypatch, spec):
    # a small budget shrinks the sampling block (3 periods at N = 5) and the
    # batch (one sample); every medium stays bitwise the same
    seeds = [md.derive_sample_seed(spec.seed, k) for k in range(3)]
    lengths = [7, 16.5, 33]
    default = list(md.build_batch_checkpoints(spec, seeds, lengths))
    monkeypatch.setattr(md, "BATCH_BYTES", 5000)
    assert md._sampling_block(spec.n_modes) < md.SAMPLING_BLOCK
    assert md._batch_size(spec.n_modes) == 1
    for got, want in zip(md.build_batch_checkpoints(spec, seeds, lengths), default):
        assert all(np.array_equal(a.full, b.full) for a, b in zip(got, want))


def test_slices_independent_of_sampler_chunk(monkeypatch):
    # chunks of 5 slices (the last one short) continue the stream of one
    # 16-slice draw, and write the same slices and q into ``out``
    whole, q_whole = md._slice_unitaries(5, 0.45, np.random.default_rng(4), 16)
    monkeypatch.setattr(md, "BATCH_BYTES", 32000)
    out = np.empty_like(whole)
    chunked, q_chunked = md._slice_unitaries(5, 0.45, np.random.default_rng(4), 16, out=out)
    assert chunked is out
    assert np.array_equal(chunked, whole) and np.array_equal(q_chunked, q_whole)


def _traced_build_peak(n_modes):
    spec = absorbing_spec(n_modes, 20, seed=5, decay=40.0, scatter_strength=0.45)
    seeds = [md.derive_sample_seed(5, k) for k in range(2)]
    tracemalloc.start()
    try:
        list(md.build_batch_checkpoints(spec, seeds, [20]))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("length", [-1.0, math.inf, math.nan])
def test_build_rejects_a_length_outside_zero_to_infinity(length):
    spec = absorbing_spec(2, 4, seed=1, decay=40.0)
    with pytest.raises(ValueError):
        md.build_batch_checkpoints(spec, [1], [1.0, length])


def test_large_n_build_memory_bounded():
    # the sampler's temporaries scale with its block: 16 periods at N = 100
    # would take five arrays of about 10 MB each, a 2-period block about 1.3 MB
    assert _traced_build_peak(100) < 20e6
    # at N = 50 four slices fit in BATCH_BYTES, so the slice buffer and the
    # sampler's working set each stay within it; one more BATCH_BYTES covers
    # the composites, the star products and the checkpoint validation
    assert _traced_build_peak(50) < 3 * md.BATCH_BYTES


def test_calibrate_equals_per_length_builds():
    lengths, samples, seed = [4.5, 9, 18, 36], 5, 21
    cal = md.calibrate_mean_free_path(6, 0.4, lengths, samples, seed)
    # the definition: every length built on its own from the same sample seeds
    y = np.empty(len(lengths))
    y_var = np.empty(len(lengths))
    for j, length in enumerate(lengths):
        g = np.empty(samples)
        for k in range(samples):
            spec = md.MediumSpec(6, length, 0.4, 0, None, 0.0, md.derive_sample_seed(seed, k))
            g[k] = np.sum(np.abs(md.build_medium(spec).t) ** 2)
        g_mean = g.mean()
        g_var = g.var(ddof=1) / samples
        y[j] = 6 / g_mean
        y_var[j] = (6 / g_mean**2) ** 2 * g_var
    assert cal.inverse_transmittance == tuple(float(v) for v in y)
    weights = 1.0 / y_var
    design = np.column_stack([np.ones(len(lengths)), np.asarray(lengths)])
    wdesign = design * weights[:, None]
    normal = design.T @ wdesign
    intercept, slope = np.linalg.solve(normal, wdesign.T @ y)
    assert cal.mean_free_path == float(1.0 / slope)
    assert cal.intercept == float(intercept)
    assert cal.stderr == float(math.sqrt(np.linalg.inv(normal)[1, 1]) / slope**2)


@pytest.mark.parametrize("workers", [2, 3])
def test_calibrate_independent_of_workers(workers):
    # 7 samples: neither 2 nor 3 chunks split them evenly
    args = (6, 0.4, [4.5, 9, 18, 36], 7, 21)
    assert md.calibrate_mean_free_path(*args, workers=workers) == \
        md.calibrate_mean_free_path(*args, workers=1)


@pytest.mark.parametrize("workers, samples, processes", [
    (1, 7, None), (2, 7, 1), (3, 7, 2), (4, 3, 2), (5, 1, None),
])
def test_sample_driver_runs_one_chunk_in_the_caller(monkeypatch, workers, samples, processes):
    opened, submitted = [], []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            opened.append(max_workers)
            super().__init__(max_workers, **kwargs)

        def submit(self, function, chunk, *args):
            submitted.append(chunk)
            return super().submit(function, chunk, *args)

    monkeypatch.setattr(md.futures, "ProcessPoolExecutor", RecordingPool)
    spec = md.MediumSpec(3, 8, 0.4, 0, None, 0.0, 0)
    seeds = [md.derive_sample_seed(5, k) for k in range(samples)]
    rows = md.map_seed_chunks(md._transmittances, seeds, workers, spec, [2, 8])
    # min(workers, samples) - 1 pool processes: the calling process is a worker too
    assert opened == ([] if processes is None else [processes])
    assert len(submitted) == (processes or 0)
    assert rows == md._transmittances(seeds, spec, [2, 8])


def test_sample_driver_needs_a_worker():
    for workers in (0, -1):
        with pytest.raises(ValueError):
            md.calibrate_mean_free_path(4, 0.3, [4, 8, 16], 2, 1, workers=workers)


def _count_cavity_svds(monkeypatch, n_modes):
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        if np.shape(a)[-2:] == (n_modes, n_modes):
            calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_absorbing_build_runs_no_cavity_svd(monkeypatch):
    calls = _count_cavity_svds(monkeypatch, 10)
    spec = absorbing_spec(10, 40, seed=3, decay=40.0, scatter_strength=0.45)
    md.build_medium(spec)
    assert not calls
    # the same slices with gain keep the SVD guard
    md.build_medium(dataclasses.replace(spec, loss_gain_sign=-1, occupation=-1.0))
    assert calls


@pytest.mark.parametrize("sign,fallback", [(-1, False), (0, True)],
                         ids=["amplifying", "polar-fallback"])
def test_cavity_at_threshold_raises(monkeypatch, sign, fallback):
    # hand-made slices whose round trip through the first propagation unit has
    # gain one: r_A r'_B then has the eigenvalue 1 and 1 - r_A r'_B is singular.
    # The sampler reports q = 0, which would prove the cavity harmless for a
    # contraction; an amplifying medium, or a batch the polar fallback
    # replaced (q = None), must keep the SVD guard anyway.
    n, seed, decay = 2, 5, 2.0
    theta = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1]).uniform(
        0.0, 2.0 * np.pi, (3, n))[0, 0]
    gain = math.exp(1.0 / decay) if sign else 1.0
    first = np.eye(2 * n, dtype=complex)
    first[0, n] = 0.5  # r of the first slice
    second = np.eye(2 * n, dtype=complex)
    second[n, 0] = np.exp(-2j * theta) / (0.5 * gain)  # r' of the second slice
    stack = np.array([first, second, np.eye(2 * n)])

    def rigged(n_modes, eps, rng, count, out):
        out[...] = stack[:count]
        return out, None if fallback else np.zeros(count)

    monkeypatch.setattr(md, "_slice_unitaries", rigged)
    spec = md.MediumSpec(n, 3, 0.32, sign, decay if sign else None,
                         -1.0 if sign else 0.0, seed)
    with pytest.raises(NearSingularCavity):
        md.build_medium(spec)


def test_deviation_from_unitarity():
    rng = np.random.default_rng(8)
    unitary = md.sample_slice(4, 0.3, rng)
    assert np.max(np.abs(md.deviation_from_unitarity(unitary))) < 1e-12

    lossy = scalar_channel(math.sqrt(0.6), md.ABSORBING)
    assert np.allclose(md.deviation_from_unitarity(lossy), 0.4 * np.eye(2), atol=1e-14)


def test_medium_spec_validation():
    with pytest.raises(ValueError):
        md.MediumSpec(0, 1, 0.3, 0, None, 0.0, 1)
    with pytest.raises(ValueError):
        md.MediumSpec(2, -1, 0.3, 0, None, 0.0, 1)
    with pytest.raises(ValueError):
        md.MediumSpec(2, 1, 0.3, 1, None, 0.1, 1)  # missing decay length
    with pytest.raises(ValueError):
        md.MediumSpec(2, 1, 0.3, 1, 10.0, -0.1, 1)  # absorbing needs f >= 0
    with pytest.raises(ValueError):
        md.MediumSpec(2, 1, 0.3, -1, 10.0, 0.1, 1)  # amplifying needs f in [-1, 0)
    with pytest.raises(ValueError):
        md.MediumSpec(2, 1, 0.3, 2, 10.0, 0.1, 1)


def test_scattering_matrix_validation_errors():
    bad = md.ScatteringMatrix.from_full(1.5 * np.eye(4), md.PASSIVE)
    with pytest.raises(PhysicalityError):
        bad.validate()
    shrunk = md.ScatteringMatrix.from_full(0.5 * np.eye(4), md.PASSIVE)
    with pytest.raises(PhysicalityError):
        shrunk.validate()
    overgrown = md.ScatteringMatrix.from_full(1.5 * np.eye(4), md.ABSORBING)
    with pytest.raises(PhysicalityError):
        overgrown.validate()


def test_blocks_are_immutable():
    s = md.ScatteringMatrix.identity_transmission(2)
    with pytest.raises(ValueError):
        s.t[0, 0] = 2.0


def test_calibrate_validations():
    with pytest.raises(ValueError):
        md.calibrate_mean_free_path(4, 0.3, [10, 20], 5, 1)
    with pytest.raises(ValueError):
        md.calibrate_mean_free_path(4, 0.3, [10, 20, 30], 5, 1)  # span < 4


def test_calibrate_monotone_in_strength():
    values = []
    for eps in (0.25, 0.35, 0.5):
        cal = md.calibrate_mean_free_path(8, eps, [6, 12, 24, 48], 60, seed=5)
        values.append(cal.mean_free_path)
    assert values[0] > values[1] > values[2]


@pytest.mark.slow
def test_calibrate_fixture_n25(workers):
    # regression fixture from the first 500-sample run: l = 200.12 +- 0.29
    cal = md.calibrate_mean_free_path(25, 0.1, [8, 16, 32, 64], 500, seed=42, workers=workers)
    assert 195 < cal.mean_free_path < 205
    assert cal.stderr / cal.mean_free_path < 0.05
    assert cal.residual_rel < 0.10
    assert abs(cal.intercept - 1.0) < 0.05


@pytest.mark.slow
def test_ohms_law_at_ten_mean_free_paths(workers):
    cal = md.calibrate_mean_free_path(25, 0.32, [10, 20, 40, 80], 150, seed=7, workers=workers)
    length = 10 * cal.mean_free_path
    spec = md.MediumSpec(25, length, 0.32, 0, None, 0.0, 7)
    seeds = [md.derive_sample_seed(7, 1000 + k) for k in range(150)]
    g = np.array(md.map_seed_chunks(md._transmittances, seeds, workers, spec, [length]))[:, 0]
    observed = 25 / g.mean()
    stderr = 25 / g.mean() ** 2 * g.std(ddof=1) / math.sqrt(g.size)
    assert abs(observed - 11.0) < 3 * stderr + 0.01 * 11.0


def _blocks(matrix):
    return (matrix.r_prime, matrix.t_prime, matrix.t, matrix.r)


_SIGMA_RANGE = {md.PASSIVE: (1.0, 1.0), md.ABSORBING: (0.2, 0.95), md.AMPLIFYING: (1.0, 1.3)}


def _random_medium(rng, n_modes, kind):
    low, high = _SIGMA_RANGE[kind]
    return random_contraction(rng, n_modes, low, high, kind)


def _cavity_condition(a, b):
    return np.linalg.cond(np.eye(a.n_modes) - a.r @ b.r_prime)


@given(n_modes=st.integers(1, 4), kind=st.sampled_from(sorted(_SIGMA_RANGE)),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_star_product_algebra(n_modes, kind, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (_random_medium(rng, n_modes, kind) for _ in range(3))
    # amplifying cavities can sit near their lasing poles; keep the cases
    # whose every cavity factor is well conditioned
    assume(max(_cavity_condition(a, b), _cavity_condition(b, c)) < 1e3)
    ab, bc = md.star_compose(a, b), md.star_compose(b, c)
    assume(max(_cavity_condition(ab, c), _cavity_condition(a, bc)) < 1e3)
    ident = md.ScatteringMatrix.identity_transmission(n_modes, kind)
    assert np.array_equal(md.star_compose(ident, a).full, a.full)
    assert np.array_equal(md.star_compose(a, ident).full, a.full)
    left, right = md.star_compose(ab, c), md.star_compose(a, bc)
    assert np.max(np.abs(left.full - right.full)) < 1e-9
    # the kind survives composition: unitary, contractive or gain-positive
    for composite in (ab, left):
        assert composite.medium_kind == kind
        composite.validate()


@given(n_modes=st.integers(1, 4), kind=st.sampled_from(sorted(_SIGMA_RANGE)),
       opened=st.booleans(), guards=st.lists(st.booleans(), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_stacked_star_blocks_equal_per_matrix_calls(n_modes, kind, opened, guards, seed):
    # a stack whose r_A all vanish takes the cavity-free formula, as each of
    # its matrices does alone; the guard is per sample
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in guards:
        a, b = _random_medium(rng, n_modes, kind), _random_medium(rng, n_modes, kind)
        a_blocks = _blocks(a)
        if opened:
            a_blocks = a_blocks[:3] + (np.zeros_like(a.r),)
        pairs.append((a_blocks, _blocks(b)))
    assume(all(np.linalg.cond(np.eye(n_modes) - a[3] @ b[0]) < 1e6 for a, b in pairs))
    guard = np.array(guards)
    stacked = md._star_blocks(tuple(np.array(x) for x in zip(*(a for a, _ in pairs))),
                              tuple(np.array(x) for x in zip(*(b for _, b in pairs))), guard)
    for k, (a, b) in enumerate(pairs):
        single = md._star_blocks(a, b, guard[k])
        for whole, block in zip(stacked, single):
            assert np.array_equal(whole[k], block)


@pytest.mark.parametrize("fail_period", [md.SAMPLING_BLOCK, md.SAMPLING_BLOCK + 2])
def test_batch_sample_at_threshold_leaves_the_others_unchanged(monkeypatch, fail_period):
    # one amplifying sample of a batch gets hand-made slices: identity slices,
    # then at period fail_period - 1 a slice with r = 0.5 and at fail_period
    # one whose r' closes a round trip of gain one through the propagation
    # unit between them, as in test_cavity_at_threshold_raises.  At
    # fail_period = SAMPLING_BLOCK the failure hits the first period of a
    # sampling block, which the survivors must not draw a second time.
    n, decay, n_periods = 3, 20.0, 40
    spec = md.MediumSpec(n, n_periods, 0.32, -1, decay, -1.0, 0)
    seeds = [md.derive_sample_seed(9, k) for k in range(5)]
    doomed = seeds[2]
    theta = np.random.default_rng(np.random.SeedSequence(doomed).spawn(2)[1]).uniform(
        0.0, 2.0 * np.pi, (n_periods, n))[fail_period - 1, 0]
    stack = np.repeat(np.eye(2 * n, dtype=complex)[None], n_periods, axis=0)
    stack[fail_period - 1, 0, n] = 0.5
    stack[fail_period, n, 0] = np.exp(-2j * theta) / (0.5 * math.exp(1.0 / decay))
    drawn = []
    real = md._slice_unitaries

    def rigged(n_modes, eps, rng, count, out):
        if rng.bit_generator.seed_seq.entropy != doomed:
            return real(n_modes, eps, rng, count, out=out)
        start = len(drawn)
        drawn.extend(range(count))
        out[...] = stack[start:start + count]
        return out, np.zeros(count)

    monkeypatch.setattr(md, "_slice_unitaries", rigged)
    lengths = [10, fail_period - 0.5, fail_period, fail_period + 0.5, 30, n_periods]
    batch = list(md.build_batch_checkpoints(spec, seeds, lengths))
    for seed, row in zip(seeds, batch):
        if seed == doomed:
            continue
        alone = md.build_medium_checkpoints(dataclasses.replace(spec, seed=seed), lengths)
        assert all(np.array_equal(got.full, want.full) for got, want in zip(row, alone))
    failed = batch[seeds.index(doomed)]
    assert all(isinstance(entry, md.ScatteringMatrix) for entry in failed[:3])
    assert isinstance(failed[3], NearSingularCavity)
    assert all(entry is failed[3] for entry in failed[3:])
    drawn.clear()
    alone = md.build_medium_checkpoints(dataclasses.replace(spec, seed=doomed), lengths[:3])
    assert all(np.array_equal(got.full, want.full) for got, want in zip(failed, alone))
