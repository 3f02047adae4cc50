import dataclasses
import math
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sqtransport import ensemble as en
from sqtransport import medium as md
from sqtransport import validation
from sqtransport.errors import FitFailed, NearSingularCavity, PhysicalityError

from conftest import absorbing_spec, random_contraction, scalar_channel

# each property's one copy is a fast check of ``validation``; test_cli's
# test_fast_check runs every check, and these names keep this module's test ids
test_star_identity_element = validation.check_star_identity_element
test_star_scalar_fabry_perot = validation.check_scalar_fabry_perot
test_build_passive_long_chain_unitary = validation.check_passive_composition_unitary
test_build_absorbing_contraction = validation.check_absorbing_contraction
test_build_amplifying_gain_positive = validation.check_amplifying_positivity
test_build_deterministic_bitwise = validation.check_determinism


def test_slice_first_order_in_strength():
    # every mode of the core reflects delta = eps^2 / (2 + eps^2) ~ eps^2 / 2
    for eps in (1e-3, 0.1, 0.45, 3.0):
        reflection, transmission = md.core_amplitudes(eps)
        delta = reflection**2
        assert delta == pytest.approx(eps**2 / (2 + eps**2), rel=1e-15)
        assert 1 - delta == pytest.approx(transmission**2, rel=1e-15)
        assert reflection <= eps / math.sqrt(2)


def test_core_and_haar_draws_are_unitary():
    for eps in (1e-7, 0.1, 0.45, 3.0, 1e7):
        reflection, transmission = md.core_amplitudes(eps)
        core = np.array([[reflection, transmission], [transmission, -reflection]])
        assert np.max(np.abs(core @ core.T - np.eye(2))) <= 4e-16
    rng = np.random.default_rng(3)
    for n in (1, 5, 50):
        draws = md._haar_unitaries(rng, np.empty((3, 2, n, n), dtype=complex))
        gram = draws @ np.conj(draws).swapaxes(-1, -2)
        assert np.max(np.abs(gram - np.eye(n))) < 1e-13


def eigh_haar_unitaries(rng, count, n_modes):
    """Reference for the Haar law: eigenvectors of drawn GUE matrices with uniform phases."""
    draws = rng.standard_normal((count, 2, n_modes, n_modes))
    x, y = draws[:, 0], draws[:, 1]
    k = np.empty((count, n_modes, n_modes), dtype=complex)
    k.real = x + x.transpose(0, 2, 1)
    k.imag = y - y.transpose(0, 2, 1)
    _, v = np.linalg.eigh(k)
    return v * np.exp(2j * np.pi * rng.uniform(size=(count, 1, n_modes)))


def _slice_statistics(haar, n_modes, eps, seed, count):
    """Re tr S / 2N, |tr S|^2 / 2N, sum |t|^4 / N and Re tr t / N of isotropic slices."""
    u, v, u_right, v_right = haar(np.random.default_rng(seed), count).reshape(
        count, 4, n_modes, n_modes).transpose(1, 0, 2, 3)
    reflection, transmission = md.core_amplitudes(eps)
    t = transmission * (v @ u_right)
    trace = reflection * (np.trace(u @ u_right, axis1=1, axis2=2)
                          - np.trace(v @ v_right, axis1=1, axis2=2))
    values = np.column_stack([
        trace.real / (2 * n_modes),
        np.abs(trace) ** 2 / (2 * n_modes),
        np.sum(np.abs(t) ** 4, axis=(1, 2)) / n_modes,
        np.trace(t, axis1=1, axis2=2).real / n_modes,
    ])
    return values.mean(axis=0), values.std(axis=0, ddof=1) / math.sqrt(count)


@pytest.mark.parametrize("n_modes,eps,count", [(4, 0.45, 6400), (25, 0.45, 960), (8, 0.1, 6400)])
def test_slice_law_matches_eigh_reference(n_modes, eps, count):
    # the slice's Haar factors come from a QR with its phase fix; their law
    # must be that of GUE eigenvectors with uniform phases
    def qr_haar(rng, count):
        return md._haar_unitaries(rng, np.empty((count * 4, n_modes, n_modes), dtype=complex))

    def eigh_haar(rng, count):
        return eigh_haar_unitaries(rng, count * 4, n_modes)

    mean, stderr = _slice_statistics(qr_haar, n_modes, eps, 71, count)
    ref_mean, ref_stderr = _slice_statistics(eigh_haar, n_modes, eps, 72, count)
    assert np.all(np.abs(mean - ref_mean) < 4 * np.hypot(stderr, ref_stderr))


@pytest.mark.parametrize("sign,decay,magnitude", [
    (0, None, 1.0),
    (1, 10.0, math.exp(-0.05)),
    (-1, 10.0, math.exp(0.05)),
])
def test_propagation_unit_amplitudes(sign, decay, magnitude):
    # at a vanishing scatter strength a period is the interface alone:
    # t = a X and t' = a Y, so every singular value of t and t' after L
    # periods is a^L, and r, r' vanish
    length = 7
    spec = md.MediumSpec(5, length, 1e-9, sign, decay, {0: 0.0, 1: 1e-3, -1: -1.0}[sign], 3)
    built = md.build_medium(spec)
    for block in (built.t, built.t_prime):
        assert np.allclose(np.linalg.svd(block, compute_uv=False), magnitude**length,
                           rtol=1e-13, atol=0)
    assert np.max(np.abs(built.r)) < 1e-8 and np.max(np.abs(built.r_prime)) < 1e-8


def test_star_two_passive_slices_unitary():
    rng = np.random.default_rng(5)
    c = md.star_compose(*(random_contraction(rng, 5, 1.0, 1.0, md.PASSIVE) for _ in range(2)))
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


@given(n_modes=st.integers(1, 6), eps=st.floats(0.01, 3.0),
       sigma=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_cavity_condition_within_constant_bound(n_modes, eps, sigma, seed):
    # for a passive or absorbing composite ||r||_2 <= 1, so the loop's cavity
    # factor 1 - sqrt(delta) r has cond <= (1 + sqrt(delta)) / (1 - sqrt(delta))
    r = random_contraction(np.random.default_rng(seed), n_modes, sigma, 1.0).r
    reflection = md.core_amplitudes(eps)[0]
    bound = (1 + reflection) / (1 - reflection)
    assert np.linalg.cond(np.eye(n_modes) - reflection * r) <= bound * (1 + 1e-12)


def phase_interface(rng, n_modes):
    """The loop's X and Y of one period, as explicit matrices from its phase draws."""
    phases = md._interface_phases(rng, np.empty((1, 6, n_modes), dtype=complex))[0]
    return validation.interface_matrix(phases[2::-1]), validation.interface_matrix(phases[3:])


def haar_interface(rng, n_modes):
    """X and Y of one period as two independent Haar unitaries."""
    return md._haar_unitaries(rng, np.empty((2, n_modes, n_modes), dtype=complex))


def _star_fold(spec, n_periods, interface=phase_interface):
    """Composites after each period, folded with the public star_compose.

    A period is the scalar core followed by the interface t = a X, t' = a Y,
    with X and Y from ``interface`` on the sample's stream.
    """
    n = spec.n_modes
    rng = np.random.default_rng(spec.seed)
    reflection, transmission = md.core_amplitudes(spec.scatter_strength)
    eye, zero = np.eye(n), np.zeros((n, n))
    core = md.ScatteringMatrix(reflection * eye, transmission * eye, transmission * eye,
                               -reflection * eye)
    amplitude = (1.0 if spec.loss_gain_sign == 0
                 else math.exp(-spec.loss_gain_sign / (2.0 * spec.ballistic_decay_length)))
    composite = md.ScatteringMatrix.identity_transmission(n, spec.medium_kind)
    out = [composite]
    for _ in range(n_periods):
        x, y = interface(rng, n)
        composite = md.star_compose(composite, core)
        composite = md.star_compose(composite, md.ScatteringMatrix(
            zero, amplitude * y, amplitude * x, zero, spec.medium_kind))
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
        # the loop's inverse and grouping differ from star_compose's solves;
        # relative to the largest entry, which exceeds 1 for gain media
        reference = folded[math.ceil(length)].full
        assert np.max(np.abs(captured.full - reference)) <= 1e-12 * np.max(np.abs(reference))
        assert captured.medium_kind == spec.medium_kind


_VIEWS = [lambda a: a, lambda a: a[:2], lambda a: a[1:], lambda a: a[:, ::2],
          lambda a: a.swapaxes(0, 1)]


@pytest.mark.parametrize("n_modes", [3, 10, 25, 50, 64, 97])
def test_stacked_fft_equals_per_matrix_calls(n_modes):
    # the loop's batch independence rests on this: numpy's FFT of a stack,
    # in place or not and on strided views, is each matrix's FFT bit for bit
    rng = np.random.default_rng(n_modes)
    for size in range(1, 17):
        whole = rng.standard_normal((3, size, n_modes, n_modes, 2)).view(complex)[..., 0]
        for axis in (-2, -1):
            alone = np.array([np.fft.fft(matrix, axis=axis, norm="ortho")
                              for matrix in whole.reshape(-1, n_modes, n_modes)])
            alone = alone.reshape(whole.shape)
            for view in _VIEWS:
                in_place = view(whole.copy())
                np.fft.fft(in_place, axis=axis, norm="ortho", out=in_place)
                assert np.array_equal(np.fft.fft(view(whole), axis=axis, norm="ortho"),
                                      view(alone))
                assert np.array_equal(in_place, view(alone))


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("spec", _SPECS, ids=_SPEC_IDS)
def test_checkpoints_independent_of_sampling_block(monkeypatch, spec, block):
    # per-period draws continue one stream, and the stacked fft acts row by
    # row, so the block size leaves every medium bitwise unchanged
    seeds = [md.derive_sample_seed(spec.seed, k) for k in range(3)]
    lengths = [7, md.SAMPLING_BLOCK + 0.5, 33]
    default = list(md.build_batch_checkpoints(spec, seeds, lengths))
    monkeypatch.setattr(md, "SAMPLING_BLOCK", block)
    for got, want in zip(md.build_batch_checkpoints(spec, seeds, lengths), default):
        assert all(np.array_equal(a.full, b.full) for a, b in zip(got, want))


def _loop_peak(monkeypatch, n_modes):
    """Traced peak of one full batch's disorder loop, its checkpoint validation left out."""
    monkeypatch.setattr(md.ScatteringMatrix, "validate", lambda self: None)
    spec = absorbing_spec(n_modes, 40, seed=5, decay=40.0, scatter_strength=0.45)
    seeds = [md.derive_sample_seed(5, k) for k in range(md._batch_size(n_modes))]
    tracemalloc.start()
    try:
        list(md.build_batch_checkpoints(spec, seeds, [40]))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _live_bytes(n, block, size):
    """The loop's whole live set: the phase buffer, the drawing of one sample's
    block, the composites with one period's temporaries and numpy's buffers."""
    return (n * (md._PHASE_BYTES * size * block + md._DRAWING_BYTES * block)
            + 16 * n * n * md._STACK_ARRAYS * size + md._BUFFER_BYTES)


def test_slice_buffers_stay_within_batch_bytes(monkeypatch):
    block = md.SAMPLING_BLOCK
    for n in range(1, 201):
        size = md._batch_size(n)
        if _live_bytes(n, block, 1) <= md.BATCH_BYTES:
            # the largest batch that fits
            assert _live_bytes(n, block, size) <= md.BATCH_BYTES < _live_bytes(n, block, size + 1)
        else:
            assert size == 1, n
    # one sample fits up to N = 69
    assert _live_bytes(69, block, 1) <= md.BATCH_BYTES < _live_bytes(70, block, 1)
    assert [md._batch_size(n) for n in (10, 25, 50)] == [32, 7, 1]
    # and the count holds for what the loop really allocates, beyond the budget too
    for n in (10, 25, 50):
        assert _loop_peak(monkeypatch, n) <= md.BATCH_BYTES, n
    assert _loop_peak(monkeypatch, 100) <= _live_bytes(100, block, 1)


def test_sampler_draws_at_most_one_sampling_block_per_call(monkeypatch):
    counts = []
    real = md._interface_phases

    def recording(rng, out):
        counts.append(out.shape[0])
        return real(rng, out)

    monkeypatch.setattr(md, "_interface_phases", recording)
    md.build_medium(absorbing_spec(50, 20, seed=3, decay=40.0, scatter_strength=0.45))
    assert max(counts) == md.SAMPLING_BLOCK
    assert sum(counts) == 20


@pytest.mark.parametrize("spec", _SPECS, ids=_SPEC_IDS)
def test_checkpoints_independent_of_batch_bytes(monkeypatch, spec):
    # a small budget shrinks the batch to one sample; every medium stays
    # bitwise the same
    seeds = [md.derive_sample_seed(spec.seed, k) for k in range(3)]
    lengths = [7, 16.5, 33]
    default = list(md.build_batch_checkpoints(spec, seeds, lengths))
    monkeypatch.setattr(md, "BATCH_BYTES", 5000)
    assert md._batch_size(spec.n_modes) == 1
    for got, want in zip(md.build_batch_checkpoints(spec, seeds, lengths), default):
        assert all(np.array_equal(a.full, b.full) for a, b in zip(got, want))


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
    # at N = 50 the loop's live set stays within BATCH_BYTES; beyond the
    # budget's reach it is one sample's, 2.25 MB at N = 100.  One more
    # BATCH_BYTES covers the checkpoints of two samples and their validation:
    # the traced peaks read 0.97 MB at N = 50 and 3.20 MB at N = 100 (numpy 2.4.6)
    assert _traced_build_peak(50) < 2 * md.BATCH_BYTES
    assert _traced_build_peak(100) < _live_bytes(100, md.SAMPLING_BLOCK, 1) + md.BATCH_BYTES


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


def _rigged_draws(monkeypatch, doomed, draws):
    """Make the sample of seed ``doomed`` take ``draws`` (periods, 6, N) as its phases."""
    real = md._interface_phases
    taken = []

    def rigged(rng, out):
        if rng.bit_generator.seed_seq.entropy != doomed:
            return real(rng, out)
        start = len(taken)
        taken.extend(range(out.shape[0]))
        out[...] = draws[start:start + out.shape[0]]
        return out

    monkeypatch.setattr(md, "_interface_phases", rigged)
    return taken


@pytest.mark.parametrize("sign,eps", [(-1, 0.32), (0, 1e7)], ids=["amplifying", "opaque-core"])
def test_cavity_at_threshold_raises(monkeypatch, sign, eps):
    # hand-made phases: all 1 make X = Y = F^2 the DFT parity permutation P,
    # and a last layer diag(y, 1) of Y makes r after the first period
    # -a^2 sqrt(delta) P^2 diag(y, 1) = diag(1 / sqrt(delta), ...) up to
    # rounding, so the second period's cavity factor 1 - sqrt(delta) r is
    # singular.  An amplifying medium keeps the guard, and so does a core
    # that reflects so strongly (delta = 1 - 2e-14) that the constant bound
    # exceeds CONDITION_LIMIT; y is a unit phase there.
    n, seed, decay = 2, 5, 2.0
    delta = md.core_amplitudes(eps)[0] ** 2
    gain = math.exp(1.0 / decay) if sign else 1.0
    draws = np.ones((3, 6, n), dtype=complex)
    draws[0, 5, 0] = -1.0 / (gain * delta) if sign else -1.0
    taken = _rigged_draws(monkeypatch, seed, draws)
    spec = md.MediumSpec(n, 3, eps, sign, decay if sign else None, -1.0 if sign else 0.0, seed)
    first, second = md.build_medium_checkpoints(spec, [1, 2])
    assert isinstance(first, md.ScatteringMatrix) and isinstance(second, NearSingularCavity)
    taken.clear()
    with pytest.raises(NearSingularCavity):
        md.build_medium(spec)


def test_deviation_from_unitarity():
    rng = np.random.default_rng(8)
    unitary = random_contraction(rng, 4, 1.0, 1.0, md.PASSIVE)
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


@pytest.mark.parametrize("fail_period", [md.SAMPLING_BLOCK, md.SAMPLING_BLOCK + 2])
def test_batch_sample_at_threshold_leaves_the_others_unchanged(monkeypatch, fail_period):
    # one amplifying sample of a batch gets hand-made phases, all 1: X = Y is
    # the DFT parity permutation P, an involution, so its r and r' stay
    # multiples of the identity.  Then at period fail_period - 1 the last
    # layer of Y is diag(y, 1, 1) with |y| > 1, an interface of extra gain in
    # one mode, with y chosen to put that mode's round trip 1 - sqrt(delta) r
    # at zero for the next period.  At fail_period = SAMPLING_BLOCK the
    # failure hits the first period of a sampling block, which the survivors
    # must not draw a second time.
    n, decay, n_periods = 3, 20.0, 40
    spec = md.MediumSpec(n, n_periods, 0.32, -1, decay, -1.0, 0)
    seeds = [md.derive_sample_seed(9, k) for k in range(5)]
    doomed = seeds[2]
    draws = np.ones((n_periods, 6, n), dtype=complex)
    taken = _rigged_draws(monkeypatch, doomed, draws)
    lengths = [10, fail_period - 0.5, fail_period, fail_period + 0.5, 30, n_periods]
    # r of the unperturbed hand-made sample after period fail_period - 1
    reached = md.build_medium(dataclasses.replace(spec, seed=doomed, total_length=fail_period))
    taken.clear()
    draws[fail_period - 1, 5, 0] = 1.0 / (md.core_amplitudes(0.32)[0] * reached.r[0, 0])
    assert abs(draws[fail_period - 1, 5, 0]) > 1
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
    taken.clear()
    alone = md.build_medium_checkpoints(dataclasses.replace(spec, seed=doomed), lengths[:3])
    assert all(np.array_equal(got.full, want.full) for got, want in zip(failed, alone))


@pytest.mark.slow
def test_passive_universality(workers):
    # shot noise 1/3, var(tr t+t) 1/15 and Ohm's law at 5 l and 10 l, N = 25,
    # at delta(0.45) and delta(0.32)
    validation.check_passive_universality(workers=workers)


def _moments(matrix):
    tt = matrix.t.conj().T @ matrix.t
    return np.trace(tt).real, np.sum(np.abs(tt) ** 2)


def _phase_rows(seeds, spec, periods):
    """(tr t+t, tr (t+t)^2) of each seed's medium after each period count, built by the loop."""
    return [[_moments(matrix) for matrix in row]
            for row in md.build_batch_checkpoints(spec, seeds, periods)]


def _haar_rows(seeds, spec, periods):
    """The same moments of the same seeds with Haar interfaces, folded by star_compose."""
    rows = []
    for seed in seeds:
        folded = _star_fold(dataclasses.replace(spec, seed=seed), periods[-1], haar_interface)
        rows.append([_moments(folded[period]) for period in periods])
    return rows


def _mixer_statistics(moments, n_modes, passive):
    """(value, stderr) per statistic of one length; only <tr t+t>/N for an absorbing medium."""
    g = moments[:, 0]
    statistics = {"<tr t+t>/N": (g.mean() / n_modes, g.std(ddof=1) / math.sqrt(g.size) / n_modes)}
    if passive:
        statistics["shot noise"] = en._jackknife(moments, lambda m: 1.0 - m[..., 1] / m[..., 0])
        statistics["var(tr t+t)"] = en._jackknife(np.column_stack([g, g * g]),
                                                  lambda m: m[..., 1] - m[..., 0] ** 2)
    return statistics


@pytest.mark.slow
@pytest.mark.parametrize("n_modes, samples", [(4, 600), (8, 600), (25, 300)])
def test_phase_mixer_matches_haar_mixer(workers, n_modes, samples):
    # two-sample test of the loop's DFT-layer interfaces against Haar
    # interfaces: the same seeds, eps = 0.45, L = 5 l and 10 l (50 and 99
    # periods), each statistic within 3 two-sample stderr.  N = 4 and 8 reach
    # the localised regime (L up to 2.5 N l) and compare the passive shot
    # noise, var(tr t+t) and <tr t+t>/N and the absorbing <tr t+t>/N at
    # l/xi_a = 0.1; N = 25 compares the absorbing first moment
    eps = 0.45
    reflection, transmission = md.core_amplitudes(eps)
    mean_free_path = (transmission / reflection) ** 2
    periods = [math.ceil(5 * mean_free_path), math.ceil(10 * mean_free_path)]
    specs = {"absorbing": en.spec_for_ratios(n_modes, 1.0, 0.1, mean_free_path, 1, 1e-3, eps, 0)}
    if n_modes < 25:
        specs["passive"] = md.MediumSpec(n_modes, periods[-1], eps, 0, None, 0.0, 0)
    seeds = [md.derive_sample_seed(26 + n_modes, k) for k in range(samples)]
    failures = []
    for kind, spec in specs.items():
        phase, haar = (np.array(md.map_seed_chunks(rows, seeds, workers, spec, periods))
                       for rows in (_phase_rows, _haar_rows))
        for j, length in enumerate(periods):
            ours = _mixer_statistics(phase[:, j], n_modes, kind == "passive")
            reference = _mixer_statistics(haar[:, j], n_modes, kind == "passive")
            for name, (value, stderr) in ours.items():
                ref_value, ref_stderr = reference[name]
                if abs(value - ref_value) > 3 * math.hypot(stderr, ref_stderr):
                    failures.append(f"{kind} L={length} {name}: {value:.4f} +- {stderr:.4f} "
                                    f"vs Haar {ref_value:.4f} +- {ref_stderr:.4f}")
    assert not failures, "; ".join(failures)
