"""Self-check suite behind the ``validate`` command.

``fast`` runs the property checks of every module plus the Fock oracle at one
fixture; ``full`` adds Monte Carlo versus closed-form comparisons.  Each check
returns silently on success and raises AssertionError (or any exception) on
failure; the runner turns that into a per-check report and a process exit
code.  Checks test through ``_expect``, never ``assert``, which ``python -O``
would strip.

The fast checks are the only copy of their properties: the test suite runs
each of them as a test of its own instead of asserting the same property
again.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import analytics as an
from . import ensemble as en
from . import fock
from . import medium as md
from . import photostatistics as ps
from .errors import ThresholdReached, ValidityWarning

# frozen 22-digit evaluations of the direct-detection brackets: a corrupted
# formula cannot reproduce these
BRACKET_ABSORBING_S1 = 0.570338560591680841533
BRACKET_ABSORBING_S2 = 1.571335007446377051558
BRACKET_AMPLIFYING_S1 = -0.7975470963839293817886
BRACKET_AMPLIFYING_S2 = -6.878974998124291584899


def _expect(condition, message: str = "") -> None:
    """A check's assertion as an explicit raise, so that ``python -O`` keeps it."""
    if not condition:
        raise AssertionError(message)


def haar_unitary(rng, dim: int) -> np.ndarray:
    """Haar-random dim x dim unitary: QR of a complex Gaussian matrix, phases fixed."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def scalar_channel(amplitude: complex, kind: str) -> md.ScatteringMatrix:
    """One-mode medium with transmission amplitude ``amplitude`` and no reflection."""
    zero = np.zeros((1, 1), dtype=complex)
    t = amplitude * np.ones((1, 1), dtype=complex)
    return md.ScatteringMatrix(zero, t, t, zero, kind)


def random_contraction(rng, n_modes: int, smin=0.2, smax=0.95,
                       kind=md.ABSORBING) -> md.ScatteringMatrix:
    """Random 2N x 2N scattering matrix U diag(sigma) V, sigma uniform in [smin, smax]."""
    u = haar_unitary(rng, 2 * n_modes)
    v = haar_unitary(rng, 2 * n_modes)
    sigma = rng.uniform(smin, smax, 2 * n_modes)
    return md.ScatteringMatrix.from_full(u @ np.diag(sigma) @ v, kind)


def absorbing_spec(n_modes, length, seed, decay=400.0, occupation=1e-3,
                   scatter_strength=0.32) -> md.MediumSpec:
    return md.MediumSpec(n_modes, length, scatter_strength, 1, decay, occupation, seed)


def random_homodyne_case(rng, n=3):
    """Random contraction, squeezed state, homodyne detection and occupation."""
    s = random_contraction(rng, n)
    state = ps.SqueezedInput(complex(rng.normal(), rng.normal()),
                             float(rng.uniform(0.05, 1.2)),
                             float(rng.uniform(0, 2 * math.pi)),
                             int(rng.integers(0, n)))
    hom = ps.HomodyneConfig(float(rng.uniform(0.1, 0.9)), int(rng.integers(0, n)),
                            float(rng.uniform(0, 2 * math.pi)))
    config = ps.DetectionConfig(float(rng.uniform(0.3, 1.0)), homodyne=hom)
    f = float(rng.uniform(0, 0.3))
    return s, state, config, f


def check_slice_unitarity():
    rng = np.random.default_rng(10)
    eye = np.eye(16)
    for _ in range(5):
        s = md.sample_slice(8, 0.1, rng).full
        _expect(np.max(np.abs(s @ s.conj().T - eye)) < 1e-12)
        _expect(np.max(np.abs(s.conj().T @ s - eye)) < 1e-12)


def check_star_identity_element():
    rng = np.random.default_rng(4)
    ident = md.ScatteringMatrix.identity_transmission(6)
    b = md.sample_slice(6, 0.4, rng)
    for pair in ((ident, b), (b, ident)):
        c = md.star_compose(*pair)
        _expect(np.max(np.abs(c.full - b.full)) < 1e-14)


def check_scalar_fabry_perot():
    rng = np.random.default_rng(6)
    for _ in range(30):
        a = random_contraction(rng, 1)
        b = random_contraction(rng, 1)
        c = md.star_compose(a, b)
        expected = b.t[0, 0] * a.t[0, 0] / (1 - a.r[0, 0] * b.r_prime[0, 0])
        _expect(abs(c.t[0, 0] - expected) < 1e-12)
        _expect(abs(abs(c.t[0, 0]) ** 2 - abs(expected) ** 2) < 1e-12)  # the flux


def check_passive_composition_unitary():
    # 500 periods = 10^3 star products
    spec = md.MediumSpec(6, 500, 0.32, 0, None, 0.0, 7)
    matrix = md.build_medium(spec)
    _expect(np.max(np.abs(matrix.singular_values() - 1)) < 1e-9)


def check_absorbing_contraction():
    for decay, n_seeds in ((400.0, 40), (50.0, 30)):
        for seed in range(n_seeds):
            matrix = md.build_medium(absorbing_spec(5, 30, seed, decay))
            _expect(matrix.medium_kind == md.ABSORBING)
            _expect(np.max(matrix.singular_values()) <= 1 + 1e-10)


def check_amplifying_positivity():
    for n_modes, length, decay, n_seeds in ((5, 25, 500.0, 25), (4, 12, 200.0, 100)):
        for seed in range(n_seeds):
            spec = md.MediumSpec(n_modes, length, 0.32, -1, decay, -1.0, seed)
            matrix = md.build_medium(spec)
            deviation = md.deviation_from_unitarity(matrix)
            _expect(np.linalg.eigvalsh(deviation)[-1] <= 1e-10)  # 1 - SS+ <= 0


def check_determinism():
    spec = absorbing_spec(6, 23, 99)
    a, b = md.build_medium(spec), md.build_medium(spec)
    _expect(a.full.tobytes() == b.full.tobytes())


def check_thermal_cumulants_scalar():
    s = scalar_channel(math.sqrt(0.6), md.ABSORBING)
    k1, k2 = ps.thermal_cumulant_densities(s, ps.DetectionConfig(1.0), 0.1)
    _expect(abs(k1 - 0.04) < 1e-15 and abs(k2 - 0.0016) < 1e-15)


def check_m_element_scalar():
    s = scalar_channel(math.sqrt(0.6), md.ABSORBING)
    config = ps.DetectionConfig(1.0)
    _expect(ps.m_element(s, 0, config, 0.1, 0.0) == 0.0)
    m = ps.m_element(s, 0, config, 0.1, 0.3)
    _expect(abs(m - (-0.3 * 0.6 / (1 - 0.3 * 0.4 * 0.1))) < 1e-14)
    # a lossless medium: m = -z d [t+ t]_{m0 m0}
    unitary = md.sample_slice(3, 0.4, np.random.default_rng(26))
    transmittance = float(np.sum(np.abs(unitary.t[:, 1]) ** 2))
    for z in (0.05, -0.4, 0.7):
        m = ps.m_element(unitary, 1, ps.DetectionConfig(0.8), 0.3, z)
        _expect(abs(m + z * 0.8 * transmittance) <= 1e-12)


def check_generating_function_consistency():
    rng = np.random.default_rng(30)
    for trial in range(25):
        n = int(rng.integers(1, 4))
        s = random_contraction(rng, n)
        state = ps.SqueezedInput(
            alpha=complex(rng.normal(), rng.normal()),
            rho=float(rng.uniform(0, 0.9)),
            phi=float(rng.uniform(0, 2 * math.pi)),
            incident_mode=int(rng.integers(0, n)),
        )
        config = ps.DetectionConfig(float(rng.uniform(0.3, 1.0)))
        f = float(rng.uniform(0.0, 0.3))
        closed = ps.direct_cumulants_squeezed(s, state, config, f)
        numeric = ps.numeric_factorial_cumulants(s, state, config, f, order=2)
        _expect(abs(numeric[0] - closed.kappa1) <= 1e-6 * abs(closed.kappa1))
        _expect(abs(numeric[1] - closed.kappa2) <= 1e-6 * max(abs(closed.kappa2), 1e-12))


def check_fano_in_limits():
    for alpha in (1.7, 0.3 - 1.2j):
        _expect(ps.fano_in_squeezed(ps.SqueezedInput(alpha=alpha)) == 1.0)
    for rho in (0.1, 0.2, 0.5, 0.8, 1.3, 1.5):
        got = ps.fano_in_squeezed(ps.SqueezedInput(alpha=0, rho=rho))
        _expect(abs(got - (1 + math.cosh(2 * rho))) < 1e-12)
    large = ps.fano_in_squeezed(ps.SqueezedInput(alpha=10.0, rho=0.5))
    _expect(abs(large - math.exp(-1.0)) < 0.02)


def check_homodyne_scan_minimum():
    rng = np.random.default_rng(36)
    for trial in range(10):
        s, state, config, f = random_homodyne_case(rng)
        hom = config.homodyne
        best = ps.fano_homodyne_min(s, state, config, f)
        for k in range(64):
            phase = best.optimal_probe_phase + 2 * math.pi * k / 64
            probe = dataclasses.replace(config, homodyne=dataclasses.replace(hom, probe_phase=phase))
            value = ps.fano_homodyne(s, state, probe, f).value
            _expect(value >= best.value - 1e-10)
            if k == 0:  # at the reported optimal phase
                _expect(abs(value - best.value) <= 1e-12)
        # closed form of the minimum, with the noise element read off 1 - S S+
        dk = config.efficiency * hom.coupling
        t_nm = s.t[hom.probe_mode, state.incident_mode]
        noise = md.deviation_from_unitarity(s)[s.n_modes + hom.probe_mode,
                                               s.n_modes + hom.probe_mode].real
        expected = (1 - 2 * dk * abs(t_nm) ** 2 * math.exp(-state.rho) * math.sinh(state.rho)
                    + 2 * dk * f * noise)
        _expect(abs(best.value - expected) <= 1e-12 * max(1.0, abs(expected)))


def check_breakdown_identity():
    rng = np.random.default_rng(37)
    for trial in range(20):
        s, state, config, f = random_homodyne_case(rng)
        for breakdown in (
            ps.fano_direct(s, state, config, f),
            ps.fano_homodyne(s, state, config, f),
            ps.fano_homodyne_min(s, state, config, f),
        ):
            total = 1 + breakdown.incident_term + breakdown.beating_term + breakdown.probe_term
            _expect(abs(breakdown.value - total) < 1e-12)


def check_analytic_brackets_pinned():
    _expect(abs(an.direct_bracket_absorbing(1.0) - BRACKET_ABSORBING_S1) < 1e-13)
    _expect(abs(an.direct_bracket_absorbing(2.0) - BRACKET_ABSORBING_S2) < 1e-13)
    _expect(abs(an.direct_bracket_amplifying(1.0) - BRACKET_AMPLIFYING_S1) < 1e-13)
    _expect(abs(an.direct_bracket_amplifying(2.0) - BRACKET_AMPLIFYING_S2) < 1e-12)


def check_universal_absorbing_limit():
    for s in (12.0, 14.0, 20.0):
        for fano_in in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            w = an.WaveguideRatios(s=s, l_over_xi=0.01, efficiency=1.0,
                                   occupation=1e-3, fano_in=fano_in)
            _expect(abs(an.fano_direct_absorbing_avg(w) - 1.0015) < 1e-6)


def check_threshold_divergence():
    w = an.WaveguideRatios(s=math.pi - 1e-3, l_over_xi=0.1, efficiency=1.0,
                           occupation=-1.0, fano_in=1.0)
    _expect(an.fano_direct_amplifying_avg(w) > 1e3)
    homodyne = dataclasses.replace(w, fano_in=None, rho=0.5, coupling=0.5, n_modes=10)
    for s in (math.pi, 3.5):
        for average, ratios in ((an.fano_direct_amplifying_avg, w),
                                (an.fano_homo_min_amplifying_avg, homodyne)):
            try:
                average(dataclasses.replace(ratios, s=s))
            except ThresholdReached:
                continue
            raise AssertionError(f"no ThresholdReached from {average.__name__} at s = {s}")


def check_analytic_continuation():
    import cmath

    rng = np.random.default_rng(50)
    for s in rng.uniform(0.2, 3.0, 20):
        sh = cmath.sinh(1j * s)
        coth = cmath.cosh(1j * s) / sh
        rotated = 3 - (2 * 1j * s + coth) / sh - (1j * s * coth - 1) / sh**2 + 1j * s / sh**3
        value = an.direct_bracket_amplifying(s)
        _expect(abs(rotated - value) < 1e-11)
        _expect(abs(rotated.imag) < 1e-12)
        _expect(abs(rotated.real - value) <= max(1e-10 * abs(value), 1e-12))


def check_fock_oracle_lossy():
    state = fock.squeezed_coherent_fock(1.3, 0.5, 0.7, 120)
    out = fock.lossy_channel_photostats(state, math.sqrt(0.6), 0.1)
    s = scalar_channel(math.sqrt(0.6), md.ABSORBING)
    closed = ps.direct_cumulants_squeezed(
        s, ps.SqueezedInput(1.3, 0.5, 0.7), ps.DetectionConfig(1.0), 0.1)
    _expect(abs(out.kappa1 - closed.kappa1) <= 1e-13 * closed.kappa1)
    _expect(abs(out.kappa2 - closed.kappa2) <= 1e-13 * abs(closed.kappa2))


def check_fock_oracle_amplifying():
    state = fock.squeezed_coherent_fock(1.0, 0.4, 0.0, 120)
    out = fock.amplifying_channel_photostats(state, math.sqrt(1.5))
    s = scalar_channel(math.sqrt(1.5), md.AMPLIFYING)
    closed = ps.direct_cumulants_squeezed(
        s, ps.SqueezedInput(1.0, 0.4, 0.0), ps.DetectionConfig(1.0), -1.0)
    _expect(abs(out.kappa1 - closed.kappa1) <= 1e-13 * closed.kappa1)
    _expect(abs(out.kappa2 - closed.kappa2) <= 1e-13 * abs(closed.kappa2))


def check_zero_length_ensemble():
    state = ps.SqueezedInput(alpha=1.2, rho=0.4, phi=0.3, incident_mode=1)
    config = ps.DetectionConfig(0.8, homodyne=ps.HomodyneConfig(0.5, 1))
    spec = md.MediumSpec(4, 0.0, 0.32, 1, 400.0, 1e-3, 0)
    direct0, homodyne0 = an.zero_length_limits(state, config)

    def kept(n_samples, probe_mode=0):
        per_length = en.collect_statistics(spec, [spec.total_length], n_samples, 7,
                                           incident_mode=state.incident_mode,
                                           probe_mode=probe_mode, mode_average=False)
        return en.drop_skipped(per_length[0])

    def homodyne(probe_mode):
        return en.assemble_homodyne_fano(kept(4, probe_mode)[0], state.rho, state.phi, 0.8,
                                         0.5, spec.occupation)

    stats, n_skipped = kept(5)
    value, stderr = en.assemble_direct_fano(stats, ps.fano_in_squeezed(state), 0.8,
                                            spec.occupation)
    _expect(value == direct0 and stderr == 0.0)
    _expect(len(stats) == 5 and n_skipped == 0)
    value_h, stderr_h = homodyne(1)
    _expect(abs(value_h - homodyne0) <= 1e-14 and stderr_h < 1e-15)
    # a probe in another mode than the incident one sees no signal
    _expect(abs(homodyne(3)[0] - 1.0) <= 1e-14)


FAST_CHECKS = [
    ("slice unitarity", check_slice_unitarity),
    ("star identity element", check_star_identity_element),
    ("scalar Fabry-Perot flux", check_scalar_fabry_perot),
    ("passive composition unitary", check_passive_composition_unitary),
    ("absorbing contraction", check_absorbing_contraction),
    ("amplifying positivity", check_amplifying_positivity),
    ("determinism", check_determinism),
    ("thermal cumulants scalar", check_thermal_cumulants_scalar),
    ("m element scalar", check_m_element_scalar),
    ("generating function vs closed forms", check_generating_function_consistency),
    ("incident Fano limits", check_fano_in_limits),
    ("homodyne scan minimum", check_homodyne_scan_minimum),
    ("breakdown identity", check_breakdown_identity),
    ("analytic brackets pinned", check_analytic_brackets_pinned),
    ("universal absorbing limit", check_universal_absorbing_limit),
    ("threshold divergence", check_threshold_divergence),
    ("analytic continuation", check_analytic_continuation),
    ("fock oracle lossy fixture", check_fock_oracle_lossy),
    ("fock oracle amplifying fixture", check_fock_oracle_amplifying),
    ("zero-length ensemble limits", check_zero_length_ensemble),
]


def _full_checks(mc_samples: int):
    # the Monte Carlo checks run on every core this process may use
    workers = md.usable_cores()

    def check_mc_passive_ohm():
        cal = md.calibrate_mean_free_path(10, 0.32, [8, 16, 32, 64],
                                          max(60, mc_samples // 2), seed=21, workers=workers)
        _expect(cal.residual_rel < 0.10)

    def check_mc_direct_absorbing():
        # Monte Carlo vs the closed-form average; see the acceptance suite for
        # the per-row outcome of this comparison at the published parameters
        n_modes, l_over_xi, seed = 25, 0.1, 31
        cal = md.calibrate_mean_free_path(n_modes, 0.32, [8, 16, 32, 64],
                                          max(80, mc_samples // 2), seed=22, workers=workers)
        s_values = [0.5, 1.0, 2.0]
        base = en.spec_for_ratios(n_modes, max(s_values), l_over_xi, cal.mean_free_path,
                                  1, 1e-3, 0.32, 0)
        xi = cal.mean_free_path / l_over_xi
        per_length = en.collect_statistics(base, [s * xi for s in s_values],
                                           mc_samples, seed, workers=workers)
        failures = []
        for s, stats in zip(s_values, per_length):
            mean, stderr = en.assemble_direct_fano(en.drop_skipped(stats)[0], 0.0, 1.0,
                                                   base.occupation)
            w = an.WaveguideRatios(s=s, l_over_xi=l_over_xi, efficiency=1.0,
                                   occupation=1e-3, fano_in=0.0)
            target = an.fano_direct_absorbing_avg(w)
            tolerance = max(3 * stderr, 0.05 * abs(target - 1.0) + 0.01)
            if abs(mean - target) > tolerance:
                failures.append(f"s={s}: MC {mean:.4f} vs {target:.4f}")
        _expect(not failures, "; ".join(failures))

    return [
        ("MC passive Ohm fit", check_mc_passive_ohm),
        ("MC direct absorbing vs closed form", check_mc_direct_absorbing),
    ]


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    detail: str = ""


def run_checks(level: str = "fast", mc_samples: int = 300) -> list[CheckOutcome]:
    """Run the named level's checks; never raises, returns per-check outcomes."""
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    checks = list(FAST_CHECKS)
    if level == "full":
        checks += _full_checks(mc_samples)
    outcomes = []
    for name, func in checks:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ValidityWarning)
                func()
            outcomes.append(CheckOutcome(name, True))
        except Exception as exc:  # report, never abort the suite
            outcomes.append(CheckOutcome(name, False, f"{type(exc).__name__}: {exc}"))
    return outcomes
