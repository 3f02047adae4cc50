"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  The Monte Carlo criterion (07) compares the simulator against the
published large-N constants; see the failure message and the project notes
for the quantitative analysis of the rows that the isotropic slice model
cannot reproduce.
"""

import dataclasses
import math
import time
import warnings

import numpy as np
import pytest

from sqtransport import analytics as an
from sqtransport import cli
from sqtransport import ensemble as en
from sqtransport import fock
from sqtransport import io as sio
from sqtransport import medium as md
from sqtransport import photostatistics as ps
from sqtransport.errors import ThresholdReached, ValidityWarning

from conftest import random_contraction, scalar_channel

pytestmark = pytest.mark.acceptance


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")


def test_criterion_01_universal_absorbing_limit():
    start = time.time()
    deviations = []
    for fano_in in (0.0, 1.5, 3.0):
        w = an.WaveguideRatios(s=12.0, l_over_xi=0.01, efficiency=1.0,
                               occupation=1e-3, fano_in=fano_in)
        deviations.append(abs(an.fano_direct_absorbing_avg(w) - 1.0015))
    ok = max(deviations) < 1e-6
    _report(1, "universal absorbing limit", ok,
            f"max deviation {max(deviations):.2e}, {time.time() - start:.3f}s")
    assert ok


def test_criterion_02_laser_threshold_divergence():
    start = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        near = an.fano_direct_amplifying_avg(
            an.WaveguideRatios(s=math.pi - 1e-3, l_over_xi=0.1, efficiency=1.0,
                               occupation=-1.0, fano_in=1.0))
    raised = False
    try:
        an.fano_direct_amplifying_avg(
            an.WaveguideRatios(s=math.pi, l_over_xi=0.1, efficiency=1.0,
                               occupation=-1.0, fano_in=1.0))
    except ThresholdReached:
        raised = True
    ok = near > 1e3 and raised
    _report(2, "laser threshold divergence", ok,
            f"F(pi - 1e-3) = {near:.3e}, {time.time() - start:.3f}s")
    assert ok


def test_criterion_03_figure_regeneration(tmp_path):
    start = time.time()
    f3 = tmp_path / "figure3.csv"
    f4 = tmp_path / "figure4.csv"
    assert cli.main(["figure3", "--output", str(f3)]) == 0
    assert cli.main(["figure4", "--output", str(f4)]) == 0

    _, _, rows3 = sio.read_csv(f3)
    problems = []
    fins = sorted({r["f_in"] for r in rows3})
    if fins != [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]:
        problems.append("figure3 curve family")
    for medium in ("absorbing", "amplifying"):
        panel = [r for r in rows3 if r["medium"] == medium]
        s_first = min(r["s"] for r in panel)
        first = sorted((r["f_in"], r["fano"]) for r in panel if r["s"] == s_first)
        if not all(b[1] > a[1] for a, b in zip(first, first[1:])):
            problems.append(f"figure3 {medium} ordering at small s")
    absorbing = [r for r in rows3 if r["medium"] == "absorbing"]
    s_last = max(r["s"] for r in absorbing)
    tail = [r["fano"] for r in absorbing if r["s"] == s_last]
    if max(tail) - min(tail) > 1e-4 or abs(np.mean(tail) - 1.0015) > 1e-4:
        problems.append("figure3 absorbing curves do not collapse to 1 + (3/2) d f")
    amplifying = [r for r in rows3 if r["medium"] == "amplifying"]
    for fano_in in fins:
        curve = sorted((r["s"], r["fano"]) for r in amplifying if r["f_in"] == fano_in)
        values = [v for _, v in curve]
        if values[-1] < 1e2 or not all(b > a for a, b in zip(values[-5:], values[-4:])):
            problems.append(f"figure3 amplifying curve f_in={fano_in} does not diverge")

    _, _, rows4 = sio.read_csv(f4)
    rhos = sorted({r["rho"] for r in rows4})
    if rhos != [0.0, 0.25, 0.5, 0.75, 1.0]:
        problems.append("figure4 curve family")
    absorbing4 = [r for r in rows4 if r["medium"] == "absorbing"]
    s_first4 = min(r["s"] for r in absorbing4)
    first4 = sorted((r["rho"], r["fano"]) for r in absorbing4 if r["s"] == s_first4)
    if not all(b[1] < a[1] for a, b in zip(first4, first4[1:])):
        problems.append("figure4 ordering in rho at small s")
    s_last4 = max(r["s"] for r in absorbing4)
    tail4 = [r["fano"] for r in absorbing4 if r["s"] == s_last4]
    if max(tail4) - min(tail4) > 1e-4:
        problems.append("figure4 absorbing curves do not collapse")
    amplifying4 = [r for r in rows4 if r["medium"] == "amplifying"]
    for rho in rhos:
        curve = sorted((r["s"], r["fano"]) for r in amplifying4 if r["rho"] == rho)
        values = [v for _, v in curve]
        if values[-1] < 5 or not all(b > a for a, b in zip(values[-5:], values[-4:])):
            problems.append(f"figure4 amplifying curve rho={rho} does not diverge")

    ok = not problems
    _report(3, "figure regeneration", ok,
            "; ".join(problems) or f"{time.time() - start:.1f}s")
    assert ok, problems


def test_criterion_04_fock_oracle_absorbing():
    start = time.time()
    state = fock.squeezed_coherent_fock(1.3, 0.5, 0.7, 120)
    oracle = fock.lossy_channel_photostats(state, math.sqrt(0.6), 0.1, 120)
    closed = ps.direct_cumulants_squeezed(
        scalar_channel(math.sqrt(0.6), md.ABSORBING),
        ps.SqueezedInput(1.3, 0.5, 0.7), ps.DetectionConfig(1.0), 0.1)
    rel1 = abs(oracle.kappa1 - closed.kappa1) / abs(closed.kappa1)
    rel2 = abs(oracle.kappa2 - closed.kappa2) / abs(closed.kappa2)
    elapsed = time.time() - start
    ok = rel1 <= 1e-8 and rel2 <= 1e-8 and elapsed < 10
    _report(4, "fock oracle equivalence (absorbing)", ok,
            f"rel errors {rel1:.2e}/{rel2:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_05_fock_oracle_amplifying():
    start = time.time()
    state = fock.squeezed_coherent_fock(1.0, 0.4, 0.0, 120)
    oracle = fock.amplifying_channel_photostats(state, math.sqrt(1.5), 120)
    closed = ps.direct_cumulants_squeezed(
        scalar_channel(math.sqrt(1.5), md.AMPLIFYING),
        ps.SqueezedInput(1.0, 0.4, 0.0), ps.DetectionConfig(1.0), -1.0)
    rel1 = abs(oracle.kappa1 - closed.kappa1) / abs(closed.kappa1)
    rel2 = abs(oracle.kappa2 - closed.kappa2) / abs(closed.kappa2)
    elapsed = time.time() - start
    ok = rel1 <= 1e-7 and rel2 <= 1e-7 and elapsed < 30
    _report(5, "fock oracle equivalence (amplifying)", ok,
            f"rel errors {rel1:.2e}/{rel2:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_06_generating_function_consistency():
    start = time.time()
    rng = np.random.default_rng(606)
    worst1 = worst2 = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 4))
        if rng.uniform() < 0.3:
            s = random_contraction(rng, n, smin=0.999999, smax=1.0)  # near-unitary
        else:
            s = random_contraction(rng, n, smin=0.2, smax=0.95)
        state = ps.SqueezedInput(complex(rng.normal(), rng.normal()),
                                 float(rng.uniform(0, 0.9)),
                                 float(rng.uniform(0, 2 * math.pi)),
                                 int(rng.integers(0, n)))
        config = ps.DetectionConfig(float(rng.uniform(0.3, 1.0)))
        f = float(rng.uniform(0.0, 0.3))
        closed = ps.direct_cumulants_squeezed(s, state, config, f)
        numeric = ps.numeric_factorial_cumulants(s, state, config, f, order=2)
        worst1 = max(worst1, abs(numeric[0] - closed.kappa1) / abs(closed.kappa1))
        # kappa2 can vanish by cancellation; measure relative to the cumulant
        # scale so the tolerance stays meaningful in float64
        scale2 = max(abs(closed.kappa2), abs(closed.kappa1))
        worst2 = max(worst2, abs(numeric[1] - closed.kappa2) / scale2)
    elapsed = time.time() - start
    ok = worst1 <= 1e-6 and worst2 <= 1e-6 and elapsed < 60
    _report(6, "generating-function consistency", ok,
            f"worst rel errors {worst1:.2e}/{worst2:.2e}, {elapsed:.1f}s")
    assert ok


@pytest.mark.slow
def test_criterion_07_monte_carlo_vs_analytic(calibrated_n50, workers):
    start = time.time()
    l_over_xi = 0.1
    mean_free_path = calibrated_n50.mean_free_path
    xi = mean_free_path / l_over_xi
    s_values = [0.5, 1.0, 2.0]
    state = ps.SqueezedInput(alpha=1.0)
    config = ps.DetectionConfig(1.0)

    base50 = en.spec_for_ratios(50, max(s_values), l_over_xi, mean_free_path,
                                1, 1e-3, 0.45, 0)
    per_length = en.collect_statistics(base50, [s * xi for s in s_values], 500, 313,
                                       workers=workers)

    failures = []
    discrepancy50_s1 = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for s, stats in zip(s_values, per_length):
            for fano_in in (0.0, 1.0):
                result = en.result_from_statistics(stats, state, config, 1e-3,
                                                   incident_fano=fano_in)
                target = an.fano_direct_absorbing_avg(
                    an.WaveguideRatios(s=s, l_over_xi=l_over_xi, efficiency=1.0,
                                       occupation=1e-3, fano_in=fano_in))
                tolerance = max(3 * result.stderr, 0.05 * abs(target - 1.0) + 0.01)
                deviation = abs(result.mean_fano - target)
                row_ok = deviation <= tolerance
                print(f"  s={s} F_in={fano_in}: MC {result.mean_fano:.4f} "
                      f"+- {result.stderr:.4f} vs analytic {target:.4f} "
                      f"(dev {deviation:.4f}, tol {tolerance:.4f}) "
                      f"{'ok' if row_ok else 'OUT OF TOLERANCE'}")
                if not row_ok:
                    failures.append(f"s={s}, F_in={fano_in}: dev {deviation:.4f} "
                                    f"> tol {tolerance:.4f}")
                if s == 1.0 and fano_in == 0.0:
                    discrepancy50_s1 = deviation

        base25 = en.spec_for_ratios(25, 1.0, l_over_xi, mean_free_path, 1, 1e-3,
                                    0.45, 0)
        stats25 = en.collect_statistics(base25, [xi], 500, 313, workers=workers)[0]
        result25 = en.result_from_statistics(stats25, state, config, 1e-3,
                                             incident_fano=0.0)
        target_s1 = an.fano_direct_absorbing_avg(
            an.WaveguideRatios(s=1.0, l_over_xi=l_over_xi, efficiency=1.0,
                               occupation=1e-3, fano_in=0.0))
    discrepancy25_s1 = abs(result25.mean_fano - target_s1)
    print(f"  N=25 -> N=50 discrepancy at s=1: {discrepancy25_s1:.4f} -> "
          f"{discrepancy50_s1:.4f}")
    if discrepancy50_s1 > discrepancy25_s1:
        failures.append("discrepancy increased from N=25 to N=50")

    elapsed = time.time() - start
    if elapsed > 600:
        failures.append(f"runtime {elapsed:.0f}s over the 10 min budget")
    ok = not failures
    _report(7, "Monte Carlo vs analytic", ok,
            "; ".join(failures) or f"{elapsed:.0f}s")
    assert ok, (
        "the isotropic slice model (uniform per-mode decay) realizes unit "
        "prefactor and decay length sqrt(l*l_a/2); the published constants "
        "(4/3 and cl/3) are outside tolerance at small s: " + "; ".join(failures)
    )


def test_criterion_08_homodyne_minimum_property():
    start = time.time()
    rng = np.random.default_rng(808)
    worst_value_gap = 0.0
    worst_phase_gap = 0.0
    grid = 64
    for trial in range(100):
        if trial % 3 == 0:
            spec = md.MediumSpec(4, 12, 0.4, 1, 60.0, 0.1,
                                 md.derive_sample_seed(88, trial))
            s = md.build_medium(spec)
        else:
            s = random_contraction(rng, 4)
        state = ps.SqueezedInput(complex(rng.normal(), rng.normal()),
                                 float(rng.uniform(0.05, 1.2)),
                                 float(rng.uniform(0, 2 * math.pi)),
                                 int(rng.integers(0, 4)))
        hom = ps.HomodyneConfig(float(rng.uniform(0.1, 0.9)), int(rng.integers(0, 4)))
        config = ps.DetectionConfig(float(rng.uniform(0.3, 1.0)), ps.TRANSMISSION, hom)
        f = float(rng.uniform(0, 0.3))
        best = ps.fano_homodyne_min(s, state, config, f)

        # grid anchored at the claimed optimum: its minimum must equal the
        # closed-form minimum
        anchored = []
        for k in range(grid):
            phase = best.optimal_probe_phase + 2 * math.pi * k / grid
            probed = dataclasses.replace(
                config, homodyne=dataclasses.replace(hom, probe_phase=phase))
            anchored.append(ps.fano_homodyne(s, state, probed, f).value)
        worst_value_gap = max(worst_value_gap, abs(min(anchored) - best.value))

        # plain uniform grid: the argmin must sit within one grid step of the
        # claimed optimum (the probe term has period pi in the probe phase)
        plain = []
        for k in range(grid):
            phase = 2 * math.pi * k / grid
            probed = dataclasses.replace(
                config, homodyne=dataclasses.replace(hom, probe_phase=phase))
            plain.append((ps.fano_homodyne(s, state, probed, f).value, phase))
        _, argmin_phase = min(plain)
        gap = abs(argmin_phase - best.optimal_probe_phase) % math.pi
        gap = min(gap, math.pi - gap)
        worst_phase_gap = max(worst_phase_gap, gap)

    elapsed = time.time() - start
    ok = (worst_value_gap <= 1e-10 and worst_phase_gap <= math.pi / grid + 1e-12
          and elapsed < 60)
    _report(8, "homodyne minimum property", ok,
            f"value gap {worst_value_gap:.1e}, phase gap {worst_phase_gap:.3f} "
            f"<= {math.pi / grid:.3f}, {elapsed:.1f}s")
    assert ok


@pytest.mark.slow
def test_criterion_09_physicality_invariants():
    start = time.time()
    problems = []
    worst_excess = -1.0
    for seed in range(1000):
        spec = md.MediumSpec(6, 25, 0.4, 1, 80.0, 1e-3, seed)
        built = md.build_medium(spec)
        worst_excess = max(worst_excess, float(np.max(built.singular_values())) - 1.0)
    if worst_excess > 1e-10:
        problems.append(f"absorbing singular value excess {worst_excess:.2e}")

    chain = md.build_medium(md.MediumSpec(6, 500, 0.32, 0, None, 0.0, 4))
    unitary_dev = float(np.max(np.abs(chain.singular_values() - 1.0)))
    if unitary_dev > 1e-9:
        problems.append(f"passive chain unitarity deviation {unitary_dev:.2e}")

    spec = md.MediumSpec(5, 40, 0.4, 1, 90.0, 1e-3, 12345)
    if md.build_medium(spec).full.tobytes() != md.build_medium(spec).full.tobytes():
        problems.append("rebuild is not byte-identical")

    elapsed = time.time() - start
    if elapsed > 120:
        problems.append(f"runtime {elapsed:.0f}s over the 2 min budget")
    ok = not problems
    _report(9, "physicality invariants", ok,
            "; ".join(problems) or
            f"excess {worst_excess:.1e}, unitarity {unitary_dev:.1e}, {elapsed:.0f}s")
    assert ok, problems


def test_criterion_10_squeezed_input_limits():
    start = time.time()
    exact = ps.fano_in_squeezed(ps.SqueezedInput(alpha=1.7, rho=0.0)) == 1.0
    vacuum_ok = True
    for rho in (0.2, 0.9, 1.6):
        got = ps.fano_in_squeezed(ps.SqueezedInput(alpha=0.0, rho=rho))
        vacuum_ok &= abs(got - (1 + math.cosh(2 * rho))) <= 1e-12
    large = ps.fano_in_squeezed(ps.SqueezedInput(alpha=10.0, rho=0.5, phi=0.0))
    large_ok = abs(large - math.exp(-1.0)) < 0.02
    ok = exact and vacuum_ok and large_ok
    _report(10, "squeezed input limits", ok,
            f"large-alpha value {large:.4f} vs {math.exp(-1.0):.4f}, "
            f"{time.time() - start:.3f}s")
    assert ok
