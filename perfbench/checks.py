"""Correctness checks of one pass, made apart from the code paths the pass used.

Closed forms are evaluated here with mpmath; Monte Carlo rows are recomputed
from media rebuilt through ``medium.build_medium_checkpoints`` and measured
with this file's own numpy expressions and jackknife.  Nothing is compared
with a stored copy of earlier output.  ``run`` returns the failures found and
some reference figures (closed-form gaps, averaging-convention gaps) that are
reported but never checked.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings

import mpmath as mp
import numpy as np

import workloads as wl
from sqtransport import ensemble as en
from sqtransport import medium as md
from sqtransport import photostatistics as ps

mp.mp.dps = 30
CLOSED_FORM_TOL = 1e-11
MC_TOL = 1e-9


class Failures(list):
    def expect(self, condition, message):
        if not condition:
            self.append(message)


def read_csv(path):
    """Rows of a result CSV as dicts of strings, '#' comment lines skipped."""
    with open(path) as handle:
        lines = [line.rstrip("\n") for line in handle if not line.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, line.split(","))) for line in lines[1:] if line]


def _close(value, reference, tol):
    return abs(value - reference) <= tol * max(1.0, abs(reference))


def direct_closed_form(medium, s, l_over_xi, d, f, fano_in):
    s = mp.mpf(s)
    if medium == "absorbing":
        geometry, cot = mp.sinh(s), mp.coth(s)
        bracket = 3 - (2 * s + cot) / geometry - (s * cot - 1) / geometry**2 + s / geometry**3
    else:
        geometry, cot = mp.sin(s), mp.cot(s)
        bracket = 3 - (2 * s - cot) / geometry + (s * cot - 1) / geometry**2 - s / geometry**3
    return 1 + 4 * mp.mpf(l_over_xi) * d * (fano_in - 1) / (3 * geometry) + d * f * bracket / 2


def homodyne_closed_form(medium, s, l_over_xi, d, coupling, f, rho, n_modes, offset=0.0):
    """Phase-locked homodyne average detuned by ``offset`` (0: the minimum)."""
    s, rho = mp.mpf(s), mp.mpf(rho)
    front = 8 * mp.mpf(l_over_xi) * d * coupling / 3
    if medium == "absorbing":
        geometry, thermal = mp.sinh(s), (mp.cosh(s) + 1) / mp.sinh(s)
    else:
        geometry, thermal = mp.sin(s), (mp.cos(s) - 1) / mp.sin(s)
    incident = mp.sinh(rho) * (mp.sinh(rho) - mp.cosh(rho) * mp.cos(2 * mp.mpf(offset)))
    return 1 + front * incident / (n_modes * geometry) + front * f * thermal


def jackknife(columns: np.ndarray, assemble):
    n = columns.shape[0]
    sums = columns.sum(axis=0)
    leave_out = np.array([assemble((sums - columns[i]) / (n - 1)) for i in range(n)])
    spread = (n - 1) / n * np.sum((leave_out - leave_out.mean()) ** 2)
    return assemble(sums / n), math.sqrt(spread)


def _rebuild(base, lengths, seed, index):
    spec = dataclasses.replace(base, seed=md.derive_sample_seed(seed, index),
                               total_length=max(lengths))
    return md.build_medium_checkpoints(spec, lengths)


def _noise_matrix(matrix):
    """1 - r r+ - t t+, the right-side block of 1 - S S+."""
    r, t = matrix.r, matrix.t
    return np.eye(matrix.n_modes) - r @ r.conj().T - t @ t.conj().T


def check_direct(seed, outdir):
    p = wl.DIRECT_PARAMS
    failures, diagnostics = Failures(), {}
    rows = read_csv(f"{outdir}/fano-direct.csv")
    failures.expect(len(rows) == wl.OPS_PER_PASS[wl.DIRECT], f"{len(rows)} rows")
    d, f = p["efficiency"], p["occupation"]
    value = {(float(r["s"]), float(r["f_in"])): r for r in rows}
    for (s, fano_in), row in value.items():
        exact = direct_closed_form("absorbing", s, p["l_over_xi"], d, f, fano_in)
        failures.expect(_close(float(row["fano_analytic"]), float(exact), CLOSED_FORM_TOL),
                        f"analytic column at s={s}, F_in={fano_in}")
        failures.expect(row["n_samples"] == str(p["samples"]) and row["n_skipped"] == "0",
                        f"sample counts at s={s}")
    gains = [float(value[s, 1.0]["fano_mc"]) - float(value[s, 0.0]["fano_mc"]) for s in p["s"]]
    failures.expect(all(0 < g < 1 for g in gains), f"d<T> outside (0, 1): {gains}")
    failures.expect(all(a > b for a, b in zip(gains, gains[1:])), f"d<T> not falling: {gains}")

    # the CLI's auto-calibration, repeated through the public function
    base_length = 2.0 / p["scatter_strength"] ** 2
    cal_lengths = [max(2, round(base_length * k)) for k in (0.5, 1, 2, 4)]
    cal = md.calibrate_mean_free_path(p["n_modes"], p["scatter_strength"], cal_lengths,
                                      p["calibration_samples"], seed)
    xi = cal.mean_free_path / p["l_over_xi"]
    lengths = [s * xi for s in p["s"]]
    base = en.spec_for_ratios(p["n_modes"], max(p["s"]), p["l_over_xi"], cal.mean_free_path,
                              1, f, p["scatter_strength"], 0)
    rebuilt = [_rebuild(base, lengths, seed, k) for k in range(p["samples"])]
    n = p["n_modes"]
    for sample in rebuilt:
        for matrix in sample:
            norm = np.linalg.svd(matrix.full, compute_uv=False)[0]
            failures.expect(norm <= 1 + 1e-10, f"rebuilt absorbing sample has norm {norm!r}")
    for j, s in enumerate(p["s"]):
        columns = np.array([
            [np.sum(np.abs(m[j].t) ** 2) / n,
             np.trace(m[j].t.conj().T @ _noise_matrix(m[j]) @ m[j].t).real / n]
            for m in rebuilt])
        for fano_in in p["fano_in"]:
            def assemble(means):
                return 1 + d * means[0] * (fano_in - 1) + 2 * d * f * means[1] / means[0]

            mean, stderr = jackknife(columns, assemble)
            row = value[s, fano_in]
            failures.expect(_close(float(row["fano_mc"]), mean, MC_TOL),
                            f"fano_mc at s={s}, F_in={fano_in}: {row['fano_mc']} vs {mean!r}")
            failures.expect(abs(float(row["stderr"]) - stderr) <= 1e-6 * stderr,
                            f"stderr at s={s}, F_in={fano_in}: {row['stderr']} vs {stderr!r}")
            per_sample = [assemble(c) for c in columns]
            diagnostics[f"s={s},F_in={fano_in}"] = {
                "mc_minus_closed_form": float(row["fano_mc"]) - float(row["fano_analytic"]),
                "mean_of_ratios_minus_ratio_of_means": float(np.mean(per_sample)) - mean,
            }
    diagnostics["mean_free_path"] = cal.mean_free_path

    # one realization at a time: photostatistics against ensemble's statistics
    state = ps.SqueezedInput(alpha=1.0, rho=0.3)
    config = ps.DetectionConfig(d)
    stats = en.collect_statistics(base, lengths, 2, seed, incident_mode=0, mode_average=False)
    for j in range(len(lengths)):
        for k in range(2):
            single = en.assemble_direct_fano([stats[j][k]], ps.fano_in_squeezed(state), d, f,
                                             en.MEAN_OF_RATIOS)[0]
            direct = ps.fano_direct(rebuilt[k][j], state, config, f).value
            failures.expect(_close(direct, single, 1e-12),
                            f"fano_direct {direct!r} vs ensemble {single!r}, sample {k}")
    return failures, diagnostics


def check_homodyne(seed, outdir):
    p = wl.HOMODYNE_PARAMS
    failures, diagnostics = Failures(), {}
    rows = read_csv(f"{outdir}/fano-homodyne.csv")
    failures.expect(len(rows) == wl.OPS_PER_PASS[wl.HOMODYNE], f"{len(rows)} rows")
    d, f, kappa, rho = p["efficiency"], p["occupation"], p["coupling"], p["rho"]
    for row in rows:
        offset = 0.0 if row["policy"] == "min" else float(row["probe_phase"])
        exact = homodyne_closed_form("amplifying", float(row["s"]), p["l_over_xi"], d, kappa, f,
                                     rho, p["n_modes"], offset)
        failures.expect(_close(float(row["fano_analytic"]), float(exact), CLOSED_FORM_TOL),
                        f"analytic column at s={row['s']}, offset {offset}")
        failures.expect(row["n_skipped"] == "0", f"skipped samples at s={row['s']}")
    minimum = {float(row["s"]): row for row in rows if row["policy"] == "min"}
    for row in rows:
        if row["policy"] != "scan":
            continue
        best = minimum[float(row["s"])]
        failures.expect(float(best["fano_mc"]) <= float(row["fano_mc"]),
                        f"min row above the scan row at offset {row['probe_phase']}")
        if float(row["probe_phase"]) == 0.0:
            failures.expect((row["fano_mc"], row["stderr"]) == (best["fano_mc"], best["stderr"]),
                            f"scan row at offset 0 differs from the min row at s={row['s']}")

    xi = p["mean_free_path"] / p["l_over_xi"]
    lengths = [s * xi for s in p["s"]]
    base = en.spec_for_ratios(p["n_modes"], max(p["s"]), p["l_over_xi"], p["mean_free_path"],
                              -1, f, p["scatter_strength"], 0)
    rebuilt = [_rebuild(base, lengths, seed, k) for k in range(p["samples"])]
    n, dk = p["n_modes"], d * kappa
    for sample in rebuilt:
        for matrix in sample:
            full = matrix.full
            lowest = np.linalg.eigvalsh(full @ full.conj().T - np.eye(2 * n))[0]
            failures.expect(lowest >= -1e-10, f"rebuilt amplifying sample: S S+ - 1 at {lowest!r}")
    for j, s in enumerate(p["s"]):
        # probe and incident mode 0, mode-averaged transmission as in the CLI
        columns = np.array([
            [2 * dk * np.sum(np.abs(m[j].t) ** 2) / n**2 * math.sinh(rho) ** 2,
             2 * dk * f * _noise_matrix(m[j])[0, 0].real,
             -dk * np.sum(np.abs(m[j].t) ** 2) / n**2 * math.sinh(2 * rho)]
            for m in rebuilt])
        mean, stderr = jackknife(columns, lambda means: 1 + means.sum())
        row = minimum[s]
        failures.expect(_close(float(row["fano_mc"]), mean, MC_TOL),
                        f"min row fano_mc at s={s}: {row['fano_mc']} vs {mean!r}")
        failures.expect(abs(float(row["stderr"]) - stderr) <= 1e-6 * stderr,
                        f"min row stderr at s={s}: {row['stderr']} vs {stderr!r}")
        diagnostics[f"s={s},min"] = {
            "mc_minus_closed_form": float(row["fano_mc"]) - float(row["fano_analytic"]),
            "mean_of_ratios_minus_ratio_of_means": float(np.mean(1 + columns.sum(axis=1))) - mean,
        }

    # one realization at a time: photostatistics against ensemble's statistics
    state = ps.SqueezedInput(alpha=1.0, rho=rho, phi=p["phi"])
    config = ps.DetectionConfig(d, homodyne=ps.HomodyneConfig(kappa, 0))
    stats = en.collect_statistics(base, lengths, 2, seed, mode_average=False)
    for j in range(len(lengths)):
        for k in range(2):
            single = en.assemble_homodyne_fano([stats[j][k]], rho, p["phi"], d, kappa, f,
                                               None, en.MEAN_OF_RATIOS)[0]
            direct = ps.fano_homodyne_min(rebuilt[k][j], state, config, f).value
            failures.expect(_close(direct, single, 1e-12),
                            f"fano_homodyne_min {direct!r} vs ensemble {single!r}, sample {k}")

    # the process pool must not change a single bit
    pooled = en.collect_statistics(base, lengths, 6, seed, workers=p["threads"])
    alone = en.collect_statistics(base, lengths, 3, seed, workers=1)
    failures.expect(all(pooled[j][:3] == alone[j] for j in range(len(lengths))),
                    "pooled statistics differ from a single-worker recomputation")
    return failures, diagnostics


def _scalar_channel(amplitude, kind):
    zero = np.zeros((1, 1), dtype=complex)
    block = amplitude * np.ones((1, 1), dtype=complex)
    return md.ScatteringMatrix(zero, block, block, zero, kind)


def _cumulants_agree(got, closed, tol):
    scale = max(abs(closed[0]), abs(closed[1]))
    return abs(got[0] - closed[0]) <= tol * scale and abs(got[1] - closed[1]) <= tol * scale


def check_oracle(seed, outdir):
    failures = Failures()
    inputs = wl.oracle_inputs(seed)
    with open(f"{outdir}/oracle.json") as handle:
        out = json.load(handle)
    unit = ps.DetectionConfig(1.0)
    for case, got in zip(inputs["lossy"], out["lossy"]):
        state = ps.SqueezedInput(case["alpha"], case["rho"], case["phi"])
        channel = _scalar_channel(math.sqrt(case["transmittance"]), md.ABSORBING)
        closed = ps.direct_cumulants_squeezed(channel, state, unit, case["occupation"])
        failures.expect(_cumulants_agree(got, (closed.kappa1, closed.kappa2), 1e-8),
                        f"lossy Fock oracle {got} vs closed form at {case}")
    for case, got in zip(inputs["gain"], out["gain"]):
        state = ps.SqueezedInput(case["alpha"], case["rho"], case["phi"])
        channel = _scalar_channel(math.sqrt(wl.GAIN_SQUARED), md.AMPLIFYING)
        closed = ps.direct_cumulants_squeezed(channel, state, unit, -(1.0 + case["idler"]))
        failures.expect(_cumulants_agree(got, (closed.kappa1, closed.kappa2), 1e-7),
                        f"gain Fock oracle {got} vs closed form at {case}")

    f = wl.CONTRACTION_OCCUPATION
    for case, got in zip(inputs["contractions"], out["contractions"]):
        matrix, state, d = case["matrix"], case["state"], case["efficiency"]
        m, n0 = state.incident_mode, case["probe_mode"]
        failures.expect(_cumulants_agree(got["numeric"], got["closed"][:2], 1e-6),
                        f"numeric cumulants {got['numeric']} vs closed {got['closed'][:2]}")
        # this file's own evaluation of the single-matrix formulas
        column = matrix.t[:, m]
        noise = _noise_matrix(matrix)
        mean = abs(state.alpha) ** 2 + math.sinh(state.rho) ** 2
        fano_in = 1 + ps.squeezed_number_bracket(state) / mean
        transmittance = float(np.sum(np.abs(column) ** 2))
        beating = float((column.conj() @ noise @ column).real)
        direct = 1 + d * transmittance * (fano_in - 1) + 2 * d * f * beating / transmittance
        failures.expect(_close(got["fano_direct"], direct, 1e-12),
                        f"fano_direct {got['fano_direct']!r} vs {direct!r}")
        kappa1 = got["closed"][0] - got["closed"][2]
        kappa2 = got["closed"][1] - got["closed"][3]
        failures.expect(_close(got["fano_direct"], 1 + kappa2 / kappa1, 1e-10),
                        "fano_direct disagrees with its own cumulants")
        dk, sh = d * 0.5, math.sinh(state.rho)
        element = complex(matrix.t[n0, m])
        base = 1 + 2 * dk * abs(element) ** 2 * sh * sh + 2 * dk * f * noise[n0, n0].real
        for k, value in enumerate(got["homodyne"]):
            beta = 2 * math.pi * k / wl.HOMODYNE_PHASES
            phase = (np.exp(1j * (state.phi - 2 * beta)) * element**2).real
            expected = base - dk * phase * math.sinh(2 * state.rho)
            failures.expect(_close(value, expected, 1e-12), f"fano_homodyne at phase {beta}")
            failures.expect(got["homodyne_min"] <= value + 1e-12, "homodyne minimum above a phase")
        at_best = base - dk * abs(element) ** 2 * math.sinh(2 * state.rho)
        failures.expect(_close(got["homodyne_min"], at_best, 1e-12), "fano_homodyne_min value")
        phase = (np.exp(1j * (state.phi - 2 * got["optimal_phase"])) * element**2).real
        failures.expect(_close(base - dk * phase * math.sinh(2 * state.rho), at_best, 1e-12),
                        "the reported optimal probe phase is not optimal")

    figures = inputs["figures"]
    lxi, d = figures["l_over_xi"], figures["efficiency"]
    occupation = {"absorbing": 1e-3, "amplifying": -1.0}
    rows3 = read_csv(f"{outdir}/figure3.csv")
    failures.expect(len(rows3) == 2 * 7 * 240, f"figure3 has {len(rows3)} rows")
    for row in rows3:
        exact = direct_closed_form(row["medium"], float(row["s"]), lxi, d,
                                   occupation[row["medium"]], float(row["f_in"]))
        failures.expect(_close(float(row["fano"]), float(exact), CLOSED_FORM_TOL),
                        f"figure3 row {row}")
    rows4 = read_csv(f"{outdir}/figure4.csv")
    failures.expect(len(rows4) == 2 * 5 * 240, f"figure4 has {len(rows4)} rows")
    for row in rows4:
        exact = homodyne_closed_form(row["medium"], float(row["s"]), lxi, d, 0.5,
                                     occupation[row["medium"]], float(row["rho"]), 10)
        failures.expect(_close(float(row["fano"]), float(exact), CLOSED_FORM_TOL),
                        f"figure4 row {row}")
    return failures, {}


def run(workload, seed, outdir) -> dict:
    check = {wl.DIRECT: check_direct, wl.HOMODYNE: check_homodyne, wl.ORACLE: check_oracle}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        failures, diagnostics = check[workload](seed, outdir)
    return {"failures": failures[:20], "n_failures": len(failures), "diagnostics": diagnostics}
