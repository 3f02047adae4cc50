"""The benchmark's three workloads: their inputs, built from the seed, and one pass each.

A pass is the workload's fixed work.  ``direct-absorbing-n50`` and
``homodyne-amplifying-n10`` are one ``sqtransport`` command each, run through
``cli.main``; ``oracle`` calls the verification functions of ``fock`` and
``photostatistics`` and regenerates the two figure tables through ``cli.main``.
The seed is the program's master seed for the Monte Carlo workloads and seeds
the parameter draws of the oracle; it never changes the amount of work.
"""

from __future__ import annotations

import math

import numpy as np

from sqtransport import cli, fock
from sqtransport import medium as md
from sqtransport import photostatistics as ps

DIRECT = "direct-absorbing-n50"
HOMODYNE = "homodyne-amplifying-n10"
ORACLE = "oracle"
WORKLOADS = (DIRECT, HOMODYNE, ORACLE)

# criterion 07's physics at a size one pass can afford
DIRECT_PARAMS = {
    "n_modes": 50, "scatter_strength": 0.45, "l_over_xi": 0.1, "s": (0.5, 1.0, 2.0),
    "fano_in": (0.0, 1.0), "occupation": 1e-3, "efficiency": 1.0,
    "samples": 3, "calibration_samples": 3,
}
# small matrices, amplifying medium well below the laser threshold s = pi
HOMODYNE_PARAMS = {
    "n_modes": 10, "scatter_strength": 0.32, "mean_free_path": 19.64, "l_over_xi": 0.1,
    "s": (0.5, 1.0), "occupation": -1.0, "efficiency": 1.0, "rho": 0.5, "phi": 0.0,
    "coupling": 0.5, "n_phases": 32, "samples": 64, "threads": 2,
}
# Fock oracle grid: squeezing x environment occupation, loss and gain channels
FOCK_N_MAX = 120
LOSSY_RHO = (0.0, 0.4, 0.8)
LOSSY_OCCUPATION = (0.0, 0.1, 0.3)
GAIN_RHO = (0.0, 0.4, 0.8)
GAIN_IDLER = (0.0, 0.2)
GAIN_SQUARED = 1.5
CONTRACTIONS = 8
CONTRACTION_MODES = 3
CONTRACTION_OCCUPATION = 0.1
HOMODYNE_PHASES = 8

OPS_PER_PASS = {
    DIRECT: len(DIRECT_PARAMS["s"]) * len(DIRECT_PARAMS["fano_in"]),
    HOMODYNE: len(HOMODYNE_PARAMS["s"]) * (HOMODYNE_PARAMS["n_phases"] + 1),
    ORACLE: len(LOSSY_RHO) * len(LOSSY_OCCUPATION) + len(GAIN_RHO) * len(GAIN_IDLER)
    + CONTRACTIONS + 2,
}


def _floats(values):
    return ",".join(repr(float(v)) for v in values)


def direct_argv(seed: int, output: str) -> list[str]:
    p = DIRECT_PARAMS
    return [
        "fano-direct", "--medium", "absorbing", "--n-modes", str(p["n_modes"]),
        "--scatter-strength", repr(p["scatter_strength"]), "--l-over-xi", repr(p["l_over_xi"]),
        "--s", _floats(p["s"]), "--fano-in", _floats(p["fano_in"]),
        "--occupation", repr(p["occupation"]), "--efficiency", repr(p["efficiency"]),
        "--samples", str(p["samples"]), "--calibration-samples", str(p["calibration_samples"]),
        "--threads", "1", "--seed", str(seed), "--output", output,
    ]


def homodyne_argv(seed: int, output: str, threads: int) -> list[str]:
    p = HOMODYNE_PARAMS
    return [
        "fano-homodyne", "--medium", "amplifying", "--n-modes", str(p["n_modes"]),
        "--scatter-strength", repr(p["scatter_strength"]),
        "--mean-free-path", repr(p["mean_free_path"]), "--l-over-xi", repr(p["l_over_xi"]),
        "--s", _floats(p["s"]), f"--occupation={p['occupation']!r}",
        "--efficiency", repr(p["efficiency"]), "--rho", repr(p["rho"]), "--phi", repr(p["phi"]),
        "--coupling", repr(p["coupling"]), "--phase-policy", "scan",
        "--n-phases", str(p["n_phases"]), "--samples", str(p["samples"]),
        "--threads", str(threads), "--seed", str(seed), "--output", output,
    ]


def random_contraction(rng, n_modes: int) -> md.ScatteringMatrix:
    """Absorbing 2N x 2N matrix U diag(sigma) V with Haar U, V and sigma in [0.2, 0.95]."""
    def haar(m):
        z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        q, r = np.linalg.qr(z)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    sigma = rng.uniform(0.2, 0.95, 2 * n_modes)
    full = haar(2 * n_modes) @ np.diag(sigma) @ haar(2 * n_modes)
    return md.ScatteringMatrix.from_full(full, md.ABSORBING)


def oracle_inputs(seed: int) -> dict:
    """Parameter draws of the oracle workload; the grid sizes are fixed."""
    rng = np.random.default_rng([seed, 9910105])

    def unit_phase():
        return complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))

    lossy = [{"alpha": unit_phase(), "rho": rho, "phi": float(rng.uniform(0.0, 2.0 * math.pi)),
              "transmittance": float(rng.uniform(0.3, 0.9)), "occupation": f}
             for rho in LOSSY_RHO for f in LOSSY_OCCUPATION]
    gain = [{"alpha": unit_phase(), "rho": rho, "phi": float(rng.uniform(0.0, 2.0 * math.pi)),
             "idler": idler}
            for rho in GAIN_RHO for idler in GAIN_IDLER]
    contractions = []
    for _ in range(CONTRACTIONS):
        matrix = random_contraction(rng, CONTRACTION_MODES)
        state = ps.SqueezedInput(
            alpha=complex(rng.normal(), rng.normal()), rho=float(rng.uniform(0.0, 0.8)),
            phi=float(rng.uniform(0.0, 2.0 * math.pi)),
            incident_mode=int(rng.integers(0, CONTRACTION_MODES)))
        contractions.append({
            "matrix": matrix, "state": state, "efficiency": float(rng.uniform(0.3, 1.0)),
            "probe_mode": int(rng.integers(0, CONTRACTION_MODES)),
        })
    figures = {"l_over_xi": float(rng.uniform(0.05, 0.2)),
               "efficiency": float(rng.uniform(0.5, 1.0))}
    return {"lossy": lossy, "gain": gain, "contractions": contractions, "figures": figures}


def figure_argv(name: str, figures: dict, output: str) -> list[str]:
    return [name, "--l-over-xi", repr(figures["l_over_xi"]),
            "--efficiency", repr(figures["efficiency"]), "--output", output]


def run_oracle(inputs: dict, outdir: str) -> dict:
    """One oracle pass; returns every computed number for the checks."""
    out = {"lossy": [], "gain": [], "contractions": []}
    for case in inputs["lossy"]:
        state = fock.squeezed_coherent_fock(case["alpha"], case["rho"], case["phi"], FOCK_N_MAX)
        stats = fock.lossy_channel_photostats(state, math.sqrt(case["transmittance"]),
                                              case["occupation"])
        out["lossy"].append((stats.kappa1, stats.kappa2))
    for case in inputs["gain"]:
        state = fock.squeezed_coherent_fock(case["alpha"], case["rho"], case["phi"], FOCK_N_MAX)
        stats = fock.amplifying_channel_photostats(state, math.sqrt(GAIN_SQUARED),
                                                   idler_occupation=case["idler"])
        out["gain"].append((stats.kappa1, stats.kappa2))
    for case in inputs["contractions"]:
        matrix, state = case["matrix"], case["state"]
        direct = ps.DetectionConfig(case["efficiency"])
        f = CONTRACTION_OCCUPATION
        closed = ps.direct_cumulants_squeezed(matrix, state, direct, f)
        numeric = ps.numeric_factorial_cumulants(matrix, state, direct, f, order=2)
        homodyne = []
        for k in range(HOMODYNE_PHASES):
            config = ps.DetectionConfig(case["efficiency"], homodyne=ps.HomodyneConfig(
                0.5, case["probe_mode"], 2.0 * math.pi * k / HOMODYNE_PHASES))
            homodyne.append(ps.fano_homodyne(matrix, state, config, f).value)
        best = ps.fano_homodyne_min(matrix, state, config, f)
        out["contractions"].append({
            "closed": (closed.kappa1, closed.kappa2, closed.thermal_kappa1, closed.thermal_kappa2),
            "numeric": tuple(numeric),
            "fano_direct": ps.fano_direct(matrix, state, direct, f).value,
            "homodyne": homodyne,
            "homodyne_min": best.value,
            "optimal_phase": best.optimal_probe_phase,
        })
    for name in ("figure3", "figure4"):
        if cli.main(figure_argv(name, inputs["figures"], f"{outdir}/{name}.csv")) != 0:
            raise RuntimeError(f"{name} exited non-zero")
    return out
