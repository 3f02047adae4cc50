"""Random scattering matrices of quasi-1D absorbing or amplifying waveguides.

The 2N x 2N scattering matrix is stored through its four N x N blocks::

        S = [[r', t'],
             [t,  r ]]

with modes 1..N on the left of the medium and modes N+1..2N on the right,
so r' reflects left-to-left, t transmits left-to-right, and the star-product
identity element is the perfectly transparent segment r = r' = 0, t = t' = 1.

Model.  A medium of length L is ceil(L) periods, each two pieces combined
with the Redheffer star product (the isotropic polar form of DMPK theory;
Beenakker, Rev. Mod. Phys. 69, 731 (1997)): a scalar core
S_c = [[sqrt(delta), sqrt(1 - delta)], [sqrt(1 - delta), -sqrt(delta)]] (x) 1_N,
which reflects delta = eps^2 / (2 + eps^2) per mode (``core_amplitudes``),
so the mean free path is l = (1 - delta) / delta = 2 / eps^2 periods; then a
reflectionless interface t = a X, t' = a Y with a = exp(-sign / (2 l_a)).
An isotropic slice is diag(u, v) S_c diag(u', v') with Haar u, v, u', v';
the law of a composite is invariant under rotations of its right side, so
the next slice's left rotations fold into X and Y.  Only that law matters,
so X and Y are random-phase DFT layers (Emerson et al., Science 302, 2098
(2003)), X = D2 F D1 F D0 and Y = E0 F E1 F E2 with the unitary DFT F and
6 N uniform phases per period, which the tests compare with Haar
interfaces.  As (F D1 F)_jk = h_((j + k) mod N) with h = fft(p1) / N, the
loop forms X^T = D0 H D2 (H is symmetric) and Y = E0 H' E2 in O(N^2), and
one solve C^T K^T = X^T gives K = X C^-1 for the cavity factor
C = 1 - sqrt(delta) r, which commutes with r.  With a sqrt(1 - delta) on h
and a / sqrt(1 - delta) on h', one period is::

    t  <- K t                        =  a sqrt(1 - delta) X C^-1 t
    r  <- K (r - sqrt(delta)) Y      =  a^2 X (r - sqrt(delta)) C^-1 Y
    r' <- r' + sqrt(delta) t' C^-1 t
    t' <- (1 - delta) t' C^-1 Y      =  a sqrt(1 - delta) t' C^-1 Y

t and r never read r' or t', and the Fano factors and the Ohm fit read only
[t r]: ``build_batch_checkpoints`` (Monte Carlo, calibration) runs one solve
and three products and checks a RowBlock per capture; the full S that
``build_medium_checkpoints`` returns costs a second solve and two products.

Cavity bound.  A passive or absorbing composite is a contraction, so every
singular value of the cavity factor 1 - sqrt(delta) r lies in
[1 - sqrt(delta), 1 + sqrt(delta)], and cond <= (1 + sqrt(delta)) /
(1 - sqrt(delta)), a constant (1.93 at delta = 0.1), whatever the unitary X
and Y.  Below ``CONDITION_LIMIT`` these media run no condition check; with
the margin for round-off on sqrt(delta), the guard returns once delta is
within about 2e-6 of 1 (eps above about 1000).  An amplifying composite can
have ||r||_2 > 1 and keeps the guard of ``_check_cavity``, whose failure
takes the sample out of its batch.

Batched samples.  ``build_batch_checkpoints`` advances B samples together,
their rows [t r] as one [B, N, 2N] stack.  Each sample draws its phases from
its own stream, ``default_rng(seed)``, so a shorter medium is a prefix of a
longer one.  The phases of P = ``SAMPLING_BLOCK`` periods of every sample
live in one (B, P, 6, N) buffer.  B is the largest batch whose whole live set
(``_batch_size``) fits in ``BATCH_BYTES``: 43 at N = 10, 11 at N = 25 and 3
at N = 50; one sample fits up to N = 91.  ``solve``, ``matmul`` and ``fft`` on
a stack act matrix by matrix (or row by row) as on one matrix, so every
sample is bitwise the same whatever B and P.

Sample driver.  ``map_seed_chunks`` runs the Ohm's-law calibration and the
Monte Carlo of ``ensemble`` on W contiguous chunks of the sample seeds.  The
pool's W - 1 chunks are submitted first, so it forks before the caller
allocates anything; the caller computes the first chunk itself, and the
chunks are joined in seed order.  Every result is bitwise independent of W.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from concurrent import futures
from dataclasses import dataclass

import numpy as np

from .errors import (
    FitFailed,
    GainPositivityViolation,
    NearSingularCavity,
    PhysicalityError,
)

PASSIVE = "passive"
ABSORBING = "absorbing"
AMPLIFYING = "amplifying"

#: tolerance on singular values of passive / absorbing composites
SINGULAR_VALUE_TOL = 1e-10
#: condition-number limit of the cavity factor in a star product
CONDITION_LIMIT = 1e12
#: periods whose draws are sampled together
SAMPLING_BLOCK = 16
#: memory for the disorder loop's whole live set
BATCH_BYTES = 1_300_000
# N x N arrays per sample: [t r], the cavity factor, X^T and K, then [t r] <- K [t r]
_STACK_ARRAYS = 5
# bytes per mode and period of one sample's phases and of their drawing, per mode
# of its (h, h') and per sample of its Generator and results; numpy's iterator
# buffers: two operands of 8192 entries, or of the whole stack if it is smaller
_PHASE_BYTES, _DRAWING_BYTES, _HANKEL_BYTES, _SAMPLE_BYTES = 6 * 16, 6 * (8 + 16), 4 * 16, 2048
_BUFFER_ENTRIES = 8192
#: the lengths an Ohm's-law fit of the mean free path takes
FIT_LENGTHS_RULE = "three or more positive lengths spanning a factor of four"

_KIND_FROM_SIGN = {1: ABSORBING, -1: AMPLIFYING, 0: PASSIVE}


@dataclass(frozen=True)
class ScatteringMatrix:
    """Immutable 2N x 2N scattering matrix held as four N x N blocks."""

    r_prime: np.ndarray
    t_prime: np.ndarray
    t: np.ndarray
    r: np.ndarray
    medium_kind: str = PASSIVE

    def __post_init__(self):
        if self.medium_kind not in (PASSIVE, ABSORBING, AMPLIFYING):
            raise ValueError(f"unknown medium kind {self.medium_kind!r}")
        shape = None
        for name in ("r_prime", "t_prime", "t", "r"):
            block = np.array(getattr(self, name), dtype=complex)
            if block.ndim != 2 or block.shape[0] != block.shape[1]:
                raise ValueError(f"block {name} must be a square matrix")
            shape = shape or block.shape
            if block.shape != shape:
                raise ValueError("all four blocks must have the same shape")
            block.setflags(write=False)
            object.__setattr__(self, name, block)
        if shape[0] < 1:
            raise ValueError("need at least one propagating mode")

    @property
    def n_modes(self) -> int:
        return self.r_prime.shape[0]

    @property
    def full(self) -> np.ndarray:
        """The assembled 2N x 2N matrix [[r', t'], [t, r]]."""
        n = self.n_modes
        full = np.empty((2 * n, 2 * n), dtype=complex)
        full[:n, :n], full[:n, n:] = self.r_prime, self.t_prime
        full[n:, :n], full[n:, n:] = self.t, self.r
        return full

    @classmethod
    def from_full(cls, matrix: np.ndarray, medium_kind: str = PASSIVE) -> "ScatteringMatrix":
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] % 2:
            raise ValueError("expected a square matrix of even dimension")
        n = matrix.shape[0] // 2
        return cls(
            r_prime=matrix[:n, :n],
            t_prime=matrix[:n, n:],
            t=matrix[n:, :n],
            r=matrix[n:, n:],
            medium_kind=medium_kind,
        )

    @classmethod
    def identity_transmission(cls, n_modes: int, medium_kind: str = PASSIVE) -> "ScatteringMatrix":
        """The star-product identity: full transmission, no reflection."""
        eye = np.eye(n_modes, dtype=complex)
        zero = np.zeros((n_modes, n_modes), dtype=complex)
        return cls(r_prime=zero, t_prime=eye, t=eye, r=zero, medium_kind=medium_kind)

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.full, compute_uv=False)

    def validate(self) -> None:
        """Check the physicality constraints of the medium kind.

        Raises:
            PhysicalityError: passive matrix not unitary, or absorbing matrix
                not a contraction, within ``SINGULAR_VALUE_TOL``.
            GainPositivityViolation: amplifying matrix with an eigenvalue of
                1 - S S+ above ``SINGULAR_VALUE_TOL`` (of S S+ - 1 below minus it).
        """
        if self.medium_kind == AMPLIFYING:
            highest = np.linalg.eigvalsh(deviation_from_unitarity(self))[-1]
            if highest > SINGULAR_VALUE_TOL:
                raise GainPositivityViolation(f"eigenvalue of S S+ - 1 at {-highest:.3e} "
                                              "below tolerance")
            return
        sigma = self.singular_values()
        if self.medium_kind == PASSIVE:
            drift = np.max(np.abs(sigma - 1.0))
            if drift > SINGULAR_VALUE_TOL:
                raise PhysicalityError(f"passive matrix deviates from unitarity by {drift:.3e}")
        else:
            excess = np.max(sigma) - 1.0
            if excess > SINGULAR_VALUE_TOL:
                raise PhysicalityError(f"absorbing matrix has singular value 1 + {excess:.3e}")


@dataclass(frozen=True)
class RowBlock:
    """The right-side rows [t r] of S: all that a Fano factor or the Ohm fit reads."""

    t: np.ndarray
    r: np.ndarray
    medium_kind: str = PASSIVE

    @property
    def n_modes(self) -> int:
        return self.t.shape[0]

    def validate(self) -> None:
        """``ScatteringMatrix.validate`` on [t r], by the eigenvalues 1 - sigma^2
        of 1 - r r+ - t t+ for the singular values sigma of [t r], which
        interlace those of S.  With tol = ``SINGULAR_VALUE_TOL``: sigma <= 1 + tol
        is lambda >= -(2 tol + tol^2), |sigma - 1| <= tol adds lambda <= 2 tol -
        tol^2, and gain checks lambda <= tol on this principal block of 1 - S S+.
        """
        lowest, highest = np.linalg.eigvalsh(noise_matrix(self))[[0, -1]]
        tol = SINGULAR_VALUE_TOL
        if self.medium_kind == AMPLIFYING:
            if highest > tol:
                raise GainPositivityViolation(f"1 - r r+ - t t+ has eigenvalue {highest:.3e}")
        elif lowest < -(2 * tol + tol**2) or (self.medium_kind == PASSIVE
                                              and highest > 2 * tol - tol**2):
            raise PhysicalityError(f"{self.medium_kind} rows [t r]: 1 - r r+ - t t+ has "
                                   f"eigenvalues in [{lowest:.3e}, {highest:.3e}]")


def noise_matrix(s: ScatteringMatrix | RowBlock) -> np.ndarray:
    """1 - r r+ - t t+, the transmitted-mode block of 1 - S S+."""
    t = s.t
    return np.eye(s.n_modes) - s.r @ s.r.conj().T - t @ t.conj().T


@dataclass(frozen=True)
class MediumSpec:
    """Physical description of a disordered waveguide segment.

    Attributes:
        n_modes: number of propagating modes N per side.
        total_length: segment length in periods (one slice each).
        scatter_strength: dimensionless slice scattering strength eps; a
            slice reflects delta = eps^2 / (2 + eps^2) per mode.
        loss_gain_sign: +1 absorbing, -1 amplifying, 0 passive.
        ballistic_decay_length: amplitude decays (grows) by
            exp(-(+)1 / (2 * ballistic_decay_length)) per period; ignored for
            a passive medium.
        occupation: signed Bose-Einstein occupation of the medium's internal
            modes (negative for an amplifier).
        seed: 64-bit integer fixing the disorder realization.
    """

    n_modes: int
    total_length: float
    scatter_strength: float
    loss_gain_sign: int
    ballistic_decay_length: float | None
    occupation: float
    seed: int

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if self.total_length < 0:
            raise ValueError("total_length must be >= 0")
        if self.scatter_strength <= 0:
            raise ValueError("scatter_strength must be positive")
        if self.loss_gain_sign not in (-1, 0, 1):
            raise ValueError("loss_gain_sign must be -1, 0 or +1")
        if self.loss_gain_sign != 0:
            if self.ballistic_decay_length is None or self.ballistic_decay_length <= 0:
                raise ValueError("ballistic_decay_length must be positive for lossy/gainy media")
        if self.loss_gain_sign == 1 and self.occupation < 0:
            raise ValueError("absorbing medium needs occupation >= 0")
        if self.loss_gain_sign == -1 and not (-1 <= self.occupation < 0):
            raise ValueError("amplifying medium needs occupation in [-1, 0)")

    @property
    def medium_kind(self) -> str:
        return _KIND_FROM_SIGN[self.loss_gain_sign]


def core_amplitudes(scatter_strength: float) -> tuple[float, float]:
    """sqrt(delta) and sqrt(1 - delta) of the core, delta = eps^2 / (2 + eps^2).

    delta ~ eps^2 / 2 for a weak slice, and l = (1 - delta) / delta = 2 / eps^2
    periods.  Each factor is formed without cancellation.
    """
    return (1.0 / math.sqrt(1.0 + 2.0 / scatter_strength**2),
            1.0 / math.sqrt(1.0 + scatter_strength**2 / 2.0))


def _haar_unitaries(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out``, a C-contiguous stack of N x N complex arrays, with Haar unitaries:
    Q diag(R_ii / |R_ii|) of the QR of a complex Ginibre matrix drawn into
    ``out`` (Mezzadri, Notices AMS 54, 592 (2007)), bitwise the same however
    a stack is split into calls.  The disorder loop draws none: these serve
    random test matrices and the Haar-interface reference of the tests."""
    rng.standard_normal(out=out.view(np.float64))
    q, r = np.linalg.qr(out)
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    return np.multiply(q, (diagonal / np.abs(diagonal))[..., None, :], out=out)


def _interface_phases(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out``, a C-contiguous (periods, 6, N) stack, with uniform unit phases,
    one uniform per entry in stream order, however the periods are split."""
    return np.exp(2j * np.pi * rng.random(out.shape), out=out)


def _hankel_factors(layers: np.ndarray, weights, out: np.ndarray) -> np.ndarray:
    """The Hankel factors [H, H'] of X and Y of each sample's ``layers`` [B, 6, N],
    a [B, 2, N, N] view H_jk = out[b, i, j + k] of ``out`` [B, 2, 2N], filled
    with (h, h), h = weight fft(p1) / N for the middle layer p1: with the
    unitary DFT F, F diag(p1) F is H / weight."""
    size, n = layers.shape[0], layers.shape[-1]
    np.fft.fft(layers[:, 1::3], out=out[..., :n])
    out[..., :n] *= weights
    out[..., n:] = out[..., :n]
    step = out.strides[-1]
    return np.ndarray((size, 2, n, n), out.dtype, out, 0, out.strides[:2] + (step, step))


def _interface(hankel: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """diag(left) H diag(right) for each sample's Hankel factor H of ``hankel``
    [B, N, N]: X^T = D0 H D2 (H is symmetric) and Y = E0 H' E2."""
    out = np.multiply(hankel, right[:, None, :])
    return np.multiply(out, left[:, :, None], out=out)


def _check_cavity(loop: np.ndarray) -> None:
    """Condition check of the cavity factors 1 - loop of an N x N matrix or a stack,
    by an SVD only where the bound sqrt(norm1 * norminf) on sigma_max(loop) exceeds 0.9.

    Raises:
        NearSingularCavity: a cavity factor is numerically singular;
            ``samples`` lists the failing stack positions.
    """
    n = loop.shape[-1]
    abs_loop = np.abs(loop)
    bound = np.sqrt(abs_loop.sum(axis=-2).max(axis=-1) * abs_loop.sum(axis=-1).max(axis=-1))
    flagged = np.flatnonzero(bound > 0.9)
    if flagged.size:
        sigma = np.linalg.svd(np.eye(n) - loop.reshape(-1, n, n)[flagged], compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            singular = (sigma[:, -1] == 0.0) | (sigma[:, 0] / sigma[:, -1] > CONDITION_LIMIT)
        if singular.any():
            raise NearSingularCavity(
                f"cavity factor condition number exceeds {CONDITION_LIMIT:.0e}",
                flagged[singular],
            )


def star_compose(a: ScatteringMatrix, b: ScatteringMatrix) -> ScatteringMatrix:
    """Redheffer star product of two segments, ``a`` to the left of ``b``.

    The composite blocks are::

        t_AB  = t_B (1 - r_A r'_B)^-1 t_A
        r'_AB = r'_A + t'_A r'_B (1 - r_A r'_B)^-1 t_A
        r_AB  = r_B + t_B r_A (1 - r'_B r_A)^-1 t'_B
        t'_AB = t'_A (1 - r'_B r_A)^-1 t'_B

    computed with linear solves rather than explicit inverses.

    Raises:
        NearSingularCavity: condition number of (1 - r_A r'_B) above
            ``CONDITION_LIMIT`` (an amplifying cavity at or beyond threshold).
    """
    if a.n_modes != b.n_modes:
        raise ValueError("segments must carry the same number of modes")
    kinds = {a.medium_kind, b.medium_kind} - {PASSIVE}
    if len(kinds) > 1:
        raise ValueError("cannot combine absorbing and amplifying segments")
    eye = np.eye(a.n_modes)
    loop = a.r @ b.r_prime
    _check_cavity(loop)
    x = np.linalg.solve(eye - loop, a.t)
    y = np.linalg.solve(eye - b.r_prime @ a.r, b.t_prime)
    return ScatteringMatrix(a.r_prime + a.t_prime @ (b.r_prime @ x), a.t_prime @ y,
                            b.t @ x, b.r + b.t @ (a.r @ y), kinds.pop() if kinds else PASSIVE)


def _batch_size(n_modes: int) -> int:
    """Samples advanced together: as many as fit their live set in ``BATCH_BYTES``
    beside the drawing of one sample's block and numpy's iterator buffers."""
    room = BATCH_BYTES - SAMPLING_BLOCK * _DRAWING_BYTES * n_modes
    sample = (_STACK_ARRAYS * 16 * n_modes**2 + _SAMPLE_BYTES
              + (SAMPLING_BLOCK * _PHASE_BYTES + _HANKEL_BYTES) * n_modes)
    return max(1, (room - 2 * 16 * _BUFFER_ENTRIES) // sample,
               room // (sample + 2 * 16 * n_modes**2))


def build_batch_checkpoints(spec: MediumSpec, seeds, lengths) -> Iterator[list]:
    """Row blocks of one disorder realization per seed at several lengths, one pass.

    ``spec`` fixes the medium; each seed replaces ``spec.seed`` for one
    sample.  The seeds are built in consecutive batches of
    ``_batch_size(spec.n_modes)``, so the loop's live set stays within
    ``BATCH_BYTES`` however many seeds are passed, and a batch is built only
    when the returned iterator reaches it.

    Yields, per seed in order, one list with an entry per requested length in
    the given order: the validated RowBlock, or the NearSingularCavity /
    GainPositivityViolation instance if that length is unreachable.  A
    sample whose cavity fails leaves its batch, and every longer length
    carries the same NearSingularCavity.
    """
    period_targets = _period_targets(lengths)
    size = _batch_size(spec.n_modes)
    return (row for first in range(0, len(seeds), size)
            for row in _build_batch(spec, seeds[first:first + size], period_targets, False))


def _period_targets(lengths) -> list[int]:
    lengths = list(lengths)
    if not all(0 <= length < math.inf for length in lengths) or sorted(lengths) != lengths:
        raise ValueError("lengths must be finite, >= 0 and sorted ascending")
    return [int(math.ceil(length)) for length in lengths]


def _build_batch(spec: MediumSpec, seeds, period_targets, full: bool) -> list[list]:
    """One batch of samples, captured after each period target.

    The B = len(seeds) samples are advanced together, one stacked period at a
    time; each sample keeps its own stream and its own failure.  ``full``
    keeps t' and r' for a ScatteringMatrix.
    """
    n = spec.n_modes
    size = len(seeds)
    n_periods = period_targets[-1] if period_targets else 0
    streams = [np.random.default_rng(seed) for seed in seeds]
    amplitude = (1.0 if spec.loss_gain_sign == 0
                 else math.exp(-spec.loss_gain_sign / (2.0 * spec.ballistic_decay_length)))
    reflection, transmission = core_amplitudes(spec.scatter_strength)
    # cond(1 - sqrt(delta) r) <= (1 + q) / (1 - q) for a contraction, with q
    # sqrt(delta) raised by a relative 1e-6 for the round-off in ||r||_2 <= 1;
    # an amplifying composite has no such bound
    q = reflection * (1.0 + 1e-6)
    guard = spec.loss_gain_sign < 0 or not 1.0 + q < CONDITION_LIMIT * (1.0 - q)
    # a sqrt(1 - delta) on h of X and a / sqrt(1 - delta) on h' of Y
    weights = amplitude * transmission * np.array([[1.0], [1.0 / transmission**2]]) / n
    # the rows [t r] of every sample as one [B, N, 2N] stack (and t', r')
    rows = np.zeros((size, n, 2 * n), dtype=complex)
    rows[..., :n] = np.eye(n)
    t_prime, r_prime = (rows[..., :n].copy(), rows[..., n:].copy()) if full else (None, None)

    # the phases of one sampling block of every active sample, refilled in
    # place, and the Hankel sequences (h, h) of one period's X and Y
    phases = np.empty((size, min(SAMPLING_BLOCK, n_periods), 6, n), dtype=complex)
    doubled = np.empty((size, 2, 2 * n), dtype=complex)

    active = np.arange(size)  # seed positions of the samples still in the stack
    results: list[list] = [[] for _ in range(size)]
    failures: dict = {}
    period = 0
    drawn = -1  # index of the sampling block held in the buffer
    for target in period_targets:
        while active.size and period < target:
            sampling_block, offset = divmod(period, SAMPLING_BLOCK)
            live = active.size
            if sampling_block != drawn:
                drawn = sampling_block
                count = min(SAMPLING_BLOCK, n_periods - period)
                for row, sample in enumerate(active):
                    _interface_phases(streams[sample], phases[row, :count])
            if guard:
                try:
                    _check_cavity(reflection * rows[..., n:])
                except NearSingularCavity as exc:
                    # the failing samples leave the stack; the rest redo this
                    # period with the phases already drawn
                    keep = np.ones(live, dtype=bool)
                    keep[list(exc.samples)] = False
                    for sample in active[~keep]:
                        failures[sample] = exc
                    active = active[keep]
                    rows = rows[keep]
                    if full:
                        t_prime, r_prime = t_prime[keep], r_prime[keep]
                    phases[:active.size] = phases[:live][keep]
                    continue
            cavity = rows[..., n:] * -reflection
            cavity.reshape(live, n * n)[:, ::n + 1] += 1.0
            layers = phases[:live, offset]
            hankel = _hankel_factors(layers, weights, doubled[:live])
            # K = X C^-1 from C^T K^T = X^T
            transposed = cavity.swapaxes(-1, -2)
            k = np.linalg.solve(transposed, _interface(hankel[:, 0], layers[:, 0],
                                                       layers[:, 2])).swapaxes(-1, -2)
            if full:
                # t' C^-1, and r' <- r' + sqrt(delta) t' C^-1 t with the old t
                tm = np.linalg.solve(transposed, t_prime.swapaxes(-1, -2)).swapaxes(-1, -2)
                r_prime = r_prime + reflection * (tm @ rows[..., :n])
            del cavity, transposed  # freed before the products, as _STACK_ARRAYS counts
            # [t r] <- K [t, r - sqrt(delta)], then r <- r Y
            rows.reshape(live, 2 * n * n)[:, n::2 * n + 1] -= reflection
            rows = k @ rows
            y = _interface(hankel[:, 1], layers[:, 3], layers[:, 5])
            rows[..., n:] = rows[..., n:] @ y
            if full:
                t_prime = transmission**2 * (tm @ y)
            del k, y
            period += 1
        for sample, failure in failures.items():
            results[sample].append(failure)
        for row, sample in enumerate(active):
            t, r = rows[row, :, :n], rows[row, :, n:]
            matrix = (ScatteringMatrix(r_prime[row], t_prime[row], t, r, spec.medium_kind)
                      if full else RowBlock(t.copy(), r.copy(), spec.medium_kind))
            try:
                matrix.validate()
                results[sample].append(matrix)
            except GainPositivityViolation as exc:
                results[sample].append(exc)
    return results


def build_medium_checkpoints(spec: MediumSpec, lengths) -> list:
    """Full composites of one disorder realization at several lengths, one pass.

    ``build_batch_checkpoints`` for one seed with r' and t' kept, t and r the
    same bits; a shorter medium is a prefix of a longer one.

    Returns one entry per requested length, in the given order: the validated
    ScatteringMatrix, or the NearSingularCavity / GainPositivityViolation
    instance if that length is unreachable (every longer length then carries
    the same failure).
    """
    return _build_batch(spec, [spec.seed], _period_targets(lengths), True)[0]


def build_medium(spec: MediumSpec) -> ScatteringMatrix:
    """Assemble the scattering matrix of a full waveguide segment.

    Stacks ceil(total_length) periods of a scalar core and a random-phase DFT
    interface, drawn from ``default_rng(spec.seed)``.

    Raises:
        NearSingularCavity: the cavity factor of a star product is
            numerically singular (an amplifying realization at or beyond the
            laser threshold).
        GainPositivityViolation: amplifying composite failing the positivity
            check of S S+ - 1.
    """
    result = build_medium_checkpoints(spec, [spec.total_length])[0]
    if isinstance(result, Exception):
        raise result
    return result


def derive_sample_seed(master_seed: int, index: int) -> int:
    """Deterministic 64-bit seed for ensemble sample ``index``."""
    seq = np.random.SeedSequence(entropy=(master_seed, index))
    return int(seq.generate_state(1, np.uint64)[0])


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_seed_chunks(function, seeds, workers: int, *args) -> list:
    """Rows of ``function(chunk, *args)`` over ``workers`` contiguous chunks of ``seeds``.

    ``function`` is module-level and returns one row per seed of its chunk.
    The first nonempty chunk runs here, each other one in a pool process.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    edges = [len(seeds) * i // workers for i in range(workers + 1)]
    chunks = [seeds[start:stop] for start, stop in zip(edges, edges[1:]) if stop > start]
    if len(chunks) < 2:
        return function(seeds, *args)
    # futures.ProcessPoolExecutor loads multiprocessing only when a pool opens
    with futures.ProcessPoolExecutor(max_workers=len(chunks) - 1) as pool:
        pending = [pool.submit(function, chunk, *args) for chunk in chunks[1:]]
        rows = function(chunks[0], *args)
        for future in pending:
            rows.extend(future.result())
    return rows


def deviation_from_unitarity(s: ScatteringMatrix) -> np.ndarray:
    """Return the Hermitian matrix 1 - S S+ (2N x 2N).

    Positive semidefinite for an absorbing medium, negative semidefinite for
    an amplifying one, zero for a lossless medium.
    """
    full = s.full
    return np.eye(2 * s.n_modes) - full @ full.conj().T


@dataclass(frozen=True)
class CalibrationResult:
    """Ohm's-law fit N / <tr t+ t> = intercept + L / mean_free_path."""

    mean_free_path: float
    stderr: float
    intercept: float
    residual_rel: float
    inverse_transmittance: tuple


def _transmittances(seeds, spec: MediumSpec, lengths) -> list[list]:
    """tr(t+ t) of each seed's medium at every length, one row per seed."""
    rows = []
    for matrices in build_batch_checkpoints(spec, seeds, lengths):
        for matrix in matrices:
            if isinstance(matrix, Exception):
                raise matrix
        rows.append([np.sum(np.abs(matrix.t) ** 2) for matrix in matrices])
    return rows


def fit_lengths_ok(lengths) -> bool:
    """Whether the Ohm's-law fit can take ``lengths``: ``FIT_LENGTHS_RULE``."""
    return len(lengths) >= 3 and min(lengths) > 0 and max(lengths) / min(lengths) >= 4


def calibrate_mean_free_path(n_modes: int, scatter_strength: float, lengths,
                             samples_per_length: int, seed: int,
                             workers: int = 1) -> CalibrationResult:
    """Estimate the mean free path of the passive slice model.

    Builds passive media at each requested length, averages tr(t+ t) over
    disorder, and fits N / <tr t+ t> = 1 + L / l by (weighted) least squares.
    Media at different lengths share per-sample seeds, so the fitted curve is
    smooth in L, and each sample is built once up to the longest length and
    captured at the shorter ones.  The samples run on ``map_seed_chunks``, so
    the result is bitwise independent of ``workers``.

    Args:
        lengths: ``FIT_LENGTHS_RULE``, in any order.
        samples_per_length: disorder realizations per length, at least two.
        seed: master seed for the disorder ensemble.
        workers: processes that build the samples, this one included.

    Raises:
        FitFailed: rms relative residual of the affine fit above 10%
            (scattering too strong for the slice model).
    """
    lengths = sorted(float(v) for v in lengths)
    if not fit_lengths_ok(lengths):
        raise ValueError(f"lengths {lengths}: need {FIT_LENGTHS_RULE}")
    if samples_per_length < 2:
        raise ValueError("need at least two samples per length")

    # one build per sample, captured at every length
    spec = MediumSpec(n_modes=n_modes, total_length=lengths[-1],
                      scatter_strength=scatter_strength, loss_gain_sign=0,
                      ballistic_decay_length=None, occupation=0.0, seed=seed)
    seeds = [derive_sample_seed(seed, k) for k in range(samples_per_length)]
    g = np.array(map_seed_chunks(_transmittances, seeds, workers, spec, lengths)).T
    y = np.empty(len(lengths))
    y_var = np.empty(len(lengths))
    for j, g_row in enumerate(g):
        g_mean = g_row.mean()
        g_var = g_row.var(ddof=1) / samples_per_length
        y[j] = n_modes / g_mean
        y_var[j] = (n_modes / g_mean**2) ** 2 * g_var

    weights = 1.0 / y_var
    x = np.asarray(lengths)
    design = np.column_stack([np.ones_like(x), x])
    wdesign = design * weights[:, None]
    normal = design.T @ wdesign
    coeffs = np.linalg.solve(normal, wdesign.T @ y)
    covariance = np.linalg.inv(normal)
    intercept, slope = coeffs
    fit = design @ coeffs
    residual_rel = float(np.sqrt(np.mean(((y - fit) / y) ** 2)))
    if residual_rel > 0.10:
        raise FitFailed(f"affine fit residual {residual_rel:.1%} exceeds 10%")
    if slope <= 0:
        raise FitFailed("non-positive Ohm's-law slope")
    mean_free_path = 1.0 / slope
    stderr = math.sqrt(covariance[1, 1]) / slope**2
    return CalibrationResult(
        mean_free_path=float(mean_free_path),
        stderr=float(stderr),
        intercept=float(intercept),
        residual_rel=residual_rel,
        inverse_transmittance=tuple(float(v) for v in y),
    )
