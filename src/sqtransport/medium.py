"""Random scattering matrices of quasi-1D absorbing or amplifying waveguides.

A disordered waveguide segment is modelled as an alternation of thin random
scattering slices and uniform loss/gain propagation units, combined with the
Redheffer star product.  All lengths are measured in units of the elementary
slice thickness.  The 2N x 2N scattering matrix is stored through its four
N x N blocks::

        S = [[r', t'],
             [t,  r ]]

with modes 1..N on the left of the medium and modes N+1..2N on the right,
so r' reflects left-to-left, t transmits left-to-right, and the star-product
identity element is the perfectly transparent segment r = r' = 0, t = t' = 1.

The disorder loop (``build_batch_checkpoints``) works on the four raw block
arrays and makes a ``ScatteringMatrix`` only at the requested lengths.

Batched samples.  The loop advances a batch of B samples together.  Each
sample draws its slices and phases from its own two streams, exactly as a
sample built alone does; the composites are [B, N, N] stacks, so each period
costs one stacked star product and one stacked propagation unit instead of B
of each.  For small N this removes most of the per-call Python overhead.
The batch's slices live in one (B, P, 2N, 2N) buffer, refilled in place for
each sampling block of P periods.  ``BATCH_BYTES`` sizes both factors:
P = max(1, min(SAMPLING_BLOCK, BATCH_BYTES // ((2N)^2 16 bytes))) and
B = max(1, BATCH_BYTES // (P (2N)^2 16 bytes)), so the buffer stays within
``BATCH_BYTES`` wherever one slice fits (N <= 142).  That gives
(P, B) = (16, 12) at N = 10, (16, 2) at N = 25, (16, 1) from N = 26,
(8, 1) at N = 50, (2, 1) at N = 100 and (1, 1) from N = 143 up.  Stacking
leaves every sample bitwise unchanged: ``matmul``, ``solve`` and ``svd`` on a
stack call the same BLAS or LAPACK routine matrix by matrix that they call
on one matrix, and the elementwise steps do not depend on their neighbours.
The cavity guard and a failure, which takes the sample out of the stack, are
decided per sample.  The cavity-free formula is decided for the whole stack;
every sample takes it in the first period and, with probability one, in no
other.
``build_batch_checkpoints`` splits any number of seeds into such batches;
``build_medium_checkpoints`` is the batch of one.

Sample driver.  ``map_seed_chunks`` runs the Ohm's-law calibration and the
Monte Carlo of ``ensemble`` on W contiguous chunks of the sample seeds.  The
pool's W - 1 chunks are submitted first, so it forks before the caller
allocates anything; the caller computes the first chunk itself, and the
chunks are joined in seed order.  Every result is bitwise independent of W.

Block sampling.  The sampler fills a sample's rows of the buffer in chunks
of max(1, BATCH_BYTES // (4 (2N)^2 16 bytes)) slices with four slice-sized
arrays live per chunk, so its working set also stays within ``BATCH_BYTES``
wherever four slices fit (N <= 71); at N = 50 a chunk is 2 slices.  A chunk's
normal draws continue the stream where the last one stopped, and ``qr``,
``eigvalsh`` and ``matmul`` act matrix by matrix, so a medium is bitwise the
same whatever the block or chunk size; only the unitarity spot-check looks
at its block (the first, middle and last slice of each call).

Cavity bound.  A slice U = exp(i eps K) = V exp(i eps w) V+ is sampled as a
Haar V and eigenvalues w drawn directly from their law, not as the ``eigh``
of a drawn K (``_slice_unitaries``).  Appending it to a composite A needs the
cavity factor 1 - r_A r'_B.  Since r'_B is an off-diagonal block of U, it is
also an off-diagonal block of U - 1, so

    ||r'_B||_2 <= ||U - 1||_2 = max_j |exp(i eps w_j) - 1| = q,

the last step because U - 1 is normal with eigenvalues exp(i eps w_j) - 1.
A passive or absorbing composite is a contraction, so ||r_A||_2 <= 1 and
||r_A r'_B||_2 <= q.  For q < 1 every singular value of the cavity factor
lies in [1 - q, 1 + q], so cond(1 - r_A r'_B) <= (1 + q) / (1 - q).  The
sampler draws w anyway, so q is exact and costs nothing; where this bound
stays below ``CONDITION_LIMIT`` the SVD condition check is skipped.  An amplifying
composite can have ||r_A||_2 > 1, and a slice replaced by the polar fallback
no longer has this q, so both keep the SVD guard that ``star_compose``
always runs.
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
#: maximum allowed unitarity drift of a freshly sampled slice
UNITARITY_DRIFT_TOL = 1e-12
#: condition-number limit of the cavity factor in a star product
CONDITION_LIMIT = 1e12
#: most periods whose slices are sampled together (fewer from N = 36 up)
SAMPLING_BLOCK = 16
#: memory for one batch's slice buffer and for the slice sampler's working set
BATCH_BYTES = 1_300_000
# slice-sized arrays the sampler holds at once: the Ginibre draw, qr's copy, R and Q
_SAMPLER_ARRAYS = 4
# below this q a slice's cavity bound (1 + q) / (1 - q) is under CONDITION_LIMIT,
# with 1e-6 left for the round-off in ||r_A||_2 <= 1 and ||r'_B||_2 <= q
_PROVEN_Q_MAX = (CONDITION_LIMIT - 1.0) / (CONDITION_LIMIT + 1.0) - 1e-6

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
        blocks = {}
        shape = None
        for name in ("r_prime", "t_prime", "t", "r"):
            block = np.array(getattr(self, name), dtype=complex)
            if block.ndim != 2 or block.shape[0] != block.shape[1]:
                raise ValueError(f"block {name} must be a square matrix")
            if shape is None:
                shape = block.shape
            elif block.shape != shape:
                raise ValueError("all four blocks must have the same shape")
            block.setflags(write=False)
            blocks[name] = block
        if shape[0] < 1:
            raise ValueError("need at least one propagating mode")
        if self.medium_kind not in (PASSIVE, ABSORBING, AMPLIFYING):
            raise ValueError(f"unknown medium kind {self.medium_kind!r}")
        for name, block in blocks.items():
            object.__setattr__(self, name, block)

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
class MediumSpec:
    """Physical description of a disordered waveguide segment.

    Attributes:
        n_modes: number of propagating modes N per side.
        total_length: segment length in units of the slice thickness.
        scatter_strength: dimensionless slice scattering strength.
        loss_gain_sign: +1 absorbing, -1 amplifying, 0 passive.
        ballistic_decay_length: amplitude decays (grows) by
            exp(-(+)1 / (2 * ballistic_decay_length)) per slice; ignored for
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


def _slice_unitaries(n_modes: int, scatter_strength: float, rng: np.random.Generator,
                     count: int, out: np.ndarray | None = None) -> tuple:
    """Sample ``count`` unitaries exp(i * eps * K) with K from the Gaussian ensemble.

    K is Hermitian 2N x 2N with independent complex Gaussian off-diagonal
    entries of variance 1/(2N) and real Gaussian diagonal entries of the same
    variance, i.e. K = H / sqrt(2N) with H from the GUE of density
    exp(-tr H^2 / 2).  K is never formed: it is unitarily invariant, so
    K = V diag(w) V+ in law with V Haar and independent of the eigenvalues w,
    and both factors are drawn from one complex Ginibre matrix G = X + iY,
    the same (count, 2, 2N, 2N) normal draw as a direct K would take.

    - V.  Let G = QR, and Lambda = diag(r_ii / |r_ii|).  Then Q Lambda is
      Haar and independent of the triangular factor Lambda+ R, whose diagonal
      is |r_ii| (chi with 2(2N - i) degrees of freedom, i = 0, 1, ...) and
      whose strict upper entries are independent complex normals (Mezzadri,
      Notices AMS 54, 592 (2007)).
    - w.  The beta = 2 Hermite tridiagonal with the 2N standard normals of
      the first row of Lambda+ R (real, then imaginary parts) on its
      diagonal and |r_ii| / sqrt(2), i = 1 .. 2N - 1 (chi_{2(2N-1)}, ...,
      chi_2 over sqrt 2) below it has exactly the GUE eigenvalue law
      (Dumitriu and Edelman, J. Math. Phys. 43, 5830 (2002)); one real
      ``eigvalsh`` gives w, divided by sqrt(2N) for K.
    - U = Q Lambda exp(i eps w) Lambda+ Q+ = Q exp(i eps w) Q+, since the
      diagonal Lambda commutes with exp(i eps w): no phase fix of Q is needed.

    So U has the law of a slice exponentiated through ``eigh`` of a directly
    drawn K, at the cost of one complex QR and one real eigenvalue solve, and
    it is unitary to round-off.

    Writes the slices into ``out`` (new when None) and returns it with, per
    slice, q = ||U - 1||_2 = max_j |exp(i eps w_j) - 1| over the eigenvalues w
    of K; q is None when the polar fallback replaced the slices.
    """
    m = 2 * n_modes
    out = np.empty((count, m, m), dtype=complex) if out is None else out
    distance = np.empty(count)
    chunk = max(1, BATCH_BYTES // (_SAMPLER_ARRAYS * m * m * 16))
    for start in range(0, count, chunk):
        # one contiguous draw per slice, so shorter media are stream prefixes
        draws = rng.standard_normal((min(chunk, count - start), 2, m, m))
        g = draws[:, 0] + 1j * draws[:, 1]
        del draws
        q, r = np.linalg.qr(g)
        del g
        diagonal = np.diagonal(r, axis1=1, axis2=2)
        magnitude = np.abs(diagonal)
        row = r[:, 0, 1:] * (magnitude[:, :1] / diagonal[:, :1])  # first row of Lambda+ R
        normals = np.concatenate((row.real, row.imag), axis=1)[:, :m]
        del r, diagonal, row
        # only the lower triangle is read by eigvalsh
        tridiagonal = np.zeros((len(normals), m * m))
        tridiagonal[:, :: m + 1] = normals
        tridiagonal[:, m :: m + 1] = magnitude[:, 1:] / math.sqrt(2.0)
        w = np.linalg.eigvalsh(tridiagonal.reshape(-1, m, m))
        phases = np.exp(1j * (scatter_strength / math.sqrt(m)) * w)
        distance[start:start + chunk] = np.max(np.abs(phases - 1.0), axis=1)
        np.matmul(q * phases[:, None, :], np.conj(q).transpose(0, 2, 1),
                  out=out[start:start + chunk])
        del q, tridiagonal  # before the next chunk's draw
    # Householder QR keeps the slices unitary to round-off; spot-check a few
    # and fall back to a full polar cleanup if any drifted
    drift = max(np.max(np.abs(out[i] @ out[i].conj().T - np.eye(m)))
                for i in {0, count // 2, count - 1})
    if drift > UNITARITY_DRIFT_TOL:
        u, _, vh = np.linalg.svd(out)
        return np.matmul(u, vh, out=out), None
    return out, distance


def _transparent_order(unitary: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read a 2N x 2N unitary (or a stack of them) as scattering blocks with a
    transparent weak limit.

    The blocks are assigned so that exp(i * eps * K) -> identity corresponds to
    the identity-transmission matrix: the dominant (diagonal) blocks of the
    unitary become the transmission blocks t and t'.
    """
    n = unitary.shape[-1] // 2
    r_prime = unitary[..., n:, :n]
    t_prime = unitary[..., n:, n:]
    t = unitary[..., :n, :n]
    r = unitary[..., :n, n:]
    return r_prime, t_prime, t, r


def sample_slice(n_modes: int, scatter_strength: float,
                 rng: np.random.Generator) -> ScatteringMatrix:
    """Draw one thin random scattering slice.

    The slice is a random unitary exp(i * eps * K) close to the transparent
    segment, with per-mode reflectance of order eps**2 / 2.

    Args:
        n_modes: number of modes per side.
        scatter_strength: eps > 0; values up to about 0.5 keep the slice weak.
        rng: numpy random generator.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if scatter_strength <= 0:
        raise ValueError("scatter_strength must be positive")
    unitary = _slice_unitaries(n_modes, scatter_strength, rng, 1)[0][0]
    return ScatteringMatrix(*_transparent_order(unitary), medium_kind=PASSIVE)


def _combined_kind(kind_a: str, kind_b: str) -> str:
    if kind_a == kind_b:
        return kind_a
    if kind_a == PASSIVE:
        return kind_b
    if kind_b == PASSIVE:
        return kind_a
    raise ValueError("cannot combine absorbing and amplifying segments")


def _star_blocks(a: tuple, b: tuple, guard) -> tuple:
    """Redheffer star product on raw (r', t', t, r) blocks, ``a`` left of ``b``.

    The blocks are N x N matrices, or [B, N, N] stacks of B samples with one
    ``guard`` flag per sample.  ``guard`` runs the condition check of the
    cavity factor; a caller may skip it only where a proven bound keeps the
    factor well conditioned.  Every step acts matrix by matrix, so a sample's
    composite does not depend on the other samples of its stack.

    The cavity-free formula is taken when r_A or r'_B vanishes for the whole
    stack.  In the disorder loop that decision is the same for every sample:
    at period 0 all composites have r_A = 0, and afterwards a slice's r'_B
    vanishes with probability zero.  A sample whose facing reflection
    vanishes inside a cavity stack gets the cavity factor 1, and a composite
    equal to the cavity-free one up to rounding.

    Raises:
        NearSingularCavity: a guarded cavity factor is numerically singular;
            ``samples`` lists the failing stack positions.
    """
    a_r_prime, a_t_prime, a_t, a_r = a
    b_r_prime, b_t_prime, b_t, b_r = b
    if not (a_r.any() and b_r_prime.any()):
        # no internal cavity: one of the facing reflections vanishes exactly
        return (a_r_prime + a_t_prime @ b_r_prime @ a_t, a_t_prime @ b_t_prime,
                b_t @ a_t, b_r + b_t @ a_r @ b_t_prime)

    n = a_r.shape[-1]
    eye = np.eye(n)
    loop = a_r @ b_r_prime
    cavity = eye - loop
    guard = np.broadcast_to(guard, loop.shape[:-2])
    if guard.any():
        # sigma_max(loop) <= sqrt(norm1 * norminf); where the bound keeps
        # 1 - loop far from singular the SVD condition check is unnecessary
        abs_loop = np.abs(loop)
        bound = np.sqrt(abs_loop.sum(axis=-2).max(axis=-1) * abs_loop.sum(axis=-1).max(axis=-1))
        flagged = np.flatnonzero(guard & (bound > 0.9))
        if flagged.size:
            sigma = np.linalg.svd(cavity.reshape(-1, n, n)[flagged], compute_uv=False)
            with np.errstate(divide="ignore", invalid="ignore"):
                singular = (sigma[:, -1] == 0.0) | (sigma[:, 0] / sigma[:, -1] > CONDITION_LIMIT)
            if singular.any():
                raise NearSingularCavity(
                    f"cavity factor condition number exceeds {CONDITION_LIMIT:.0e}",
                    flagged[singular],
                )
    cavity_rev = eye - b_r_prime @ a_r

    x = np.linalg.solve(cavity, a_t)
    y = np.linalg.solve(cavity_rev, b_t_prime)
    return (a_r_prime + a_t_prime @ (b_r_prime @ x), a_t_prime @ y,
            b_t @ x, b_r + b_t @ (a_r @ y))


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
    kind = _combined_kind(a.medium_kind, b.medium_kind)
    blocks = _star_blocks((a.r_prime, a.t_prime, a.t, a.r),
                          (b.r_prime, b.t_prime, b.t, b.r), guard=True)
    return ScatteringMatrix(*blocks, kind)


def _sampling_block(n_modes: int) -> int:
    """Periods sampled per call: up to ``SAMPLING_BLOCK``, as many as fit in ``BATCH_BYTES``."""
    return max(1, min(SAMPLING_BLOCK, BATCH_BYTES // ((2 * n_modes) ** 2 * 16)))


def _batch_size(n_modes: int) -> int:
    """Samples advanced together: as many as fit their slice buffers in ``BATCH_BYTES``."""
    return max(1, BATCH_BYTES // (_sampling_block(n_modes) * (2 * n_modes) ** 2 * 16))


def build_batch_checkpoints(spec: MediumSpec, seeds, lengths) -> Iterator[list]:
    """Composites of one disorder realization per seed at several lengths, one pass.

    ``spec`` fixes the medium; each seed replaces ``spec.seed`` for one
    sample.  The seeds are built in consecutive batches of
    ``_batch_size(spec.n_modes)``, so the slice buffers stay within
    ``BATCH_BYTES`` however many seeds are passed, and a batch is built only
    when the returned iterator reaches it.

    Yields, per seed in order, one list with an entry per requested length in
    the given order: the validated ScatteringMatrix, or the
    NearSingularCavity / GainPositivityViolation instance if that length is
    unreachable.  A sample whose cavity fails leaves its batch, and every
    longer length carries the same NearSingularCavity.
    """
    lengths = list(lengths)
    if any(length < 0 for length in lengths):
        raise ValueError("lengths must be >= 0")
    if sorted(lengths) != lengths:
        raise ValueError("lengths must be sorted ascending")
    period_targets = [int(math.ceil(length)) for length in lengths]
    size = _batch_size(spec.n_modes)
    return (row for first in range(0, len(seeds), size)
            for row in _build_batch(spec, seeds[first:first + size], period_targets))


def _build_batch(spec: MediumSpec, seeds, period_targets) -> list[list]:
    """One batch of ``build_batch_checkpoints``, captured after each period target.

    The samples are advanced together as [B, N, N] stacks of raw blocks,
    B = len(seeds), one stacked star product and one stacked propagation unit
    per period; each sample keeps its own slice and phase streams, its own
    cavity guard and its own failure.
    """
    n = spec.n_modes
    size = len(seeds)
    n_periods = period_targets[-1] if period_targets else 0
    streams = [[np.random.default_rng(seq) for seq in np.random.SeedSequence(seed).spawn(2)]
               for seed in seeds]
    # a propagation unit is one slice of free propagation with uniform loss or
    # gain: r = r' = 0 and t = t' = diag(a exp(i theta_n)), independent uniform
    # phases and the amplitude a of the medium kind
    amplitude = (
        1.0
        if spec.loss_gain_sign == 0
        else math.exp(-spec.loss_gain_sign / (2.0 * spec.ballistic_decay_length))
    )
    zero = np.zeros((size, n, n), dtype=complex)
    eye = np.repeat(np.eye(n, dtype=complex)[None], size, axis=0)
    blocks = (zero, eye, eye, zero)

    # one sampling block of every active sample, refilled in place
    block_size = _sampling_block(n)
    period_block = min(block_size, n_periods)
    slices = np.empty((size, period_block, 2 * n, 2 * n), dtype=complex)
    diagonals = np.empty((size, period_block, n), dtype=complex)
    guards = np.empty((size, period_block), dtype=bool)
    # the propagation units of one period; only the diagonal is ever written
    units = np.zeros((size, n, n), dtype=complex)
    unit_diagonals = units.reshape(size, n * n)[:, :: n + 1]

    active = np.arange(size)  # seed positions of the samples still in the stack
    results: list[list] = [[] for _ in range(size)]
    failures: dict = {}
    period = 0
    drawn = -1  # index of the sampling block held in the buffers
    for target in period_targets:
        while active.size and period < target:
            sampling_block, offset = divmod(period, block_size)
            live = active.size
            if sampling_block != drawn:
                drawn = sampling_block
                count = min(block_size, n_periods - period)
                for row, sample in enumerate(active):
                    rng_slices, rng_phases = streams[sample]
                    _, distance = _slice_unitaries(n, spec.scatter_strength, rng_slices,
                                                   count, out=slices[row, :count])
                    thetas = rng_phases.uniform(0.0, 2.0 * np.pi, (count, n))
                    diagonals[row, :count] = amplitude * np.exp(1j * thetas)
                    # amplifying composites may have ||r_A||_2 > 1, and a polar
                    # fallback leaves no q: both keep the SVD guard
                    guards[row, :count] = (True if spec.loss_gain_sign < 0 or distance is None
                                           else distance >= _PROVEN_Q_MAX)
            try:
                blocks = _star_blocks(blocks, _transparent_order(slices[:live, offset]),
                                      guards[:live, offset])
            except NearSingularCavity as exc:
                # the failing samples leave the stack; the rest redo the star
                # product of this period with the slices already drawn
                keep = np.ones(live, dtype=bool)
                keep[list(exc.samples)] = False
                for sample in active[~keep]:
                    failures[sample] = exc
                active = active[keep]
                blocks = tuple(block[keep] for block in blocks)
                for buffer in (slices, diagonals, guards):
                    buffer[:active.size] = buffer[:live][keep]
                continue
            # the propagation unit: r, r' = 0 and t = t' = diagonal, so
            # r' + t' 0 t = r' stays and no star product is needed
            unit_diagonals[:live] = diagonals[:live, offset]
            d = units[:live]
            r_prime, t_prime, t, r = blocks
            blocks = (r_prime, t_prime @ d, d @ t, d @ r @ d)
            period += 1
        for sample, failure in failures.items():
            results[sample].append(failure)
        for row, sample in enumerate(active):
            matrix = ScatteringMatrix(*(block[row] for block in blocks), spec.medium_kind)
            try:
                matrix.validate()
                results[sample].append(matrix)
            except GainPositivityViolation as exc:
                results[sample].append(exc)
    return results


def build_medium_checkpoints(spec: MediumSpec, lengths) -> list:
    """Composites of one disorder realization at several lengths, one pass.

    Because the slice and phase streams are deterministic functions of the
    seed, the medium of length L is a prefix of the medium of any longer
    length built from the same spec.  This grows the composite once up to
    max(lengths) and captures (and validates) it at every requested length,
    bit-identical to building each length separately: the batch of one of
    ``build_batch_checkpoints``.

    Returns one entry per requested length, in the given order: the validated
    ScatteringMatrix, or the NearSingularCavity / GainPositivityViolation
    instance if that length is unreachable (every longer length then carries
    the same failure).
    """
    return next(build_batch_checkpoints(spec, [spec.seed], lengths))


def build_medium(spec: MediumSpec) -> ScatteringMatrix:
    """Assemble the scattering matrix of a full waveguide segment.

    Alternates random slices and loss/gain propagation units over
    ceil(total_length) periods.  Deterministic for a fixed seed: the slice
    and phase streams are two children of ``SeedSequence(spec.seed)``, so
    shorter segments built from the same seed share their leading slices.

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
        lengths: at least three lengths spanning a factor of four or more.
        samples_per_length: disorder realizations per length, at least two.
        seed: master seed for the disorder ensemble.
        workers: processes that build the samples, this one included.

    Raises:
        FitFailed: rms relative residual of the affine fit above 10%
            (scattering too strong for the slice model).
    """
    lengths = sorted(float(v) for v in lengths)
    if len(lengths) < 3:
        raise ValueError("need at least three lengths")
    if lengths[0] <= 0:
        raise ValueError("lengths must be positive")
    if lengths[-1] / lengths[0] < 4:
        raise ValueError("lengths must span at least a factor of four")
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
