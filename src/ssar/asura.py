"""Adaptive barrier-potential row sampling with a budgeted stopping rule.

The sampler maintains a running d x d matrix ``A`` squeezed between two moving
scalar barriers ``l`` and ``u``.  Each iteration samples one row ``x`` of the left
singular factor with probability proportional to ``U(x)^T M U(x)``, how much it
would push ``A`` toward a barrier, adds the rescaled rank-one update, and advances
the barriers asymmetrically.  The mixture ``M = (uI - A)^{-1} + (A - lI)^{-1} =
(u - l) P^{-1}`` is a Cholesky-checked inverse of ``P = (uI - A)(A - lI)``, which
is positive definite exactly while ``A`` is inside; ``tr M`` is the potential.

The draw is two-level.  The rows are split once per run into contiguous blocks
of about ``sqrt(n)`` rows (at least ``2d``), with a block edge at the end of the
unlabeled block, and each block's Gram matrix is stored.  An iteration reads
every block's mass off the Gram stack, picks a block by inverse CDF, and scores
only that block's rows to pick the row, using the same single uniform.  This
is the same distribution and the same random stream as scoring every row, at
``O((n / B + B) d^2 + d^3)`` per iteration instead of ``O(n d^2)`` for blocks
of ``B`` rows.

The loop charges every iteration's potential against a fixed budget, which
caps the iteration count with probability one and, after normalizing the
accumulated weights by the final barrier midpoint, leaves the weighted Gram
matrix of the sampled rows spectrally close to the identity.

Many independent runs of one instance go in lockstep
(:func:`asura_sample_batch`, through which :func:`ssar.regression.draw_samples`
draws every adaptive run of ``run``, its retries, ``verify`` and ``sweep``):
each iteration shares its numpy calls across the active runs, every run
keeping its own generator, and each run gives the picks and trace of
:func:`asura_sample` bit for bit.  A run's seed is an argument of the
sampler, not a field of :class:`AsuraConfig`, which holds only ``epsilon``
and ``c0``, so one config serves every run of a batch.  At small rank an
iteration is mostly numpy call overhead, so a stack of 30 runs samples
several times faster than the runs in turn.  A stack of one or two runs pays
the stack's own calls with too little to share them across and is slower
than :func:`asura_sample`, which stays the one-run sampler and runs such
batches.  A stack in which any run fails keeps the runs that already left it
and reruns the others alone.  Every run ends in its own slot of the batch,
holding its sample and trace or the error that ended it, and both samplers
build their traces in one place (:func:`_unstack`).

The sampler takes the instance and returns one :class:`AsuraTrace` per run.
The trace, together with ``U``, determines every quantity the analysis
checks: the running matrices ``A_j``, the weights, the midpoint-normalized
coefficients and the unlabeled-block series.  The checks of a finished run
live in :mod:`ssar.verify`, which reads them from the trace and the factors
alone, and judges them by this module's barrier step and containment test.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import Dataset
from .errors import (
    BarrierViolationError,
    InvalidInputError,
    NumericalBreakdownError,
    SsarError,
)
from .rngutil import make_rng

__all__ = [
    "AsuraConfig",
    "AsuraTrace",
    "SampleSet",
    "asura_sample",
    "asura_sample_batch",
]

# Sampling masses below this are a numerical breakdown; smaller negatives are
# round-off and are clamped to zero.
P_ERROR_FLOOR = -1e-8

# Eigenvalue tolerance for barrier-containment assertions.
EIG_TOL = 1e-9

# Bytes of per-run state, scratch and record that one lockstep stack may hold.
LOCKSTEP_BYTES = 1 << 20

# Uniforms each run of a lockstep stack draws from its generator at a time,
# and the iterations its record grows by.
UNIFORM_CHUNK = 64

# The fewest runs a lockstep stack should hold: a stack of one or two runs
# makes the same numpy calls per iteration with too little to share them
# across, and is slower than running them in turn.
LOCKSTEP_MIN_RUNS = 3


@dataclass(frozen=True)
class AsuraConfig:
    """Run parameters for the adaptive sampler.

    ``gamma = sqrt(epsilon) / c0`` controls the barrier speed.  The default
    ``c0 = 2`` is a practical choice; the spectral guarantees only carry their
    full constants for much larger ``c0`` (slower, tighter runs).  The
    sampler runs for any ``gamma < 1/2``, and a config with a larger
    ``gamma`` cannot be built; the matrix checks of a run in
    :mod:`ssar.verify` (:func:`~ssar.verify.check_well_balanced` and
    :func:`~ssar.verify.check_hard_lemmas`) need ``gamma <= 1/4``.
    """

    epsilon: float
    c0: float = 2.0

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise InvalidInputError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not (math.isfinite(self.c0) and self.c0 > 0):
            raise InvalidInputError(f"c0 must be finite and positive, got {self.c0}")
        if self.gamma >= 0.5:
            raise InvalidInputError(
                f"gamma={self.gamma:.4g} breaks the barrier update (needs gamma < 1/2); raise c0"
            )

    @property
    def gamma(self) -> float:
        return math.sqrt(self.epsilon) / self.c0


@dataclass
class AsuraTrace:
    """The record of one sampler run.

    ``u`` and ``l`` have length ``m + 1`` (initial through final barrier
    values); the remaining per-iteration arrays have length ``m``.
    ``px1_sum`` is the sampling mass on the ``n_unlabeled`` leading rows and
    ``phi_d`` the matching block-weighted potential.  No matrix is stored:
    with the factor ``U``, the trace determines every running matrix (see
    :func:`ssar.verify._replay`), and the weights and coefficients derive
    from it.
    """

    gamma: float
    rank: int
    n_rows: int
    n_unlabeled: int
    phi_id: np.ndarray
    u: np.ndarray
    l: np.ndarray
    sampled_index: np.ndarray
    p_j: np.ndarray
    px1_sum: np.ndarray
    phi_d: np.ndarray

    @property
    def m(self) -> int:
        return self.phi_id.shape[0]

    @property
    def cap(self) -> int:
        """The run's iteration cap ``ceil(2 r / gamma^2)``."""
        return _cap(self.gamma, self.rank)

    @property
    def w_prime(self) -> np.ndarray:
        """Update weights ``w'_j = gamma / (phi_j p_j)`` of the rank-one steps."""
        return self.gamma / (self.phi_id * self.p_j)

    @property
    def u_final(self) -> float:
        return float(self.u[-1])

    @property
    def l_final(self) -> float:
        return float(self.l[-1])

    @property
    def mid(self) -> float:
        """Final barrier midpoint, which normalizes the weights and coefficients."""
        return 0.5 * (self.u_final + self.l_final)

    @property
    def alpha(self) -> np.ndarray:
        """Midpoint-normalized coefficients ``alpha_j = (gamma / phi_j) / mid``."""
        return (self.gamma / self.phi_id) / self.mid


@dataclass
class SampleSet:
    """Sampled row indices with their loss weights.

    ``weights`` multiply squared residuals directly.  For the adaptive
    sampler they are ``trace.w_prime / trace.mid`` of its run's trace.
    """

    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.indices.shape != self.weights.shape:
            raise InvalidInputError("indices and weights must have equal length")
        if self.weights.size and np.any(self.weights <= 0):
            raise InvalidInputError("weights must be positive")

    @property
    def m(self) -> int:
        return self.indices.shape[0]


def _barrier_weights(a: np.ndarray, u: float | np.ndarray, l: float | np.ndarray,
                     j: int | None = None):
    """The normalized barrier mixture ``M / phi`` of the running matrix, and ``phi = tr M``.

    ``M = (uI - A)^{-1} + (A - lI)^{-1} = (u - l) P^{-1}``, and ``P = (uI - A)(A - lI)
    = h^2 I - (A - cI)^2``, with ``c`` and ``h`` the window's midpoint and half-width,
    is positive definite exactly when every eigenvalue of ``a`` lies in ``(l, u)``:
    its Cholesky factorization is the containment check, one inverse gives ``M``.
    ``a`` is one ``(r, r)`` state with float barriers or a ``(k, r, r)`` stack with
    ``(k,)`` barrier arrays.  Touching a barrier raises and the error names the
    first touched state.  For a stack of one run's iterations, ``j`` is the
    iteration of the first state and the error names the touched one's
    iteration.  A stack of several runs passes no ``j``: when it fails, the
    lockstep sampler reruns its active runs alone, whose errors name the iteration.
    """
    ub, lb = (u, l) if a.ndim == 2 else (u[:, None, None], l[:, None, None])
    eye = np.eye(a.shape[-1])
    p = (ub * eye - a) @ (a - lb * eye)
    try:
        np.linalg.cholesky(p)
        m = np.linalg.inv(p)
    except np.linalg.LinAlgError:
        theta, u, l = np.linalg.eigvalsh(a).reshape(-1, a.shape[-1]), np.ravel(u), np.ravel(l)
        margin = np.minimum(u - theta[:, -1], theta[:, 0] - l)
        k = int(np.argmax(margin <= max(margin.min(), 0.0)))  # first touched, else closest
        where = "" if j is None else f" at iteration {j + k}"
        raise BarrierViolationError(
            f"barrier touched{where}: eigenvalues span [{theta[k, 0]:.6g}, {theta[k, -1]:.6g}] "
            f"against window [{l[k]:.6g}, {u[k]:.6g}]"
        ) from None
    tr = m.trace(axis1=-2, axis2=-1)
    return m / tr[..., None, None], (u - l) * tr


def _contained(a: np.ndarray, u: float | np.ndarray, l: float | np.ndarray) -> bool:
    """Whether ``(l - EIG_TOL) I < A < (u + EIG_TOL) I`` for a state, or each of a stack as in
    :func:`_barrier_weights`: exactly when both differences have a Cholesky factor."""
    ub, lb = (u, l) if a.ndim == 2 else (u[:, None, None], l[:, None, None])
    eye = np.eye(a.shape[-1])
    try:
        np.linalg.cholesky((ub + EIG_TOL) * eye - a), np.linalg.cholesky(a - (lb - EIG_TOL) * eye)
    except np.linalg.LinAlgError:
        return False
    return True


def _row_blocks(u_mat: np.ndarray, split: int) -> tuple[list[int], np.ndarray]:
    """Contiguous row blocks with an edge at ``split``, and their flattened Grams.

    Returns the block edges (first row of each block, then ``n``) and the
    ``(n_blocks, r * r)`` stack of ``U_k^T U_k``.  Blocks hold
    ``max(ceil(sqrt(n)), 2 r)`` rows: ``sqrt(n)`` balances the block-mass and
    in-block scoring work, and the ``2 r`` floor keeps the stack at most about
    half the size of ``u_mat``.
    """
    n, r = u_mat.shape
    size = max(math.isqrt(n - 1) + 1, 2 * r)
    edges = [*range(0, split, size), *range(split, n, size), n]
    grams = np.empty((len(edges) - 1, r, r))
    for k, (s, e) in enumerate(zip(edges[:-1], edges[1:])):
        np.matmul(u_mat[s:e].T, u_mat[s:e], out=grams[k])
    return edges, grams.reshape(-1, r * r)


def _last_positive(mass, j: int) -> int:
    """Index of the last positive entry: where iteration ``j``'s draw lands
    when round-off leaves the cumulative sum short of the target."""
    for i in range(len(mass) - 1, -1, -1):
        if mass[i] > 0.0:
            return i
    raise NumericalBreakdownError(f"sampled a zero-probability row at iteration {j}")


def _normalize_probabilities(p_raw: np.ndarray) -> np.ndarray:
    """Clamp round-off negatives and renormalize to probability vectors along the last axis."""
    low = float(p_raw.min()) if p_raw.size else 0.0
    if low < P_ERROR_FLOOR:
        raise NumericalBreakdownError(
            f"sampling probability {low:.3e} fell below the breakdown threshold"
        )
    if low < 0.0:
        p_raw = np.where(p_raw < 0.0, 0.0, p_raw)
    total = p_raw.sum(axis=-1, keepdims=True)
    if not (np.all(np.isfinite(total)) and np.all(total > 0.0)):
        raise NumericalBreakdownError("sampling probabilities do not sum to a positive value")
    return p_raw / total


def _limits(cfg: AsuraConfig, r: int) -> tuple[float, int, float]:
    """``gamma``, the iteration cap and the potential budget of a run at rank ``r``."""
    gamma = cfg.gamma
    return gamma, _cap(gamma, r), 8.0 * r / gamma


def _cap(gamma: float, r: int) -> int:
    """The iteration cap ``ceil(2 r / gamma^2)`` of a run at rank ``r``."""
    return math.ceil(2.0 * r / gamma**2)


def asura_sample(
    ds: Dataset, cfg: AsuraConfig, seed: int, blocks=None
) -> tuple[SampleSet, AsuraTrace]:
    """Run the adaptive sampler on the rows of ``ds.svd.u``, drawing from ``make_rng(seed)``.

    The trace records, per iteration, the sampling mass on the ``ds.n1``
    unlabeled rows and the matching block-weighted potential.  The sample is
    the trace's picks with weights ``trace.w_prime / trace.mid``.
    ``blocks`` is ``_row_blocks(ds.svd.u, ds.n1)``, which
    :func:`asura_sample_batch` builds once for all of its runs; it is built
    here when not given.

    Returns
    -------
    (SampleSet, AsuraTrace)
    """
    u_mat = ds.svd.u
    r = u_mat.shape[1]
    n1 = ds.n1
    gamma, cap, budget = _limits(cfg, r)
    rng = make_rng(seed)

    edges, grams = _row_blocks(u_mat, n1) if blocks is None else blocks
    n_blocks_unlabeled = edges.index(n1)

    a = np.zeros((r, r))
    u = 2.0 * r / gamma
    l = -u
    phi_cum = 0.0
    # Per iteration, in the field order of the lockstep record.
    record: list[tuple] = []

    j = 0
    while (u - l) + phi_cum < budget:
        if j >= cap:
            raise NumericalBreakdownError(
                f"stopping rule failed to fire within the {cap}-iteration cap"
            )
        mix, phi = _barrier_weights(a, u, l, j)

        # Row x has mass U(x)^T M U(x); a block's mass is <G_k, M>.  The block
        # level runs on Python lists, which beat numpy calls at this length.
        mass = (grams @ mix.ravel()).tolist()
        low = min(mass)
        if low < P_ERROR_FLOOR:
            raise NumericalBreakdownError(
                f"block sampling mass {low:.3e} fell below the breakdown threshold "
                f"at iteration {j}"
            )
        if low < 0.0:
            mass = [max(x, 0.0) for x in mass]
        cum = list(accumulate(mass))
        total = cum[-1]
        if not math.isfinite(total) or total <= 0.0:
            raise NumericalBreakdownError(
                f"sampling probabilities do not sum to a positive value at iteration {j}"
            )

        target = rng.random() * total
        k = bisect_right(cum, target)
        if k == len(cum):
            k = _last_positive(mass, j)
        start = edges[k]
        rows = u_mat[start : edges[k + 1]]
        score = np.maximum(np.einsum("ij,ij->i", rows @ mix, rows), 0.0)
        offset = cum[k - 1] if k else 0.0
        i = int(np.searchsorted(np.cumsum(score), target - offset, side="right"))
        if i == score.size:
            i = _last_positive(score, j)
        pick = start + i
        p_pick = float(score[i]) / total
        if p_pick <= 0.0:
            raise NumericalBreakdownError(f"sampled a zero-probability row at iteration {j}")
        w_prime = gamma / (phi * p_pick)

        mass_unlabeled = cum[n_blocks_unlabeled - 1]
        row = u_mat[pick]
        a = a + w_prime * np.outer(row, row)
        u += gamma / ((1.0 - 2.0 * gamma) * phi)
        l += gamma / ((1.0 + 2.0 * gamma) * phi)
        phi_cum += phi
        j += 1
        record.append((phi, pick, p_pick, mass_unlabeled / total, phi * mass_unlabeled, u, l))

    if not _contained(a, u, l):
        raise BarrierViolationError(f"final matrix left the barrier window after {j} iterations")
    return _unstack(np.array(record).reshape(j, 7).T[:, None], [j], ds, gamma)[0]


def asura_sample_batch(ds: Dataset, cfg: AsuraConfig, seeds: Sequence[int]) -> list:
    """Run the sampler once per seed, advancing the runs in lockstep.

    Returns one slot per seed.  Slot ``k`` holds what
    ``asura_sample(ds, cfg, seeds[k])`` gives, bit for bit: its
    ``(SampleSet, AsuraTrace)`` pair, or the :class:`BarrierViolationError`
    or :class:`NumericalBreakdownError` it raises, with the same class and
    message.  A negative seed raises its :class:`InvalidInputError`.

    Each iteration shares its numpy calls across the active runs: one
    stacked barrier step, one stacked product from the states to every block
    mass, the block draw as a count of cumulative masses at or below each
    target, one gather and scoring of the picked blocks per block length, and
    one stacked rank-one update.  The products are the ones
    :func:`asura_sample` takes, a matrix-vector product per state and a
    product per block of its own row count, since BLAS can round a product of
    another shape differently in the last bit.  Each run keeps its own
    generator and draws its uniforms ``UNIFORM_CHUNK`` at a time, the same
    stream as its one-by-one draws.  A run that meets its budget leaves the
    stack after its final containment check, :func:`_contained` stacked over
    the runs that stop together.

    A batch of fewer than ``LOCKSTEP_MIN_RUNS`` seeds runs them in turn with
    :func:`asura_sample`.  A stack holds about ``LOCKSTEP_BYTES`` of per-run
    work, so a larger batch runs as consecutive stacks, none of fewer than
    ``LOCKSTEP_MIN_RUNS`` runs.  A stack stops at the first failure of any of
    its runs.  The runs that already left it keep their slots, and the runs
    still in it are rerun alone, so that each of them ends in its own slot;
    the later stacks still run.
    """
    edges, grams = _row_blocks(ds.svd.u, ds.n1)

    def alone(seed):
        try:
            return asura_sample(ds, cfg, seed, (edges, grams))
        except (BarrierViolationError, NumericalBreakdownError) as exc:
            return exc

    n_runs = len(seeds)
    if n_runs < LOCKSTEP_MIN_RUNS:
        return [alone(seed) for seed in seeds]
    r = ds.svd.rank
    gamma, cap, budget = _limits(cfg, r)
    starts, lengths = np.asarray(edges[:-1]), np.diff(edges)
    blocks = (grams, starts, lengths, edges.index(ds.n1))
    # Floats a run holds in a stack: its state and the barrier step's scratch
    # (about 10 r^2), its gathered block and that block's product, scores and
    # masses, its uniforms, and its first UNIFORM_CHUNK iterations of record.
    size = int(lengths.max())
    per_run = 10 * r * r + 2 * (r + 2) * size + 3 * len(lengths) + 8 * UNIFORM_CHUNK
    # Stacks of near-equal size, none below LOCKSTEP_MIN_RUNS.
    n_stacks = min(-(-n_runs * 8 * per_run // LOCKSTEP_BYTES), n_runs // LOCKSTEP_MIN_RUNS)
    cuts = [n_runs * s // n_stacks for s in range(n_stacks + 1)]
    out = []
    for s0, s1 in zip(cuts[:-1], cuts[1:]):
        stack = seeds[s0:s1]
        slots = _lockstep(ds, blocks, gamma, cap, budget, stack)
        out += [alone(seed) if slot is None else slot for seed, slot in zip(stack, slots)]
    return out


def _lockstep(ds, blocks, gamma, cap, budget, seeds) -> list:
    """One stack of :func:`asura_sample_batch`: the runs of ``seeds`` side by side.

    Returns one slot per seed: the run's ``(SampleSet, AsuraTrace)`` pair, or
    None for a run still in the stack at the first failure of any run, where
    the stack stops."""
    u_mat = ds.svd.u
    n, r = u_mat.shape
    grams, starts, lengths, n_blocks_unlabeled = blocks
    n_blocks, size = len(lengths), int(lengths.max())
    # For each block length (at most three), the row indices of every block
    # read that long, clipped at the last row; only blocks of that length use them.
    rows_of = {
        rows_in_block: np.minimum(starts[:, None] + np.arange(rows_in_block), n - 1)
        for rows_in_block in set(lengths.tolist())
    }
    gens = [make_rng(seed) for seed in seeds]

    # The active runs, compacted as runs leave: their ids (positions in
    # ``seeds``), states, barriers, spent potential and unused uniforms.
    ids = np.arange(len(seeds))
    at = np.arange(ids.size)
    a = np.zeros((ids.size, r, r))
    u = np.full(ids.size, 2.0 * r / gamma)
    l = -u
    phi_cum = np.zeros(ids.size)
    uniforms = np.empty((ids.size, 0))

    m = np.zeros(ids.size, dtype=np.int64)
    # Per field, run and iteration: the potential, pick, pick probability,
    # unlabeled mass share, block potential and the barriers after the step.
    record = np.empty((7, ids.size, UNIFORM_CHUNK))

    j = 0
    try:
        while True:
            keep = (u - l) + phi_cum < budget
            if not keep.all():
                stop = ~keep
                if not _contained(a[stop], u[stop], l[stop]):
                    raise SsarError("a final matrix left the barrier window")
                m[ids[stop]] = j
                ids, a, u, l = ids[keep], a[keep], u[keep], l[keep]
                phi_cum, uniforms = phi_cum[keep], uniforms[keep]
                at = np.arange(ids.size)
                if not ids.size:
                    break
            if j >= cap:
                raise SsarError("the stopping rule failed to fire within the cap")
            if j % UNIFORM_CHUNK == 0:
                uniforms = np.array([gens[run].random(UNIFORM_CHUNK) for run in ids])

            mix, phi = _barrier_weights(a, u, l)
            mass = np.matmul(grams, mix.reshape(-1, r * r, 1)).reshape(ids.size, n_blocks)
            if mass.min() < max(P_ERROR_FLOOR, 0.0):  # a breakdown, or round-off negatives
                if mass.min() < P_ERROR_FLOOR:
                    raise SsarError("a block sampling mass fell below the breakdown threshold")
                mass = np.maximum(mass, 0.0)
            cum = np.zeros((ids.size, n_blocks + 1))
            np.cumsum(mass, axis=1, out=cum[:, 1:])
            total = cum[:, -1]
            if not (total.min() > 0.0 and total.max() < math.inf):
                raise SsarError("sampling probabilities do not sum to a positive value")

            target = uniforms[:, j % UNIFORM_CHUNK] * total
            k = np.count_nonzero(cum[:, 1:] <= target[:, None], axis=1)
            if k.max() == n_blocks:
                for p in np.flatnonzero(k == n_blocks):
                    k[p] = _last_positive(mass[p], j)

            # One product per block length: BLAS can round a product of more rows
            # differently in the last bit, so these are the products asura_sample takes.
            length = lengths[k]
            score = np.zeros((ids.size, size))
            for rows_in_block, block_rows in rows_of.items():
                sub = np.flatnonzero(length == rows_in_block)
                if sub.size:
                    rows = u_mat[block_rows[k[sub]]]
                    score[sub, :rows_in_block] = np.einsum("kij,kij->ki", rows @ mix[sub], rows)
            np.maximum(score, 0.0, out=score)
            rest = target - cum[at, k]
            i = np.count_nonzero(np.cumsum(score, axis=1) <= rest[:, None], axis=1)
            for p in np.flatnonzero(i >= length):
                i[p] = _last_positive(score[p, : length[p]], j)
            pick = starts[k] + i
            p_pick = score[at, i] / total
            if not p_pick.min() > 0.0:
                raise SsarError("sampled a zero-probability row")
            w_prime = gamma / (phi * p_pick)

            mass_unlabeled = cum[:, n_blocks_unlabeled]
            sel = u_mat[pick]
            update = np.einsum("ki,kj->kij", sel, sel)
            update *= w_prime[:, None, None]
            a = np.add(a, update, out=update)
            u = u + gamma / ((1.0 - 2.0 * gamma) * phi)
            l = l + gamma / ((1.0 + 2.0 * gamma) * phi)
            phi_cum = phi_cum + phi
            if j == record.shape[2]:
                record = np.concatenate([record, np.empty((7, len(seeds), UNIFORM_CHUNK))], axis=2)
            record[:, ids, j] = (phi, pick, p_pick, mass_unlabeled / total,
                                 phi * mass_unlabeled, u, l)
            j += 1
    except SsarError:  # the stack stops; the runs still in it are rerun alone
        m[ids] = -1

    return _unstack(record, m, ds, gamma)


def _unstack(record, m, ds: Dataset, gamma: float) -> list:
    """Each run's sample and trace from a per-iteration record, the one place both are built.

    ``record`` is the ``(7, runs, iterations)`` stack of the potential, pick,
    pick probability, unlabeled mass share, block potential and the barriers
    after each step, and run ``k`` has ``m[k]`` iterations; a run with
    ``m[k] < 0`` did not finish and gets None."""
    r = ds.svd.rank
    phis, picks, pjs, px1s, phids, us, ls = record
    u0 = 2.0 * r / gamma
    out = []
    for k, mk in enumerate(m):
        if mk < 0:
            out.append(None)
            continue
        trace = AsuraTrace(
            gamma=gamma,
            rank=r,
            n_rows=ds.n,
            n_unlabeled=ds.n1,
            phi_id=phis[k, :mk].copy(),
            u=np.concatenate(([u0], us[k, :mk])),
            l=np.concatenate(([-u0], ls[k, :mk])),
            sampled_index=picks[k, :mk].astype(np.int64),
            p_j=pjs[k, :mk].copy(),
            px1_sum=px1s[k, :mk].copy(),
            phi_d=phids[k, :mk].copy(),
        )
        out.append((SampleSet(trace.sampled_index, trace.w_prime / trace.mid), trace))
    return out
