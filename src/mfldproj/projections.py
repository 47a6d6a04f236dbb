"""Haar-random orthonormal projections and distortion measurements.

The distortion of a vector u under an M-by-N row-orthonormal projection A
is ``|sqrt(N/M) ||Au|| / ||u|| - 1|``; the sqrt(N/M) factor makes the
expected value zero over a uniformly random projection subspace.  This
module samples such projections, measures vector / point-set / subspace
distortions, and computes principal angles between subspaces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NumericalBreakdown

__all__ = [
    "Projector",
    "SubspaceBasis",
    "PrincipalAngles",
    "DistortionSummary",
    "ChordScan",
    "WeylGapResult",
    "sample_projector",
    "random_subspace",
    "vector_distortion",
    "pointset_distortion",
    "subspace_distortion",
    "principal_angles",
    "weyl_gap",
]

_ORTHO_TOL = 1e-10


def _signed_qr(g: np.ndarray) -> np.ndarray:
    """Q factor of a matrix, or of each matrix in a stack, with the sign of
    the triangular factor's diagonal fixed to be nonnegative: of a Gaussian
    matrix this Q is Haar, which it is not without the sign fix."""
    q, r = np.linalg.qr(g)
    sign = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    sign[sign == 0] = 1.0
    return q * sign[..., None, :]


def _haar_columns(N: int, K: int, rng: np.random.Generator) -> np.ndarray:
    """N x K column-orthonormal matrix, Haar-distributed (Householder QR)."""
    return _signed_qr(rng.standard_normal((N, K)))


def _transposed(a: np.ndarray) -> np.ndarray:
    """Row-major copy of a stack's transposes: numpy multiplies stacked
    matrices through BLAS only when every operand is row-major, and its
    fallback loop is about 2.5 times slower on 5 x 5 stacks."""
    return np.ascontiguousarray(a.transpose(0, 2, 1))


@functools.lru_cache(maxsize=None)
def _strict_lower(K: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices below the diagonal of a K x K matrix, built
    once per K (read-only: every caller shares them)."""
    rows, cols = np.tril_indices(K, -1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _wishart(dof: int, K: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """(size, K, K) draws from Wishart_K(dof): Bartlett factors when
    dof >= K, the Gram of a dof x K Gaussian otherwise (singular then)."""
    if dof < K:
        g = rng.standard_normal((size, dof, K))
        return _transposed(g) @ g
    bart = np.zeros((size, K, K))
    rows, cols = _strict_lower(K)
    bart[:, rows, cols] = rng.standard_normal((size, rows.size))
    for i in range(K):
        bart[:, i, i] = np.sqrt(rng.chisquare(dof - i, size=size))
    return bart @ _transposed(bart)


def _haar_frame_rows(N: int, k: int, M: int, rng: np.random.Generator) -> np.ndarray:
    """The first M rows (M x k) of a Haar N x k column-orthonormal frame,
    drawn from the cheaper side without forming the frame.

    For k <= M the frame is W = H L^{-T} for an N x k Gaussian H with
    H^T H = L L^T (the Q factor of H with a positive triangular diagonal,
    which is Haar).  Its first M rows are G L^{-T} with G the first M rows
    of H, and H^T H = G^T G + Wishart_k(N - M) for the rows below them:
    O(M k^2 + k^3).  For k > M the rows are the top-left M x k block of a
    Haar N x N matrix, whose transpose is Haar too (Mezzadri 2007): they
    are the transposed first k rows of a Haar N x M frame, O(k M^2 + M^3).
    At k = N that frame draws the normals of :func:`sample_projector`.
    """
    if k > M:
        return _haar_frame_rows(N, M, k, rng).T
    g = rng.standard_normal((M, k))
    chol = np.linalg.cholesky(g.T @ g + _wishart(N - M, k, 1, rng)[0])
    return np.linalg.solve(chol, g.T).T


@dataclass(frozen=True)
class Projector:
    """Row-orthonormal M x N random projection."""

    rows: np.ndarray = field(repr=False)
    M: int
    N: int
    seed: int

    def __post_init__(self):
        if not (1 <= self.M <= self.N):
            raise ValueError(f"need 1 <= M <= N, got M={self.M}, N={self.N}")
        if self.rows.shape != (self.M, self.N):
            raise ValueError(f"rows must be {(self.M, self.N)}, got {self.rows.shape}")
        self.rows.flags.writeable = False

    def check_orthonormal(self, tol: float = _ORTHO_TOL) -> None:
        gram = self.rows @ self.rows.T
        err = np.linalg.norm(gram - np.eye(self.M))
        if err > tol:
            raise ValueError(f"projector rows not orthonormal: ||AA^T - I||_F = {err:.3g}")


@dataclass(frozen=True)
class SubspaceBasis:
    """Column-orthonormal N x K basis of a K-dimensional subspace."""

    cols: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.cols.ndim != 2:
            raise ValueError("basis must be a 2-d array")
        n, k = self.cols.shape
        if k > n:
            raise ValueError(f"basis cannot have more columns than rows, got {self.cols.shape}")
        err = np.abs(self.cols.T @ self.cols - np.eye(k)).max()
        if err > _ORTHO_TOL:
            raise ValueError(f"basis not orthonormal: max |U^T U - I| = {err:.3g}")
        self.cols.flags.writeable = False

    @property
    def N(self) -> int:
        return self.cols.shape[0]

    @property
    def K(self) -> int:
        return self.cols.shape[1]


@dataclass(frozen=True)
class PrincipalAngles:
    """Principal angles between two equal-dimension subspaces.

    ``cosines`` are the singular values of U1^T U2, clipped to [0, 1] and
    sorted descending (floating point can overshoot 1 by ~1e-16, which
    would break arccos).  The orthogonal SVD factors are kept when
    requested so the extremal vector pairs can be reconstructed.
    """

    cosines: np.ndarray
    W: np.ndarray | None = field(default=None, repr=False)
    V: np.ndarray | None = field(default=None, repr=False)

    @property
    def angles(self) -> np.ndarray:
        return np.arccos(self.cosines)


@dataclass(frozen=True)
class DistortionSummary:
    """Empirical distortion samples with max and provenance.

    ``samples`` may be None for streaming scans that only track the max.
    ``argmax`` records where the worst element came from (a pair of point
    indices for point sets, a projector index for projector ensembles).
    Among exact ties a chord scan reports the pair that comes first in
    its block order, the diagonal band before the far blocks (see
    ``_chord_blocks``).
    """

    max: float
    argmax: tuple
    n_evaluated: int
    samples: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.samples is not None and len(self.samples) and not math.isclose(
            float(np.max(self.samples)), self.max, rel_tol=0.0, abs_tol=0.0
        ):
            raise ValueError("summary max does not equal max of samples")


def sample_projector(N: int, M: int, seed: int) -> Projector:
    """Draw a uniformly random M-dimensional orthonormal projection of R^N.

    Rows are the transposed Q factor of a Gaussian N x M matrix with the
    sign convention fixed, which makes the row span uniform over the
    space of M-dimensional subspaces and the draw deterministic in seed.
    """
    if not (1 <= M <= N):
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={N}")
    rng = np.random.default_rng(seed)
    q = _haar_columns(N, M, rng)
    return Projector(rows=np.ascontiguousarray(q.T), M=M, N=N, seed=int(seed))


def random_subspace(N: int, K: int, seed: int) -> SubspaceBasis:
    """Haar-random K-dimensional subspace of R^N as an orthonormal basis."""
    if not (1 <= K <= N):
        raise ValueError(f"need 1 <= K <= N, got K={K}, N={N}")
    rng = np.random.default_rng(seed)
    return SubspaceBasis(cols=_haar_columns(N, K, rng))


def vector_distortion(A: Projector, u: np.ndarray) -> float:
    """Scaled fractional length change |sqrt(N/M) ||Au||/||u|| - 1|."""
    u = np.asarray(u, dtype=float)
    nu = np.linalg.norm(u)
    if nu == 0.0:
        raise ValueError("distortion of the zero vector is undefined")
    return abs(math.sqrt(A.N / A.M) * np.linalg.norm(A.rows @ u) / nu - 1.0)


# Rows per side of a scanned block: one block of squared lengths (128 KiB)
# and its ratios stay in cache while every nested projection is scanned.
_BLOCK = 128

# Most bytes the cache of a ChordScan may hold (see _check_cache_size):
# about 21 800 points.  Larger point sets are refused before they are sampled.
_CACHE_LIMIT = 2 << 30

# Unit roundoff of float32, and the smallest normal float32: no float32
# operation whose result underflows is off by more than it.
_U32 = 2.0**-24
_TINY32 = 2.0**-126

# A block is screened in float32 when float32 rounding of its longest half
# squared norms is below this fraction of its shortest half squared chord.
_SCREEN_COND = 1e-4

# Largest 16-bit code of a screened block's reciprocal lengths (see _cached).
_CODES = 65535

# Relative margin of the screen's comparisons for float64 rounding of the
# thresholds, of the widened extremes and of the distortions themselves.
_F64_MARGIN = 1e-9

# Columns at which a screened run is closed, so each float32 product of
# the screen takes one run: its three float32 buffers (running sum, ratios
# and decoded reciprocals) of this many columns by 128 rows take 1.5 MiB.
# 512 to 2048 columns scanned `curve-4096` equally fast on a 2-core host
# with 2 MiB of L2 per core.
_SCREEN_COLS = 1024


def _sq_operands(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half squared norms h = |z|^2 / 2 of the rows of Z, as the P x 2 rows
    [h_i, 1] and the 2 x P columns [1, h_j] (``trail[1]`` is h itself).

    A block of their product is h_i + h_j written by BLAS: each entry is a
    dot product of two exact terms, so it is rounded once, to fl(h_i + h_j),
    in any summation order and with or without fused multiply-adds.
    """
    h = 0.5 * np.einsum("ij,ij->i", Z, Z)
    ones = np.ones_like(h)
    return np.stack((h, ones), axis=1), np.stack((ones, h))


def _view(buf: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Contiguous ``shape`` view of the start of a flat buffer."""
    return buf[: shape[0] * shape[1]].reshape(shape)


def _block_half_sq(
    Z: np.ndarray, lead: np.ndarray, trail: np.ndarray, rows: slice, cols: slice, out: np.ndarray, gram: np.ndarray
) -> np.ndarray:
    """Half squared distances (h_i + h_j) - z_i.z_j between the ``rows`` and
    the ``cols`` of Z, written into ``out``; ``gram`` is a work buffer of its shape."""
    np.matmul(lead[rows], trail[:, cols], out=out)
    np.matmul(Z[rows], Z[cols].T, out=gram)
    out -= gram
    return out


def _duplicate_groups(X: np.ndarray) -> np.ndarray | None:
    """Per-point ids, equal exactly for identical points, or None if all
    points differ.

    Only ties in the first coordinate trigger a row comparison.  Rows are
    then hashed exactly: the uint64 bits of ``X + 0.0`` (which folds -0.0
    into 0.0) times fixed odd multipliers, summed mod 2^64, so identical
    rows get one hash in any summation order.  ``np.unique`` compares only
    the rows whose hashes tie.
    """
    first = np.sort(X[:, 0])
    if not np.any(first[1:] == first[:-1]):
        return None
    mult = np.random.default_rng(0).integers(0, 2**64, X.shape[1], dtype=np.uint64) | np.uint64(1)
    _, inverse, counts = np.unique((X + 0.0).view(np.uint64) @ mult, return_inverse=True, return_counts=True)
    tied = np.flatnonzero(counts[inverse] > 1)
    if tied.size == 0:
        return None
    distinct, group = np.unique(X[tied], axis=0, return_inverse=True)
    if len(distinct) == tied.size:
        return None
    ids = np.arange(len(X))
    ids[tied] = len(X) + group.ravel()
    return ids


def _chord_blocks(X: np.ndarray, block: int):
    """Ambient squared chord lengths of all pairs, by block, at half scale:
    d / 2 = (h_i + h_j) - x_i.x_j with h = |x|^2 / 2.

    Halving commutes with rounding (for squared norms that are not
    subnormal), so each half-scale length is the full-scale
    |x_i|^2 + |x_j|^2 - 2 x_i.x_j times 1/2 bit for bit, and the ratio of a
    projected to an ambient length, both at half scale, is the full-scale
    ratio bit for bit.

    Yields ``(i0, j0, da, drop)`` for each block pair with j0 >= i0, where
    ``da`` is the full block and ``drop`` marks its entries that are not
    scanned (the diagonal and lower triangle of a diagonal block, pairs of
    identical points, and chords whose computed length is not positive),
    or is None if there are none.  Dropped entries of ``da`` are set to 1
    so that dividing by the block is safe.

    This order is the order of every chord scan.  The diagonal band comes
    first: the pairs with j0 - i0 <= block, the diagonal blocks and their
    first neighbours, which hold the short chords and so, in practice, the
    worst ones.  The far blocks follow in row-major order.
    """
    P = X.shape[0]
    lead, trail = _sq_operands(X)
    group = _duplicate_groups(X)
    gram = np.empty(min(block, P) ** 2)
    starts = range(0, P, block)
    pairs = sorted(((i0, j0) for i0 in starts for j0 in starts if j0 >= i0), key=lambda p: (p[1] - p[0] > block, p))
    for i0, j0 in pairs:
        rows, cols = slice(i0, min(i0 + block, P)), slice(j0, min(j0 + block, P))
        shape = (rows.stop - i0, cols.stop - j0)
        da = _block_half_sq(X, lead, trail, rows, cols, np.empty(shape), _view(gram, shape))
        drop = ~(da > 0.0)
        if group is not None:
            drop |= group[rows, None] == group[None, cols]
        if i0 == j0:
            drop |= np.tri(*da.shape, dtype=bool)
        if not drop.all():
            da[drop] = 1.0
            yield i0, j0, da, (drop if drop.any() else None)


def _as_points(points) -> np.ndarray:
    X = np.asarray(points, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"points must be a (P, N) array, got shape {X.shape}")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 points")
    if not np.isfinite(X).all():
        raise ValueError("points must be finite")
    return X


def _images(X: np.ndarray, A: Projector) -> np.ndarray:
    if X.shape[1] != A.N:
        raise ValueError(f"points must be (P, {A.N}), got {X.shape}")
    return X @ A.rows.T


_NO_CHORDS = "no chord of positive length to scan"


class _Screened(NamedTuple):
    """Consecutive all-pairs blocks of one block row, kept for the float32
    screen of :func:`_scan`: the rows from i0 and the columns from j0,
    closed once they reach ``_SCREEN_COLS`` columns (see :func:`_cached`),
    so the screen takes a run in one product per segment.

    ``rec`` holds 1 / da transposed, one row per column of the points, as
    16-bit codes q = rint((1 / da) / step) scaled per block, 2 bytes per
    pair.  Block t spans its rows ``bounds[t]:bounds[t + 1]`` and has
    ``max_rec[t]``, its largest 1 / da in float64, ``step[t]`` =
    max_rec[t] / 65535, so its codes run up to 65535, and ``qerr[t]`` =
    (max da / min da) / (2 * 65535), which bounds |q step - 1 / da| relative
    to 1 / da.  A block's float64 lengths da are recomputed from the points
    only when the screen cannot rule the block out.
    """

    i0: int
    j0: int
    rec: np.ndarray
    bounds: np.ndarray
    max_rec: np.ndarray
    step: np.ndarray
    qerr: np.ndarray


def _thresholds(best: list[float], N: int, M_grid) -> tuple[np.ndarray, np.ndarray]:
    """Per M, the ratios r a float64 distortion above ``best`` needs to
    exceed, or to fall below, narrowed by a relative ``_F64_MARGIN``."""
    above, below = [], []
    for b, M in zip(best, M_grid):
        scale = N / M
        above.append((1.0 + b) ** 2 / scale * (1.0 - _F64_MARGIN))
        below.append((1.0 - b) ** 2 / scale * (1.0 + _F64_MARGIN) if b < 1.0 else -math.inf)
    return np.array(above), np.array(below)


class _Screen:
    """Float32 pass of one projector's nested images over :class:`_Screened`
    runs (see :func:`_scan`).  Its operands and buffers belong to one call.

    Segment m of the images, of width w with h = |y|^2 / 2, has the float32
    operand [y, h, 1] (P x (w + 2)).  Rows j of it times the rows i of
    [-y, 1, h] of a run's block row are the segment's half squared
    lengths, laid out like ``rec``.
    """

    def __init__(self, segs: list[np.ndarray], ops: list[tuple[np.ndarray, np.ndarray]], M_grid):
        self.operands = []
        for seg, (_, trail) in zip(segs, ops):
            w = seg.shape[1]
            op = np.empty((len(seg), w + 2), np.float32)
            with np.errstate(over="ignore"):  # a float32 overflow only keeps blocks in the float64 pass
                op[:, :w], op[:, w], op[:, w + 1] = seg, trail[1], 1.0
            self.operands.append(op)
        self.H = np.cumsum([trail[1] for _, trail in ops], axis=0)
        self.kappa = np.array([4.0 * (M + 7 * (m + 1)) for m, M in enumerate(M_grid)])
        self.bufs = np.empty((3, 0), np.float32)

    def ratios(self, run: _Screened):
        """Per M, the float32 ratios of ``run`` in units of each block's
        step (the running sum times the codes), laid out like ``run.rec``
        in a reused buffer.  The codes are decoded once per run, exactly."""
        shape = run.rec.shape
        rows, cols = slice(run.i0, run.i0 + shape[1]), slice(run.j0, run.j0 + shape[0])
        if self.bufs.shape[1] < run.rec.size:
            self.bufs = np.empty((3, run.rec.size), np.float32)
        total, ratio, codes = (_view(buf, shape) for buf in self.bufs)
        np.copyto(codes, run.rec)
        for m, op in enumerate(self.operands):
            row_op = np.negative(op[rows])
            row_op[:, -2], row_op[:, -1] = 1.0, op[rows, -2]
            np.matmul(op[cols], row_op.T, out=ratio if m else total)
            if m:
                total += ratio
            np.multiply(total, codes, out=ratio)
            yield ratio

    def slack(self, run: _Screened) -> np.ndarray:
        """M by block, the part of the slack of :func:`_scan` that does not
        depend on the ratios: kappa_M (u (H_i + H_j) + 2^-126) max 1 / da."""
        rows, cols = slice(run.i0, run.i0 + run.rec.shape[1]), slice(run.j0, run.j0 + run.rec.shape[0])
        H = self.H[:, rows].max(axis=1)[:, None] + np.maximum.reduceat(self.H[:, cols], run.bounds[:-1], axis=1)
        return self.kappa[:, None] * (_U32 * H + _TINY32) * run.max_rec

    def widened(self, run: _Screened) -> tuple[np.ndarray, np.ndarray]:
        """Upper and lower bounds, M by block, on the float64 ratios of
        ``run``: the float32 extremes, scaled by each block's step, widened
        by the slack of :func:`_scan`."""
        offs = run.bounds[:-1] * run.rec.shape[1]
        hi, lo = np.empty((2, len(self.operands), len(run.max_rec)), np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            for m, ratio in enumerate(self.ratios(run)):
                flat = ratio.reshape(-1)
                np.maximum.reduceat(flat, offs, out=hi[m])
                np.minimum.reduceat(flat, offs, out=lo[m])
            hi, lo = hi * run.step, lo * run.step
            size = np.maximum(np.abs(hi), np.abs(lo))
            slack = self.slack(run) + (8.0 * _U32 + 2.0 * run.qerr) * size + _TINY32 * run.step
        return hi + slack, lo - slack

    def unresolved(self, run: _Screened, N: int, M_grid, best: list[float]):
        """The blocks of ``run`` that the screen cannot rule out, in order,
        as ``(i0, j0, shape)``.  ``best`` is read again after each block,
        once the caller has scanned it."""
        up, down = self.widened(run)
        t = 0
        while t < len(run.max_rec):
            above, below = _thresholds(best, N, M_grid)
            ruled_out = ((up[:, t:] <= above[:, None]) & (down[:, t:] >= below[:, None])).all(axis=0)
            if ruled_out.all():
                break
            t += int(np.argmin(ruled_out))
            yield run.i0, run.j0 + int(run.bounds[t]), (run.rec.shape[1], int(run.bounds[t + 1] - run.bounds[t]))
            t += 1


def _scan(Y: np.ndarray, N: int, M_grid, blocks, ambient: tuple | None = None) -> list[DistortionSummary]:
    """Worst chord distortion under each nested projection over the blocks
    of ``_chord_blocks``: ``Y[:, :M]`` are the images of the points under
    the first M rows of one row-orthonormal projection of R^N, for every M
    of the ascending ``M_grid``.

    Per block the projected squared lengths are added up segment by segment
    over the columns [M_{k-1}, M_k), at half scale like the ambient ones
    (see ``_chord_blocks``), so each sum and ratio is the full-scale one bit
    for bit.  At each M only the smallest and largest ratio r of projected
    to ambient squared length are found, while the block is still in cache.
    Rounded products, square roots and differences are monotone, so
    max(|sqrt(s lo) - 1|, |sqrt(s hi) - 1|) equals the largest
    |sqrt(s r) - 1| over the block bit for bit.  A computed projected
    length can be negative; clipping r at 0 is monotone too, so it is
    applied to the two extremes only, which gives the value of clipping
    every entry (among tied entries clipped to 0 the pair reported may
    differ).  With one segment this is the plain scan of one projector.

    Blocks are visited in the order of ``_chord_blocks``, the diagonal
    band first, and only a strictly larger distortion replaces the worst
    pair: among exact ties in different blocks the pair reported is the
    one in the first block of that order.

    Runs of blocks that :class:`ChordScan` keeps as :class:`_Screened` go
    through a float32 screen first.  A block whose float64 distortions are
    all at most the running worst b at every M leaves the scan as it was
    (ties do not replace the worst pair), and it needs none of its ratios
    above (1 + b)^2 / s or, when b < 1, below (1 - b)^2 / s.  The screen
    skips a block when its float32 extremes, widened by the slack below,
    stay within both limits at every M.  Otherwise ``ambient`` =
    (points, *_sq_operands(points)) recomputes the block's float64 lengths
    with the call that cached them, and the float64 pass below runs on it.
    Blocks keep their order, so every max and argmax is the unscreened
    scan's bit for bit.  The band blocks are rarely screenable (their
    shortest chords are too short for float32), but they set the running
    worst before the screen reaches the far blocks, so a far block is
    screened against the worst chord of the band and is usually ruled out.

    The float32 pass forms each segment's half squared lengths with one
    GEMM of [y, h, 1] by [-y; 1; h] (h = |y|^2 / 2 over the segment), adds
    them up over segments into t, multiplies t by the block's 16-bit codes
    q of 1 / da (see :class:`_Screened`) and takes each block's largest and
    smallest product, scaled to a ratio by the block's step.  With
    u = 2^-24 and H = |y|^2 / 2 over the first M columns, its error against
    the float64 ratio of a pair (i, j) is at most

        kappa_M (u (H_i + H_j) + 2^-126) / da + (8 u + 2 qerr) |r| + 2^-126 step,
        kappa_M = 4 (M + 7 S) over S segments,

    with r the scaled float32 extreme of larger size in the block and step
    and qerr those of the block.  Derivation, in exact arithmetic on the
    float64 images: rounding the operands to float32 moves each segment's
    dot product by at most 3 u (h_i + h_j).  A dot product of n terms,
    summed in any order and with or without fused multiply-adds, is off by
    at most gamma_n sum |x_k y_k| (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, section 3.1),
    gamma_n = n u / (1 - n u): every term meets at most n roundings
    whatever the order, and a fused multiply-add only drops one.  Here
    n = w + 2 for a segment of width w, and sum |x_k y_k| <= 2 (h_i + h_j)
    because |y_ik y_jk| <= (y_ik^2 + y_jk^2) / 2.  A segment is thus within
    (2 w + 7) u (h_i + h_j), and adding up S segments costs at most
    2 (S - 1) u (H_i + H_j) more: t is within e = (2 M + 2 S + 5) u (H_i + H_j)
    of the float64 projected length p, to first order.  The codes:
    |q step - 1 / da| <= step / 2, and q >= 65535 min(1 / da) / max(1 / da)
    - 1/2, so 1 / da = q step (1 + delta) with |delta| <= 1 / (2 q)
    <= qerr / (1 - qerr) <= 2 qerr while qerr <= 1/2, which
    :func:`_screenable` ensures (it also makes every q >= 1).  As q step
    <= max 1 / da, t q step is within e max 1 / da of p q step, and the
    float64 ratio p / da = p q step (1 + delta) is within 2 qerr (|r| +
    e max 1 / da) of p q step: in all (1 + 2 qerr) e max 1 / da + 2 qerr |r|.
    kappa_M = 4 (M + 7 S) exceeds 2 (2 M + 2 S + 5) >= (1 + 2 qerr)
    (2 M + 2 S + 5) by 24 S - 10 >= 14, which covers second-order terms and
    the float64 pass's own rounding (2^-29 times smaller).  The float32
    product t q, its float64 product by step, and the float64 rounding of
    the codes and of step add a relative u + 3 2^-53, covered with their
    cross terms by 8 u |r|.  The 2^-126 terms bound underflow: a float32
    operation with a subnormal result, or one flushed to zero, is off by at
    most 2^-126; the product t q by an integer code is exact when its
    result is subnormal, and off by 2^-126 code units (2^-126 step) when
    flushed to zero.  Per block, H_i + H_j and 1 / da are replaced by their
    largest values.  The limits are narrowed by a relative 1e-9 for the
    float64 rounding of the limits, of the widened extremes and of the
    distortions themselves, and an extreme that overflows to inf or NaN
    never skips a block.

    A block takes three reused buffers of its size (the running sum, the
    segment's lengths, and the Gram product, then the ratios), and a fourth
    for recomputed ambient lengths, so the pass allocates no block-sized
    array; the screen decodes a run's codes once per call and takes the
    whole run at every M, in three float32 buffers of a run's size.  The
    segments of the images are column views of ``Y``, not copies.
    The buffers belong to the call: one :class:`ChordScan` serves
    concurrent scans.
    """
    edges = (0, *M_grid)
    segs = [Y[:, m0:m1] for m0, m1 in zip(edges, edges[1:])]
    ops = [_sq_operands(seg) for seg in segs]
    bufs, screen = np.empty((4, 0)), None
    best, best_pair, n_eval = [-1.0] * len(segs), [(-1, -1)] * len(segs), 0
    for item in blocks:
        screened = isinstance(item, _Screened)
        if screened:
            if screen is None:
                screen = _Screen(segs, ops, M_grid)
            todo = screen.unresolved(item, N, M_grid, best)
            n_eval += item.rec.size
        else:
            todo = (item,)
            n_eval += item[2].size - (0 if item[3] is None else int(np.count_nonzero(item[3])))
        for block in todo:
            if screened:
                (i0, j0, shape), drop = block, None
            else:
                i0, j0, da, drop = block
                shape = da.shape
            rows, cols = slice(i0, i0 + shape[0]), slice(j0, j0 + shape[1])
            if bufs.shape[1] < shape[0] * shape[1]:
                bufs = np.empty((4, shape[0] * shape[1]))
            proj, part, ratio, lengths = (_view(buf, shape) for buf in bufs)
            if screened:  # the float64 lengths, by the call that cached them
                da = _block_half_sq(*ambient, rows, cols, lengths, ratio)
            for m, (seg, (lead, trail)) in enumerate(zip(segs, ops)):
                # ratio holds the Gram block until the division
                _block_half_sq(seg, lead, trail, rows, cols, part if m else proj, ratio)
                if m:
                    proj += part
                np.divide(proj, da, out=ratio)
                if drop is None:
                    lo, hi = int(ratio.argmin()), int(ratio.argmax())
                else:  # dropped entries can be neither extreme
                    np.copyto(ratio, np.inf, where=drop)
                    lo = int(ratio.argmin())
                    np.copyto(ratio, -np.inf, where=drop)
                    hi = int(ratio.argmax())
                scale = N / M_grid[m]
                for k in (hi, lo):
                    d = abs(math.sqrt(scale * max(float(ratio.flat[k]), 0.0)) - 1.0)
                    if d > best[m]:
                        best[m] = d
                        best_pair[m] = (i0 + k // shape[1], j0 + k % shape[1])
    if n_eval == 0:
        raise ValueError(_NO_CHORDS)
    return [DistortionSummary(max=d, argmax=pair, n_evaluated=n_eval) for d, pair in zip(best, best_pair)]


def _screenable(i0: int, j0: int, da: np.ndarray, drop, h: np.ndarray) -> bool:
    """Whether :class:`ChordScan` keeps an all-pairs block for the float32
    screen: it has no dropped entry (so it is off the diagonal, with no
    identical points and no chord of computed length <= 0), it is well
    conditioned for float32, u (max h_i + max h_j) < 1e-4 min da with
    u = 2^-24 and h the half squared norms of its rows i and columns j,
    every 1 / da is a normal float32 number, and max da <= 65535 min da,
    which the error bound of its 16-bit codes needs (see :func:`_scan`).
    The conditioning test already keeps max da below 3356 min da, as
    da <= 2 (h_i + h_j)."""
    if drop is not None:
        return False
    lo, hi = float(da.min()), float(da.max())
    cond = _U32 * (h[i0 : i0 + da.shape[0]].max() + h[j0 : j0 + da.shape[1]].max())
    return bool(cond < _SCREEN_COND * lo) and _TINY32 < lo and hi < 1.0 / _TINY32 and hi <= _CODES * lo


def _encoded(da: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    """The 16-bit codes of 1 / da, transposed, with the block's max_rec,
    step and qerr (see :class:`_Screened`)."""
    max_rec = 1.0 / float(da.min())
    step = max_rec / _CODES
    codes = np.ascontiguousarray(np.rint((1.0 / da.T) / step), dtype=np.uint16)
    return codes, max_rec, step, 0.5 * max_rec * float(da.max()) / _CODES


def _cached(blocks, h: np.ndarray):
    """The all-pairs blocks of ``_chord_blocks`` as :class:`ChordScan`
    keeps them, in the same order: each run of consecutive screenable
    blocks in one block row as one :class:`_Screened`, closed once it
    reaches ``_SCREEN_COLS`` columns, and every other block as it is."""
    run = []  # (i0, j0, *_encoded(da)) of the screenable blocks not yet yielded

    def merged():
        i0, j0, recs, *per_block = zip(*run)
        bounds = np.cumsum([0] + [len(rec) for rec in recs])
        return _Screened(i0[0], j0[0], np.concatenate(recs), bounds, *map(np.array, per_block))

    for i0, j0, da, drop in blocks:
        screenable = _screenable(i0, j0, da, drop, h)
        if run and not (screenable and i0 == run[-1][0] and j0 == run[-1][1] + len(run[-1][2])):
            yield merged()
            run = []
        if screenable:
            run.append((i0, j0, *_encoded(da)))
            if j0 + da.shape[1] - run[0][1] >= _SCREEN_COLS:
                yield merged()
                run = []
        else:
            yield i0, j0, da, drop
    if run:
        yield merged()


def _check_cache_size(n_points: int, block: int = _BLOCK) -> None:
    """Raise ValueError if the cache of a :class:`ChordScan` of ``n_points``
    points could hold more than ``_CACHE_LIMIT`` bytes.

    Counts the worst case: every block pair with j0 >= i0 kept as float64
    lengths with a one-byte drop mask, 9 bytes per entry, diagonal blocks
    whole.  It needs only the point count, so callers check before they
    sample the points.
    """
    full, rest = divmod(n_points, block)
    need = 9 * ((n_points * n_points + full * block * block + rest * rest) // 2)
    if need > _CACHE_LIMIT:
        raise ValueError(
            f"a chord scan of {n_points} points could cache {need} bytes, "
            f"above the limit of {_CACHE_LIMIT} bytes ({_CACHE_LIMIT / 2**30:g} GiB)"
        )


class ChordScan:
    """Chord scan of every pair of a fixed point set, reused across projectors.

    Squared chord lengths in the ambient space depend only on the points,
    so they are computed once here, in the order of ``_chord_blocks``: the
    diagonal band, then the far blocks.  A block that the float32 screen of
    :func:`_scan` takes (see :func:`_screenable`) keeps only 16-bit codes
    of its reciprocal lengths, 2 bytes per pair, and three floats; the
    others, in practice the diagonal blocks and their neighbours, keep
    8 bytes per pair plus a one-byte mask where entries are dropped.
    :attr:`cache_bytes` and :attr:`screened_blocks` report the result.
    Each :meth:`summary` then
    pays only for its projector's Gram blocks, and agrees bit for bit with
    :func:`pointset_distortion` at the same block size, worst pair and
    exact ties included; :meth:`nested` scans every leading block of rows
    of one projector in the same pass.  The cached blocks are only read,
    so one scan serves concurrent calls.

    Raises ValueError if the cache could exceed 2 GiB (see
    :func:`_check_cache_size`), or if the points have no chord of positive
    length.
    """

    def __init__(self, points: np.ndarray, block: int = _BLOCK):
        self.points = _as_points(points)
        _check_cache_size(len(self.points), block)
        self._ambient = (self.points, *_sq_operands(self.points))
        self._blocks = list(_cached(_chord_blocks(self.points, block), self._ambient[2][1]))
        if not self._blocks:
            raise ValueError(_NO_CHORDS)

    @property
    def cache_bytes(self) -> int:
        """Bytes of the arrays of the cached blocks."""
        return sum(a.nbytes for b in self._blocks for a in b if isinstance(a, np.ndarray))

    @property
    def screened_blocks(self) -> int:
        """Number of cached blocks that go through the float32 screen."""
        return sum(len(b.max_rec) for b in self._blocks if isinstance(b, _Screened))

    def summary(self, A: Projector) -> DistortionSummary:
        """Worst chord distortion under A, with the pair it came from."""
        return _scan(_images(self.points, A), A.N, (A.M,), self._blocks, self._ambient)[0]

    def nested(self, images: np.ndarray, N: int, M_grid) -> list[DistortionSummary]:
        """Worst chord distortion under the first M rows of one projection,
        for every M of the strictly ascending ``M_grid``.

        ``images`` (P x M_max, at least, finite) holds the points under the
        rows of a row-orthonormal projection of R^N, so column m is the m-th
        coordinate of every image: ``points @ A.rows.T`` for a
        :class:`Projector` A, or any map with the same inner products.
        Entry k of the result equals :meth:`summary` of ``A.rows[:M_k]``
        up to rounding of the per-segment sums.
        """
        M_grid = tuple(int(m) for m in M_grid)
        images = np.asarray(images, dtype=float)
        if images.ndim != 2 or images.shape[0] != len(self.points):
            raise ValueError(f"images must have {len(self.points)} rows, got shape {images.shape}")
        if not M_grid or M_grid[0] < 1 or any(b <= a for a, b in zip(M_grid, M_grid[1:])):
            raise ValueError(f"M_grid must be strictly ascending and positive, got {M_grid}")
        limit = min(N, images.shape[1])
        if M_grid[-1] > limit:
            raise ValueError(f"need M <= min(N, images columns) = {limit}, got {M_grid[-1]}")
        if not np.isfinite(images[:, : M_grid[-1]]).all():
            raise ValueError("images must be finite")
        return _scan(images, N, M_grid, self._blocks, self._ambient)


def pointset_distortion(A: Projector, points: np.ndarray, block: int = _BLOCK) -> DistortionSummary:
    """Worst distortion over chords (displacement vectors) of a point set.

    The one-projector form of :class:`ChordScan`: the same blocks, streamed
    instead of cached.  Squared chord lengths come from block Gram products,
    so the cost is O(P^2 (N + M)) time and O(block^2 + block (N + M))
    memory.  Zero-length chords (coincident points) are skipped; ValueError
    if no chord of positive length is left.
    """
    X = _as_points(points)
    return _scan(_images(X, A), A.N, (A.M,), _chord_blocks(X, block))[0]


def subspace_distortion(A: Projector, U: SubspaceBasis) -> float:
    """Worst distortion over all unit vectors of a subspace.

    Equals ``max(sqrt(N/M) s_max - 1, 1 - sqrt(N/M) s_min)`` where s are
    the singular values of A U.
    """
    if U.K > A.M:
        raise ValueError(f"requires K <= M, got K={U.K}, M={A.M}")
    if U.N != A.N:
        raise ValueError(f"ambient dimensions differ: {U.N} vs {A.N}")
    s = np.linalg.svd(A.rows @ U.cols, compute_uv=False)
    scale = math.sqrt(A.N / A.M)
    return max(scale * float(s[0]) - 1.0, 1.0 - scale * float(s[-1]))


def principal_angles(U: SubspaceBasis, U2: SubspaceBasis, keep_factors: bool = False) -> PrincipalAngles:
    """Principal angles between two subspaces of equal dimension.

    Cosines are the singular values of U^T U2, clipped to [0, 1].
    """
    if U.K != U2.K:
        raise ValueError(f"subspace dimensions differ: {U.K} vs {U2.K}")
    if U.N != U2.N:
        raise ValueError(f"ambient dimensions differ: {U.N} vs {U2.N}")
    m = U.cols.T @ U2.cols
    if keep_factors:
        w, s, vt = np.linalg.svd(m)
        return PrincipalAngles(cosines=np.clip(s, 0.0, 1.0), W=w, V=vt.T)
    s = np.linalg.svd(m, compute_uv=False)
    return PrincipalAngles(cosines=np.clip(s, 0.0, 1.0))


@dataclass(frozen=True)
class WeylGapResult:
    """Per-index gaps |sin(phi_a) - sin(phi'_a)| and their certified bound."""

    gaps: np.ndarray
    bound: float

    @property
    def max_gap(self) -> float:
        return float(np.max(self.gaps))


def weyl_gap(A: Projector, U: SubspaceBasis, U2: SubspaceBasis, tol: float = 1e-10) -> WeylGapResult:
    """Certify the singular-value perturbation bound between two subspaces.

    phi_a (phi'_a) are the principal angles between the projection subspace
    and U (U2).  Additive perturbation of singular values gives
    ``|sin(phi_a) - sin(phi'_a)| <= sin(theta_max(U, U2))`` index by index,
    valid only for row-orthonormal projections, which is checked first.

    Raises
    ------
    NumericalBreakdown
        If any gap exceeds the bound beyond ``tol`` (this would mean a
        broken invariant, not a statistical fluctuation).
    """
    if U.K != U2.K:
        raise ValueError(f"subspace dimensions differ: {U.K} vs {U2.K}")
    if U.K > A.M:
        raise ValueError(f"requires K <= M, got K={U.K}, M={A.M}")
    A.check_orthonormal()
    cos_phi = np.clip(np.linalg.svd(A.rows @ U.cols, compute_uv=False), 0.0, 1.0)
    cos_phi2 = np.clip(np.linalg.svd(A.rows @ U2.cols, compute_uv=False), 0.0, 1.0)
    sin_phi = np.sqrt(1.0 - cos_phi**2)
    sin_phi2 = np.sqrt(1.0 - cos_phi2**2)
    gaps = np.abs(np.sort(sin_phi) - np.sort(sin_phi2))
    cos_min = principal_angles(U, U2).cosines[-1]
    bound = math.sqrt(max(0.0, 1.0 - cos_min * cos_min))
    if np.any(gaps > bound + tol):
        raise NumericalBreakdown(
            f"singular-value gap {gaps.max():.3e} exceeds bound {bound:.3e} + {tol:g}"
        )
    return WeylGapResult(gaps=gaps, bound=bound)
