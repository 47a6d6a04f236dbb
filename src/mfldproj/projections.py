"""Haar-random orthonormal projections and distortion measurements.

The distortion of a vector u under an M-by-N row-orthonormal projection A
is ``|sqrt(N/M) ||Au|| / ||u|| - 1|``; the sqrt(N/M) factor makes the
expected value zero over a uniformly random projection subspace.  This
module samples such projections, measures vector / point-set / subspace
distortions, and computes principal angles between subspaces.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NumericalBreakdown
from .manifold import integer

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


@functools.lru_cache(maxsize=None)
def _strict_lower(K: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices below the diagonal of a K x K matrix, built
    once per K (read-only: every caller shares them)."""
    rows, cols = np.tril_indices(K, -1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _wishart_factor(dof: int, rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill ``out``, an (n, K, size) stack with the stack axis last, n =
    min(dof, K) and zeros below its diagonal, with n x K factors X whose
    X^T X ~ Wishart_K(dof): the transposed Bartlett factor (upper
    triangular) when dof >= K, a dof x K Gaussian otherwise (singular
    X^T X then)."""
    K, size = out.shape[1:]
    if dof < K:
        out[...] = rng.standard_normal((size, dof, K)).transpose(1, 2, 0)
        return
    rows, cols = _strict_lower(K)
    out[cols, rows] = rng.standard_normal((size, rows.size)).T
    # one call draws the chi-squares of dof, dof - 1, ..., the stream of one call per entry
    diag = np.arange(K)
    out[diag, diag] = np.sqrt(rng.chisquare((dof - diag)[:, None], size=(K, size)))


def _wishart(dof: int, K: int, rng: np.random.Generator) -> np.ndarray:
    """One K x K draw from Wishart_K(dof), X^T X for the factor X of
    :func:`_wishart_factor`.  X^T is a copy: with a view of X's own
    transpose numpy would multiply through syrk, which rounds unlike gemm,
    and every Haar frame (so every M* artifact) depends on this rounding."""
    x = np.zeros((min(dof, K), K, 1))
    _wishart_factor(dof, rng, x)
    x = x[:, :, 0]
    return np.ascontiguousarray(x.T) @ x


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
    chol = np.linalg.cholesky(g.T @ g + _wishart(N - M, k, rng))
    return np.linalg.solve(chol, g.T).T


@dataclass(frozen=True)
class Projector:
    """Row-orthonormal M x N random projection."""

    rows: np.ndarray = field(repr=False)
    M: int
    N: int

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
    would break arccos).
    """

    cosines: np.ndarray

    @property
    def angles(self) -> np.ndarray:
        return np.arccos(self.cosines)


@dataclass(frozen=True)
class DistortionSummary:
    """Worst chord distortion of a scan with its provenance.

    ``argmax`` is the pair of point indices the worst chord joins.  Among
    exact ties a chord scan reports the pair that comes first in its block
    order, the diagonal band before the far blocks (see ``_plan``).
    ``recomputed`` is the number of screened blocks whose float64
    reciprocals the chord scan recomputed (the same in every summary of
    one scan); it counts work, not a result, so summaries that
    differ only in it compare equal.
    """

    max: float
    argmax: tuple
    n_evaluated: int
    recomputed: int = field(default=0, compare=False)


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
    return Projector(rows=np.ascontiguousarray(q.T), M=M, N=N)


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

# Most bytes the cache of a ChordScan, with any arrays a caller counts beside
# it, may hold, checked on its plan before the points are sampled (see
# _check_cache_size).
_CACHE_LIMIT = 2 << 30

# Unit roundoff of float32, and the smallest normal float32: no float32
# operation whose result underflows is off by more than it.
_U32 = 2.0**-24
_TINY32 = 2.0**-126

# Relative margin of the screen's comparisons for float64 rounding of the
# thresholds, of the widened extremes and of the distortions themselves.
_F64_MARGIN = 1e-9

# Columns at which a screened run is closed, so each float32 product of
# the screen takes one run: its float32 sums, one buffer of this many
# columns by 128 rows per M, take 512 KiB per M.
# 512 to 2048 columns scanned `curve-4096` equally fast on a 2-core host
# with 2 MiB of L2 per core.
_SCREEN_COLS = 1024


def _sq_operands(
    Z: np.ndarray, lead: np.ndarray | None = None, trail: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Half squared norms h = |z|^2 / 2 of the rows of Z, as the P x 2 rows
    [h_i, 1] and the 2 x P columns [1, h_j] (``trail[1]`` is h itself),
    written into ``lead`` and ``trail`` when given.

    A block of their product is h_i + h_j written by BLAS: each entry is a
    dot product of two exact terms, so it is rounded once, to fl(h_i + h_j),
    in any summation order and with or without fused multiply-adds.
    """
    if lead is None:
        lead, trail = np.empty((len(Z), 2)), np.empty((2, len(Z)))
    h = np.einsum("ij,ij->i", Z, Z, out=trail[1])
    h *= 0.5
    lead[:, 0], lead[:, 1], trail[0] = h, 1.0, 1.0
    return lead, trail


class _Workspace:
    """Scratch arrays of the chord scans of one thread, each grown on demand
    and then reused, so a scan allocates none that an earlier scan of the
    same shapes has made.  A view stays valid until the next request of its
    name, so each name serves one purpose at a time; a request of the same
    name and shape returns the same memory, so it may hand data over."""

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Contiguous ``shape`` view of the start of the buffer ``name``."""
        size = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < size:
            buf = self._bufs[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _block_half_sq(
    Z: np.ndarray, lead: np.ndarray, trail: np.ndarray, rows: slice, cols: slice, out: np.ndarray, gram: np.ndarray,
    right: np.ndarray | None = None,
) -> np.ndarray:
    """Half squared distances (h_i + h_j) - z_i.z_j between the ``rows`` and
    the ``cols`` of Z, written into ``out``; ``gram`` is a work buffer of its
    shape.  ``right`` is a copy of ``Z[cols]`` to multiply by instead: numpy
    forms a block times its own transpose with syrk and mirrors the triangle
    it computed, and by gemm once the two operands are distinct arrays."""
    np.matmul(lead[rows], trail[:, cols], out=out)
    np.matmul(Z[rows], (Z[cols] if right is None else right).T, out=gram)
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


def _ambient(X: np.ndarray) -> tuple:
    """The arrays the reciprocal lengths of the points X are computed from:
    ``(X, *_sq_operands(X), ids)``, with ``ids`` those of
    :func:`_duplicate_groups`."""
    return (X, *_sq_operands(X), _duplicate_groups(X))


def _reciprocals(ambient: tuple, rows: slice, cols: slice, out: np.ndarray, gram: np.ndarray,
                 every: bool = False) -> int:
    """Reciprocal ambient lengths 1 / da of the pairs of the points ``rows``
    by the points ``cols``, written into ``out`` (``gram`` is a work buffer
    of its shape), and the number of those pairs a chord scan takes.
    ``ambient`` is :func:`_ambient` of the points.

    A pair that is not scanned has the reciprocal 0: a pair of identical
    points, a chord whose computed length is not positive or whose
    reciprocal overflows, and the diagonal of a diagonal block
    (``rows == cols``), whose count is that of the pairs above its
    diagonal.  ``every`` says that the block is known to drop no pair, as
    when it is recomputed from the same arrays, and skips that step.
    """
    X, lead, trail, ids = ambient
    rec = _block_half_sq(X, lead, trail, rows, cols, out, gram)
    diagonal = rows == cols
    if diagonal:
        _diagonal(rec).fill(0.0)
    with np.errstate(divide="ignore"):  # a zero length is dropped below
        np.divide(1.0, rec, out=rec)
    if every:
        return rec.size
    rec[~((rec > 0.0) & (rec < math.inf))] = 0.0
    if ids is not None:
        rec[ids[rows, None] == ids[None, cols]] = 0.0
    return int(np.count_nonzero(rec)) // (2 if diagonal else 1)


def _chord_blocks(ambient: tuple, block: int):
    """Reciprocal ambient squared chord lengths of all pairs of the points X,
    by block, at half scale: 1 / da with da / 2 = (h_i + h_j) - x_i.x_j and
    h = |x|^2 / 2.  ``ambient`` is :func:`_ambient` of X; each block's
    Gram product goes to one buffer of a :class:`_Workspace`.

    Halving commutes with rounding (for squared norms that are not
    subnormal), so each half-scale length is the full-scale
    |x_i|^2 + |x_j|^2 - 2 x_i.x_j times 1/2 bit for bit, its reciprocal the
    full-scale one times 2, and the product of a projected length and a
    reciprocal, both at half scale, is the full-scale product bit for bit.

    Yields ``(i0, j0, rec, n)`` for each block pair with j0 >= i0, where
    ``rec`` is 1 / da over the full block and ``n`` the number of pairs
    it scans, both from :func:`_reciprocals`: the pairs that are not
    scanned have the reciprocal 0.

    A diagonal block (i0 == j0) is kept whole.  Here numpy forms
    ``X[rows] @ X[rows].T`` with syrk and mirrors the triangle it computed,
    and each entry of the rank-2 product of :func:`_sq_operands` is
    fl(h_i + h_j) = fl(h_j + h_i), so da and rec of a diagonal block are
    symmetric bit for bit, its zeros included.  Its scanned pairs are
    those above the diagonal; :func:`_scan` blanks the diagonal before it
    takes extremes.  The projected blocks of :func:`_scan` are formed by
    gemm instead, which need not round the twins (i, j) and (j, i) alike,
    so their ratios need not be symmetric.

    The blocks come in the order of every chord scan, that of
    :func:`_plan`: each column range of the plan cut into blocks.
    """
    P, work = len(ambient[0]), _Workspace()
    for i0, c0, c1, _ in _plan(P, block):
        rows = slice(i0, min(i0 + block, P))
        for j0 in range(c0, c1, block):
            cols = slice(j0, min(j0 + block, c1))
            shape = (rows.stop - i0, cols.stop - j0)
            rec = np.empty(shape)
            yield i0, j0, rec, _reciprocals(ambient, rows, cols, rec, work.get("gram", shape))


def _plan(n_points: int, block: int):
    """The column ranges of a chord scan of ``n_points`` points in blocks of
    ``block`` rows, in the order the scan visits them, as
    ``(i0, j0, j1, screened)``: the pairs of the block row from i0 with
    the columns [j0, j1), with j1 - j0 cut into blocks of ``block`` columns
    (the last one ragged).

    The diagonal band comes first: for every block row, the columns
    [i0, i0 + 3 block), its diagonal block and its first two neighbours,
    which hold the short chords and so, in practice, the worst ones.  The
    far columns [i0 + 3 block, n_points) of every block row follow, row
    by row.  They are ``screened``, taken by the float32 screen of
    :func:`_scan`, when they hold at least two blocks.  A far block alone
    in its row would make a run of one block, whose float32 products are
    as many and as small as those of the float64 pass they would spare,
    so it keeps its float64 reciprocals and takes the float64 pass like a
    band block.

    The plan needs only the point count, so it is made, and its cache
    counted (see :func:`_plan_bytes`), before any point is sampled.
    """
    starts = range(0, n_points, block)
    for i0 in starts:
        yield i0, i0, min(i0 + 3 * block, n_points), False
    for i0 in starts:
        if i0 + 3 * block < n_points:
            yield i0, i0 + 3 * block, n_points, i0 + 4 * block < n_points


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of a contiguous square block."""
    return a.reshape(-1)[:: a.shape[1] + 1]


def _block_size(block) -> int:
    """``block`` as an int, or a ValueError naming it if it is not a whole
    number >= 1."""
    block = integer(block, "block")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    return block


def _as_points(points) -> np.ndarray:
    X = np.asarray(points, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"points must be a (P, N) array, got shape {X.shape}")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 points")
    if not np.isfinite(X).all():
        raise ValueError("points must be finite")
    return X


_NO_CHORDS = "no chord of positive length to scan"


class _Screened(NamedTuple):
    """Consecutive blocks of a screened range of the :func:`_plan`, kept for
    the float32 screen of :func:`_scan`: ``rows`` rows from i0 and the
    columns from j0, closed once they reach ``_SCREEN_COLS`` columns, so
    the screen takes a run in one product per segment.

    Block t spans the columns ``j0 + bounds[t]`` to ``j0 + bounds[t + 1]``
    and keeps two numbers of its float64 reciprocal lengths 1 / da of
    :func:`_chord_blocks`: the largest, ``max_rec[t]``, and the smallest,
    ``min_rec[t]`` (0 in a block that drops a pair).  A block's
    reciprocals are recomputed from the points, once per projector, only
    when these bounds cannot rule the block out.  ``pairs`` is the number
    of pairs the run scans; it falls short of all of them only when a
    block drops a pair.
    """

    i0: int
    j0: int
    rows: int
    bounds: np.ndarray
    max_rec: np.ndarray
    min_rec: np.ndarray
    pairs: int


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
    runs (see :func:`_scan`); ``ambient`` holds the arrays that built the
    cache.  Its operands and buffers are views of the :class:`_Workspace`
    ``work``, so they belong to one thread.

    Segment m of the images, of width w with h = |y|^2 / 2, has the float32
    operand [y, h, 1] (P x (w + 2)).  Rows j of it times the rows i of
    [-y, 1, h] of a run's block row are the segment's half squared
    lengths.
    """

    def __init__(self, segs: list[np.ndarray], ops: list[tuple[np.ndarray, np.ndarray]], M_grid, ambient: tuple,
                 work: _Workspace):
        self.work, self.ambient = work, ambient
        P, widths = len(segs[0]), [seg.shape[1] + 2 for seg in segs]
        flat = self.work.get("screen_operands", (P * sum(widths),), np.float32)
        self.operands, self.H = [], self.work.get("screen_H", (len(segs), P))
        with np.errstate(over="ignore"):  # a float32 overflow only keeps blocks in the float64 pass
            for m, (seg, (_, trail), w) in enumerate(zip(segs, ops, widths)):
                op = flat[: P * w].reshape(P, w)
                flat = flat[P * w :]
                op[:, : w - 2], op[:, w - 2], op[:, w - 1] = seg, trail[1], 1.0
                self.operands.append(op)
                if m:
                    np.add(self.H[m - 1], trail[1], out=self.H[m])
                else:
                    self.H[0] = trail[1]
        self.kappa = np.array([4.0 * (M + 7 * (m + 1)) for m, M in enumerate(M_grid)])
        self.recomputed = 0

    def sums(self, run: _Screened) -> np.ndarray:
        """The float32 half squared lengths of ``run`` added up over the
        segments, one (columns, rows) layer per M, in a reused buffer."""
        n = int(run.bounds[-1])
        rows, cols = slice(run.i0, run.i0 + run.rows), slice(run.j0, run.j0 + n)
        sums = self.work.get("screen_run", (len(self.operands), n, run.rows), np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            for m, op in enumerate(self.operands):
                row_op = np.negative(op[rows], out=self.work.get("screen_rows", (run.rows, op.shape[1]), np.float32))
                row_op[:, -2], row_op[:, -1] = 1.0, op[rows, -2]
                np.matmul(op[cols], row_op.T, out=sums[m])
                if m:
                    sums[m] += sums[m - 1]
        return sums

    def slack(self, run: _Screened) -> np.ndarray:
        """M by block, the slack of :func:`_scan` of the blocks of ``run``:
        kappa_M (u (H_i + H_j) + 2^-126) max rec."""
        cols = slice(run.j0, run.j0 + int(run.bounds[-1]))
        H = self.H[:, run.i0 : run.i0 + run.rows].max(axis=1)[:, None] + \
            np.maximum.reduceat(self.H[:, cols], run.bounds[:-1], axis=1)
        return self.kappa[:, None] * (_U32 * H + _TINY32) * run.max_rec

    @staticmethod
    def widened(run: _Screened, sums: np.ndarray, slack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Upper and lower bounds, M by block, on the float64 ratios of
        ``run``: each block's extremes of its float32 ``sums`` times its
        reciprocal extremes, chosen by sign, widened by ``slack``."""
        flat, offs = sums.reshape(len(sums), -1), run.bounds[:-1] * run.rows
        hi, lo = np.maximum.reduceat(flat, offs, axis=1), np.minimum.reduceat(flat, offs, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            up = np.where(hi >= 0.0, hi * run.max_rec, hi * run.min_rec)
            down = np.where(lo >= 0.0, lo * run.min_rec, lo * run.max_rec)
        return up + slack, down - slack

    def unresolved(self, run: _Screened, N: int, M_grid, best: list[float]):
        """The blocks of ``run`` that the float64 pass must scan, in order,
        as ``(i0, j0, rec, n, open)`` like the other blocks of
        :func:`_scan`: ``rec`` the block's recomputed float64 reciprocal
        lengths, in the fourth ``block`` buffer of the workspace, ``n`` the
        pairs it scans, and ``open`` the ascending indices into ``M_grid``
        of the M at which the screen cannot rule the block out.  ``best``
        is read again after each block, once the caller has scanned it.

        A block the block bounds cannot rule out at every M has its
        reciprocals recomputed by :func:`_reciprocals`, the call that
        cached their extremes (which skips finding dropped pairs when the
        run drops none), and is then bounded pair by pair, its float32 sums
        times those reciprocals widened by the same slack, from the largest
        M still open down to the first M these bounds cannot rule out: the
        float64 pass adds up the segments of the smaller M anyway.  A
        dropped pair's ratio is 0 there, which can only keep an M open."""
        every = run.pairs == run.rows * int(run.bounds[-1])
        sums = self.sums(run)
        slack = self.slack(run)
        up, down = self.widened(run, sums, slack)
        t = 0
        while t < len(run.max_rec):
            above, below = _thresholds(best, N, M_grid)
            ruled_out = (up[:, t:] <= above[:, None]) & (down[:, t:] >= below[:, None])
            pending = ~ruled_out.all(axis=0)
            if not pending.any():
                break
            k = int(np.argmax(pending))
            t += k
            c0, c1 = int(run.bounds[t]), int(run.bounds[t + 1])
            rows, cols = slice(run.i0, run.i0 + run.rows), slice(run.j0 + c0, run.j0 + c1)
            _, _, ratio, rec = self.work.get("block", (4, run.rows, c1 - c0))
            n = _reciprocals(self.ambient, rows, cols, rec, ratio, every)
            self.recomputed += 1
            open_ms = np.flatnonzero(~ruled_out[:, k]).tolist() if n else []
            with np.errstate(over="ignore", invalid="ignore"):
                while open_ms:  # from the largest M: once one stays open, the pass pays for the rest
                    m = open_ms[-1]
                    np.multiply(sums[m, c0:c1].T, rec, out=ratio)
                    if not (ratio.max() + slack[m, t] <= above[m] and ratio.min() - slack[m, t] >= below[m]):
                        break
                    open_ms.pop()
            if open_ms:
                yield run.i0, run.j0 + c0, rec, n, tuple(open_ms)
            t += 1


def _extremes(ratio: np.ndarray, drop, diagonal: bool) -> list[int]:
    """Flat indices of the first largest and the first smallest scanned
    ratio of a block: the diagonal of a diagonal block and the entries of
    ``drop`` (the zero reciprocals of a block that drops pairs, None in the
    others) are blanked, to -inf before the argmax and to +inf before the
    argmin, so they can be neither extreme."""
    ends = []
    for fill, arg in ((-math.inf, ratio.argmax), (math.inf, ratio.argmin)):
        if diagonal:
            _diagonal(ratio).fill(fill)
        if drop is not None:
            np.copyto(ratio, fill, where=drop)
        ends.append(int(arg()))
    return ends


def _scan(Y: np.ndarray, N: int, M_grid, blocks, ambient: tuple, work: _Workspace) -> list[DistortionSummary]:
    """Worst chord distortion under each nested projection over the blocks
    of ``_chord_blocks``: ``Y[:, :M]`` are the images of the points under
    the first M rows of one row-orthonormal projection of R^N, for every M
    of the ascending ``M_grid``.

    Per block the projected squared lengths p are added up segment by
    segment over the columns [M_{k-1}, M_k), at half scale like the ambient
    ones (see ``_chord_blocks``), so each sum and ratio is the full-scale
    one bit for bit.  The ratio of a pair is r = p rec, the product by the
    cached reciprocal rec = 1 / da: rounded twice, once in the reciprocal
    and once in the product, so within a relative 2^-52 of p / da (to
    first order).  At each M only the smallest and largest r are found,
    while the block is still in cache.  Rounded products, square roots and
    differences are monotone, so max(|sqrt(s lo) - 1|, |sqrt(s hi) - 1|)
    equals the largest |sqrt(s r) - 1| over the block bit for bit.  A
    computed projected length can be negative; clipping r at 0 is monotone
    too, so it is applied to the two extremes only, which gives the value
    of clipping every entry (among tied entries clipped to 0 the pair
    reported may differ).  With one segment this is the plain scan of one projector.

    A dropped pair has the reciprocal 0 (see :func:`_reciprocals`), and
    each block carries its count of scanned pairs.  A block of fewer
    pairs than it holds blanks its zero reciprocals like the diagonal
    below, from one mask per visit; a block of none is skipped.

    A diagonal block is scanned whole: its diagonal is blanked with a
    strided write, to +inf before the argmin and -inf before the argmax.
    Its projected Gram is a gemm of the
    block's rows by a copy of them (numpy would form it with syrk and a
    mirror, which costs up to 2.3 times as much), and gemm need not
    round the twins (i, j) and (j, i) of a pair alike: rec and its zeros
    are symmetric (see ``_chord_blocks``), the products are not always.  Both
    twins are scanned, so the extremes are those of the twin of larger
    distortion, the pair is reported as (i, j) with i < j, and the count
    of pairs is that of the upper triangle.  Where the twins are equal the
    upper one is the first in row-major order (j s + i > i s + j for a
    block of s rows), so max, min and reported pair are those of a scan of
    the upper triangle alone.

    Blocks are visited in the order of :func:`_plan`, the diagonal
    band first, and only a strictly larger distortion replaces the worst
    pair: among exact ties in different blocks the pair reported is the
    one in the first block of that order.

    Runs of blocks that :class:`ChordScan` keeps as :class:`_Screened` go
    through a float32 screen first.  A block whose float64 distortions are
    all at most the running worst b at some M leaves the scan at that M as
    it was (ties do not replace the worst pair), and it needs none of its
    ratios above (1 + b)^2 / s or, when b < 1, below (1 - b)^2 / s.  The
    screen rules a block out at an M when its bounds, widened by the slack
    below, stay within both limits there, and skips the block when it
    rules it out at every M.  It bounds a block twice.  First from the two
    reciprocals the block keeps: every rec lies in [min rec, max rec], so
    the ratio t rec of a float32 sum t lies below t_max max rec
    (t_max min rec if t_max < 0) and above t_min min rec (t_min max rec
    if t_min < 0), t_max and t_min the block's extremes of t.  A block
    these bounds leave open gets its float64 reciprocals recomputed with
    the call that cached their extremes, from ``ambient``, the
    :func:`_ambient` arrays that built the cache, so it reads the bits the
    cache read.  Then pair by pair: the block's
    float32 sums times those reciprocals (a float64 product), from the
    largest M still open down to the first M this cannot rule out, as
    the float64 pass adds up the segments of the smaller M anyway.  At
    the M left open the float64 pass below runs on the same reciprocals:
    it adds up segments only to the largest M still open and takes
    extremes only at the open M.  A block ruled out at M cannot change
    the worst at M then or later, as b only grows and the limits only
    widen.  Blocks keep their order, so every max and argmax
    is the unscreened scan's bit for bit.  The band blocks are never
    screened (their shortest chords are too short for float32), but they
    set the running worst before the screen reaches the far blocks, so a
    far block is screened against the worst chord of the band and is
    usually ruled out.

    The float32 pass forms each segment's half squared lengths with one
    GEMM of [y, h, 1] by [-y; 1; h] (h = |y|^2 / 2 over the segment) and
    adds them up over segments into t.  With u = 2^-24 and H = |y|^2 / 2
    over the first M columns, t rec is within

        kappa_M (u (H_i + H_j) + 2^-126) rec,   kappa_M = 4 (M + 7 S) over S segments,

    of the float64 ratio of a pair (i, j).  Derivation, in exact
    arithmetic on the float64 images: rounding the operands to float32
    moves each segment's dot product by at most 3 u (h_i + h_j).  A dot
    product of n terms, summed in any order and with or without fused
    multiply-adds, is off by at most gamma_n sum |x_k y_k| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, section
    3.1), gamma_n = n u / (1 - n u): every term meets at most n roundings
    whatever the order, and a fused multiply-add only drops one.  Here
    n = w + 2 for a segment of width w, and sum |x_k y_k| <= 2 (h_i + h_j)
    because |y_ik y_jk| <= (y_ik^2 + y_jk^2) / 2.  A segment is thus within
    (2 w + 7) u (h_i + h_j), and adding up S segments costs at most
    2 (S - 1) u (H_i + H_j) more: t is within e = (2 M + 2 S + 5) u (H_i + H_j)
    of the float64 projected length p, to first order, and t rec within
    e rec of p rec.  kappa_M = 4 (M + 7 S) is more than twice
    2 M + 2 S + 5, which covers second-order terms and the float64 pass's
    own rounding of p (2^-29 times smaller).  The 2^-126 terms bound
    underflow: a float32 operation with a subnormal result, or one flushed
    to zero, is off by at most 2^-126.  Per block, H_i + H_j and rec are
    replaced by their largest values.  The extremes of t are exact, and
    the products by reciprocals are rounded in float64.  The limits are
    narrowed by a relative 1e-9 for the float64 rounding of the limits, of
    these products, of the widened bounds and of the distortions
    themselves, and that margin also covers the rounding of the float64
    product p rec (a relative 2^-53): the screen bounds exactly the ratios
    the float64 pass computes.  A bound that overflows to inf or NaN never
    skips a block.  The slack holds at any conditioning of a block: one
    whose points lie far from the origin against its chords gets a wide
    slack, which rules it out less often, never wrongly.

    A block takes three buffers of its size (the running sum, the
    segment's lengths, and the Gram product, then the ratios), a fourth
    for recomputed reciprocals, and a mask of its size where it drops
    pairs; the screen takes a whole run at every M,
    one float32 buffer of a run's size per M, which the pair-by-pair
    bounds read again.  The segments of the images are
    column views of ``Y``, not copies, and their operands of both passes
    are filled in place.  Every buffer is a view of ``work``, the
    :class:`_Workspace` of the calling thread, in
    which :meth:`ChordScan.worst` also forms ``Y``, so a scan on a thread
    that has scanned blocks of the same sizes allocates no array of a
    block's size.  The buffers belong to the thread, not the call: one
    :class:`ChordScan` serves concurrent scans from several threads, each
    in its own workspace.
    """
    edges = (0, *M_grid)
    segs = [Y[:, m0:m1] for m0, m1 in zip(edges, edges[1:])]
    leads, trails = work.get("lead", (len(segs), len(Y), 2)), work.get("trail", (len(segs), 2, len(Y)))
    ops = [_sq_operands(*args) for args in zip(segs, leads, trails)]
    every = tuple(range(len(segs)))
    screen = None
    best, best_pair, n_eval = [-1.0] * len(segs), [(-1, -1)] * len(segs), 0
    for item in blocks:
        if isinstance(item, _Screened):
            if screen is None:
                screen = _Screen(segs, ops, M_grid, ambient, work)
            todo = screen.unresolved(item, N, M_grid, best)
            n_eval += item.pairs
        else:
            todo = (item + (every,),)
            n_eval += item[3]
        for i0, j0, rec, n, open_ms in todo:
            if not n:
                continue
            shape = rec.shape
            rows, cols = slice(i0, i0 + shape[0]), slice(j0, j0 + shape[1])
            proj, part, ratio, _ = work.get("block", (4, *shape))  # a screened block's rec is in the fourth
            diagonal, right, drop = i0 == j0, None, None
            if n < (shape[0] * (shape[0] - 1) // 2 if diagonal else rec.size):
                drop = np.equal(rec, 0.0, out=work.get("drop", shape, bool))
            for m in range(open_ms[-1] + 1):
                lead, trail = ops[m]
                if diagonal:  # a copy of the block's rows makes its Gram a gemm
                    right = work.get("twin", segs[m][rows].shape)
                    np.copyto(right, segs[m][rows])
                # ratio holds the Gram block until the product
                _block_half_sq(segs[m], lead, trail, rows, cols, part if m else proj, ratio, right)
                if m:
                    proj += part
                if m not in open_ms:
                    continue
                np.multiply(proj, rec, out=ratio)
                scale = N / M_grid[m]
                for k in _extremes(ratio, drop, diagonal):
                    d = abs(math.sqrt(scale * max(float(ratio.flat[k]), 0.0)) - 1.0)
                    if d > best[m]:
                        i, j = divmod(k, shape[1])
                        if diagonal and i > j:  # a lower twin: name the pair above the diagonal
                            i, j = j, i
                        best[m], best_pair[m] = d, (i0 + i, j0 + j)
    if n_eval == 0:
        raise ValueError(_NO_CHORDS)
    recomputed = 0 if screen is None else screen.recomputed
    return [DistortionSummary(max=d, argmax=pair, n_evaluated=n_eval, recomputed=recomputed)
            for d, pair in zip(best, best_pair)]


def _workspace_bytes(n_points: int, M_grid) -> int:
    """Bytes that one thread's workspace of a :class:`ChordScan` of
    ``n_points`` points holds in arrays that grow with the point count,
    once :meth:`ChordScan.worst` has scanned the ascending ``M_grid`` of S
    entries at the default block size: the P x M_max float64 images, the
    [h, 1] and [1, h] operands of every segment (32 S P), the float32
    operands of the screen (P x (M_max + 2 S)), its float64 ``screen_H``
    (S x P), and its float32 sums of one run (S x ``_SCREEN_COLS`` x 128).
    The buffers of one block's size, under 1 MiB, are left out."""
    P, M, S = n_points, M_grid[-1], len(M_grid)
    return 8 * P * M + 32 * S * P + 4 * P * (M + 2 * S) + 8 * S * P + 4 * S * _SCREEN_COLS * _BLOCK


def _plan_bytes(n_points: int, block: int):
    """Bytes of the cache of a :class:`ChordScan` of ``n_points`` points,
    item by item of its :func:`_plan`: 8 per pair of a float64 range (a
    diagonal block whole), and of a screened range of n blocks 24 per
    block and 8 per run (the arrays of :class:`_Screened`), with a run
    closed every ceil(_SCREEN_COLS / block) blocks as in :func:`_cached`.
    The cache holds nothing else, so this is its size for every point
    set."""
    per_run = -(-_SCREEN_COLS // block)
    for i0, j0, j1, screened in _plan(n_points, block):
        n = -(-(j1 - j0) // block)
        yield 24 * n + 8 * -(-n // per_run) if screened else 8 * min(block, n_points - i0) * (j1 - j0)


def _check_cache_size(n_points: int, block: int = _BLOCK, held: int = 0) -> None:
    """Raise ValueError if the cache of a :class:`ChordScan` of ``n_points``
    points (see :func:`_plan_bytes`), with ``held`` more bytes that the
    caller holds beside it, takes more than ``_CACHE_LIMIT`` bytes.

    It needs only the point count, so callers check before they sample the
    points, and it stops counting at the first item of the plan past the
    limit.  It is the only size check: the build keeps what the plan
    counts.
    """
    if any(need > _CACHE_LIMIT for need in itertools.accumulate(_plan_bytes(n_points, block), initial=held)):
        raise ValueError(
            f"a chord scan of {n_points} points would cache more than {_CACHE_LIMIT} bytes "
            f"({_CACHE_LIMIT / 2**30:g} GiB)"
            + (f", counting {held} bytes of their coordinates and scan workspaces" if held else "")
        )


def _cached(blocks, n_points: int, block: int):
    """The blocks of ``_chord_blocks`` of ``n_points`` points as
    :class:`ChordScan` keeps them, in the same order: the blocks of each
    screened range of the :func:`_plan` in runs of ceil(_SCREEN_COLS /
    block), each run one :class:`_Screened`, closed once it reaches
    ``_SCREEN_COLS`` columns, and every other block as it is."""
    blocks, per_run = iter(blocks), -(-_SCREEN_COLS // block)
    for _, c0, c1, screened in _plan(n_points, block):
        row = itertools.islice(blocks, -(-(c1 - c0) // block))
        if not screened:
            yield from row
            continue
        while run := [(i0, j0, *rec.shape, rec.max(), rec.min(), n)
                      for i0, j0, rec, n in itertools.islice(row, per_run)]:
            i0, j0, rows, widths, max_rec, min_rec, pairs = zip(*run)
            yield _Screened(i0[0], j0[0], rows[0], np.cumsum((0, *widths)), np.array(max_rec), np.array(min_rec),
                            sum(pairs))


class ChordScan:
    """Chord scan of every pair of a fixed point set, reused across projectors.

    The scan keeps its own read-only copy of the points, :attr:`points`, so
    a later write to the caller's array changes no result, and the other
    arrays of :func:`_ambient`, computed once: the same arrays build the
    cache and recompute a screened block, so both read the same bits.
    Squared chord lengths in the ambient space depend only on the points,
    so their reciprocals are computed once here, in the order of the
    :func:`_plan`: the diagonal band, then the far blocks.

    The cache is the plan, made from the point count and the block size
    ``block`` (a whole number >= 1) alone: every block of a screened range
    of :func:`_plan` goes through the float32 screen of :func:`_scan` and
    keeps only the largest and the smallest of its float64 reciprocal
    lengths, and its column offset: 24 bytes, whatever its size.  The
    others, the band's blocks (the diagonal blocks and their first two
    neighbours) and far blocks alone in their row, keep their float64
    reciprocals, 8 bytes per pair, a dropped pair's reciprocal 0.  Each
    block, and each run of screened blocks, keeps its count of scanned
    pairs.  Nothing in the cache depends on the values of the points, so
    :attr:`cache_bytes` is the sum of :func:`_plan_bytes` for every point
    set; :attr:`screened_blocks` counts the screened blocks.

    Each :meth:`worst` then
    pays only for its projector's Gram blocks, scans every M of a nested
    grid in one pass, and at a single M agrees bit for bit with
    :func:`pointset_distortion` at the same block size, worst pair and
    exact ties included.  The
    cached blocks are only read, so one scan serves concurrent calls from
    several threads.

    Each thread that scans gets one workspace of this scan (a
    ``threading.local``), made at its first call and freed with the scan or
    the thread: the images of the points and every buffer and operand of
    :func:`_scan`.  The buffers belong to the thread, not the call, so
    every later projector on the thread reuses them; :meth:`worst` returns
    no view of them.

    Raises ValueError, before the build, if ``block`` is not a whole
    number >= 1 or the cache would exceed 2 GiB (see
    :func:`_check_cache_size`), and after it if the points have no chord
    of positive length.
    """

    def __init__(self, points: np.ndarray, block: int = _BLOCK):
        points, block = _as_points(points), _block_size(block)
        _check_cache_size(len(points), block)
        self.points = np.array(points)  # a copy, in the memory order of the caller's
        self.points.flags.writeable = False
        self._ambient = _ambient(self.points)
        self._blocks = list(_cached(_chord_blocks(self._ambient, block), len(points), block))
        self.cache_bytes = sum(a.nbytes for b in self._blocks for a in b if isinstance(a, np.ndarray))
        if not any(b.pairs if isinstance(b, _Screened) else b[3] for b in self._blocks):
            raise ValueError(_NO_CHORDS)
        self._local = threading.local()

    @property
    def screened_blocks(self) -> int:
        """Number of cached blocks that go through the float32 screen."""
        return sum(len(b.max_rec) for b in self._blocks if isinstance(b, _Screened))

    def _work(self) -> _Workspace:
        """The calling thread's workspace, made at its first scan."""
        work = getattr(self._local, "work", None)
        if work is None:
            work = self._local.work = _Workspace()
        return work

    def worst(self, rows, N: int, M_grid) -> list[DistortionSummary]:
        """Worst chord distortion under the first M ``rows``, for every M of
        the strictly ascending ``M_grid``, in its order.

        ``rows`` (at least M_max = max(M_grid) of them, each as wide as a
        point) map the points' space as M_max rows of a row-orthonormal
        projection of R^N do: the rows of a :class:`Projector`, or any rows
        with the same inner products with the points.  The images
        ``points @ rows[:M_max].T`` are formed in the calling thread's
        workspace and must be finite; rows past M_max are not read.  N and
        the entries of ``M_grid`` must be whole numbers (2.0 is 2, 2.7 is
        refused), N >= 1.  Every input is checked before the scan.  Entry
        k equals the scan of the first M_k rows alone up to rounding of the
        per-segment sums.
        """
        N, M_grid = integer(N, "N"), tuple(integer(m, "M_grid entry") for m in M_grid)
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        rows = np.asarray(rows, dtype=float)
        P, dim = self.points.shape
        if rows.ndim != 2 or rows.shape[1] != dim:
            raise ValueError(f"rows must be (M, {dim}), got {rows.shape}")
        if not M_grid or M_grid[0] < 1 or any(b <= a for a, b in zip(M_grid, M_grid[1:])):
            raise ValueError(f"M_grid must be strictly ascending and positive, got {M_grid}")
        if M_grid[-1] > min(N, len(rows)):
            raise ValueError(f"need M <= min(N, rows) = {min(N, len(rows))}, got {M_grid[-1]}")
        work = self._work()
        images = np.matmul(self.points, rows[: M_grid[-1]].T, out=work.get("images", (P, M_grid[-1])))
        if not (math.isfinite(images.min()) and math.isfinite(images.max())):  # NaN propagates to both
            raise ValueError("images of the points under rows must be finite")
        return _scan(images, N, M_grid, self._blocks, self._ambient, work)


def pointset_distortion(A: Projector, points: np.ndarray, block: int = _BLOCK) -> DistortionSummary:
    """Worst distortion over chords (displacement vectors) of a point set.

    The one-projector form of :class:`ChordScan`: the same blocks, streamed
    instead of cached.  Squared chord lengths come from block Gram products,
    so the cost is O(P^2 (N + M)) time and O(block^2 + block (N + M))
    memory.  Zero-length chords (coincident points) are skipped; ValueError
    if no chord of positive length is left, or if ``block`` is not a whole
    number >= 1.
    """
    X, block = _as_points(points), _block_size(block)
    if X.shape[1] != A.N:
        raise ValueError(f"points must be (P, {A.N}), got {X.shape}")
    ambient = _ambient(X)
    return _scan(X @ A.rows.T, A.N, (A.M,), _chord_blocks(ambient, block), ambient, _Workspace())[0]


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


def principal_angles(U: SubspaceBasis, U2: SubspaceBasis) -> PrincipalAngles:
    """Principal angles between two subspaces of equal dimension.

    Cosines are the singular values of U^T U2, clipped to [0, 1].
    """
    if U.K != U2.K:
        raise ValueError(f"subspace dimensions differ: {U.K} vs {U2.K}")
    if U.N != U2.N:
        raise ValueError(f"ambient dimensions differ: {U.N} vs {U2.N}")
    s = np.linalg.svd(U.cols.T @ U2.cols, compute_uv=False)
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
