"""Grid realizations of the Gaussian-process embedding and their geometry.

Each ambient coordinate of the embedding is an independent draw from a
stationary Gaussian process on a regular intrinsic grid, with covariance
``(ell^2/N) exp(-rho/2)``.  The kernel factorizes across intrinsic axes,
so a realization is obtained from per-axis factors applied along each grid
axis (Kronecker structure).  Each per-axis factor is the truncated Fourier
expansion of the squared-exponential kernel periodized on a circle longer
than the axis (circulant embedding; Wood & Chan 1994, Dietrich & Newsam
1997): an n_a x r_a matrix of weighted cosines and sines whose Gram matrix
equals the kernel on the grid to rounding, with no jitter and no matrix
factorization.  The rank r_a is about 2.8 (L_a/lam_a + 9), independent of
n_a, so each factor costs O(n_a r_a) time and memory; applying them is one
matrix product per axis, never O(P^3).

Also provided: concentration audits of the squared point norms, empirical
chord lengths, tangent frames orthonormalized under the empirical induced
metric, and principal angles between those frames.  The derivatives
behind the frames are exact: the same latent normals are mapped through
the derivative of the factor along one axis (see :func:`_realize`), so no
grid point is special and no finite-difference error enters.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalBreakdown
from .manifold import ManifoldSpec

__all__ = [
    "ManifoldSample",
    "TangentFrames",
    "SelfAveragingAudit",
    "sample_manifold",
    "isometric_coordinates",
    "grid_axes",
    "self_averaging_audit",
    "empirical_chord_sq",
    "tangent_frames",
    "empirical_principal_angles",
    "empirical_tangent_cosine",
    "save_sample",
    "load_sample",
]

_WRAP_CELLS = 9.0
_MODE_FLOOR = 1e-17
_MAGIC = b"MFLD"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ManifoldSample:
    """One realization of the embedding on the intrinsic grid.

    ``points[p, i]`` is ambient coordinate i of grid point p, with p the
    row-major (C-order) flattening of the grid indices.  Identical
    (spec, seed) reproduce identical points bit for bit.  The points are
    read-only; a sample is safe to share.
    """

    spec: ManifoldSpec
    points: np.ndarray = field(repr=False)
    seed: int

    def __post_init__(self):
        if self.points.shape != (self.spec.n_points, self.spec.N):
            raise ValueError(
                f"points must be {(self.spec.n_points, self.spec.N)}, got {self.points.shape}"
            )
        if not np.all(np.isfinite(self.points)):
            raise ValueError("sample contains non-finite values")
        self.points.flags.writeable = False

    @property
    def sigma_axes(self) -> tuple[np.ndarray, ...]:
        """The intrinsic coordinates of the grid, per axis (see :func:`grid_axes`)."""
        return grid_axes(self.spec)


def grid_axes(spec: ManifoldSpec) -> tuple[np.ndarray, ...]:
    """Evenly spaced intrinsic coordinates covering [0, L_a) per axis."""
    return tuple(np.arange(n) * (L / n) for n, L in zip(spec.grid, spec.L))


def _modes(lam: float, L: float) -> tuple[float, np.ndarray, np.ndarray]:
    """The period ``T = L + 9 lam`` of the periodized kernel of
    :func:`_spectral_factor`, and the frequencies ``omega_k`` and weights
    ``exp(-(omega_k lam)^2 / 2)`` of the modes it keeps: its factor has
    ``2 len(omega) + 1`` columns, whatever the grid."""
    T = L + _WRAP_CELLS * lam
    k_max = T * math.sqrt(-2.0 * math.log(_MODE_FLOOR)) / (2.0 * math.pi * lam)
    omega = 2.0 * math.pi * np.arange(1, int(k_max) + 2) / T
    weight = np.exp(-0.5 * (omega * lam) ** 2)
    keep = weight >= _MODE_FLOOR
    return T, omega[keep], weight[keep]


def coordinate_count(spec: ManifoldSpec) -> int:
    """Columns k of :func:`isometric_coordinates` of ``spec``, for every
    seed and before any sample: the latent rank r, the product of the
    axis factors' columns (see :func:`_modes`), or N when r >= N."""
    r = math.prod(2 * len(_modes(lam, L)[1]) + 1 for lam, L in zip(spec.lam, spec.L))
    return min(r, spec.N)


def _spectral_factor(
    ax: np.ndarray, lam: float, L: float, deriv: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-axis factor F with ``F F^T = exp(-(d/lam)^2 / 2)`` on the grid ``ax``,
    and its exact derivative ``dF = dF/dsigma`` if ``deriv`` (else None).

    The kernel periodized on a circle of length ``T = L + 9 lam`` equals
    the kernel at every grid separation up to the wrap term
    ``exp(-81/2) ~ 2.6e-18``.  By Poisson summation its Fourier weights
    are ``s_k = s0 exp(-(omega_k lam)^2 / 2)`` with ``omega_k = 2 pi k / T``
    and ``s0 = sqrt(2 pi) lam / T``, all positive, so the features
    ``sqrt(s0)`` and ``amp_k {cos, sin}(omega_k sigma)``, with
    ``amp_k = sqrt(2 s_k)``, factor it exactly.  Modes with
    ``s_k < 1e-17 s0`` are dropped.  Their derivatives are ``0`` and
    ``amp_k omega_k {-sin, cos}(omega_k sigma)``, so ``dF dF^T`` and
    ``F dF^T`` are the kernel's mixed and first derivatives.
    """
    T, omega, weight = _modes(lam, L)
    s0 = math.sqrt(2.0 * math.pi) * lam / T
    amp = np.sqrt(2.0 * s0 * weight)
    theta = np.outer(ax, omega)
    cos, sin = np.cos(theta), np.sin(theta)
    F = np.empty((ax.size, 2 * omega.size + 1))
    F[:, 0] = math.sqrt(s0)
    np.multiply(amp, cos, out=F[:, 1 : omega.size + 1])
    np.multiply(amp, sin, out=F[:, omega.size + 1 :])
    if not deriv:
        return F, None
    dF = np.hstack([np.zeros((ax.size, 1)), -(amp * omega) * sin, (amp * omega) * cos])
    return F, dF


def _apply_along_axis(mat: np.ndarray, z: np.ndarray, axis: int) -> np.ndarray:
    """Matrix-multiply ``mat`` onto tensor ``z`` along one axis."""
    z = np.moveaxis(z, axis, 0)
    head = z.shape[0]
    out = mat @ z.reshape(head, -1)
    out = out.reshape((mat.shape[0],) + z.shape[1:])
    return np.moveaxis(out, 0, axis)


def _latent(spec: ManifoldSpec, seed: int, derivs: bool = False):
    """The spectral factors (F, dF) of every axis of ``spec``, dF None
    unless ``derivs``, and the standard normal array of shape
    ``(r_1, ..., r_K, N)`` drawn from ``seed``."""
    factors = [_spectral_factor(ax, lam, L, derivs) for ax, lam, L in zip(grid_axes(spec), spec.lam, spec.L)]
    rng = np.random.default_rng(int(seed))
    return factors, rng.standard_normal(tuple(F.shape[1] for F, _ in factors) + (spec.N,))


def _realize(spec: ManifoldSpec, seed: int, with_derivs: bool = False):
    """The P x N realization of ``(spec, seed)`` and, if asked, its
    P x K x N derivatives along the intrinsic axes (else None).

    Draws the latent normals of ``seed`` once and maps them through the
    spectral factor F of every axis.  The embedding is linear in the
    factors, so its derivative along axis a takes dF in place of F at axis
    a; it shares the product over the axes before a with the points and is
    carried through the axes after it.
    """
    factors, z = _latent(spec, seed, with_derivs)
    partial = []
    for a, (F, dF) in enumerate(factors):
        if with_derivs:
            partial = [_apply_along_axis(F, t, a) for t in partial] + [_apply_along_axis(dF, z, a)]
        z = _apply_along_axis(F, z, a)
    scale = spec.ell / math.sqrt(spec.N)
    points, *derivs = (np.ascontiguousarray(scale * t.reshape(spec.n_points, spec.N)) for t in [z, *partial])
    return points, (np.stack(derivs, axis=1) if with_derivs else None)


def isometric_coordinates(spec: ManifoldSpec, seed: int) -> np.ndarray:
    """P x k coordinates C of the realization X of ``(spec, seed)`` with
    ``C C^T = X X^T``, so every chord has the same length in both.

    X = F Z, with F the P x r Kronecker product of the scaled axis factors
    and Z the r x N latent normals (the ones :func:`sample_manifold` draws).
    When r < N, the Cholesky factor of Z Z^T = L L^T gives X = (F L) V^T
    with V = Z^T L^{-T} column-orthonormal (the Q factor of Z^T), so
    C = F L and k = r: O(N r^2) for the Gram matrix and O(P r) per axis
    product, never O(P N).  When r >= N there is nothing to gain and C
    is X itself (k = N).
    """
    factors, z = _latent(spec, seed)
    r = z.size // spec.N
    if r < spec.N:
        flat = z.reshape(r, spec.N)
        z = np.linalg.cholesky(flat @ flat.T).reshape(z.shape[:-1] + (r,))
    for a, (F, _) in enumerate(factors):
        z = _apply_along_axis(F, z, a)
    return np.ascontiguousarray(spec.ell / math.sqrt(spec.N) * z.reshape(spec.n_points, -1))


def sample_manifold(spec: ManifoldSpec, seed: int) -> ManifoldSample:
    """Draw one realization of the random embedding on the grid.

    Each ambient coordinate is an independent zero-mean Gaussian process
    with covariance ``(ell^2/N) exp(-rho/2)``.  The per-axis correlations
    ``exp(-(ds/lam_a)^2 / 2)`` are factored by the n_a x r_a spectral
    factors of the periodized kernel (see :func:`_spectral_factor`), and a
    standard normal array of shape ``(r_1, ..., r_K, N)`` is mapped through
    them along the corresponding axes.  The covariance is exact to
    rounding, and the draws do not depend on the BLAS/LAPACK build beyond
    rounding of the matrix products.
    """
    return ManifoldSample(spec=spec, points=_realize(spec, seed)[0], seed=int(seed))


@dataclass(frozen=True)
class SelfAveragingAudit:
    """Concentration of the squared point norms at ell^2.

    Sums over the N ambient coordinates are self-averaging: for each grid
    point ``||phi||^2`` is an ell^2/N-scaled chi-square with N degrees of
    freedom, so its relative standard deviation is sqrt(2/N).
    """

    sq_norms: np.ndarray = field(repr=False)
    mean: float
    rel_sd: float
    expected_mean: float
    expected_rel_sd: float


def self_averaging_audit(samples) -> SelfAveragingAudit:
    """Squared point norms of one realization, or pooled over several.

    ``samples`` is a :class:`ManifoldSample` or an iterable of independent
    realizations of one spec.  The grid points of a single realization are
    correlated over lam, so it holds only about prod_a L_a/lam_a
    independent norms; its mean and spread scatter around the per-point
    law by more than that law says.  Pooling realizations removes this.

    Raises
    ------
    ValueError
        If no sample is given or the samples do not share one spec.
    """
    if isinstance(samples, ManifoldSample):
        samples = (samples,)
    spec, parts = None, []
    for sample in samples:
        if spec is None:
            spec = sample.spec
        elif sample.spec != spec:
            raise ValueError("pooled samples must share one spec")
        parts.append(np.einsum("ij,ij->i", sample.points, sample.points))
    if spec is None:
        raise ValueError("self-averaging audit needs at least one sample")
    sq = np.concatenate(parts)
    mean = float(sq.mean())
    rel_sd = float(sq.std() / mean) if mean > 0 else math.inf
    return SelfAveragingAudit(
        sq_norms=sq,
        mean=mean,
        rel_sd=rel_sd,
        expected_mean=spec.ell**2,
        expected_rel_sd=math.sqrt(2.0 / spec.N),
    )


def _check_index(p: int, n: int):
    if not (0 <= p < n):
        raise IndexError(f"point index {p} out of range [0, {n})")


def empirical_chord_sq(sample: ManifoldSample, i: int, j: int) -> float:
    """Squared Euclidean chord length between grid points i and j."""
    _check_index(i, sample.spec.n_points)
    _check_index(j, sample.spec.n_points)
    d = sample.points[i] - sample.points[j]
    return float(d @ d)


@dataclass(frozen=True)
class TangentFrames:
    """Exact tangent data at every grid point.

    ``derivs[p, a, :]`` is the derivative of the embedding along intrinsic
    axis a, exact to rounding (it comes from the derivatives of the
    spectral modes, not from differences of the points); ``metric[p]`` the
    empirical induced metric ``derivs derivs^T``; ``bases[p]`` an N x K
    column-orthonormal basis of the tangent plane obtained by applying the
    inverse metric square root (the empirical vielbein) to the derivatives.
    """

    spec: ManifoldSpec
    derivs: np.ndarray = field(repr=False)
    bases: np.ndarray = field(repr=False)
    metric: np.ndarray = field(repr=False)

    def __post_init__(self):
        for arr in (self.derivs, self.bases, self.metric):
            arr.flags.writeable = False


def tangent_frames(sample: ManifoldSample) -> TangentFrames:
    """Tangent frames of a realization from the derivatives of its modes.

    The derivatives are regenerated from ``(sample.spec, sample.seed)``,
    so ``sample.points`` must be that realization.

    Raises
    ------
    ValueError
        If ``sample.points`` differ from the realization of its spec and
        seed by more than 1e-12 ell (rounding of another BLAS build stays
        far below that).
    NumericalBreakdown
        If the empirical metric is singular at some point.
    """
    spec = sample.spec
    points, derivs = _realize(spec, sample.seed, with_derivs=True)
    if np.abs(sample.points - points).max() > 1e-12 * spec.ell:
        raise ValueError("sample points are not the realization of its spec and seed")

    metric = np.einsum("pan,pbn->pab", derivs, derivs)
    w, Q = np.linalg.eigh(metric)
    if np.any(w <= 1e-12 * w[:, -1:].clip(min=np.finfo(float).tiny)):
        raise NumericalBreakdown("singular empirical metric in tangent frames")
    inv_sqrt = np.einsum("pab,pb,pcb->pac", Q, 1.0 / np.sqrt(w), Q)
    bases = np.einsum("pab,pbn->pna", inv_sqrt, derivs)
    return TangentFrames(
        spec=spec,
        derivs=derivs,
        bases=np.ascontiguousarray(bases),
        metric=np.ascontiguousarray(metric),
    )


def empirical_principal_angles(frames: TangentFrames, i: int, j: int) -> np.ndarray:
    """Cosines of principal angles between tangent planes at points i and j.

    Singular values of U_i^T U_j, sorted descending and clipped to [0, 1];
    invariant under right-orthogonal changes of either basis.
    """
    n = frames.spec.n_points
    _check_index(i, n)
    _check_index(j, n)
    s = np.linalg.svd(frames.bases[i].T @ frames.bases[j], compute_uv=False)
    return np.clip(s, 0.0, 1.0)


def empirical_tangent_cosine(frames: TangentFrames, i: int, j: int) -> float:
    """Signed cosine between raw tangent vectors of a curve (K = 1 only)."""
    if frames.spec.K != 1:
        raise ValueError("signed tangent cosine is defined for curves (K = 1) only")
    n = frames.spec.n_points
    _check_index(i, n)
    _check_index(j, n)
    ti = frames.derivs[i, 0]
    tj = frames.derivs[j, 0]
    return float(ti @ tj / (np.linalg.norm(ti) * np.linalg.norm(tj)))


def _header(K: int) -> struct.Struct:
    """The header of a dump of a K-dimensional manifold (see
    :func:`save_sample`): magic, version, K, N, grid, ell, lam, L, seed."""
    return struct.Struct(f"<4sIII{K}Qd{K}d{K}dQ")


def save_sample(sample: ManifoldSample, path) -> None:
    """Write a sample to the binary dump format.

    Layout (all little-endian): magic ``b"MFLD"``, uint32 version, uint32
    K, uint32 N, K x uint64 grid shape, float64 ell, K x float64 lam,
    K x float64 L, uint64 seed, then the P x N float64 points row-major.
    """
    spec = sample.spec
    with open(path, "wb") as fh:
        fh.write(_header(spec.K).pack(_MAGIC, _FORMAT_VERSION, spec.K, spec.N, *spec.grid, spec.ell, *spec.lam,
                                      *spec.L, sample.seed))
        fh.write(np.ascontiguousarray(sample.points, dtype="<f8").tobytes())


def load_sample(path) -> ManifoldSample:
    """Read a sample written by :func:`save_sample`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC:
        raise ValueError("not a manifold sample dump (bad magic)")
    version, K = struct.unpack_from("<II", raw, 4)
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported dump version {version}")
    header = _header(K)
    _, _, _, N, *rest = header.unpack_from(raw)
    grid, ell, lam, L, seed = rest[:K], rest[K], rest[K + 1 : 2 * K + 1], rest[2 * K + 1 : 3 * K + 1], rest[-1]
    spec = ManifoldSpec(K=K, N=N, ell=ell, lam=lam, L=L, grid=grid)
    pts = np.frombuffer(raw[header.size :], dtype="<f8").reshape(spec.n_points, spec.N).copy()
    return ManifoldSample(spec=spec, points=pts, seed=seed)
