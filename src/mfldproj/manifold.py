"""Closed-form expected geometry of the Gaussian random manifold ensemble.

The ensemble consists of K-dimensional submanifolds of R^N whose embedding
functions are independent stationary Gaussian processes with squared-
exponential correlations.  Everything in this module is a deterministic
function of the ensemble parameters; sampling lives in ``sampling``.

All separations are expressed through the scaled squared intrinsic
separation ``rho = sum_a (dsigma_a / lambda_a)**2``, in terms of which the
expected squared chord length is ``2 ell^2 (1 - exp(-rho/2))`` and the
expected principal cosines between tangent planes are ``exp(-rho/2)``
(K-1 of them) and ``|1 - rho| exp(-rho/2)`` (the remaining one).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConeUndefined

__all__ = [
    "ManifoldSpec",
    "CellPartition",
    "ExpectedGeometry",
    "intrinsic_separation",
    "expected_chord_sq",
    "expected_principal_cosines",
    "expected_tangent_cosine",
    "expected_geometry",
    "chordal_cone_angle",
    "tangential_cone_angle",
    "short_chord_tangent_angle",
    "make_cells",
]


def integer(value, key: str) -> int:
    """``value`` as an int, or a ValueError naming ``key`` if it is not a
    whole number: 16.0 is 16, but 16.9, True and "16" are refused."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or
                                       isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{key} must be int, got {value!r}")
    return int(value)


def listed(value, key: str):
    """``value``, or a ValueError naming ``key`` if it is not a list, a
    tuple or a 1-d array: a scalar where a list belongs is refused."""
    if not (isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim == 1):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def real(value, key: str) -> float:
    """``value`` as a float, or a ValueError naming ``key`` if it is not a
    finite real number: 16 is 16.0, but "0.2", True, None, [0.2], NaN and
    inf are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ManifoldSpec:
    """Parameters of one point of the random-manifold ensemble.

    Parameters
    ----------
    K : int
        Intrinsic dimension.
    N : int
        Ambient dimension.
    ell : float
        Overall length scale of the embedding; every point of the manifold
        has expected squared norm ``ell**2``.
    lam : tuple of float
        Correlation length per intrinsic axis, length K.
    L : tuple of float
        Extent of each intrinsic coordinate, length K.
    grid : tuple of int
        Number of grid points per intrinsic axis (used by the sampler),
        length K, each at least 2.

    K, N and the grid entries must be whole numbers (16.0 is 16), and ell
    and the entries of lam and L finite numbers; any other value is a
    ValueError that names it.
    """

    K: int
    N: int
    ell: float
    lam: tuple[float, ...]
    L: tuple[float, ...]
    grid: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "K", integer(self.K, "K"))
        object.__setattr__(self, "N", integer(self.N, "N"))
        object.__setattr__(self, "ell", real(self.ell, "ell"))
        object.__setattr__(self, "lam", tuple(real(v, "lam entry") for v in self.lam))
        object.__setattr__(self, "L", tuple(real(v, "L entry") for v in self.L))
        object.__setattr__(self, "grid", tuple(integer(v, "grid entry") for v in self.grid))
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not self.ell > 0:
            raise ValueError(f"ell must be positive, got {self.ell}")
        for name, vals in (("lam", self.lam), ("L", self.L), ("grid", self.grid)):
            if len(vals) != self.K:
                raise ValueError(f"{name} must have length K={self.K}, got {len(vals)}")
        if any(v <= 0 for v in self.lam):
            raise ValueError("every correlation length must be positive")
        if any(v <= 0 for v in self.L):
            raise ValueError("every extent must be positive")
        if any(n < 2 for n in self.grid):
            raise ValueError("every grid count must be >= 2")
        if not math.isfinite(self.volume_ratio) or self.volume_ratio <= 0:
            raise ValueError("volume ratio prod(L/lam) must be finite and positive")

    @property
    def volume_ratio(self) -> float:
        """Number of correlation cells, prod_a L_a / lam_a."""
        return float(np.prod([L / l for L, l in zip(self.L, self.lam)]))

    @property
    def n_points(self) -> int:
        """Total number of grid points prod_a grid_a."""
        return int(np.prod(self.grid))


@dataclass(frozen=True)
class CellPartition:
    """Partition of the intrinsic domain into hypercubes of side gamma*lam_a.

    ``centers[m, a]`` is the intrinsic coordinate of cell m along axis a;
    ``counts`` is the number of cells per axis.
    """

    gamma: float
    centers: np.ndarray
    counts: tuple[int, ...]

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.counts))


@dataclass(frozen=True)
class ExpectedGeometry:
    """Ensemble-expected geometric quantities for a pair of points."""

    rho: float
    chord_sq: float
    principal_cosines: np.ndarray
    metric_diag: np.ndarray = field(repr=False)


def intrinsic_separation(spec: ManifoldSpec, s1, s2) -> float:
    """Scaled squared intrinsic separation sum_a ((s1-s2)_a / lam_a)**2.

    Raises
    ------
    ValueError
        If either point does not have K coordinates.
    """
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    if s1.shape != (spec.K,) or s2.shape != (spec.K,):
        raise ValueError(f"points must have K={spec.K} coordinates, got shapes {s1.shape}, {s2.shape}")
    d = (s1 - s2) / np.asarray(spec.lam)
    return float(d @ d)


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if rho < 0 or math.isnan(rho):
        raise ValueError(f"rho must be nonnegative, got {rho}")
    return rho


def expected_chord_sq(rho: float, ell: float) -> float:
    """Expected squared chord length 2 ell^2 (1 - exp(-rho/2)).

    Strictly increasing in rho, saturating at 2 ell^2 (at large separation
    the manifold is effectively confined to a sphere of radius ell).
    """
    rho = _check_rho(rho)
    if not ell > 0:
        raise ValueError(f"ell must be positive, got {ell}")
    return 2.0 * ell * ell * -math.expm1(-rho / 2.0)


def expected_principal_cosines(rho: float, K: int) -> np.ndarray:
    """Expected cosines of the K principal angles between tangent planes.

    The first K-1 entries are ``exp(-rho/2)``; the last is
    ``|1-rho| exp(-rho/2)``, which is the smallest cosine (largest angle)
    for rho <= 2 and the largest for rho > 2.
    """
    rho = _check_rho(rho)
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    common = math.exp(-rho / 2.0)
    out = np.full(K, common)
    out[-1] = abs(1.0 - rho) * common
    return out


def expected_tangent_cosine(rho: float) -> float:
    """Signed expected cosine (1 - rho) exp(-rho/2) between unit tangents.

    Only meaningful for curves (K = 1), where orientation distinguishes
    theta from pi - theta.  Ranges over (-2 exp(-3/2), 1].
    """
    rho = _check_rho(rho)
    return (1.0 - rho) * math.exp(-rho / 2.0)


def expected_geometry(spec: ManifoldSpec, s1, s2) -> ExpectedGeometry:
    """Bundle of the expected pair geometry at two intrinsic points."""
    rho = intrinsic_separation(spec, s1, s2)
    return ExpectedGeometry(
        rho=rho,
        chord_sq=expected_chord_sq(rho, spec.ell),
        principal_cosines=expected_principal_cosines(rho, spec.K),
        metric_diag=np.array([(spec.ell / l) ** 2 for l in spec.lam]),
    )


def chordal_cone_angle(gamma: float, K: int, cell_offset_norm: float) -> float:
    """Sine of the half-angle of the cone of chords between two cells.

    For cells of fractional size gamma whose integer index offset has norm
    ``cell_offset_norm``, the enclosing-ball construction gives

        sin(theta_C) = gamma * sqrt((K/2) / (1 - exp(-gamma^2 |m-n|^2 / 2))).

    Raises
    ------
    ConeUndefined
        If the formula exceeds 1: the ball diameter exceeds the separation
        and the cone construction says nothing.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if not cell_offset_norm > 0:
        raise ValueError(f"cell offset norm must be positive, got {cell_offset_norm}")
    denom = -math.expm1(-(gamma * cell_offset_norm) ** 2 / 2.0)
    s = gamma * math.sqrt(0.5 * K / denom)
    if s > 1.0:
        raise ConeUndefined(
            f"sin(theta_C) = {s:.6g} > 1 at gamma={gamma}, K={K}, "
            f"offset={cell_offset_norm}; enclosing balls overlap the separation"
        )
    return s


def tangential_cone_angle(gamma: float, K: int, mode: str = "approx") -> float:
    """Sine of the largest principal angle between the central tangent plane
    of a cell and any other tangent plane in the same cell.

    The extreme is attained at a cell corner, at scaled separation
    ``rho = gamma^2 K / 4``.  ``mode="approx"`` returns the small-cell form
    ``(gamma/2) sqrt(3K)``; ``mode="exact"`` evaluates the corner cosines
    exactly.  The two agree to O(gamma^3 K^{3/2}).
    """
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if mode == "approx":
        s = 0.5 * gamma * math.sqrt(3.0 * K)
    elif mode == "exact":
        rho = gamma * gamma * K / 4.0
        s_common = math.sqrt(-math.expm1(-rho))
        s_last = math.sqrt(1.0 - (1.0 - rho) ** 2 * math.exp(-rho))
        s = max(s_common, s_last)
    else:
        raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")
    if s > 1.0:
        raise ConeUndefined(f"sin(theta_T) = {s:.6g} > 1 at gamma={gamma}, K={K}")
    return s


def short_chord_tangent_angle(gamma: float, K: int, mode: str = "approx") -> float:
    """Largest angle between an intracellular chord and the best tangent.

    The worst chord spans the cell diagonal (``rho = gamma^2 K``), where the
    optimal tangent sits at the midpoint with
    ``cos(psi) = sqrt((rho/4)/sinh(rho/4))``.  The approximate form is
    ``gamma^2 K / (4 sqrt(6))``.  Much smaller than the tangential cone
    angle whenever ``gamma sqrt(K) << 1``, which is what justifies treating
    short chords as tangent vectors.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    rho = gamma * gamma * K
    if mode == "approx":
        return rho / (4.0 * math.sqrt(6.0))
    if mode == "exact":
        x = rho / 4.0
        # psi = acos(sqrt(x/sinh x)) = asin(sqrt(1 - x/sinh x)); the
        # complement 1 - x/sinh(x) cancels catastrophically for small x,
        # so use its series there.
        if x < 0.01:
            u = x * x / 6.0 - 7.0 * x**4 / 360.0
        else:
            u = 1.0 - x / math.sinh(x)
        return math.asin(math.sqrt(max(u, 0.0)))
    raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")


def make_cells(spec: ManifoldSpec, gamma: float) -> CellPartition:
    """Partition [0, L_a) per axis into cells of side gamma*lam_a.

    Cell centers are ``(m + 1/2) gamma lam_a`` for integer m.  Boundary
    cells keep these centers even when truncated by the extent; the count
    per axis is ``ceil(L_a / (gamma lam_a))`` so the partition covers the
    whole domain.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    counts = tuple(int(math.ceil(L / (gamma * l))) for L, l in zip(spec.L, spec.lam))
    axes = [(np.arange(c) + 0.5) * gamma * l for c, l in zip(counts, spec.lam)]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=-1)
    return CellPartition(gamma=float(gamma), centers=centers, counts=counts)
