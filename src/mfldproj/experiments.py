"""Empirical distortion experiments and the projection-count scaling law.

Pipeline: generate one random manifold per parameter point, sample many
random projections, record the worst chord distortion per projection,
extract the distortion achieved with probability 1 - delta, locate the
smallest M whose quantile meets a target (after isotonic smoothing of the
quantile-vs-M curve), and fit the resulting counts against intrinsic
dimension and log volume ratio.

The M* curve draws each projection once, at the largest M, and measures
every smaller M on its leading rows, all on one manifold: the points of
the curve share their random numbers and are correlated, not independent
draws per M.  Chords are scanned in r-dimensional isometric coordinates of
the manifold, and only the first rows of a Haar frame in those coordinates
are drawn (see :func:`m_star_empirical`).  :func:`distortion_distribution`
keeps the ambient path, one N x M projector per sample, as the reference;
it returns the worst distortion under each projector, the array that
:func:`epsilon_at_delta` takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RankDeficient, Unachievable
from .manifold import ManifoldSpec, integer, listed, real
from .projections import (ChordScan, DistortionSummary, _check_cache_size, _haar_frame_rows, _workspace_bytes,
                          sample_projector)
from .sampling import coordinate_count, isometric_coordinates, sample_manifold, tangent_frames
from .seeding import derive_seed, pooled_map
from . import bounds

__all__ = [
    "MStarResult",
    "FigureTable",
    "spec_for_volume",
    "distortion_distribution",
    "epsilon_at_delta",
    "isotonic_nonincreasing",
    "invert_quantile_curve",
    "m_star_empirical",
    "scaling_fit",
    "figure_data",
]


def spec_for_volume(K: int, N: int, lnV: float, grid_per_axis: int, ell: float = 1.0) -> ManifoldSpec:
    """Ensemble spec realizing a target log volume ratio.

    The volume ratio is split equally across axes: lam_a = 1 and
    L_a = V^(1/K) (the split is a convention; only the product matters to
    the theory).  ``K`` and ``grid_per_axis`` must be whole numbers.
    """
    K, grid_per_axis = integer(K, "K"), integer(grid_per_axis, "grid_per_axis")
    side = math.exp(lnV / K)
    return ManifoldSpec(K=K, N=N, ell=ell, lam=(1.0,) * K, L=(side,) * K, grid=(grid_per_axis,) * K)


@dataclass(frozen=True)
class MStarResult:
    """Smallest projection count meeting a distortion target empirically.

    ``m_star_emp`` interpolates the isotonically smoothed quantile curve in
    (log M, eps) space; ``isotonic_adjusted`` records whether smoothing
    changed the raw quantiles.  ``diagnostics`` is the work of the chord
    scan, under the names the run manifest gives it: ``chord_cache_bytes``
    and ``screened_blocks`` of the manifold's :class:`ChordScan` (a
    screened block keeps two reciprocal lengths and its column offset, the
    others one per pair, 0 for a dropped pair, so both follow from the
    point count alone),
    ``float64_recomputes``, the screened blocks whose float64 reciprocal
    lengths were recomputed because those two could not rule them out,
    summed over projectors, and ``pairs_scanned``, the chords scanned per
    projector.
    """

    M_grid: tuple[int, ...]
    eps_quantiles: np.ndarray
    eps_isotonic: np.ndarray
    m_star_emp: float
    isotonic_adjusted: bool
    diagnostics: dict


def _check_scan_size(n_points: int, columns: int, M_grid, workers: int) -> None:
    """Refuse, before sampling, a chord scan of ``n_points`` points of
    ``columns`` float64 coordinates whose cache (see
    :func:`~mfldproj.projections._check_cache_size`), three arrays of the
    points and the workspaces of ``workers`` threads scanning the ascending
    ``M_grid`` (see :func:`~mfldproj.projections._workspace_bytes`) would
    pass the cache limit.  Drawing the points peaks at three such arrays,
    before the cache is built, and the scan then keeps a copy beside the
    points it was given.  Traced with ``tracemalloc`` at N = 1000
    (k = 1000), the peak of :func:`isometric_coordinates` is 3.02 arrays on
    a 64 x 64 surface and 3.00 on a 128 x 128 one; that of a whole
    :func:`m_star_empirical` is 3.00 on both, and that of
    :func:`distortion_distribution` 3.00 on the first.  On a curve
    (k = 39, default grid, 20 projectors) the workspaces dominate: a whole
    :func:`m_star_empirical` peaks at 0.95 of this count at 4096 points
    and 0.93 at 16384 on one thread, 0.996 and 0.96 on two."""
    _check_cache_size(n_points, held=3 * 8 * n_points * columns + workers * _workspace_bytes(n_points, M_grid))


def distortion_distribution(
    spec: ManifoldSpec,
    M: int,
    n_proj: int,
    seed: int,
) -> np.ndarray:
    """Worst-chord distortion of one manifold under each of n_proj random
    projections: entry i is the worst under projector i.

    One manifold realization per call (seeded from ``seed``); projector i
    uses a child seed independent of ``n_proj``, so growing the ensemble
    extends the array without perturbing it.  Each projector is an N x M
    matrix applied to the ambient points: the reference for the latent
    path of :func:`m_star_empirical`.
    """
    if not (1 <= M <= spec.N and n_proj >= 1):
        raise ValueError(f"need 1 <= M <= N and n_proj >= 1, got M={M}, N={spec.N}, n_proj={n_proj}")
    _check_scan_size(spec.n_points, spec.N, (M,), 1)
    scan = ChordScan(sample_manifold(spec, derive_seed(seed, ["manifold"])).points)
    projectors = (sample_projector(spec.N, M, derive_seed(seed, ["proj", i])) for i in range(n_proj))
    return np.array([scan.worst(A.rows, A.N, (A.M,))[0].max for A in projectors])


def epsilon_at_delta(samples: np.ndarray, delta: float) -> np.ndarray | float:
    """Smallest distortion level achieved with probability >= 1 - delta,
    per column of ``samples`` (n x ...), such as the array of
    :func:`distortion_distribution`.

    The ceil((1-delta) n)-th order statistic of the samples: the smallest
    value eps with #(samples <= eps)/n >= 1 - delta.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    n = len(samples)
    if n < math.ceil(1.0 / delta):
        raise ValueError(f"need at least ceil(1/delta) = {math.ceil(1.0 / delta)} samples, got {n}")
    # the smallest k with k / n >= 1 - delta; ceil((1 - delta) n) rounds
    # below it at some deltas (48 samples, delta = 1/3 gives 32, not 33)
    k = int(np.count_nonzero(np.arange(1, n + 1) / n < 1.0 - delta)) + 1
    return np.sort(samples, axis=0)[k - 1]


def isotonic_nonincreasing(y: np.ndarray) -> np.ndarray:
    """Least-squares nonincreasing fit by pool-adjacent-violators."""
    y = np.asarray(y, dtype=float)
    levels = []  # (value, weight) blocks
    for v in y:
        levels.append([v, 1.0])
        while len(levels) > 1 and levels[-2][0] < levels[-1][0]:
            v1, w1 = levels.pop()
            v0, w0 = levels.pop()
            levels.append([(v0 * w0 + v1 * w1) / (w0 + w1), w0 + w1])
    out = np.empty_like(y)
    pos = 0
    for v, w in levels:
        out[pos : pos + int(w)] = v
        pos += int(w)
    return out


def invert_quantile_curve(M_grid, eps_q, eps_target: float) -> tuple[float, np.ndarray, bool]:
    """Smallest M with (smoothed) quantile <= target.

    Applies the nonincreasing isotonic fit (raw quantile curves wiggle at
    finite projector counts), then interpolates linearly in (log M, eps):
    the quantile scales like M^(-1/2), which is near-linear there.

    Returns (m_star, smoothed curve, whether smoothing changed anything).

    Raises
    ------
    Unachievable
        If even the largest M leaves the quantile above the target.
    """
    M_grid = np.asarray(M_grid, dtype=float)
    eps_q = np.asarray(eps_q, dtype=float)
    if M_grid.ndim != 1 or len(M_grid) < 2 or np.any(np.diff(M_grid) <= 0):
        raise ValueError("M_grid must be sorted ascending with at least 2 entries")
    iso = isotonic_nonincreasing(eps_q)
    adjusted = bool(np.any(iso != eps_q))
    if iso[-1] > eps_target:
        raise Unachievable(
            f"quantile {iso[-1]:.4g} at the largest M={int(M_grid[-1])} exceeds target {eps_target}"
        )
    j = int(np.argmax(iso <= eps_target))
    if j == 0:
        return float(M_grid[0]), iso, adjusted
    lm0, lm1 = math.log(M_grid[j - 1]), math.log(M_grid[j])
    e0, e1 = iso[j - 1], iso[j]
    frac = (e0 - eps_target) / (e0 - e1)
    return float(math.exp(lm0 + frac * (lm1 - lm0))), iso, adjusted


def _check_m_star_inputs(
    spec: ManifoldSpec, eps_target: float, delta: float, M_grid, n_proj: int, threads: int
) -> tuple[int, ...]:
    """The M grid of :func:`m_star_empirical` as a tuple, after checking
    every input that does not need a sample, the size of the chord scan
    on min(threads, n_proj) threads included."""
    N = spec.N
    M_grid = tuple(integer(m, "parameter 'M_grid' entry") for m in listed(M_grid, "parameter 'M_grid'"))
    outside = [m for m in M_grid if not 1 <= m <= N]
    if outside:
        raise ValueError(f"M_grid entries must satisfy 1 <= M <= N = {N}, got {outside}")
    if len(M_grid) < 2 or any(b <= a for a, b in zip(M_grid, M_grid[1:])):
        raise ValueError(f"M_grid must be strictly ascending with at least 2 entries, got {M_grid}")
    if not (math.isfinite(eps_target) and eps_target > 0.0):
        raise ValueError(f"eps_target must be finite and > 0, got {eps_target}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    need = max(20, math.ceil(1.0 / delta))
    if n_proj < need:
        raise ValueError(f"n_proj must be >= max(20, ceil(1/delta)) = {need}, got {n_proj}")
    _check_scan_size(spec.n_points, coordinate_count(spec), M_grid, max(1, min(threads, n_proj)))
    return M_grid


def _latent_scan(spec: ManifoldSpec, seed: int) -> ChordScan:
    """Chord scan of the isometric coordinates of the manifold of ``seed``."""
    return ChordScan(isometric_coordinates(spec, derive_seed(seed, ["manifold"])))


def _nested_worst(
    scan: ChordScan, N: int, M_grid: tuple[int, ...], n_proj: int, seed: int, threads: int
) -> tuple[np.ndarray, int, int]:
    """(n_proj, len(M_grid)) worst chord distortions of the manifold of
    ``scan``, the :func:`_latent_scan` of ambient dimension N and ``seed``:
    row i under the first M rows of projector i, for every M of the grid.
    Also returns the screened blocks the scans recomputed in float64,
    summed over projectors, and the chords each projector's scan took (see
    :class:`DistortionSummary`).

    The chords are scanned in the k-dimensional isometric coordinates C of
    the manifold, X = C V^T with V a column-orthonormal N x k frame.  For a
    Haar projector A, A V has the law of the first M rows of a Haar N x k
    frame W, independent of V, so X A^T = C (A V)^T has the law of C W_M^T:
    exact, and O(M k) per point instead of O(M N).
    """
    def worst(i: int) -> list[DistortionSummary]:
        rng = np.random.default_rng(derive_seed(seed, ["proj", i]))
        return scan.worst(_haar_frame_rows(N, scan.points.shape[1], M_grid[-1], rng), N, M_grid)

    runs = pooled_map(worst, range(n_proj), threads)
    worst_max = np.array([[s.max for s in run] for run in runs])
    return worst_max, sum(run[0].recomputed for run in runs), runs[0][0].n_evaluated


def m_star_empirical(
    spec: ManifoldSpec,
    eps_target: float,
    delta: float,
    M_grid,
    n_proj: int,
    seed: int,
    threads: int = 1,
) -> MStarResult:
    """Empirical minimum projection count for a distortion target.

    Computes the 1 - delta distortion quantile at every M in the strictly
    ascending grid, smooths the curve isotonically, and interpolates in
    (log M, eps).  One manifold is drawn per call, and projector i is drawn
    once at the largest M from a child seed of ``seed``; each smaller M
    uses its leading rows.  The quantiles at different M therefore share
    their random numbers (common random numbers) and are correlated.  The
    law at each M is that of :func:`distortion_distribution`, but the
    chords are scanned in r-dimensional isometric coordinates, with no
    N x M projector drawn (see :func:`_nested_worst`).  Projectors are
    independent jobs; with ``threads > 1`` they run on a thread pool, with
    identical results for any thread count.
    """
    M_grid = _check_m_star_inputs(spec, eps_target, delta, M_grid, n_proj, threads)
    scan = _latent_scan(spec, seed)
    worst, recomputes, pairs = _nested_worst(scan, spec.N, M_grid, n_proj, seed, threads)
    quantiles = epsilon_at_delta(worst, delta)
    m_star, iso, adjusted = invert_quantile_curve(M_grid, quantiles, eps_target)
    diagnostics = {"chord_cache_bytes": scan.cache_bytes, "screened_blocks": scan.screened_blocks,
                   "float64_recomputes": recomputes, "pairs_scanned": pairs}
    return MStarResult(M_grid=M_grid, eps_quantiles=quantiles, eps_isotonic=iso, m_star_emp=m_star,
                       isotonic_adjusted=adjusted, diagnostics=diagnostics)


def scaling_fit(results) -> tuple[float, float, np.ndarray]:
    """Least-squares coefficients (a, b) of M* = (a lnV + b K) / eps^2.

    ``results`` is an iterable of (K, lnV, eps, m_star_emp) tuples; the fit
    regresses m_star * eps^2 on (lnV, K) through the origin and returns
    the coefficients with per-point residuals.

    Raises
    ------
    RankDeficient
        If the (lnV, K) design has rank below 2.
    """
    rows = list(results)
    if len(rows) < 2:
        raise RankDeficient("need at least 2 points to fit two coefficients")
    X = np.array([[lnV, K] for (K, lnV, _, _) in rows], dtype=float)
    y = np.array([m * eps * eps for (_, _, eps, m) in rows], dtype=float)
    if np.linalg.matrix_rank(X) < 2:
        raise RankDeficient("parameter points do not span independent (lnV, K) directions")
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    residuals = y - X @ coef
    return float(coef[0]), float(coef[1]), residuals


@dataclass(frozen=True)
class FigureTable:
    """Column-oriented data behind one figure, with its parameter echo."""

    kind: str
    columns: dict[str, np.ndarray]
    params: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))


# Volume convention of the ambient-dimension sweep: V = (10 sqrt(2)/3)^K.
LNV_PER_K_DEFAULT = math.log(10.0 * math.sqrt(2.0) / 3.0)

# Settings of every M* point, in ``mstar`` and in fig6a/fig6b.
# ``grid_per_axis`` is one count for every K or a map from K to a count.
_M_STAR_SETTINGS = {"eps_target": 0.2, "delta": 0.05, "n_proj": 100, "grid_per_axis": {1: 512, 2: 32}}
_M_GRID = (4, 6, 10, 16, 25, 40, 63, 100, 158, 200)

# The ``mstar`` parameters; lnV None stands for LNV_PER_K_DEFAULT * K.
MSTAR_DEFAULTS = {"K": 1, "N": 1000, "lnV": None, "M_grid": _M_GRID, **_M_STAR_SETTINGS}

_FIG_DEFAULTS = {
    "fig4": {"N": 1000, "L": 10.0, "lam": 1.0, "n_grid": 1024, "ell": 1.0},
    "fig5": {"N": 200, "L": (12.0, 20.0), "lam": (1.0, 1.8), "n_grid": (64, 64), "ell": 1.0},
    "fig6a": {"N": 1000, "K_values": (1, 2), "lnV_over_K": (1.0, LNV_PER_K_DEFAULT, 2.2),
              "M_grid": _M_GRID + (251, 316), **_M_STAR_SETTINGS},
    "fig6b": {"K_values": (1,), "N_values": (200, 500, 1000, 2000), "M_grid": _M_GRID, **_M_STAR_SETTINGS},
}


def merge_params(defaults: dict, params: dict | None, what: str) -> dict:
    """``defaults`` overridden by ``params``, an object that may hold only
    their keys."""
    if params is not None and not isinstance(params, dict):
        raise ValueError(f"{what} 'params' must be an object, got {params!r}")
    merged = dict(defaults)
    for key, val in (params or {}).items():
        if key not in merged:
            raise ValueError(f"unknown parameter {key!r} for {what}; allowed: {sorted(merged)}")
        merged[key] = val
    return merged


@dataclass(frozen=True)
class MStarPoint:
    """One checked M* point: the surface of (K, lnV, N) and the settings
    :func:`m_star_empirical` runs it at, on ``threads`` threads."""

    K: int
    lnV: float
    N: int
    spec: ManifoldSpec
    eps_target: float
    delta: float
    M_grid: tuple[int, ...]
    n_proj: int
    threads: int

    def row(self, seed: int) -> tuple[dict, MStarResult]:
        """The point's M* row, the empirical count beside every bound
        column, and the :class:`MStarResult` it came from."""
        res = m_star_empirical(self.spec, self.eps_target, self.delta, self.M_grid, self.n_proj, seed,
                               threads=self.threads)
        eps, delta, K, N, lnV = self.eps_target, self.delta, self.K, self.N, self.lnV
        row = {
            "K": K, "lnV": lnV, "N": N, "eps_target": eps, "delta": delta,
            "m_star_emp": res.m_star_emp, "isotonic_adjusted": res.isotonic_adjusted,
            "m_star_new": bounds.m_star_bound(eps, delta, K, N, lnV),
            "m_star_bw": bounds.bw_underestimate(eps, delta, K, N, lnV),
            "m_star_nv": bounds.nv_underestimate(eps, delta, K, lnV),
        }
        return row, res


def _axis_key(key) -> int:
    """The K that a ``grid_per_axis`` map key names: an int, or the string
    of one (JSON object keys are strings)."""
    try:
        return int(key) if isinstance(key, str) else integer(key, "key")
    except ValueError:
        raise ValueError(f"parameter 'grid_per_axis' key {key!r} is not an integer K") from None


def m_star_point(K: int, lnV: float, N: int, M_grid, settings: dict, threads: int = 1) -> MStarPoint:
    """The point (K, lnV, N) with the eps_target, delta, n_proj and
    grid_per_axis of ``settings``, run on ``threads`` threads.

    Every input, the size of the chord scan on those threads included, is
    checked here, so a table can check all its points before it runs one.  eps_target must
    lie in (0, 1), where the bound columns of :meth:`MStarPoint.row` are
    defined; :func:`m_star_empirical` takes any positive target.
    """
    grid = settings["grid_per_axis"]
    if isinstance(grid, dict):  # JSON object keys are strings
        grid = {_axis_key(k): n for k, n in grid.items()}
        if K not in grid:
            raise ValueError(f"grid_per_axis has no entry for K={K}: {grid}")
        grid = grid[K]
    spec = spec_for_volume(K, N, lnV, integer(grid, "parameter 'grid_per_axis'"))
    eps, delta = (real(settings[key], f"parameter {key!r}") for key in ("eps_target", "delta"))
    if not 0.0 < eps < 1.0:
        raise ValueError(f"parameter 'eps_target' must be in (0, 1), got {eps}")
    n_proj = integer(settings["n_proj"], "parameter 'n_proj'")
    M_grid = _check_m_star_inputs(spec, eps, delta, M_grid, n_proj, threads)
    return MStarPoint(K, lnV, N, spec, eps, delta, M_grid, n_proj, threads)


def figure_data(kind: str, params: dict | None = None, seed: int = 0, threads: int = 1) -> FigureTable:
    """Empirical-versus-theory tables behind the headline figures.

    fig4: random curve (K=1), chord lengths and signed tangent cosines
    against the central grid point, with their expected curves.
    fig5: random surface (K=2), chord lengths and principal-angle cosines
    against the central grid point, with their expected curves.
    fig6a: empirical and analytic projection counts while varying the
    volume ratio at fixed N.
    fig6b: the same while varying N at fixed volume per dimension.

    ``threads`` is passed to :func:`m_star_empirical` for fig6a and fig6b;
    the tables are identical for any thread count.
    """
    if kind not in _FIG_DEFAULTS:
        raise ValueError(f"unknown figure kind {kind!r}; expected one of {sorted(_FIG_DEFAULTS)}")
    p = merge_params(_FIG_DEFAULTS[kind], params, kind)
    if kind in ("fig4", "fig5"):
        return _geometry(kind, 1 if kind == "fig4" else 2, p, seed)
    return _fig6(kind, p, seed, threads)


def _geometry(kind: str, K: int, p: dict, seed: int) -> FigureTable:
    """Chords and tangent cosines of one manifold against its central grid
    point: signed tangent cosines for a curve, principal cosines for K >= 2.
    A per-axis parameter is a sequence of K values; a curve also takes a
    scalar.  Any other length is a ValueError that names the parameter."""
    from .manifold import expected_chord_sq, expected_principal_cosines, expected_tangent_cosine

    def per_axis(key: str) -> tuple:
        value = p[key]
        values = tuple(value) if isinstance(value, (list, tuple)) else (value,)
        if len(values) != K:
            raise ValueError(f"{kind} parameter {key!r} needs one value per axis ({K}), got {value!r}")
        return values

    def reals(key: str) -> list[float]:
        return [real(v, f"{kind} parameter {key!r} entry") for v in per_axis(key)]

    grid = [integer(n, f"{kind} parameter 'n_grid' entry") for n in per_axis("n_grid")]
    spec = ManifoldSpec(K=K, N=integer(p["N"], f"{kind} parameter 'N'"), ell=real(p["ell"], f"{kind} parameter 'ell'"),
                        lam=reals("lam"), L=reals("L"), grid=grid)
    sample = sample_manifold(spec, derive_seed(seed, [kind, "manifold"]))
    frames = tangent_frames(sample)
    center = np.ravel_multi_index(tuple(n // 2 for n in spec.grid), spec.grid)
    sig = np.stack([m.ravel() for m in np.meshgrid(*sample.sigma_axes, indexing="ij")], axis=-1)
    d = (sig - sig[center]) / np.asarray(spec.lam)
    rho = np.einsum("ij,ij->i", d, d)
    diffs = sample.points - sample.points[center]
    columns = {
        "rho": rho,
        "chord_sq_emp": np.einsum("ij,ij->i", diffs, diffs),
        "chord_sq_theory": np.array([expected_chord_sq(r, spec.ell) for r in rho]),
    }
    if K == 1:
        tc = frames.derivs[:, 0, :]
        norms = np.linalg.norm(tc, axis=1)
        columns["tangent_cos_emp"] = (tc @ tc[center]) / (norms * norms[center])
        columns["tangent_cos_theory"] = np.array([expected_tangent_cosine(r) for r in rho])
    else:
        cross = np.einsum("nk,pnl->pkl", frames.bases[center], frames.bases, optimize=True)
        emp = np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0)
        theory = np.stack([np.sort(expected_principal_cosines(r, K))[::-1] for r in rho])
        columns.update({f"cos{i + 1}_emp": emp[:, i] for i in range(K)})
        columns.update({f"cos{i + 1}_theory": theory[:, i] for i in range(K)})
    keep = np.arange(spec.n_points) != center
    return FigureTable(kind=kind, columns={k: v[keep] for k, v in columns.items()}, params={**p, "seed": seed})


_FIG6_COLUMNS = ("K", "lnV", "N", "eps_target", "delta", "m_star_emp", "m_star_new", "m_star_bw", "m_star_nv")


def _fig6(kind: str, p: dict, seed: int, threads: int) -> FigureTable:
    def entries(key: str) -> list[int]:
        return [integer(v, f"{kind} parameter {key!r} entry") for v in listed(p[key], f"{kind} parameter {key!r}")]

    K_values, M_grid = entries("K_values"), entries("M_grid")
    if kind == "fig6a":
        N = integer(p["N"], f"{kind} parameter 'N'")
        points = [(K, real(r, f"{kind} parameter 'lnV_over_K' entry") * K, N)
                  for K in K_values for r in listed(p["lnV_over_K"], f"{kind} parameter 'lnV_over_K'")]
    else:
        points = [(K, LNV_PER_K_DEFAULT * K, N) for K in K_values for N in entries("N_values")]
    checked = []
    for K, lnV, N in points:
        where = f"{kind} point K={K}, lnV={lnV:.6g}, N={N}: "
        try:
            checked.append((where, m_star_point(K, lnV, N, [m for m in M_grid if m <= N], p, threads)))
        except ValueError as exc:
            raise ValueError(where + str(exc)) from None
    rows = []
    for where, point in checked:
        try:
            rows.append(point.row(derive_seed(seed, ["fig6", point.K, f"{point.lnV:.6f}", point.N]))[0])
        except Unachievable as exc:
            raise Unachievable(where + str(exc)) from None
    return FigureTable(
        kind=kind,
        columns={k: np.asarray([row[k] for row in rows], dtype=float) for k in _FIG6_COLUMNS},
        params={**p, "seed": seed},
    )
