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
keeps the ambient path, one N x M projector per sample, as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RankDeficient, Unachievable
from .manifold import ManifoldSpec
from .projections import ChordScan, DistortionSummary, _check_cache_size, _haar_frame_rows, sample_projector
from .sampling import isometric_coordinates, sample_manifold, tangent_frames
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
    the theory).
    """
    side = math.exp(lnV / K)
    return ManifoldSpec(
        K=K, N=N, ell=ell, lam=(1.0,) * K, L=(side,) * K, grid=(int(grid_per_axis),) * K
    )


@dataclass(frozen=True)
class MStarResult:
    """Smallest projection count meeting a distortion target empirically.

    ``m_star_emp`` interpolates the isotonically smoothed quantile curve in
    (log M, eps) space; ``isotonic_adjusted`` records whether smoothing
    changed the raw quantiles.  ``cache_bytes`` and ``screened_blocks`` are
    those of the manifold's :class:`ChordScan`.
    """

    eps_target: float
    delta: float
    M_grid: tuple[int, ...]
    eps_quantiles: np.ndarray
    eps_isotonic: np.ndarray
    m_star_emp: float
    isotonic_adjusted: bool
    seed: int
    cache_bytes: int
    screened_blocks: int


def distortion_distribution(
    spec: ManifoldSpec,
    M: int,
    n_proj: int,
    seed: int,
) -> DistortionSummary:
    """Worst-chord distortion of one manifold under n_proj random projections.

    One manifold realization per call (seeded from ``seed``); projector i
    uses a child seed independent of ``n_proj``, so growing the ensemble
    extends the sample list without perturbing it.  Each sample projects
    the ambient points with its own N x M projector: the reference for the
    latent path of :func:`m_star_empirical`.
    """
    if not (1 <= M <= spec.N and n_proj >= 1):
        raise ValueError(f"need 1 <= M <= N and n_proj >= 1, got M={M}, N={spec.N}, n_proj={n_proj}")
    _check_cache_size(spec.n_points)
    scan = ChordScan(sample_manifold(spec, derive_seed(seed, ["manifold"])).points)
    out = np.empty(n_proj)
    for i in range(n_proj):
        out[i] = scan.summary(sample_projector(spec.N, M, derive_seed(seed, ["proj", i]))).max
    k = int(np.argmax(out))
    return DistortionSummary(max=float(out[k]), argmax=("projector", k), n_evaluated=n_proj, samples=out)


def epsilon_at_delta(summary: DistortionSummary, delta: float) -> float:
    """Smallest distortion level achieved with probability >= 1 - delta.

    The ceil((1-delta) n)-th order statistic of the samples: the smallest
    value eps with #(samples <= eps)/n >= 1 - delta.
    """
    if summary.samples is None:
        raise ValueError("summary does not retain samples")
    return float(_quantile_at_delta(summary.samples, delta))


def _quantile_at_delta(samples: np.ndarray, delta: float) -> np.ndarray:
    """:func:`epsilon_at_delta` of every column of ``samples`` (n x ...)."""
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
    spec: ManifoldSpec, eps_target: float, delta: float, M_grid, n_proj: int
) -> tuple[int, ...]:
    """The M grid of :func:`m_star_empirical` as a tuple, after checking
    every input that does not need a sample, the size of the chord scan
    included."""
    N = spec.N
    M_grid = tuple(int(m) for m in M_grid)
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
    _check_cache_size(spec.n_points)
    return M_grid


def _latent_scan(spec: ManifoldSpec, seed: int) -> ChordScan:
    """Chord scan of the isometric coordinates of the manifold of ``seed``."""
    return ChordScan(isometric_coordinates(spec, derive_seed(seed, ["manifold"])))


def _nested_worst(
    spec: ManifoldSpec,
    M_grid: tuple[int, ...],
    n_proj: int,
    seed: int,
    threads: int,
    scan: ChordScan | None = None,
) -> np.ndarray:
    """(n_proj, len(M_grid)) worst chord distortions of one manifold: row i
    under the first M rows of projector i, for every M of the grid.
    ``scan``, if given, is :func:`_latent_scan` of ``spec`` and ``seed``.

    The chords are scanned in the k-dimensional isometric coordinates C of
    the manifold, X = C V^T with V a column-orthonormal N x k frame.  For a
    Haar projector A, A V has the law of the first M rows of a Haar N x k
    frame W, independent of V, so X A^T = C (A V)^T has the law of C W_M^T:
    exact, and O(M k) per point instead of O(M N).
    """
    scan = _latent_scan(spec, seed) if scan is None else scan
    coords = scan.points

    def worst(i: int) -> list[float]:
        rng = np.random.default_rng(derive_seed(seed, ["proj", i]))
        rows = _haar_frame_rows(spec.N, coords.shape[1], M_grid[-1], rng)
        return [s.max for s in scan.nested(coords @ rows.T, spec.N, M_grid)]

    return np.array(pooled_map(worst, range(n_proj), threads))


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
    M_grid = _check_m_star_inputs(spec, eps_target, delta, M_grid, n_proj)
    scan = _latent_scan(spec, seed)
    quantiles = _quantile_at_delta(_nested_worst(spec, M_grid, n_proj, seed, threads, scan), delta)
    m_star, iso, adjusted = invert_quantile_curve(M_grid, quantiles, eps_target)
    return MStarResult(
        eps_target=eps_target,
        delta=delta,
        M_grid=M_grid,
        eps_quantiles=quantiles,
        eps_isotonic=iso,
        m_star_emp=m_star,
        isotonic_adjusted=adjusted,
        seed=seed,
        cache_bytes=scan.cache_bytes,
        screened_blocks=scan.screened_blocks,
    )


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

_FIG_DEFAULTS = {
    "fig4": {"N": 1000, "L": 10.0, "lam": 1.0, "n_grid": 1024, "ell": 1.0},
    "fig5": {"N": 200, "L": (12.0, 20.0), "lam": (1.0, 1.8), "n_grid": (64, 64), "ell": 1.0},
    "fig6a": {
        "N": 1000,
        "eps_target": 0.2,
        "delta": 0.05,
        "K_values": (1, 2),
        "lnV_over_K": (1.0, LNV_PER_K_DEFAULT, 2.2),
        "M_grid": (4, 6, 10, 16, 25, 40, 63, 100, 158, 200, 251, 316),
        "n_proj": 100,
        "grid_per_axis": {1: 512, 2: 32},
    },
    "fig6b": {
        "eps_target": 0.2,
        "delta": 0.05,
        "K_values": (1,),
        "N_values": (200, 500, 1000, 2000),
        "M_grid": (4, 6, 10, 16, 25, 40, 63, 100, 158, 200),
        "n_proj": 100,
        "grid_per_axis": {1: 512, 2: 32},
    },
}


def _merge_params(kind: str, params: dict | None) -> dict:
    if kind not in _FIG_DEFAULTS:
        raise ValueError(f"unknown figure kind {kind!r}; expected one of {sorted(_FIG_DEFAULTS)}")
    merged = dict(_FIG_DEFAULTS[kind])
    for key, val in (params or {}).items():
        if key not in merged:
            raise ValueError(f"unknown parameter {key!r} for {kind}; allowed: {sorted(merged)}")
        merged[key] = val
    if isinstance(merged.get("grid_per_axis"), dict):
        # JSON object keys arrive as strings; K is looked up as an int
        merged["grid_per_axis"] = {int(K): n for K, n in merged["grid_per_axis"].items()}
    return merged


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
    p = _merge_params(kind, params)
    if kind == "fig4":
        return _fig4(p, seed)
    if kind == "fig5":
        return _fig5(p, seed)
    if kind == "fig6a":
        return _fig6(p, seed, vary="lnV", threads=threads)
    return _fig6(p, seed, vary="N", threads=threads)


def _fig4(p: dict, seed: int) -> FigureTable:
    from .manifold import expected_chord_sq, expected_tangent_cosine

    spec = ManifoldSpec(
        K=1, N=int(p["N"]), ell=p["ell"], lam=(p["lam"],), L=(p["L"],), grid=(int(p["n_grid"]),)
    )
    sample = sample_manifold(spec, derive_seed(seed, ["fig4", "manifold"]))
    frames = tangent_frames(sample)
    center = spec.n_points // 2
    sig = sample.sigma_axes[0]
    rho = ((sig - sig[center]) / spec.lam[0]) ** 2
    diffs = sample.points - sample.points[center]
    chord_emp = np.einsum("ij,ij->i", diffs, diffs)
    tc = frames.derivs[:, 0, :]
    norms = np.linalg.norm(tc, axis=1)
    cos_emp = (tc @ tc[center]) / (norms * norms[center])
    keep = np.arange(spec.n_points) != center
    return FigureTable(
        kind="fig4",
        columns={
            "rho": rho[keep],
            "chord_sq_emp": chord_emp[keep],
            "chord_sq_theory": np.array([expected_chord_sq(r, spec.ell) for r in rho[keep]]),
            "tangent_cos_emp": cos_emp[keep],
            "tangent_cos_theory": np.array([expected_tangent_cosine(r) for r in rho[keep]]),
        },
        params={**p, "seed": seed},
    )


def _fig5(p: dict, seed: int) -> FigureTable:
    from .manifold import expected_chord_sq, expected_principal_cosines

    n1, n2 = (int(v) for v in p["n_grid"])
    spec = ManifoldSpec(
        K=2, N=int(p["N"]), ell=p["ell"], lam=tuple(p["lam"]), L=tuple(p["L"]), grid=(n1, n2)
    )
    sample = sample_manifold(spec, derive_seed(seed, ["fig5", "manifold"]))
    frames = tangent_frames(sample)
    center = np.ravel_multi_index((n1 // 2, n2 // 2), spec.grid)
    mesh = np.meshgrid(*sample.sigma_axes, indexing="ij")
    sig = np.stack([m.ravel() for m in mesh], axis=-1)
    d = (sig - sig[center]) / np.asarray(spec.lam)
    rho = np.einsum("ij,ij->i", d, d)
    diffs = sample.points - sample.points[center]
    chord_emp = np.einsum("ij,ij->i", diffs, diffs)
    cross = np.einsum("nk,pnl->pkl", frames.bases[center], frames.bases, optimize=True)
    cos_emp = np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0)
    theory = np.stack([np.sort(expected_principal_cosines(r, 2))[::-1] for r in rho])
    keep = np.arange(spec.n_points) != center
    return FigureTable(
        kind="fig5",
        columns={
            "rho": rho[keep],
            "chord_sq_emp": chord_emp[keep],
            "chord_sq_theory": np.array([expected_chord_sq(r, spec.ell) for r in rho[keep]]),
            "cos1_emp": cos_emp[keep, 0],
            "cos2_emp": cos_emp[keep, 1],
            "cos1_theory": theory[keep, 0],
            "cos2_theory": theory[keep, 1],
        },
        params={**p, "seed": seed},
    )


def _fig6(p: dict, seed: int, vary: str, threads: int) -> FigureTable:
    kind = "fig6a" if vary == "lnV" else "fig6b"
    eps, delta = float(p["eps_target"]), float(p["delta"])
    rows = {
        k: []
        for k in ("K", "lnV", "N", "eps_target", "delta", "m_star_emp", "m_star_new", "m_star_bw", "m_star_nv")
    }
    if vary == "lnV":
        points = [
            (K, float(r) * K, int(p["N"]))
            for K in p["K_values"]
            for r in p["lnV_over_K"]
        ]
    else:
        points = [
            (K, LNV_PER_K_DEFAULT * K, int(N))
            for K in p["K_values"]
            for N in p["N_values"]
        ]
    jobs = []
    for K, lnV, N in points:
        grid = p["grid_per_axis"][K] if isinstance(p["grid_per_axis"], dict) else p["grid_per_axis"]
        spec = spec_for_volume(K, N, lnV, grid)
        where = f"{kind} point K={K}, lnV={lnV:.6g}, N={N}: "
        try:
            M_grid = _check_m_star_inputs(spec, eps, delta, [m for m in p["M_grid"] if m <= N], int(p["n_proj"]))
        except ValueError as exc:
            raise ValueError(where + str(exc)) from None
        jobs.append((K, lnV, N, spec, M_grid, where))
    for K, lnV, N, spec, M_grid, where in jobs:
        try:
            res = m_star_empirical(
                spec, eps, delta, M_grid, int(p["n_proj"]), derive_seed(seed, ["fig6", K, f"{lnV:.6f}", N]),
                threads=threads,
            )
        except Unachievable as exc:
            raise Unachievable(where + str(exc)) from None
        rows["K"].append(K)
        rows["lnV"].append(lnV)
        rows["N"].append(N)
        rows["eps_target"].append(eps)
        rows["delta"].append(delta)
        rows["m_star_emp"].append(res.m_star_emp)
        rows["m_star_new"].append(bounds.m_star_bound(eps, delta, K, N, lnV))
        rows["m_star_bw"].append(bounds.bw_underestimate(eps, delta, K, N, lnV))
        rows["m_star_nv"].append(bounds.nv_underestimate(eps, delta, K, lnV))
    return FigureTable(
        kind=kind,
        columns={k: np.asarray(v, dtype=float) for k, v in rows.items()},
        params={**p, "seed": seed},
    )
