"""Cone guarantee functions and their Monte Carlo verification.

Two constructions reduce "all chords / all tangent planes" statements to
single representatives:

* chordal cone: all chords between two balls of diameter d whose centers
  are x apart lie within angle theta_C = asin(d/x) of the central chord.
  If the central chord's distortion is below
  ``g_C(eps, theta_C) = eps - sqrt(N/M) sin(theta_C)``, every chord in the
  cone has distortion below eps.

* tangential cone: all K-dimensional subspaces within maximal principal
  angle theta_T of a central plane.  The approximate budget is
  ``g_T(eps, theta_T) = eps - (N/M) sin(theta_T)``; the exact form is the
  minimum of two closed-form branches (upper/lower singular value).

Both guarantees are derived in the large-N, small-angle limit, so the
verifiers report violation fractions and margins instead of demanding
exact zero violations.

The verifiers' default ``sampler="reduced"`` never works in R^N.  A
trial's central object enters only through its image under a Haar
projection A: A xhat for a uniform unit chord direction xhat and A U for a
Haar K-plane U, which are the first M rows of a Haar N x 1 and N x K frame
(Mezzadri 2007, "How to generate random matrices from the classical
compact groups").  Both are drawn from that law directly, and the boundary
draws from exact laws in a few scalars or K x K matrices.  ``sampler="ambient"``
draws x, A and U in R^N and projects materialized boundary vectors and
frames; it is the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuaranteeVacuous
from .projections import (
    SubspaceBasis,
    _haar_frame_rows,
    _signed_qr,
    _transposed,
    _wishart,
    random_subspace,
    sample_projector,
    subspace_distortion,
    vector_distortion,
)
from .seeding import derive_seed

__all__ = [
    "VerificationReport",
    "g_chordal",
    "invert_g_chordal",
    "g_tangential",
    "invert_g_tangential",
    "sample_chordal_boundary",
    "sample_tangential_boundary",
    "check_cone_inputs",
    "verify_chordal_guarantee",
    "verify_tangential_guarantee",
]


def _check_eps_nm(eps: float, N: int, M: int):
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not (1 <= M <= N):
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={N}")


def g_chordal(eps: float, sin_theta_c: float, N: int, M: int) -> float:
    """Distortion budget at the central chord guaranteeing eps over the cone.

    ``eps - sqrt(N/M) sin(theta_C)``.

    Raises
    ------
    GuaranteeVacuous
        If the budget is not positive: the cone is too wide for this eps
        at this (N, M).
    """
    _check_eps_nm(eps, N, M)
    g = eps - math.sqrt(N / M) * sin_theta_c
    if g <= 0.0:
        raise GuaranteeVacuous(
            f"g_C = {g:.6g} <= 0 at eps={eps}, sin_theta_C={sin_theta_c}, N/M={N / M:.3g}"
        )
    return g


def invert_g_chordal(d: float, sin_theta_c: float, N: int, M: int) -> float:
    """The eps whose chordal budget equals d: ``d + sqrt(N/M) sin(theta_C)``."""
    if not (1 <= M <= N):
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={N}")
    return d + math.sqrt(N / M) * sin_theta_c


def _g_tangential_exact_raw(eps: float, s: float, N: int, M: int) -> float:
    n = N / M
    if n < (1.0 + eps) ** 2:
        raise ValueError(f"exact mode requires N/M >= (1+eps)^2, got N/M={n:.4g}, eps={eps}")
    inside_plus = (1.0 + eps) ** 2 - 2.0 * s * math.sqrt(n * (n - (1.0 + eps) ** 2)) - n * s * s
    inside_minus = (1.0 - eps) ** 2 + 2.0 * s * math.sqrt(n * (n - (1.0 - eps) ** 2)) - n * s * s
    if inside_plus < 0.0 or inside_minus < 0.0:
        raise ValueError(
            f"exact tangential budget undefined (negative square root) at "
            f"eps={eps}, sin_theta_T={s}, N/M={n:.4g}"
        )
    g_plus = math.sqrt(inside_plus) - 1.0
    g_minus = 1.0 - math.sqrt(inside_minus)
    return min(g_plus, g_minus)


def g_tangential(eps: float, sin_theta_t: float, N: int, M: int, mode: str = "approx") -> float:
    """Distortion budget at the central plane guaranteeing eps over the cone.

    ``mode="approx"`` evaluates ``eps - (N/M) sin(theta_T)``, the small
    M/N limit; ``mode="exact"`` evaluates the minimum of the two exact
    singular-value branches, which additionally requires
    ``N/M >= (1+eps)^2`` and raises ValueError when either square root
    goes negative (the budget does not exist there).

    Raises
    ------
    GuaranteeVacuous
        If the budget is not positive.
    """
    _check_eps_nm(eps, N, M)
    if mode == "approx":
        g = eps - (N / M) * sin_theta_t
    elif mode == "exact":
        g = _g_tangential_exact_raw(eps, sin_theta_t, N, M)
    else:
        raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")
    if g <= 0.0:
        raise GuaranteeVacuous(
            f"g_T = {g:.6g} <= 0 at eps={eps}, sin_theta_T={sin_theta_t}, N/M={N / M:.3g}"
        )
    return g


def invert_g_tangential(d: float, sin_theta_t: float, N: int, M: int, mode: str = "approx") -> float:
    """The eps whose tangential budget equals d.

    Closed form ``d + (N/M) sin(theta_T)`` in approx mode; bracketed
    bisection to 1e-12 on the exact branches otherwise (the exact budget is
    strictly increasing in eps on its domain).
    """
    if not (1 <= M <= N):
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={N}")
    if mode == "approx":
        return d + (N / M) * sin_theta_t
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")
    lo = max(d, 1e-300)
    hi = d + 2.0 * (N / M) * sin_theta_t + 1e-6
    hi = min(hi, math.sqrt(N / M) - 1.0 - 1e-12)  # exact-mode domain ceiling
    if hi <= lo:
        raise ValueError("no exact-mode eps brackets this budget")
    f_lo = _g_tangential_exact_raw(lo, sin_theta_t, N, M) - d
    f_hi = _g_tangential_exact_raw(hi, sin_theta_t, N, M) - d
    if f_lo > 0.0 or f_hi < 0.0:
        raise ValueError("no exact-mode eps brackets this budget")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _g_tangential_exact_raw(mid, sin_theta_t, N, M) - d > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)


def sample_chordal_boundary(x: np.ndarray, sin_theta_c: float, seed: int, size: int | None = None) -> np.ndarray:
    """Vectors on the boundary of the chordal cone around x.

    Each draw has exactly the cone angle to x, the same norm as x (the
    distortion depends only on direction, so fixing the norm loses
    nothing), and a uniformly random direction in the orthogonal
    complement.  Returns shape (N,) or (size, N).
    """
    x = np.asarray(x, dtype=float)
    nx = np.linalg.norm(x)
    if nx == 0.0:
        raise ValueError("cone center must be nonzero")
    if not (0.0 <= sin_theta_c <= 1.0):
        raise ValueError(f"sin_theta_c must be in [0, 1], got {sin_theta_c}")
    rng = np.random.default_rng(seed)
    n = 1 if size is None else int(size)
    xhat = x / nx
    g = rng.standard_normal((n, x.size))
    w = g - np.outer(g @ xhat, xhat)
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    cos_t = math.sqrt(1.0 - sin_theta_c**2)
    y = nx * (cos_t * xhat[None, :] + sin_theta_c * w)
    return y[0] if size is None else y


def sample_tangential_boundary(U: SubspaceBasis, sin_theta_t: float, seed: int) -> SubspaceBasis:
    """A subspace with every principal angle to U equal to asin(sin_theta_t).

    Constructs U' = U cos(theta) + V sin(theta) with V a random orthonormal
    frame orthogonal to U, which needs 2K <= N.
    """
    if 2 * U.K > U.N:
        raise ValueError(f"need 2K <= N, got K={U.K}, N={U.N}")
    if not (0.0 <= sin_theta_t <= 1.0):
        raise ValueError(f"sin_theta_t must be in [0, 1], got {sin_theta_t}")
    rng = np.random.default_rng(seed)
    v = _complement_frames(U.cols, rng, 1)[0]
    cos_t = math.sqrt(1.0 - sin_theta_t**2)
    return SubspaceBasis(cols=cos_t * U.cols + sin_theta_t * v)


def _complement_frames(u: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, N, K) stack of orthonormal frames orthogonal to the columns of u."""
    n, k = u.shape
    g = rng.standard_normal((size, n, k))
    g -= u @ (u.T @ g)
    return _signed_qr(g)


@dataclass(frozen=True)
class VerificationReport:
    """Per-trial outcome of a cone-guarantee Monte Carlo test.

    For each trial, ``dist_x`` is the distortion of the central object,
    ``worst_dist_y`` the largest distortion among boundary samples,
    ``g_value`` the budget evaluated at ``worst_dist_y`` (may be <= 0, in
    which case that trial's bound claims nothing and ``vacuous`` is set),
    and ``eps_x`` the inverted budget at ``dist_x``.  A violation means
    ``worst_dist_y > eps_x`` (for the linear budgets this is the same
    condition as ``dist_x < g_value``).
    """

    kind: str
    params: dict
    dist_x: np.ndarray
    worst_dist_y: np.ndarray
    g_value: np.ndarray
    eps_x: np.ndarray
    violated: np.ndarray
    vacuous: np.ndarray

    @property
    def n_trials(self) -> int:
        return len(self.dist_x)

    @property
    def violation_fraction(self) -> float:
        return float(np.mean(self.violated))

    @property
    def margins(self) -> np.ndarray:
        """Slack eps_x - worst_dist_y per trial (negative means violated)."""
        return self.eps_x - self.worst_dist_y


def _chordal_boundary_distortions_reduced(
    a_xhat: np.ndarray, N: int, M: int, sin_t: float, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Distortions of uniform boundary samples, from four scalars per draw.

    A boundary draw is y = ||x|| (cos(t) xhat + sin(t) w) with w =
    g_perp / ||g_perp||, g_perp the part of g ~ N(0, I_N) orthogonal to
    xhat.  With v = A xhat and a = A g, dist(y) depends on g only through
    four independent pieces: alpha = a.v / ||v|| ~ N(0, 1), the squared
    norm r ~ chi^2_(M-1) of the rest of a, s0 ~ N(0, 1) along the unit
    out-of-span part of xhat (of length w_perp = (1 - ||v||^2)^{1/2}), and
    the chi^2_(N-M-1) remainder q:

        t = g.xhat = alpha ||v|| + w_perp s0,   beta = alpha - t ||v||
        (A g_perp).v = beta ||v||,   ||A g_perp||^2 = beta^2 + r
        ||g_perp||^2 = beta^2 + r + (s0 - t w_perp)^2 + q

    This is the exact law of dist(y), at O(1) cost per draw instead of O(N M).
    """
    c0_sq = float(a_xhat @ a_xhat)
    v_norm = math.sqrt(c0_sq)
    w_perp = math.sqrt(max(0.0, 1.0 - c0_sq))
    cos_t = math.sqrt(1.0 - sin_t * sin_t)
    alpha = rng.standard_normal(n_samples)
    r = rng.chisquare(M - 1, size=n_samples) if M > 1 else np.zeros(n_samples)
    s0 = rng.standard_normal(n_samples)
    q = rng.chisquare(N - M - 1, size=n_samples) if N - M - 1 > 0 else np.zeros(n_samples)
    t = alpha * v_norm + w_perp * s0
    beta = alpha - t * v_norm
    proj_sq = beta * beta + r
    inv_norm = 1.0 / np.sqrt(proj_sq + (s0 - t * w_perp) ** 2 + q)
    ay_sq = cos_t * cos_t * c0_sq + 2.0 * cos_t * sin_t * beta * v_norm * inv_norm
    ay_sq += sin_t * sin_t * proj_sq * inv_norm**2
    return np.abs(np.sqrt((N / M) * np.maximum(ay_sq, 0.0)) - 1.0)


def check_cone_inputs(N: int, M: int, K: int | None, sin_theta: float, n_boundary: int, n_trials: int):
    """Raise ValueError unless the chordal (``K=None``) or tangential
    verifier accepts these inputs, so that a queue of verifications can be
    checked before the first one runs."""
    if not (1 <= M <= N):
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={N}")
    if K is not None and not (1 <= K <= M and 2 * K <= N):
        raise ValueError(f"need K <= M <= N and 2K <= N, got K={K}, M={M}, N={N}")
    if n_boundary < 1 or n_trials < 1:
        raise ValueError("n_boundary and n_trials must be >= 1")
    if not (0.0 <= sin_theta < 1.0):
        raise ValueError(f"sin_theta must be in [0, 1), got {sin_theta}")


# Boundary draws per chunk of a trial: a chordal draw is a few scalars, a
# tangential draw a stack of K x K matrices (an ambient one an N x K frame).
_CHORDAL_CHUNK = 8192
_TANGENTIAL_CHUNK = 1024


def _verify(kind: str, params: dict, chunk: int, trial, budget, invert) -> VerificationReport:
    """Run the trials of one verification and build its report.

    ``trial(t)`` returns trial t's central distortion and a function
    ``boundary(m, done)`` with the distortions of its boundary draws
    done, ..., done + m - 1; they are drawn ``chunk`` at a time and only
    the worst is kept, so ``boundary`` may return only the draws that can
    hold the chunk's maximum.  ``budget`` maps the worst boundary
    distortions to their g values and ``invert`` the central distortions
    to eps_x.
    """
    if params["sampler"] not in ("reduced", "ambient"):
        raise ValueError(f"sampler must be 'reduced' or 'ambient', got {params['sampler']!r}")
    n_trials, n_boundary = params["n_trials"], params["n_boundary"]
    dist_x = np.empty(n_trials)
    worst = np.full(n_trials, -np.inf)
    for t in range(n_trials):
        dist_x[t], boundary = trial(t)
        for done in range(0, n_boundary, chunk):
            worst[t] = max(worst[t], float(boundary(min(chunk, n_boundary - done), done).max()))
    g_value, eps_x = budget(worst), invert(dist_x)
    return VerificationReport(
        kind=kind,
        params=params,
        dist_x=dist_x,
        worst_dist_y=worst,
        g_value=g_value,
        eps_x=eps_x,
        violated=worst > eps_x + 1e-12,
        vacuous=g_value <= 0.0,
    )


def verify_chordal_guarantee(
    N: int,
    M: int,
    sin_theta_c: float,
    n_boundary: int,
    n_trials: int,
    seed: int,
    sampler: str = "reduced",
) -> VerificationReport:
    """Monte Carlo test of the chordal guarantee.

    Each trial draws a random central chord x and projection A, samples
    ``n_boundary`` chords on the cone boundary, records the worst boundary
    distortion, and checks both directions of the guarantee:
    ``dist(x) >= g_C(worst, theta_C)`` and ``worst <= eps_x`` with
    ``g_C(eps_x, theta_C) = dist(x)``.

    ``sampler="reduced"`` draws A xhat as a one-column Haar frame's first
    M rows, O(M) per trial, and the boundary distortions from their exact
    law in four scalars per draw, O(1); ``sampler="ambient"`` draws x and
    an N x M projector and projects materialized boundary vectors, O(N M)
    per draw, as the test oracle.
    """
    check_cone_inputs(N, M, None, sin_theta_c, n_boundary, n_trials)
    scale = math.sqrt(N / M)

    def trial(t):
        rng = np.random.default_rng(derive_seed(seed, ["chordal", t]))
        if sampler == "reduced":
            a_xhat = _haar_frame_rows(N, 1, M, rng)[:, 0]

            def reduced(m, done):
                return _chordal_boundary_distortions_reduced(a_xhat, N, M, sin_theta_c, m, rng)

            return abs(math.sqrt((N / M) * (a_xhat @ a_xhat)) - 1.0), reduced
        x = rng.standard_normal(N)
        A = sample_projector(N, M, derive_seed(seed, ["chordal", t, "proj"]))

        def ambient(m, done):
            y = sample_chordal_boundary(x, sin_theta_c, derive_seed(seed, ["chordal", t, "boundary", done]), size=m)
            return np.abs(scale * (np.linalg.norm(y @ A.rows.T, axis=1) / np.linalg.norm(y, axis=1)) - 1.0)

        return vector_distortion(A, x), ambient

    slack = scale * sin_theta_c
    params = dict(N=N, M=M, sin_theta_c=sin_theta_c, n_boundary=n_boundary, n_trials=n_trials,
                  seed=seed, sampler=sampler)
    return _verify("chordal", params, _CHORDAL_CHUNK, trial, lambda w: w - slack, lambda d: d + slack)


def _lower_inverse(chol: np.ndarray) -> np.ndarray:
    """Inverses of a (size, K, K) stack of lower-triangular matrices, by K
    steps of forward substitution vectorized over the stack."""
    K = chol.shape[-1]
    inv = np.zeros_like(chol)
    for i in range(K):
        row = -np.einsum("sj,sjk->sk", chol[:, i, :i], inv[:, :i, :])
        row[:, i] += 1.0
        inv[:, i, :] = row / chol[:, i, i, None]
    return inv


def _tangential_center(au: np.ndarray, N: int, M: int, sin_t: float):
    """The pieces of A U that every boundary draw of a trial reuses: its
    singular values d (descending), the diagonal of E = (I - D^2)^{1/2}
    with its first j = max(0, M + K - N) entries set to 0, and c D as a
    K x K matrix (c = cos t)."""
    j = max(0, M + au.shape[1] - N)
    d = np.linalg.svd(au, compute_uv=False)
    e = np.sqrt(np.maximum(1.0 - d * d, 0.0))
    e[:j] = 0.0
    return d, e, np.diag(math.sqrt(1.0 - sin_t * sin_t) * d)


def _tangential_boundary_grams(
    center, N: int, M: int, sin_t: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """(size, K, K) Grams (A U')^T A U' of A U' = cos(t) A U + sin(t) A V
    for random complement frames V, from K x K pieces only; ``center`` is
    ``_tangential_center`` of A U.

    V = G_perp R^{-1} with G_perp = (I - U U^T) G for Gaussian G (N x K) and
    R^T R = G_perp^T G_perp.  Let A U = P D Q^T and E = (I - D^2)^{1/2}, so
    S = (I - A U (A U)^T)^{1/2} = I - P (I - E) P^T.  The row space of A
    meets U in j = max(0, M + K - N) dimensions: the first j singular values
    of A U are exactly 1, their entries of E are 0, and S vanishes on their
    columns P_1 of P.  In law A G_perp = S H and G_perp^T G_perp =
    H^T (I - P_1 P_1^T) H + W_inv, with H iid M x K and W_inv ~
    Wishart_K(max(0, N - K - M)) (the part invisible to A).  V Q has the law
    of V, and in the basis Q, H enters only through Z = P^T H (iid K x K)
    and W_vis = H^T (I - P P^T) H ~ Wishart_K(M - K).  With Z_2 the rows of
    Z past the first j and L L^T = Z_2^T Z_2 + W_vis + W_inv,

        (A U')^T A U' = B^T B + s^2 L^{-1} W_vis L^{-T},   B = c D + s E Z L^{-T}

    (c = cos t, s = sin t): the exact law at O(K^3) per draw, not O(N M K).
    """
    d, e, cd = center
    K = d.size
    j = max(0, M + K - N)
    z = rng.standard_normal((size, K, K))
    zt = _transposed(z)
    w_vis = _wishart(M - K, K, size, rng)
    w_inv = _wishart(max(0, N - K - M), K, size, rng)
    linv = _lower_inverse(np.linalg.cholesky(zt[:, :, j:] @ z[:, j:] + w_vis + w_inv))
    bt = sin_t * linv @ (zt * e)  # B^T = c D + s L^{-1} Z^T E
    bt += cd
    return bt @ _transposed(bt) + sin_t * sin_t * (linv @ w_vis) @ _transposed(linv)


def _tangential_boundary_singular_values(
    au: np.ndarray, N: int, M: int, sin_t: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """(size, K) ascending singular values of A U' for random complement
    frames V: the roots of every eigenvalue of ``_tangential_boundary_grams``.
    The verifier solves only the draws ``_boundary_worst_candidates`` keeps;
    this is its oracle."""
    grams = _tangential_boundary_grams(_tangential_center(au, N, M, sin_t), N, M, sin_t, size, rng)
    return np.sqrt(np.maximum(np.linalg.eigvalsh(grams), 0.0))


def _gram_distortions(lam_max: np.ndarray, lam_min: np.ndarray, scale: float) -> np.ndarray:
    """Distortions of planes whose projected Grams have extreme eigenvalues
    lam_max and lam_min: ``max(scale sqrt(lam_max) - 1, 1 - scale sqrt(lam_min))``.

    Every operation here rounds monotonically, so bounds on the eigenvalues
    bound the rounded distortion with no further margin."""
    return np.maximum(scale * np.sqrt(np.maximum(lam_max, 0.0)) - 1.0,
                      1.0 - scale * np.sqrt(np.maximum(lam_min, 0.0)))


def _extreme_eigenvalue_bounds(grams: np.ndarray):
    """Bounds (max_lo, max_hi, min_lo, min_hi) on the largest and smallest
    eigenvalue ``eigvalsh`` returns for each Gram of a (size, K, K) stack,
    K >= 2, without an eigen-solve.

    ``eigvalsh`` reads the lower triangle, so every bound is on the
    symmetric matrix G it defines.  With rho = G_11, eps^2 = sum_{j>1} G_j1^2
    and alpha >= lambda_2 (the Gershgorin upper bound of G[1:, 1:], which
    interlacing puts above lambda_2), (G - alpha)(G - lambda_max) is
    positive semidefinite, so for x = e_1, x^T (G - alpha)(G - lambda_max) x
    = eps^2 + rho^2 - (alpha + lambda_max) rho + alpha lambda_max >= 0,
    which is Kato-Temple's

        rho <= lambda_max <= rho + eps^2 / (rho - alpha)    when rho > alpha;

    the mirror bound with e_K, rho_K = G_KK and the Gershgorin lower bound
    beta of G[:-1, :-1] puts lambda_min between
    rho_K - eps_K^2 / (beta - rho_K) and rho_K.  Both eigenvalues also lie
    within ||G||_inf, the largest absolute row sum, of 0.  svd orders d, so
    the diagonal of G, about c^2 d^2, descends, and the bounds are tight
    when the cone angle is small against the gaps between the singular
    values of A U.

    Margin.  LAPACK's symmetric eigensolver (Householder tridiagonalization,
    then QL/QR sweeps) returns the exact eigenvalues of G + F with
    ||F||_2 <= p(K) u ||G||_2, u = 2^-53 and p(K) = O(K^2); we budget
    p(K) = 32 K^2.  Rounding the bounds costs at most (2K + 12) u ||G||_inf:
    the Gershgorin sums and eps^2 are each within K u of their exact
    values, so alpha + eta lies above lambda_2; the Kato-Temple quotient,
    capped at ||G||_inf, carries relative error (K + 3) u; the sums and
    differences round once each.  So eta = 64 K^2 u ||G||_inf covers both,
    about 1.8e-13 ||G|| at K = 5, and widens every bound outward.
    """
    K = grams.shape[-1]
    # (K, K, size), each entry a row over the stack: numpy reduces short axes slowly
    g = np.ascontiguousarray(np.moveaxis(grams, 0, -1))
    diag = g[range(K), range(K)]
    low = np.abs(g) * np.tri(K, k=-1)[:, :, None]

    def radii(block):
        return block.sum(axis=0) + block.sum(axis=1)

    norm = (np.abs(diag) + radii(low)).max(axis=0)
    eta = 64 * K * K * 2.0**-53 * norm
    rho, rho_k = diag[0], diag[-1]
    gap = rho - ((diag[1:] + radii(low[1:, 1:])).max(axis=0) + eta)
    kt = np.divide((g[1:, 0] ** 2).sum(axis=0), gap, out=np.full_like(gap, np.inf), where=gap > 0.0)
    max_hi = np.minimum(rho + kt, norm) + eta
    gap = ((diag[:-1] - radii(low[:-1, :-1])).min(axis=0) - eta) - rho_k
    kt = np.divide((g[-1, :-1] ** 2).sum(axis=0), gap, out=np.full_like(gap, np.inf), where=gap > 0.0)
    min_lo = np.maximum(rho_k - kt, -norm) - eta
    return rho - eta, max_hi, min_lo, rho_k + eta


def _boundary_worst_candidates(grams: np.ndarray, scale: float) -> np.ndarray:
    """Distortions of the draws of a (size, K, K) Gram stack that can hold
    its largest.  Their maximum is bit for bit the maximum of
    ``_gram_distortions`` over ``eigvalsh`` of every Gram, and ``eigvalsh``
    runs only on them.

    A draw whose distortion upper bound, from ``_extreme_eigenvalue_bounds``,
    stays below the largest distortion lower bound of the stack cannot be
    its worst.  ``_gram_distortions`` maps the eigenvalue bounds to
    distortion bounds exactly, and LAPACK solves each matrix of a stack on
    its own, so dropping such draws leaves the maximum unchanged.  Where
    nothing can be certified (cone angles wide against the gaps between the
    singular values of A U) every draw goes to ``eigvalsh``.  A 1 x 1 Gram
    is its own eigenvalue (LAPACK returns it unchanged), so at K = 1 no
    draw does.
    """
    if grams.shape[-1] == 1:
        return _gram_distortions(grams[:, 0, 0], grams[:, 0, 0], scale)
    max_lo, max_hi, min_lo, min_hi = _extreme_eigenvalue_bounds(grams)
    lower = _gram_distortions(max_lo, min_hi, scale)
    lam = np.linalg.eigvalsh(grams[_gram_distortions(max_hi, min_lo, scale) >= lower.max()])
    return _gram_distortions(lam[:, -1], lam[:, 0], scale)


def verify_tangential_guarantee(
    N: int,
    M: int,
    K: int,
    sin_theta_t: float,
    n_boundary: int,
    n_trials: int,
    seed: int,
    mode: str = "approx",
    sampler: str = "reduced",
) -> VerificationReport:
    """Monte Carlo test of the tangential guarantee.

    Each trial draws a random K-dimensional subspace U and projection A,
    samples boundary subspaces with all principal angles equal to the cone
    angle, and checks ``dist(U) >= g_T(worst dist(U'), theta_T)`` via the
    inverted form ``worst <= eps_x``.

    ``sampler="reduced"`` draws A U as the first M rows of a Haar N x K
    frame, O(M K^2) per trial, and the boundary planes' projected Grams
    from their exact K x K law, O(K^3) per draw, with ``eigvalsh`` only on
    the draws that Kato-Temple bounds cannot rule out as a chunk's worst;
    ``sampler="ambient"`` draws U and an N x M projector and materializes
    the frames in R^N, O(N M K) per draw, as the test oracle.
    """
    check_cone_inputs(N, M, K, sin_theta_t, n_boundary, n_trials)
    if mode not in ("approx", "exact"):
        raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")
    scale = math.sqrt(N / M)
    cos_t = math.sqrt(1.0 - sin_theta_t**2)

    def trial(t):
        rng = np.random.default_rng(derive_seed(seed, ["tangential", t, "boundary"]))
        if sampler == "reduced":
            center = _tangential_center(_haar_frame_rows(N, K, M, rng), N, M, sin_theta_t)
            d = center[0]

            def reduced(m, done):
                grams = _tangential_boundary_grams(center, N, M, sin_theta_t, m, rng)
                return _boundary_worst_candidates(grams, scale)

            return max(scale * float(d[0]) - 1.0, 1.0 - scale * float(d[-1])), reduced
        U = random_subspace(N, K, derive_seed(seed, ["tangential", t, "subspace"]))
        A = sample_projector(N, M, derive_seed(seed, ["tangential", t, "proj"]))
        au = A.rows @ U.cols

        def ambient(m, done):
            av = np.einsum("mn,snk->smk", A.rows, _complement_frames(U.cols, rng, m), optimize=True)
            s = np.linalg.svd(cos_t * au[None, :, :] + sin_theta_t * av, compute_uv=False)
            return np.maximum(scale * s.max(axis=1) - 1.0, 1.0 - scale * s.min(axis=1))

        return subspace_distortion(A, U), ambient

    if mode == "approx":
        slack = (N / M) * sin_theta_t
        budget, invert = (lambda w: w - slack), (lambda d: d + slack)
    else:
        def budget(worst):
            return np.array([_g_tangential_exact_raw(w, sin_theta_t, N, M) for w in worst])

        def invert(dist_u):
            return np.array([invert_g_tangential(d, sin_theta_t, N, M, mode="exact") for d in dist_u])
    params = dict(N=N, M=M, K=K, sin_theta_t=sin_theta_t, n_boundary=n_boundary, n_trials=n_trials,
                  seed=seed, mode=mode, sampler=sampler)
    return _verify("tangential", params, _TANGENTIAL_CHUNK, trial, budget, invert)
