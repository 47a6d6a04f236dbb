"""Closed-form bounds on distortion failure probabilities and projection counts.

This module collects every analytic quantity of the theory: the norm-
concentration (Johnson-Lindenstrauss type) tail bounds for points and
subspaces, the failure probabilities for long (intercellular) and short
(intracellular) chords of a Gaussian random manifold, the projection count
sufficient for a target distortion and failure probability, the optimal
cell sizes behind those bounds, and evaluable forms of two earlier
manifold-projection bounds (labelled BW and NV below) together with the
ambient dimension at which the NV curve crosses ours.

Everything is evaluated in log space; probabilities are clamped to [0, 1]
and regime applicability is reported through flags rather than exceptions,
so parameter sweeps never abort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "BoundQuery",
    "BoundValue",
    "TheoryConstants",
    "BoundReport",
    "PriorTheoryInputs",
    "CrossoverResult",
    "OptimalCellSizes",
    "lambert_w_minus1",
    "theory_constants",
    "jl_point_bound",
    "jl_subspace_bound",
    "delta_long",
    "delta_short",
    "delta_total",
    "m_star_bound",
    "optimal_cell_sizes",
    "prior_theory_inputs",
    "bw_underestimate",
    "nv_underestimate",
    "crossover_N",
    "bound_report",
]

_INV_E = math.exp(-1.0)


def lambert_w_minus1(x: float) -> float:
    """Lower real branch W_{-1} of the Lambert W function.

    Defined for -1/e <= x < 0, with W <= -1 and W exp(W) = x.  Uses a
    branch-point series / logarithmic asymptotic as the initial guess and
    Halley iterations until the defining identity holds to 1e-12.
    """
    x = float(x)
    if not (-_INV_E <= x < 0.0):
        raise ValueError(f"W_-1 requires -1/e <= x < 0, got {x}")
    # Series about the branch point x = -1/e in p = -sqrt(2(1 + e x));
    # far from it, the asymptotic W ~ ln(-x) - ln(-ln(-x)).
    arg = 2.0 * (1.0 + math.e * x)
    if arg <= 0.0:
        return -1.0
    if arg < 0.5:
        p = -math.sqrt(arg)
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    else:
        lx = math.log(-x)
        w = lx - math.log(-lx)
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= 1e-12:
            break
        # Halley step for f(w) = w e^w - x.
        fp = ew * (w + 1.0)
        fpp = ew * (w + 2.0)
        w = w - f / (fp - 0.5 * f * fpp / fp)
    return w


@dataclass(frozen=True)
class TheoryConstants:
    """Saddle-point location and additive constant of the long-chord bound."""

    rho_star: float
    C0: float
    w_branch_value: float


@lru_cache(maxsize=1)
def theory_constants() -> TheoryConstants:
    """Constants of the long-chord failure bound.

    ``rho_star = -1 - 2 W_{-1}(-1/(2 sqrt(e)))`` is the scaled squared
    separation dominating the pair sum (about 2.513), and
    ``C0 = rho*/2 + ln(pi/rho*)/2 + 2 - 5 ln 2`` is about -0.097651.
    """
    w = lambert_w_minus1(-0.5 * math.exp(-0.5))
    rho_star = -1.0 - 2.0 * w
    c0 = rho_star / 2.0 + 0.5 * math.log(math.pi / rho_star) + 2.0 - 5.0 * math.log(2.0)
    return TheoryConstants(rho_star=rho_star, C0=c0, w_branch_value=w)


def _clamp_prob(log_p: float) -> float:
    return math.exp(min(log_p, 0.0))


def jl_point_bound(eps: float, M: int, P: int = 1, mode: str = "full", log: bool = False) -> float:
    """Tail bound on the distortion of P points under an M-row projection.

    The single-vector bound is ``2 exp(-(M/2)(eps^2/2 - eps^3/3))``; a
    union bound over the C(P,2) chords of a P-point cloud multiplies it by
    C(P,2).  ``mode="small_eps"`` drops the cubic term, giving
    ``2 exp(-M eps^2 / 4)`` per chord.  Clamped to at most 1 unless
    ``log=True``, in which case the unclamped log is returned.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if M < 1 or P < 1:
        raise ValueError("M and P must be >= 1")
    if mode == "full":
        expo = -(M / 2.0) * (eps * eps / 2.0 - eps**3 / 3.0)
    elif mode == "small_eps":
        expo = -M * eps * eps / 4.0
    else:
        raise ValueError(f"mode must be 'full' or 'small_eps', got {mode!r}")
    n_pairs = P * (P - 1) // 2
    log_p = math.log(2.0) + (math.log(n_pairs) if n_pairs > 1 else 0.0) + expo
    return log_p if log else _clamp_prob(log_p)


def jl_subspace_bound(eps: float, M: int, K: int, exponent_coeff: int = 1, log: bool = False) -> float:
    """Tail bound on the worst distortion over a K-dimensional subspace.

    ``2 (12/eps)^(c K) exp(-(M/16)(eps^2 - eps^3/3))`` via a covering of the
    unit sphere of the subspace.  The covering exponent coefficient ``c``
    is selectable: the direct statement uses c=1, the chain that feeds the
    short-chord bound uses c=2.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if K > M:
        raise ValueError(f"requires K <= M, got K={K}, M={M}")
    if exponent_coeff not in (1, 2):
        raise ValueError(f"exponent_coeff must be 1 or 2, got {exponent_coeff}")
    log_p = (
        math.log(2.0)
        + exponent_coeff * K * math.log(12.0 / eps)
        - (M / 16.0) * (eps * eps - eps**3 / 3.0)
    )
    return log_p if log else _clamp_prob(log_p)


@dataclass(frozen=True)
class BoundValue:
    """A probability bound with its unclamped log and a regime flag.

    ``log`` is the raw exponent (may be positive, in which case the bound
    is vacuous and ``probability`` is clamped to 1).  ``applicable`` is
    False whenever the regime conditions under which the bound was derived
    fail; the value is still the literal formula.
    """

    log: float
    applicable: bool

    @property
    def probability(self) -> float:
        return _clamp_prob(self.log)

    @property
    def vacuous(self) -> bool:
        return self.log >= 0.0


# Regime heuristics for the applicability flags: mu = M eps^2 / K must
# exceed the square-root domain threshold (16 long / 32 short), and the
# ambient dimension must dominate the projection count.
_N_OVER_M_MIN = 10.0


def delta_long(eps: float, M: int, K: int, N: int, lnV: float) -> BoundValue:
    """Failure probability bound for all long (intercellular) chords.

    ``exp(-M eps^2/4 + lnV + K ln(N M eps^2 / K) + C0 - ln Gamma(K/2))``
    at the optimal chordal cell size.  Flagged applicable when
    mu = M eps^2/K > 16 and N >= 10 M.
    """
    _check_bound_args(eps, M, K, N)
    c = theory_constants()
    mu = M * eps * eps / K
    log_p = (
        -M * eps * eps / 4.0
        + lnV
        + K * math.log(N * M * eps * eps / K)
        + c.C0
        - math.lgamma(K / 2.0)
    )
    applicable = (mu > 16.0) and (N >= _N_OVER_M_MIN * M)
    return BoundValue(log=log_p, applicable=applicable)


def delta_short(eps: float, M: int, K: int, N: int, lnV: float, variant: str = "appendix") -> BoundValue:
    """Failure probability bound for all short (intracellular) chords.

    ``exp(-M eps^2/16 + lnV + K ln(9 sqrt(3) e N / (eps sqrt(K))))`` at the
    optimal tangential cell size.  The ``"main"`` variant carries an extra
    additive K/2 in the exponent; the ``"appendix"`` variant (default)
    absorbs it and is the one consistent with the total bound and the
    projection-count inversion.  Flagged applicable when mu > 32 and
    N >= 10 M.
    """
    _check_bound_args(eps, M, K, N)
    if variant not in ("appendix", "main"):
        raise ValueError(f"variant must be 'appendix' or 'main', got {variant!r}")
    mu = M * eps * eps / K
    log_p = (
        -M * eps * eps / 16.0
        + lnV
        + K * math.log(9.0 * math.sqrt(3.0) * math.e * N / (eps * math.sqrt(K)))
    )
    if variant == "main":
        log_p += K / 2.0
    applicable = (mu > 32.0) and (N >= _N_OVER_M_MIN * M)
    return BoundValue(log=log_p, applicable=applicable)


def delta_total(eps: float, M: int, K: int, N: int, lnV: float) -> BoundValue:
    """Failure probability bound over all chords.

    Long chords are exponentially negligible next to short ones, so this
    equals the appendix-variant short-chord bound.
    """
    return delta_short(eps, M, K, N, lnV, variant="appendix")


def _check_bound_args(eps, M, K, N):
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if M < 1 or K < 1 or N < 1:
        raise ValueError("M, K, N must be >= 1")


def m_star_bound(eps: float, delta: float, K: int, N: int, lnV: float, rounded: bool = True):
    """Projection count sufficient for distortion <= eps with prob >= 1-delta.

    Inverts the total failure bound:
    ``16 (lnV + ln(1/delta) + K ln(9 sqrt(3) e N / (eps sqrt(K)))) / eps^2``,
    rounded up to an integer unless ``rounded=False``.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    m = (
        16.0
        * (lnV + math.log(1.0 / delta) + K * math.log(9.0 * math.sqrt(3.0) * math.e * N / (eps * math.sqrt(K))))
        / (eps * eps)
    )
    return int(math.ceil(m)) if rounded else m


@dataclass(frozen=True)
class OptimalCellSizes:
    """Cell sizes minimizing the chordal and tangential failure bounds.

    The square roots below exist only for mu = M eps^2/K >= 16 (chordal)
    and >= 32 (tangential); outside those domains the values are NaN.  The
    flags are strict (mu > threshold), so a boundary point carries a value
    but is flagged not applicable.
    """

    gamma_c: float
    sin_theta_c: float
    gamma_t: float
    sin_theta_t: float
    chordal_applicable: bool
    tangential_applicable: bool


def optimal_cell_sizes(eps: float, M: int, K: int, N: int) -> OptimalCellSizes:
    """Optimal cell-size fractions and cone sines for the two bounds.

    Chordal:    gamma_C* = sqrt(M rho* e^{-rho*/2} / (2 K N)) (eps - sqrt(eps^2 - 16K/M))
                sin(theta_C*) = (1/2) sqrt(M/N) (eps - sqrt(eps^2 - 16K/M))
    Tangential: gamma_T* = (M eps - sqrt(M (M eps^2 - 32K))) / (N sqrt(3K))
                sin(theta_T*) = (M eps - sqrt(M (M eps^2 - 32K))) / (2N)
    """
    _check_bound_args(eps, M, K, N)
    c = theory_constants()
    mu = M * eps * eps / K
    if mu >= 16.0:
        root_c = eps - math.sqrt(eps * eps - 16.0 * K / M)
        gamma_c = math.sqrt(M * c.rho_star * math.exp(-c.rho_star / 2.0) / (2.0 * K * N)) * root_c
        sin_c = 0.5 * math.sqrt(M / N) * root_c
    else:
        gamma_c = sin_c = math.nan
    if mu >= 32.0:
        root_t = M * eps - math.sqrt(M * (M * eps * eps - 32.0 * K))
        gamma_t = root_t / (N * math.sqrt(3.0 * K))
        sin_t = root_t / (2.0 * N)
    else:
        gamma_t = sin_t = math.nan
    return OptimalCellSizes(
        gamma_c=gamma_c,
        sin_theta_c=sin_c,
        gamma_t=gamma_t,
        sin_theta_t=sin_t,
        chordal_applicable=mu > 16.0,
        tangential_applicable=mu > 32.0,
    )


@dataclass(frozen=True)
class PriorTheoryInputs:
    """Geometric inputs to the BW and NV bounds for this ensemble.

    ``R_lower``: lower bound 1/sqrt(2 pi e) on the geodesic covering
    regularity.  ``tau_upper``: upper bound sqrt(2) ell on the inverse
    condition number.  ``secfund_norm``: uniform norm sqrt(3)/ell of the
    second fundamental form.
    """

    R_lower: float
    tau_upper: float
    secfund_norm: float


def prior_theory_inputs(ell: float) -> PriorTheoryInputs:
    if not ell > 0:
        raise ValueError(f"ell must be positive, got {ell}")
    return PriorTheoryInputs(
        R_lower=1.0 / math.sqrt(2.0 * math.pi * math.e),
        tau_upper=math.sqrt(2.0) * ell,
        secfund_norm=math.sqrt(3.0) / ell,
    )


def bw_underestimate(eps: float, delta: float, K: int, N: int, lnV: float) -> float:
    """Underestimate of the BW projection-count bound for this ensemble.

    ``(K/eps^2) [1352 lnV/K + 676 ln(1/delta)/K + 676 ln(3100^4 N^3 K / (4 pi e eps^6))]``.
    An underestimate because it plugs in the best possible values of the
    condition number and covering regularity.
    """
    if not (0.0 < eps < 1.0) or not (0.0 < delta < 1.0):
        raise ValueError("eps and delta must be in (0, 1)")
    log_term = 4.0 * math.log(3100.0) + 3.0 * math.log(N) + math.log(K) - math.log(4.0 * math.pi * math.e) - 6.0 * math.log(eps)
    return (K / (eps * eps)) * (1352.0 * lnV / K + 676.0 * math.log(1.0 / delta) / K + 676.0 * log_term)


def nv_underestimate(eps: float, delta: float, K: int, lnV: float) -> float:
    """Underestimate of the NV projection-count bound for this ensemble.

    ``(K/eps^2) [64 lnV/K + 64 ln(1/delta)/K + 192 ln(1/eps) + 32 ln K
    + 32 ln(384^5 * 169 / (pi e))]``.  Independent of the ambient dimension
    by construction.
    """
    if not (0.0 < eps < 1.0) or not (0.0 < delta < 1.0):
        raise ValueError("eps and delta must be in (0, 1)")
    const = 5.0 * math.log(384.0) + math.log(169.0) - math.log(math.pi * math.e)
    return (K / (eps * eps)) * (
        64.0 * lnV / K
        + 64.0 * math.log(1.0 / delta) / K
        + 192.0 * math.log(1.0 / eps)
        + 32.0 * math.log(K)
        + 32.0 * const
    )


@dataclass(frozen=True)
class CrossoverResult:
    """Ambient dimension where the NV curve drops below ours.

    ``closed_form`` evaluates the printed expression
    ``3.5e27 K^{3/2} eps^{-11} (V/delta)^{3/K}`` (which drops subleading
    terms); ``numeric`` is the exact root in N of
    ``m_star_bound(N) - nv_underestimate``, a gap affine in ln N with slope
    16 K / eps^2, and ``found`` records whether ln N lies in [0, 400]
    (``numeric`` is NaN otherwise).
    """

    closed_form: float
    numeric: float
    found: bool


def crossover_N(eps: float, delta: float, K: int, lnV: float) -> CrossoverResult:
    closed = 3.5e27 * K**1.5 * eps**-11.0 * math.exp((lnV - math.log(delta)) * 3.0 / K)
    nv = nv_underestimate(eps, delta, K, lnV)
    ln_root = (nv - m_star_bound(eps, delta, K, 1, lnV, rounded=False)) * eps * eps / (16.0 * K)
    if not 0.0 <= ln_root <= 400.0:
        return CrossoverResult(closed_form=closed, numeric=math.nan, found=False)
    return CrossoverResult(closed_form=closed, numeric=math.exp(ln_root), found=True)


@dataclass(frozen=True)
class BoundQuery:
    """One parameter point for a bound tabulation."""

    eps: float
    delta: float
    K: int
    N: int
    lnV: float
    M: int | None = None

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.lnV < 0:
            raise ValueError(f"lnV must be nonnegative, got {self.lnV}")


@dataclass(frozen=True)
class BoundReport:
    """Every analytic quantity for one parameter point.

    Probabilities are clamped to [0, 1]; ``*_ok`` flags carry regime
    applicability.  ``m_bar`` is the sufficient projection count, ``mu``
    is M eps^2 / K at the evaluation M.
    """

    query: BoundQuery
    M_eval: int
    mu: float
    delta_long: float
    delta_long_log: float
    delta_long_ok: bool
    delta_short: float
    delta_short_log: float
    delta_short_ok: bool
    delta_total: float
    m_bar: int
    gamma_star_c: float
    sin_theta_c_star: float
    chordal_ok: bool
    gamma_star_t: float
    sin_theta_t_star: float
    tangential_ok: bool
    m_bw: float
    m_nv: float
    crossover_closed: float
    rho_star: float
    C0: float


def bound_report(query: BoundQuery) -> BoundReport:
    """Evaluate the full set of bounds at one parameter point.

    The failure probabilities and optimal cell sizes are evaluated at
    ``query.M`` when given, otherwise at the sufficient count ``m_bar``.
    """
    m_bar = m_star_bound(query.eps, query.delta, query.K, query.N, query.lnV)
    m_eval = query.M if query.M is not None else m_bar
    dl = delta_long(query.eps, m_eval, query.K, query.N, query.lnV)
    ds = delta_short(query.eps, m_eval, query.K, query.N, query.lnV)
    cells = optimal_cell_sizes(query.eps, m_eval, query.K, query.N)
    c = theory_constants()
    return BoundReport(
        query=query,
        M_eval=m_eval,
        mu=m_eval * query.eps**2 / query.K,
        delta_long=dl.probability,
        delta_long_log=dl.log,
        delta_long_ok=dl.applicable,
        delta_short=ds.probability,
        delta_short_log=ds.log,
        delta_short_ok=ds.applicable,
        delta_total=delta_total(query.eps, m_eval, query.K, query.N, query.lnV).probability,
        m_bar=m_bar,
        gamma_star_c=cells.gamma_c,
        sin_theta_c_star=cells.sin_theta_c,
        chordal_ok=cells.chordal_applicable,
        gamma_star_t=cells.gamma_t,
        sin_theta_t_star=cells.sin_theta_t,
        tangential_ok=cells.tangential_applicable,
        m_bw=bw_underestimate(query.eps, query.delta, query.K, query.N, query.lnV),
        m_nv=nv_underestimate(query.eps, query.delta, query.K, query.lnV),
        crossover_closed=crossover_N(query.eps, query.delta, query.K, query.lnV).closed_form,
        rho_star=c.rho_star,
        C0=c.C0,
    )
