"""Analytic bounds: frozen oracle values, algebraic relations, regimes.

High-precision expected values are evaluated in-test with mpmath, which is
an independent code path from the float64 implementations under test.
"""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special

from mfldproj.bounds import (
    BoundQuery,
    bound_report,
    bw_underestimate,
    crossover_N,
    delta_long,
    delta_short,
    delta_total,
    jl_point_bound,
    jl_subspace_bound,
    lambert_w_minus1,
    m_star_bound,
    nv_underestimate,
    optimal_cell_sizes,
    prior_theory_inputs,
    theory_constants,
)

mp.mp.dps = 40

LNV_FIG6 = math.log(10 * math.sqrt(2) / 3)


class TestLambertW:
    def test_branch_point(self):
        assert lambert_w_minus1(-1 / math.e) == -1.0

    def test_frozen_value(self):
        w = lambert_w_minus1(-0.5 * math.exp(-0.5))
        assert w == pytest.approx(-1.7564312086261697, rel=1e-12)

    def test_identity_residual(self):
        rng = np.random.default_rng(0)
        xs = -rng.uniform(1e-12, 1 / math.e, size=100)
        for x in xs:
            w = lambert_w_minus1(float(x))
            assert w <= -1.0
            assert abs(w * math.exp(w) - x) <= 1e-12

    def test_against_scipy(self):
        # scipy's own docs warn it degrades very close to the branch point,
        # so compare it only at moderate arguments
        for x in (-0.01, -0.1, -0.25, -0.3, -0.36):
            ours = lambert_w_minus1(x)
            ref = float(scipy.special.lambertw(x, -1).real)
            assert ours == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_against_mpmath_incl_branch_point(self):
        for x in (-0.01, -0.2, -0.36, -1 / math.e + 1e-9, -1 / math.e + 1e-13):
            ours = lambert_w_minus1(x)
            ref = float(mp.lambertw(mp.mpf(x), -1).real)
            assert ours == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_domain(self):
        for x in (0.0, 0.5, -1 / math.e - 1e-6, -2.0):
            with pytest.raises(ValueError):
                lambert_w_minus1(x)


class TestTheoryConstants:
    def test_saddle_location(self):
        c = theory_constants()
        assert c.rho_star == pytest.approx(2.513, abs=1e-3)
        assert c.rho_star == pytest.approx(2.5128624172523394, rel=1e-12)

    def test_c0(self):
        c = theory_constants()
        assert c.C0 == pytest.approx(-0.097651, abs=1e-6)
        assert round(c.C0, 3) == -0.098

    def test_defining_relation(self):
        c = theory_constants()
        w = -(1.0 + c.rho_star) / 2.0
        assert abs(w * math.exp(w) - (-0.5 * math.exp(-0.5))) < 1e-10
        assert w == pytest.approx(c.w_branch_value, rel=1e-14)

    def test_c0_closed_form(self):
        c = theory_constants()
        expected = c.rho_star / 2 + 0.5 * math.log(math.pi / c.rho_star) + 2 - 5 * math.log(2)
        assert c.C0 == pytest.approx(expected, abs=1e-15)


class TestJLPointBound:
    def test_frozen_full(self):
        oracle = float(2 * mp.exp(-mp.mpf(50) * (mp.mpf("0.02") - mp.mpf("0.008") / 3)))
        got = jl_point_bound(0.2, 100, mode="full")
        assert got == pytest.approx(oracle, rel=1e-13)
        assert got == pytest.approx(0.8407007690173638, rel=1e-12)

    def test_frozen_small_eps(self):
        assert jl_point_bound(0.2, 100, mode="small_eps") == pytest.approx(
            2 * math.exp(-1), rel=1e-14
        )

    def test_monotone_in_M(self):
        vals = [jl_point_bound(0.2, M) for M in (100, 200, 400, 1000)]
        assert np.all(np.diff(vals) < 0)

    def test_union_bound_counting(self):
        single = jl_point_bound(0.25, 4000, P=1, log=True)
        many = jl_point_bound(0.25, 4000, P=10, log=True)
        assert many - single == pytest.approx(math.log(45), rel=1e-12)

    def test_clamped(self):
        assert jl_point_bound(0.1, 1, P=100) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            jl_point_bound(1.5, 100)
        with pytest.raises(ValueError):
            jl_point_bound(0.2, 0)
        with pytest.raises(ValueError):
            jl_point_bound(0.2, 10, mode="bogus")


class TestJLSubspaceBound:
    def test_frozen_log(self):
        oracle = float(
            -(mp.mpf(2000) / 16) * (mp.mpf("0.04") - mp.mpf("0.008") / 3)
            + 5 * mp.log(12 / mp.mpf("0.2"))
            + mp.log(2)
        )
        got = jl_subspace_bound(0.2, 2000, 5, exponent_coeff=1, log=True)
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got == pytest.approx(16.498203325003782, rel=1e-10)

    def test_coefficient_relation(self):
        l1 = jl_subspace_bound(0.2, 2000, 5, exponent_coeff=1, log=True)
        l2 = jl_subspace_bound(0.2, 2000, 5, exponent_coeff=2, log=True)
        assert l2 - l1 == pytest.approx(5 * math.log(60), rel=1e-12)

    def test_large_M_limit(self):
        assert jl_subspace_bound(0.2, 10**7, 5) < 1e-200

    def test_requires_K_le_M(self):
        with pytest.raises(ValueError):
            jl_subspace_bound(0.2, 4, 5)


class TestDeltaLong:
    def test_frozen_log(self):
        c = theory_constants()
        oracle = float(
            -mp.mpf(10000) * mp.mpf("0.04") / 4
            + 4
            + 4 * mp.log(1000 * 10000 * mp.mpf("0.04") / 4)
            + mp.mpf(c.C0)
            - mp.log(mp.gamma(2))
        )
        v = delta_long(0.2, 10000, 4, 1000, 4.0)
        assert v.log == pytest.approx(oracle, rel=1e-10)
        assert v.log == pytest.approx(-50.04594914569562, rel=1e-10)
        assert v.probability == pytest.approx(math.exp(-50.04594914569562), rel=1e-9)

    def test_vacuous_cap(self):
        v = delta_long(0.2, 10, 4, 1000, 50.0)
        assert v.probability == 1.0
        assert v.vacuous

    def test_decreasing_in_M(self):
        logs = [delta_long(0.2, M, 4, 1000, 4.0).log for M in (5000, 10000, 20000)]
        assert np.all(np.diff(logs) < 0)

    @pytest.mark.parametrize("K", [1, 3, 5])
    def test_log_gamma_at_odd_K(self, K):
        # ln Gamma(K/2) at half-integers, where it is not a log factorial
        c = theory_constants()
        oracle = float(
            -mp.mpf(2000) * mp.mpf(0.2) ** 2 / 4
            + 1
            + K * mp.log(1000 * 2000 * mp.mpf(0.2) ** 2 / K)
            + mp.mpf(c.C0)
            - mp.loggamma(mp.mpf(K) / 2)
        )
        assert delta_long(0.2, 2000, K, 1000, 1.0).log == pytest.approx(oracle, rel=1e-13)

    def test_flags(self):
        assert delta_long(0.2, 10000, 4, 100000, 4.0).applicable  # mu=100, N>>M
        assert not delta_long(0.2, 1000, 4, 100000, 4.0).applicable  # mu=10 <= 16
        assert not delta_long(0.2, 10000, 4, 1000, 4.0).applicable  # N < 10M


class TestDeltaShort:
    def test_frozen_log(self):
        oracle = float(
            -mp.mpf(10000) * mp.mpf("0.04") / 16
            + 4
            + 4 * mp.log(9 * mp.sqrt(3) * mp.e * 1000 / (mp.mpf("0.2") * 2))
        )
        v = delta_short(0.2, 10000, 4, 1000, 4.0)
        assert v.log == pytest.approx(oracle, rel=1e-10)
        assert v.log == pytest.approx(25.282306930106265, rel=1e-10)
        assert v.probability == 1.0  # clamped

    def test_variants_differ_by_half_K(self):
        for K in (1, 3, 8):
            a = delta_short(0.2, 5000, K, 1000, 2.0, variant="appendix")
            m = delta_short(0.2, 5000, K, 1000, 2.0, variant="main")
            assert m.log - a.log == pytest.approx(K / 2.0, rel=1e-12)

    def test_long_below_short(self):
        dl = delta_long(0.2, 10000, 4, 1000, 4.0)
        ds = delta_short(0.2, 10000, 4, 1000, 4.0)
        assert dl.log < ds.log

    def test_flag_threshold(self):
        assert delta_short(0.2, 4000, 4, 100000, 4.0).applicable  # mu=40
        assert not delta_short(0.2, 3000, 4, 100000, 4.0).applicable  # mu=30


class TestDeltaTotalAndMStar:
    def test_total_equals_appendix_short(self):
        a = delta_short(0.15, 8000, 3, 2000, 5.0, variant="appendix")
        t = delta_total(0.15, 8000, 3, 2000, 5.0)
        assert t.log == a.log

    def test_monotone_in_lnV(self):
        logs = [delta_total(0.2, 10000, 2, 1000, v).log for v in (0.0, 2.0, 5.0)]
        assert np.all(np.diff(logs) > 0)

    def test_frozen_m_star(self):
        oracle = float(
            16
            * (mp.log(10 * mp.sqrt(2) / 3) + mp.log(20) + mp.log(9 * mp.sqrt(3) * mp.e * 1000 / mp.mpf("0.2")))
            / mp.mpf("0.04")
        )
        cont = m_star_bound(0.2, 0.05, 1, 1000, LNV_FIG6, rounded=False)
        assert cont == pytest.approx(oracle, rel=1e-12)
        assert cont == pytest.approx(6724.001032498565, rel=1e-12)
        assert m_star_bound(0.2, 0.05, 1, 1000, LNV_FIG6) == math.ceil(oracle) == 6725

    def test_frozen_m_star_no_volume(self):
        cont = m_star_bound(0.2, 0.05, 1, 1000, 0.0, rounded=False)
        assert cont == pytest.approx(6103.782474656201, rel=1e-12)
        assert m_star_bound(0.2, 0.05, 1, 1000, 0.0) == 6104

    def test_doubling_volume(self):
        base = m_star_bound(0.2, 0.05, 2, 1000, 3.0, rounded=False)
        doubled = m_star_bound(0.2, 0.05, 2, 1000, 3.0 + math.log(2), rounded=False)
        assert doubled - base == pytest.approx(16 * math.log(2) / 0.04, rel=1e-12)

    def test_inversion_consistency(self):
        for eps in (0.1, 0.2):
            for K in (1, 4):
                for N in (1000, 20000):
                    for lnV in (0.5, 6.0):
                        m = m_star_bound(eps, 0.05, K, N, lnV)
                        assert delta_total(eps, m, K, N, lnV).probability <= 0.05 * (1 + 1e-9)
                        m_cont = m_star_bound(eps, 0.05, K, N, lnV, rounded=False)
                        log_at_cont = delta_total(eps, m_cont, K, N, lnV).log
                        assert log_at_cont == pytest.approx(math.log(0.05), abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            m_star_bound(0.0, 0.05, 1, 1000, 1.0)
        with pytest.raises(ValueError):
            m_star_bound(0.2, 1.5, 1, 1000, 1.0)


class TestOptimalCellSizes:
    def test_frozen_values(self):
        c = theory_constants()
        eps, M, K, N = mp.mpf("0.2"), mp.mpf(10000), mp.mpf(4), mp.mpf(1000)
        rho = mp.mpf(c.rho_star)
        root_c = eps - mp.sqrt(eps**2 - 16 * K / M)
        gc_o = float(mp.sqrt(M * rho * mp.exp(-rho / 2) / (2 * K * N)) * root_c)
        sc_o = float(mp.sqrt(M / N) / 2 * root_c)
        root_t = M * eps - mp.sqrt(M * (M * eps**2 - 32 * K))
        gt_o = float(root_t / (N * mp.sqrt(3 * K)))
        st_o = float(root_t / (2 * N))
        got = optimal_cell_sizes(0.2, 10000, 4, 1000)
        assert got.gamma_c == pytest.approx(gc_o, rel=1e-10)
        assert got.sin_theta_c == pytest.approx(sc_o, rel=1e-10)
        assert got.gamma_t == pytest.approx(gt_o, rel=1e-10)
        assert got.sin_theta_t == pytest.approx(st_o, rel=1e-10)
        assert got.gamma_c == pytest.approx(0.015788705195808606, rel=1e-10)
        assert got.sin_theta_t == pytest.approx(0.17537887487646789, rel=1e-10)
        assert got.chordal_applicable and got.tangential_applicable

    def test_boundary_mu_16(self):
        # mu = M eps^2 / K = 16 exactly (eps = 0.25 and M = 256 are exact
        # binary floats): degenerate square root, strict flag stays off
        eps, M, K, N = 0.25, 256, 1, 1000
        assert M * eps * eps / K == 16.0
        c = theory_constants()
        got = optimal_cell_sizes(eps, M, K, N)
        expected = math.sqrt(M * c.rho_star * math.exp(-c.rho_star / 2) / (2 * K * N)) * eps
        assert got.gamma_c == pytest.approx(expected, rel=1e-12)
        assert not got.chordal_applicable  # flag is strict
        assert math.isnan(got.gamma_t)  # mu < 32

    def test_out_of_domain(self):
        got = optimal_cell_sizes(0.2, 100, 4, 1000)  # mu = 1
        assert math.isnan(got.gamma_c) and math.isnan(got.sin_theta_t)
        assert not got.chordal_applicable and not got.tangential_applicable

    def test_tangential_angle_scale(self):
        # sin(theta_T*) stays within the M eps / N scale across a sweep
        rng = np.random.default_rng(1)
        for _ in range(200):
            K = int(rng.integers(1, 9))
            eps = float(rng.uniform(0.05, 0.5))
            M = int(math.ceil(32 * K / eps**2 * rng.uniform(1.0, 50.0)))
            N = int(M * rng.uniform(2.0, 100.0))
            got = optimal_cell_sizes(eps, M, K, N)
            ratio = got.sin_theta_t * N / (M * eps)
            assert 0.0 < ratio <= 1.0


class TestPriorTheoryInputs:
    def test_values(self):
        p = prior_theory_inputs(1.0)
        assert p.R_lower == pytest.approx(1 / math.sqrt(2 * math.pi * math.e), rel=1e-14)
        assert p.R_lower == pytest.approx(0.24197072451914337, rel=1e-12)
        assert p.tau_upper == pytest.approx(math.sqrt(2), rel=1e-14)
        assert p.secfund_norm == pytest.approx(math.sqrt(3), rel=1e-14)

    def test_scaling_with_ell(self):
        p = prior_theory_inputs(2.5)
        assert p.tau_upper == pytest.approx(2.5 * math.sqrt(2), rel=1e-14)
        assert p.secfund_norm**2 == pytest.approx(3 / 2.5**2, rel=1e-12)


def _bw_oracle(eps, delta, K, N, lnV):
    eps, delta = mp.mpf(eps), mp.mpf(delta)
    return float(
        (K / eps**2)
        * (
            1352 * mp.mpf(lnV) / K
            + 676 * mp.log(1 / delta) / K
            + 676 * mp.log(mp.mpf(3100) ** 4 * mp.mpf(N) ** 3 * K / (4 * mp.pi * mp.e * eps**6))
        )
    )


def _nv_oracle(eps, delta, K, lnV):
    eps, delta = mp.mpf(eps), mp.mpf(delta)
    return float(
        (K / eps**2)
        * (
            64 * mp.mpf(lnV) / K
            + 64 * mp.log(1 / delta) / K
            + 192 * mp.log(1 / eps)
            + 32 * mp.log(K)
            + 32 * mp.log(mp.mpf(384) ** 5 * 169 / (mp.pi * mp.e))
        )
    )


def _affine_root_oracle(eps, delta, K, lnV):
    """ln N where m_star_bound(N) = nv_underestimate, in mpmath at the float inputs."""
    nv = mp.mpf(_nv_oracle(eps, delta, K, lnV))
    e, d, lnV = mp.mpf(eps), mp.mpf(delta), mp.mpf(lnV)
    m_at_1 = 16 * (lnV + mp.log(1 / d) + K * mp.log(9 * mp.sqrt(3) * mp.e / (e * mp.sqrt(K)))) / e**2
    return (nv - m_at_1) * e**2 / (16 * K)


class TestPriorTheoryBounds:
    def test_bw_frozen(self):
        got = bw_underestimate(0.2, 0.05, 1, 1000, LNV_FIG6)
        assert got == pytest.approx(_bw_oracle("0.2", "0.05", 1, 1000, LNV_FIG6), rel=1e-10)
        assert got == pytest.approx(1100229.2703481642, rel=1e-9)

    def test_bw_increasing_in_N(self):
        vals = [bw_underestimate(0.2, 0.05, 2, N, 3.0) for N in (100, 1000, 10000)]
        assert np.all(np.diff(vals) > 0)

    def test_bw_volume_coefficient(self):
        # slope of M eps^2 / K with respect to lnV/K is exactly 1352
        K, eps = 3, 0.25
        a = bw_underestimate(eps, 0.05, K, 500, 2.0)
        b = bw_underestimate(eps, 0.05, K, 500, 2.0 + K)
        assert (b - a) * eps**2 / K == pytest.approx(1352.0, rel=1e-10)

    def test_nv_frozen(self):
        got = nv_underestimate(0.2, 0.05, 1, LNV_FIG6)
        assert got == pytest.approx(_nv_oracle("0.2", "0.05", 1, LNV_FIG6), rel=1e-10)
        assert got == pytest.approx(41190.053122349367, rel=1e-9)

    def test_nv_epsilon_coefficient(self):
        # slope of M eps^2 / K with respect to ln(1/eps) is exactly 192
        K = 2
        e1, e2 = 0.2, 0.2 / math.e
        t1 = nv_underestimate(e1, 0.05, K, 3.0) * e1**2 / K
        t2 = nv_underestimate(e2, 0.05, K, 3.0) * e2**2 / K
        assert t2 - t1 == pytest.approx(192.0, rel=1e-10)

    def test_ratios_at_reference_point(self):
        m = m_star_bound(0.2, 0.05, 1, 1000, LNV_FIG6, rounded=False)
        assert bw_underestimate(0.2, 0.05, 1, 1000, LNV_FIG6) / m == pytest.approx(163.63, abs=0.05)
        assert nv_underestimate(0.2, 0.05, 1, LNV_FIG6) / m == pytest.approx(6.126, abs=0.01)


class TestCrossover:
    def test_closed_form_frozen(self):
        oracle = float(
            mp.mpf("3.5e27") / mp.mpf("0.2") ** 11 * (10 * mp.sqrt(2) / 3 / mp.mpf("0.05")) ** 3
        )
        res = crossover_N(0.2, 0.05, 1, LNV_FIG6)
        assert res.closed_form == pytest.approx(oracle, rel=1e-10)
        assert res.closed_form == pytest.approx(1.4322185961533081e41, rel=1e-9)

    def test_numeric_root(self):
        # the exact intersection is linear in ln N; solve it independently
        nv = _nv_oracle("0.2", "0.05", 1, LNV_FIG6)
        ln_n = float(
            nv * mp.mpf("0.04") / 16
            - mp.log(10 * mp.sqrt(2) / 3)
            - mp.log(20)
            - mp.log(9 * mp.sqrt(3) * mp.e / mp.mpf("0.2"))
        )
        res = crossover_N(0.2, 0.05, 1, LNV_FIG6)
        assert res.found
        assert res.numeric == pytest.approx(math.exp(ln_n), rel=1e-6)
        assert res.numeric == pytest.approx(2.6365777880715853e40, rel=1e-6)

    @pytest.mark.parametrize("K", [1, 2, 4, 8])
    def test_numeric_is_exact_affine_root(self, K):
        eps, delta, lnV = 0.2, 0.05, LNV_FIG6 * K
        ln_n = _affine_root_oracle(eps, delta, K, lnV)
        res = crossover_N(eps, delta, K, lnV)
        assert res.found
        assert res.numeric == pytest.approx(float(mp.exp(ln_n)), rel=1e-12)

    @pytest.mark.parametrize("edge", [0, 400])
    def test_found_iff_root_in_search_range(self, edge):
        # ln N* rises by 3/K per unit of lnV; place it just inside and just
        # outside each end of [0, 400]
        eps, delta, K = 0.2, 0.05, 1
        base = _affine_root_oracle(eps, delta, K, 0.0)
        for shift, inside in ((-1e-6, edge == 400), (1e-6, edge == 0)):
            lnV = float((edge + shift - base) * K / 3)
            res = crossover_N(eps, delta, K, lnV)
            assert res.found == inside
            assert math.isnan(res.numeric) != inside

    def test_closed_vs_numeric_agreement(self):
        # the printed closed form drops subleading terms; at K=1 it sits a
        # factor 5.43 above the exact intersection, within a factor 3 for
        # K >= 2
        res = crossover_N(0.2, 0.05, 1, LNV_FIG6)
        ratio = res.closed_form / res.numeric
        assert ratio == pytest.approx(5.432112, rel=1e-4)
        assert 1 / 6 < ratio < 6
        for K in (2, 4, 8):
            r = crossover_N(0.2, 0.05, K, LNV_FIG6 * K)
            assert 1 / 3 < r.closed_form / r.numeric < 3

    def test_order_of_magnitude_sweep(self):
        # across the headline parameter sweep the crossover scale spans
        # ~1e34..1e41, bracketing the 1e36 order of magnitude
        logs = [
            math.log10(crossover_N(eps, 0.05, K, LNV_FIG6 * K).closed_form)
            for K in (1, 2, 4, 8)
            for eps in (0.2, 0.3, 0.5)
        ]
        assert min(logs) <= 37.0
        assert max(logs) >= 36.0
        assert 33.0 < min(logs) and max(logs) < 42.0

    def test_no_crossover_flag(self):
        res = crossover_N(0.2, 0.05, 1, 200.0)
        assert not res.found
        assert math.isnan(res.numeric)

    def test_ordering_flips_across_crossover(self):
        # below the crossover our bound is the smaller one; well above it
        # (10x the closed form) the N-free NV curve wins
        for K in (1, 2, 4):
            lnV = LNV_FIG6 * K
            nv = nv_underestimate(0.2, 0.05, K, lnV)
            assert m_star_bound(0.2, 0.05, K, 1000, lnV, rounded=False) < nv
            n_big = 10.0 * crossover_N(0.2, 0.05, K, lnV).closed_form
            assert m_star_bound(0.2, 0.05, K, n_big, lnV, rounded=False) > nv


class TestOrderingInvariant:
    def test_delta_ordering_grid(self):
        for eps in (0.1, 0.2):
            for K in (2, 4, 8):
                for N in (1000, 10000):
                    for lnV in (2.0, 8.0):
                        M = 2 * m_star_bound(eps, 0.05, K, N, lnV)
                        dl = delta_long(eps, M, K, N, lnV)
                        ds = delta_short(eps, M, K, N, lnV)
                        if dl.applicable and ds.applicable:
                            assert dl.log < ds.log
                        assert 0.0 <= dl.probability <= 1.0
                        assert 0.0 <= ds.probability <= 1.0
                        assert not math.isnan(dl.log) and not math.isnan(ds.log)


class TestBoundReport:
    def test_report_consistency(self):
        q = BoundQuery(eps=0.2, delta=0.05, K=2, N=1000, lnV=3.0)
        r = bound_report(q)
        assert r.M_eval == r.m_bar == m_star_bound(0.2, 0.05, 2, 1000, 3.0)
        assert r.delta_total == delta_total(0.2, r.M_eval, 2, 1000, 3.0).probability
        assert r.mu == pytest.approx(r.M_eval * 0.04 / 2)
        assert r.m_nv == pytest.approx(nv_underestimate(0.2, 0.05, 2, 3.0))

    def test_explicit_M(self):
        q = BoundQuery(eps=0.2, delta=0.05, K=2, N=1000, lnV=3.0, M=500)
        r = bound_report(q)
        assert r.M_eval == 500
        assert r.m_bar == m_star_bound(0.2, 0.05, 2, 1000, 3.0)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            BoundQuery(eps=0.2, delta=0.0, K=1, N=10, lnV=0.0)
        with pytest.raises(ValueError):
            BoundQuery(eps=0.2, delta=0.5, K=1, N=10, lnV=-1.0)
