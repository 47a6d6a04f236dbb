"""Closed-form ensemble geometry: definitions, frozen values, properties."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfldproj import (
    ConeUndefined,
    ManifoldSpec,
    chordal_cone_angle,
    expected_chord_sq,
    expected_geometry,
    expected_principal_cosines,
    expected_tangent_cosine,
    intrinsic_separation,
    make_cells,
    short_chord_tangent_angle,
    tangential_cone_angle,
)

mp.mp.dps = 40


def spec1d(L=10.0, lam=1.0, n=16, N=100, ell=1.0):
    return ManifoldSpec(K=1, N=N, ell=ell, lam=(lam,), L=(L,), grid=(n,))


class TestManifoldSpec:
    def test_volume_ratio(self):
        s = ManifoldSpec(K=2, N=10, ell=2.0, lam=(1.0, 2.0), L=(3.0, 8.0), grid=(4, 4))
        assert s.volume_ratio == pytest.approx(3.0 * 4.0)
        assert s.n_points == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(K=0, N=10, ell=1.0, lam=(), L=(), grid=()),
            dict(K=1, N=0, ell=1.0, lam=(1.0,), L=(1.0,), grid=(2,)),
            dict(K=1, N=10, ell=0.0, lam=(1.0,), L=(1.0,), grid=(2,)),
            dict(K=1, N=10, ell=1.0, lam=(-1.0,), L=(1.0,), grid=(2,)),
            dict(K=1, N=10, ell=1.0, lam=(1.0,), L=(0.0,), grid=(2,)),
            dict(K=1, N=10, ell=1.0, lam=(1.0,), L=(1.0,), grid=(1,)),
            dict(K=2, N=10, ell=1.0, lam=(1.0,), L=(1.0, 1.0), grid=(2, 2)),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ManifoldSpec(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(K=1.7, N=10, grid=(16,)), "K must be int, got 1.7"),
        (dict(K=1, N=10.5, grid=(16,)), "N must be int, got 10.5"),
        (dict(K=1, N=10, grid=(16.9,)), "grid entry must be int, got 16.9"),
        (dict(K=True, N=10, grid=(16,)), "K must be int, got True"),
    ])
    def test_non_whole_counts_refused(self, kwargs, message):
        # refused, not truncated, with a message that names the field
        with pytest.raises(ValueError, match=f"^{message}$"):
            ManifoldSpec(ell=1.0, lam=(1.0,), L=(5.0,), **kwargs)

    def test_whole_float_counts_are_ints(self):
        s = ManifoldSpec(K=1.0, N=10.0, ell=1.0, lam=(1.0,), L=(5.0,), grid=(16.0,))
        assert (s.K, s.N, s.grid) == (1, 10, (16,))
        assert all(type(v) is int for v in (s.K, s.N, *s.grid))

    @pytest.mark.parametrize("kwargs, message", [
        (dict(ell="1.0", lam=(1.0,), L=(5.0,)), "ell must be a finite number, got '1.0'"),
        (dict(ell=math.nan, lam=(1.0,), L=(5.0,)), "ell must be a finite number, got nan"),
        (dict(ell=1.0, lam=(True,), L=(5.0,)), "lam entry must be a finite number, got True"),
        (dict(ell=1.0, lam=(1.0,), L=(math.inf,)), "L entry must be a finite number, got inf"),
        (dict(ell=1.0, lam=(1.0,), L=(None,)), "L entry must be a finite number, got None"),
    ])
    def test_non_real_lengths_refused(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ManifoldSpec(K=1, N=10, grid=(16,), **kwargs)

    def test_lengths_are_floats(self):
        s = ManifoldSpec(K=1, N=10, ell=2, lam=(1,), L=(np.float64(5.0),), grid=(16,))
        assert (s.ell, s.lam, s.L) == (2.0, (1.0,), (5.0,))
        assert all(type(v) is float for v in (s.ell, *s.lam, *s.L))


class TestIntrinsicSeparation:
    def test_coincident(self):
        assert intrinsic_separation(spec1d(), [1.2], [1.2]) == 0.0

    def test_direct_1d(self):
        assert intrinsic_separation(spec1d(lam=1.0), [2.0], [0.0]) == pytest.approx(4.0)

    def test_direct_2d(self):
        s = ManifoldSpec(K=2, N=10, ell=1.0, lam=(1.0, 2.0), L=(4.0, 4.0), grid=(4, 4))
        assert intrinsic_separation(s, [1.0, 2.0], [0.0, 0.0]) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            intrinsic_separation(spec1d(), [1.0, 2.0], [0.0, 0.0])

    # magnitudes below ~1e-100 square to exact zero in float64, which
    # would break the "zero iff coincident" check for spurious reasons
    _coord = st.floats(-50, 50).filter(lambda v: v == 0.0 or abs(v) > 1e-100)

    @given(
        a=st.lists(_coord, min_size=2, max_size=2),
        b=st.lists(_coord, min_size=2, max_size=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetric_nonnegative(self, a, b):
        s = ManifoldSpec(K=2, N=5, ell=1.0, lam=(1.5, 0.5), L=(4.0, 4.0), grid=(4, 4))
        r1 = intrinsic_separation(s, a, b)
        r2 = intrinsic_separation(s, b, a)
        assert r1 == r2 >= 0.0
        assert (r1 == 0.0) == (a == b)


class TestExpectedChordSq:
    def test_zero(self):
        assert expected_chord_sq(0.0, 1.0) == 0.0

    def test_saturates(self):
        assert expected_chord_sq(1e12, 1.0) == pytest.approx(2.0)
        assert expected_chord_sq(1e12, 3.0) == pytest.approx(18.0)

    def test_frozen_value(self):
        # high-precision evaluation of 2(1 - e^{-1})
        oracle = float(2 * (1 - mp.e**-1))
        assert expected_chord_sq(2.0, 1.0) == pytest.approx(oracle, rel=1e-15)
        assert expected_chord_sq(2.0, 1.0) == pytest.approx(1.2642411176571153, rel=1e-12)

    def test_negative_rho(self):
        with pytest.raises(ValueError):
            expected_chord_sq(-0.1, 1.0)
        with pytest.raises(ValueError):
            expected_chord_sq(1.0, 0.0)

    def test_monotone_concave_with_metric_slope(self):
        ell = 1.7
        rho = np.linspace(0.0, 20.0, 400)
        vals = np.array([expected_chord_sq(r, ell) for r in rho])
        assert np.all(np.diff(vals) > 0)
        assert np.all(np.diff(vals, 2) < 1e-12)
        assert np.all(vals <= 2 * ell**2)
        h = 1e-6
        slope = (expected_chord_sq(h, ell) - expected_chord_sq(0.0, ell)) / h
        assert slope == pytest.approx(ell**2, rel=1e-5)


class TestExpectedPrincipalCosines:
    def test_identical_planes(self):
        assert np.allclose(expected_principal_cosines(0.0, 3), 1.0)

    def test_right_angle_at_one(self):
        for K in (1, 2, 5):
            assert expected_principal_cosines(1.0, K)[-1] == 0.0

    def test_frozen_value(self):
        got = expected_principal_cosines(2.0, 2)
        assert got == pytest.approx([math.exp(-1), math.exp(-1)], rel=1e-15)

    def test_last_entry_extremal(self):
        # below rho=2 the distinguished cosine is the smallest (largest
        # angle); beyond, the common cosine takes over as the smallest.
        for rho in (0.3, 1.0, 1.9):
            c = expected_principal_cosines(rho, 4)
            assert c[-1] == pytest.approx(c.min())
        for rho in (2.1, 5.0, 9.0):
            c = expected_principal_cosines(rho, 4)
            assert c[:-1].min() == pytest.approx(c.min())
            assert c[-1] > c[0]

    def test_range_and_continuity(self):
        rho = np.linspace(0, 30, 2000)
        vals = np.array([expected_principal_cosines(r, 3) for r in rho])
        assert np.all((vals >= 0) & (vals <= 1))
        assert np.abs(np.diff(vals, axis=0)).max() < 0.05


class TestExpectedTangentCosine:
    def test_trivial(self):
        assert expected_tangent_cosine(0.0) == 1.0
        assert expected_tangent_cosine(1.0) == 0.0

    def test_frozen_value(self):
        oracle = float((1 - 4) * mp.exp(-2))
        assert expected_tangent_cosine(4.0) == pytest.approx(oracle, rel=1e-15)
        assert oracle == pytest.approx(-0.40600584970983804, rel=1e-12)

    def test_range(self):
        vals = [expected_tangent_cosine(r) for r in np.linspace(0, 50, 3000)]
        assert min(vals) > -2 * math.exp(-1.5) - 1e-12
        assert max(vals) == 1.0


class TestChordalConeAngle:
    def test_saturation_limit(self):
        assert chordal_cone_angle(0.01, 2, 1e9) == pytest.approx(0.01, rel=1e-10)

    def test_frozen_value(self):
        oracle = float(mp.mpf("0.05") * mp.sqrt(4 / (1 - mp.exp(-2))))
        got = chordal_cone_angle(0.05, 8, 40.0)
        assert got == pytest.approx(oracle, rel=1e-14)
        assert got == pytest.approx(0.10754151025300257, rel=1e-12)

    def test_undefined_for_near_cells(self):
        with pytest.raises(ConeUndefined):
            chordal_cone_angle(0.01, 4, 1.0)

    def test_monotone_in_offset(self):
        # strictly decreasing until the separation saturates in float
        vals = [chordal_cone_angle(0.05, 8, r) for r in np.linspace(25, 60, 40)]
        assert np.all(np.diff(vals) < 0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            chordal_cone_angle(0.0, 2, 1.0)
        with pytest.raises(ValueError):
            chordal_cone_angle(0.1, 2, 0.0)


class TestTangentialConeAngle:
    def test_zero_cell(self):
        assert tangential_cone_angle(0.0, 5, "approx") == 0.0
        assert tangential_cone_angle(0.0, 5, "exact") == 0.0

    def test_approx_value(self):
        assert tangential_cone_angle(0.01, 3, "approx") == pytest.approx(0.015, rel=1e-14)

    def test_exact_vs_approx_frozen(self):
        g, K = mp.mpf("0.1"), 1
        r = g * g * K / 4
        oracle = float(max(mp.sqrt(1 - mp.exp(-r)), mp.sqrt(1 - (1 - r) ** 2 * mp.exp(-r))))
        exact = tangential_cone_angle(0.1, 1, "exact")
        approx = tangential_cone_angle(0.1, 1, "approx")
        assert exact == pytest.approx(oracle, rel=1e-13)
        assert exact == pytest.approx(0.08647634832722871, rel=1e-12)
        assert approx == pytest.approx(0.08660254037844387, rel=1e-12)
        assert abs(exact - approx) < 2e-4

    def test_exact_matches_approx_small_cells(self):
        for K in (1, 3, 8):
            gamma = 0.05 / math.sqrt(K)
            e = tangential_cone_angle(gamma, K, "exact")
            a = tangential_cone_angle(gamma, K, "approx")
            assert e >= 0.0
            assert abs(e - a) / a < 0.01

    def test_cone_undefined(self):
        with pytest.raises(ConeUndefined):
            tangential_cone_angle(3.0, 2, "approx")
        with pytest.raises(ValueError):
            tangential_cone_angle(0.1, 1, "fancy")


class TestShortChordTangentAngle:
    def test_zero(self):
        assert short_chord_tangent_angle(0.0, 4) == 0.0
        assert short_chord_tangent_angle(0.0, 4, "exact") == 0.0

    def test_frozen_values(self):
        approx = short_chord_tangent_angle(0.01, 1)
        assert approx == pytest.approx(1e-4 / (4 * math.sqrt(6)), rel=1e-14)
        assert approx == pytest.approx(1.0206207261596575e-05, rel=1e-12)
        rr = mp.mpf("0.01") ** 2
        oracle = float(mp.acos(mp.sqrt((rr / 4) / mp.sinh(rr / 4))))
        assert short_chord_tangent_angle(0.01, 1, "exact") == pytest.approx(oracle, rel=1e-9)

    def test_exact_matches_oracle_moderate(self):
        for gamma, K in [(0.2, 2), (0.5, 3), (1.0, 4)]:
            rr = mp.mpf(gamma) ** 2 * K
            oracle = float(mp.acos(mp.sqrt((rr / 4) / mp.sinh(rr / 4))))
            assert short_chord_tangent_angle(gamma, K, "exact") == pytest.approx(oracle, rel=1e-12)

    def test_negligible_next_to_cone_angle(self):
        # the worst chord-tangent angle is a small fraction of the cone
        # angle whenever gamma*sqrt(K) <= 0.1
        for gamma, K in [(0.1, 1), (0.05, 4), (0.01, 1), (0.025, 16)]:
            ratio = short_chord_tangent_angle(gamma, K) / tangential_cone_angle(gamma, K)
            assert 0 < ratio < 0.1
        r = short_chord_tangent_angle(0.01, 1) / tangential_cone_angle(0.01, 1)
        assert r < 0.01


class TestMakeCells:
    def test_1d_unit(self):
        cells = make_cells(spec1d(L=10.0, lam=1.0), 1.0)
        assert cells.counts == (10,)
        assert cells.n_cells == 10
        assert np.allclose(cells.centers[:, 0], np.arange(10) + 0.5)

    def test_2d(self):
        s = ManifoldSpec(K=2, N=5, ell=1.0, lam=(1.0, 1.0), L=(2.0, 2.0), grid=(4, 4))
        cells = make_cells(s, 1.0)
        assert cells.n_cells == 4

    def test_oversized_gamma(self):
        cells = make_cells(spec1d(L=10.0, lam=1.0), 20.0)
        assert cells.counts == (1,)
        assert cells.centers[0, 0] == pytest.approx(10.0)

    def test_index_reconstruction(self):
        s = ManifoldSpec(K=2, N=5, ell=1.0, lam=(0.7, 1.3), L=(5.0, 9.0), grid=(4, 4))
        gamma = 0.31
        cells = make_cells(s, gamma)
        lam = np.asarray(s.lam)
        m = np.round(cells.centers / (gamma * lam) - 0.5)
        rebuilt = (m + 0.5) * gamma * lam
        assert np.allclose(rebuilt, cells.centers, atol=1e-12)

    def test_total_count_matches_volume(self):
        s = ManifoldSpec(K=2, N=5, ell=1.0, lam=(1.0, 2.0), L=(8.0, 12.0), grid=(4, 4))
        gamma = 0.25
        cells = make_cells(s, gamma)
        assert cells.n_cells >= math.ceil(s.volume_ratio / gamma**2)
        per_axis = [math.ceil(L / (gamma * l)) for L, l in zip(s.L, s.lam)]
        assert cells.n_cells == per_axis[0] * per_axis[1]

    def test_gamma_positive(self):
        with pytest.raises(ValueError):
            make_cells(spec1d(), 0.0)


def test_expected_geometry_bundle():
    s = ManifoldSpec(K=2, N=50, ell=2.0, lam=(1.0, 2.0), L=(4.0, 8.0), grid=(4, 4))
    g = expected_geometry(s, [0.0, 0.0], [1.0, 2.0])
    assert g.rho == pytest.approx(2.0)
    assert 0.0 <= g.chord_sq <= 2 * s.ell**2
    assert np.all((g.principal_cosines >= -1) & (g.principal_cosines <= 1))
    assert g.metric_diag == pytest.approx([4.0, 1.0])
