"""Distortion-distribution experiments, quantiles and the scaling fit."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import mfldproj as mp
from mfldproj import (
    RankDeficient,
    Unachievable,
    derive_seed,
    distortion_distribution,
    epsilon_at_delta,
    figure_data,
    m_star_empirical,
    scaling_fit,
    spec_for_volume,
)
from mfldproj.experiments import (
    LNV_PER_K_DEFAULT,
    _latent_scan,
    _nested_worst,
    invert_quantile_curve,
    isotonic_nonincreasing,
)

LNV1 = math.log(10 * math.sqrt(2) / 3)

# archived reference run: median and max of 20 worst-chord distortions
GOLDEN_MEDIAN = 0.1010513105494027
GOLDEN_MAX = 0.1818575280921444
GOLDEN_CHILD = """
import math, numpy as np, mfldproj as mp
spec = mp.spec_for_volume(1, 1000, math.log(10 * math.sqrt(2) / 3), 256)
dd = mp.distortion_distribution(spec, 160, 20, seed=77)
print(repr(float(np.median(dd))), repr(float(dd.max())))
"""
# the latent M* path at the criterion-6 inputs (rank 39)
NESTED_CHILD = """
import hashlib, math, mfldproj as mp
from mfldproj.experiments import _latent_scan, _nested_worst
spec = mp.spec_for_volume(1, 1000, math.log(10 * math.sqrt(2) / 3), 512)
scan = _latent_scan(spec, 20240101)
worst = _nested_worst(scan, 1000, (4, 6, 10, 16, 25, 40, 63, 100, 158, 200), 20, 20240101, 1)[0]
print(hashlib.sha256(worst.tobytes()).hexdigest())
"""


def child_outputs(code, envs):
    """Standard output of ``code`` run in a child process per environment
    change; each setting acts on a child process only."""
    src = str(Path(mp.__file__).resolve().parents[1])
    outs = []
    for extra in envs:
        env = dict(os.environ, **extra)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                             timeout=300)
        outs.append(out.stdout)
    return outs


class TestSpecForVolume:
    def test_volume_realized(self):
        s = spec_for_volume(3, 100, 4.5, 8)
        assert math.log(s.volume_ratio) == pytest.approx(4.5, rel=1e-12)
        assert s.L == (math.exp(1.5),) * 3
        assert s.lam == (1.0,) * 3

    @pytest.mark.parametrize("args, message", [
        ((1, 10, 1.0, 16.9), "grid_per_axis must be int, got 16.9"),
        ((1.7, 10, 1.0, 16), "K must be int, got 1.7"),
        ((1, 10.5, 1.0, 16), "N must be int, got 10.5"),
    ])
    def test_non_whole_counts_refused(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            spec_for_volume(*args)

    def test_default_volume_per_dimension(self):
        assert LNV_PER_K_DEFAULT == pytest.approx(LNV1, rel=1e-15)


class TestDistortionDistribution:
    def test_single_projection_equals_pointset(self):
        spec = spec_for_volume(1, 120, 1.0, 48)
        got = distortion_distribution(spec, 12, 1, seed=5)
        sample = mp.sample_manifold(spec, derive_seed(5, ["manifold"]))
        A = mp.sample_projector(120, 12, derive_seed(5, ["proj", 0]))
        direct = mp.pointset_distortion(A, sample.points)
        assert got.tolist() == [direct.max]

    @pytest.mark.parametrize("n_points", [1100, 4097], ids=["all", "all-4097"])
    def test_samples_equal_pointset_per_projector(self, n_points):
        # 1100 points span nine blocks, so the cached scan reuses diagonal
        # and off-diagonal blocks, and a ragged last block, per projector;
        # above 4096 points every pair is still scanned
        spec = spec_for_volume(1, 60, 2.0, n_points)
        got = distortion_distribution(spec, 9, 4, seed=6)
        X = mp.sample_manifold(spec, derive_seed(6, ["manifold"])).points
        for i in range(4):
            A = mp.sample_projector(60, 9, derive_seed(6, ["proj", i]))
            assert got[i] == mp.pointset_distortion(A, X).max

    def test_stream_extension_preserves_prefix(self):
        spec = spec_for_volume(1, 100, 1.0, 32)
        a = distortion_distribution(spec, 10, 6, seed=9)
        b = distortion_distribution(spec, 10, 12, seed=9)
        assert np.array_equal(a, b[:6])

    def test_golden_regression(self):
        # archived reference run; guards the full sampling + scan pipeline
        spec = spec_for_volume(1, 1000, LNV1, 256)
        dd = distortion_distribution(spec, 160, 20, seed=77)
        assert float(np.median(dd)) == pytest.approx(GOLDEN_MEDIAN, rel=1e-12)
        assert dd.max() == pytest.approx(GOLDEN_MAX, rel=1e-12)
        # loose physical band: worst-chord distortion sits a few times above
        # the sqrt(K/M) subspace scale
        assert 0.05 < float(np.median(dd)) < 0.4

    def test_golden_independent_of_blas_path(self):
        # the reference run must not depend on how OpenBLAS splits or
        # vectorizes its work
        outs = child_outputs(GOLDEN_CHILD, (
            {"OPENBLAS_NUM_THREADS": "1"},
            {"OPENBLAS_NUM_THREADS": "2"},
            {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Prescott"},
        ))
        for median, worst in (tuple(float(v) for v in out.split()) for out in outs):
            assert median == pytest.approx(GOLDEN_MEDIAN, rel=1e-12)
            assert worst == pytest.approx(GOLDEN_MAX, rel=1e-12)

    def test_requires_M_le_N(self):
        with pytest.raises(ValueError):
            distortion_distribution(spec_for_volume(1, 50, 1.0, 16), 51, 5, seed=0)

    def test_oversized_scan_refused_before_sampling(self, monkeypatch):
        def no_sample(*args, **kwargs):
            raise AssertionError("a manifold was sampled before the scan size was checked")

        monkeypatch.setattr(mp.experiments, "sample_manifold", no_sample)
        with pytest.raises(ValueError, match="1048576 points"):
            distortion_distribution(spec_for_volume(1, 100, 1.0, 1 << 20), 10, 20, seed=0)

    def test_surface_too_large_to_sample_refused_before_sampling(self, monkeypatch):
        # a 700 x 700 surface plans a cache within 2 GiB, but its points in
        # R^1000 take 3.9 GB per array
        def no_sample(*args, **kwargs):
            raise AssertionError("a manifold was sampled before the scan size was checked")

        monkeypatch.setattr(mp.experiments, "sample_manifold", no_sample)
        with pytest.raises(ValueError, match=r"^a chord scan of 490000 points .*, counting 11760000000 bytes"):
            distortion_distribution(spec_for_volume(2, 1000, 2 * LNV1, 700), 10, 20, seed=0)

    def test_full_scale_runs_are_admitted(self):
        # the full-scale sweeps of the README (16384-point curves, 128 x 128
        # surfaces, N up to 20000) and 32768-point curves pass the size check
        for K, lnV_over_K, N, grid in [(1, 2.2, 1000, 16384), (2, 2.2, 1000, 128), (2, 1.0, 1000, 128),
                                       (1, LNV1, 20000, 512), (1, 2.2, 1000, 32768)]:
            spec = spec_for_volume(K, N, K * lnV_over_K, grid)
            mp.experiments._check_m_star_inputs(spec, 0.2, 0.05, (4, 200), 100)
            if K == 2:
                mp.experiments._check_scan_size(spec.n_points, spec.N)

    def test_inputs_checked_before_sampling(self, monkeypatch):
        def no_sample(*args, **kwargs):
            raise AssertionError("a manifold was sampled before the inputs were checked")

        monkeypatch.setattr(mp.experiments, "sample_manifold", no_sample)
        spec = spec_for_volume(1, 50, 1.0, 16)
        for M, n_proj in ((0, 5), (-1, 5), (51, 5), (10, 0), (10, -2)):
            with pytest.raises(ValueError, match="1 <= M <= N and n_proj >= 1"):
                distortion_distribution(spec, M, n_proj, seed=0)


class TestEpsilonAtDelta:
    def test_order_statistic_definition(self):
        vals = np.arange(1, 101, dtype=float)
        np.random.default_rng(0).shuffle(vals)
        assert epsilon_at_delta(vals, 0.05) == 95.0

    def test_rounding_boundary(self):
        # (1 - 1/3) * 48 rounds to 32.0, but 32/48 < 1 - 1/3 in floating point
        vals = np.r_[np.zeros(32), np.ones(16)]
        assert epsilon_at_delta(vals, 1 / 3) == 1.0

    def test_delta_near_one_gives_minimum(self):
        vals = np.array([5.0, 1.0, 3.0])
        assert epsilon_at_delta(vals, 0.999) == 1.0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            epsilon_at_delta(np.array([1.0, 2.0]), 0.05)

    @given(
        vals=st.lists(st.floats(0, 100), min_size=25, max_size=200),
        delta=st.floats(0.05, 0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_ecdf_oracle(self, vals, delta):
        # oracle: smallest sample with empirical CDF mass >= 1 - delta
        s = np.sort(np.asarray(vals))
        oracle = next(x for k, x in enumerate(s, start=1) if k / len(s) >= 1 - delta)
        assert epsilon_at_delta(vals, delta) == oracle

    def test_matches_ecdf_oracle_bulk(self):
        # the same scan oracle over 1000 random multisets and deltas
        rng = np.random.default_rng(8)
        for _ in range(1000):
            n = int(rng.integers(20, 150))
            vals = np.round(rng.exponential(size=n), 3)  # ties included
            delta = float(rng.uniform(1.0 / n + 1e-9, 0.6))
            s = np.sort(vals)
            oracle = next(x for k, x in enumerate(s, start=1) if k / n >= 1 - delta)
            assert epsilon_at_delta(vals, delta) == oracle


class TestIsotonic:
    def test_idempotent_on_monotone(self):
        y = np.array([5.0, 4.0, 4.0, 2.5, 1.0])
        assert np.array_equal(isotonic_nonincreasing(y), y)

    def test_pools_violators(self):
        got = isotonic_nonincreasing(np.array([1.0, 3.0]))
        assert np.allclose(got, [2.0, 2.0])

    def test_matches_quadratic_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y = rng.standard_normal(15)
            got = isotonic_nonincreasing(y)
            assert np.all(np.diff(got) <= 1e-12)
            assert got.sum() == pytest.approx(y.sum(), rel=1e-12)
            # optimality: any small monotone perturbation cannot reduce
            # the squared error (checks block means are least-squares)
            base = float(np.sum((got - y) ** 2))
            for _ in range(30):
                d = rng.standard_normal(15) * 1e-3
                cand = got + d
                cand = isotonic_nonincreasing(cand)
                assert float(np.sum((cand - y) ** 2)) >= base - 1e-9


class TestInvertQuantileCurve:
    def test_analytic_inversion(self):
        # quantile curve eps(M) = 2/sqrt(M) crosses 0.2 at exactly M = 100
        M = np.array([16, 32, 64, 128, 256])
        eps = 2.0 / np.sqrt(M)
        m_star, iso, adjusted = invert_quantile_curve(M, eps, 0.2)
        assert not adjusted
        assert abs(m_star - 100.0) / 100.0 < 0.05  # within interpolation error

    def test_unachievable(self):
        M = np.array([8, 16, 32])
        eps = 2.0 / np.sqrt(M)
        with pytest.raises(Unachievable):
            invert_quantile_curve(M, eps, 0.05)

    def test_target_met_at_grid_start(self):
        m_star, _, _ = invert_quantile_curve([10, 20], [0.1, 0.05], 0.5)
        assert m_star == 10.0

    def test_noisy_curve_smoothed(self):
        M = np.array([10, 20, 40, 80])
        eps = np.array([0.5, 0.31, 0.33, 0.1])  # non-monotone wiggle
        m_star, iso, adjusted = invert_quantile_curve(M, eps, 0.2)
        assert adjusted
        assert np.all(np.diff(iso) <= 1e-12)
        assert 20 < m_star < 80

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            invert_quantile_curve([10.0], [0.5], 0.2)
        with pytest.raises(ValueError):
            invert_quantile_curve([10.0, 10.0], [0.5, 0.4], 0.2)


class TestMStarEmpirical:
    def test_deterministic_and_thread_invariant(self):
        spec = spec_for_volume(1, 120, 1.0, 48)
        kwargs = dict(eps_target=0.45, delta=0.1, M_grid=[6, 12, 24, 48], n_proj=20, seed=31)
        a = m_star_empirical(spec, **kwargs)
        b = m_star_empirical(spec, **kwargs)
        c = m_star_empirical(spec, **kwargs, threads=3)
        assert a.m_star_emp == b.m_star_emp == c.m_star_emp
        assert np.array_equal(a.eps_quantiles, c.eps_quantiles)

    def test_M_grid_checked_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the M grid was checked")

        monkeypatch.setattr(mp.experiments, "sample_manifold", no_sampling)
        monkeypatch.setattr(mp.experiments, "isometric_coordinates", no_sampling)
        spec = spec_for_volume(1, 100, 1.0, 32)
        for grid in ([4, 6, 2000], [0, 4, 6], [6, 4], [4, 4, 6], [6]):
            with pytest.raises(ValueError, match="M_grid"):
                m_star_empirical(spec, 0.45, 0.1, grid, 20, seed=1)
        # every fig6 point is checked before the first is computed
        with pytest.raises(ValueError, match="N=3:.*M_grid"):
            figure_data("fig6b", {"N_values": [1000, 3], "n_proj": 20})
        for delta, n_proj, match in ((0.1, 10, "n_proj"), (1.5, 20, "delta"), (0.0, 20, "delta"),
                                     (0.01, 40, "n_proj")):
            with pytest.raises(ValueError, match=match):
                m_star_empirical(spec, 0.45, delta, [4, 6], n_proj, seed=1)
        for eps_target in (-0.1, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="eps_target"):
                m_star_empirical(spec, eps_target, 0.1, [4, 6], 20, seed=1)

    def test_quantiles_trend_down(self):
        spec = spec_for_volume(1, 120, 1.0, 48)
        res = m_star_empirical(spec, 0.45, 0.1, [6, 12, 24, 48], 20, seed=31)
        assert res.eps_quantiles[0] > res.eps_quantiles[-1]
        assert np.all(np.diff(res.eps_isotonic) <= 1e-12)
        # raw quantiles anticorrelate with M even before smoothing
        rho = scipy.stats.spearmanr(res.M_grid, res.eps_quantiles).statistic
        assert rho < 0

    def test_nested_latent_path_equals_ambient_projection(self, monkeypatch):
        # pathwise oracle: with the Wishart tail replaced by the Gram of an
        # explicit Gaussian tail, the latent images C W_M^T are X A_M^T for
        # A_M the first M rows of the orthogonal O with O V = W, where
        # z^T = V R is the QR factorization of the latent normals (signs
        # fixed so that R^T is the Cholesky factor of z z^T) and W the Haar
        # frame the projector's normals and the tail define
        N, M_grid, seed = 60, (4, 9, 20, 45), 3
        spec = spec_for_volume(1, N, LNV1, 48)
        _, z = mp.sampling._latent(spec, derive_seed(seed, ["manifold"]))
        r = z.size // N
        assert r < N  # the latent path, not the ambient fallback
        tail = np.random.default_rng(99).standard_normal((N - M_grid[-1], r))
        monkeypatch.setattr(mp.projections, "_wishart", lambda dof, K, rng: tail.T @ tail)
        got = _nested_worst(_latent_scan(spec, seed), N, M_grid, 3, seed, 1)[0]
        X = mp.sample_manifold(spec, derive_seed(seed, ["manifold"])).points
        V, R = np.linalg.qr(z.reshape(r, N).T)
        V *= np.sign(np.diag(R))
        V_perp = np.linalg.qr(V, mode="complete")[0][:, r:]
        for i in range(3):
            G = np.random.default_rng(derive_seed(seed, ["proj", i])).standard_normal((M_grid[-1], r))
            Wf, Rf = np.linalg.qr(np.vstack([G, tail]), mode="complete")
            W = Wf[:, :r] * np.sign(np.diag(Rf))
            O = W @ V.T + Wf[:, r:] @ V_perp.T
            for m, M in enumerate(M_grid):
                A = mp.Projector(rows=np.ascontiguousarray(O[:M]), M=M, N=N)
                assert got[i, m] == pytest.approx(mp.pointset_distortion(A, X).max, rel=0, abs=1e-10)

    def test_latent_worst_independent_of_blas_threads(self):
        # at latent rank 39 the Gram + Cholesky frame draw rounds the same
        # on one and two OpenBLAS threads, so these runs replay anywhere
        outs = child_outputs(NESTED_CHILD, ({"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}))
        assert len(set(outs)) == 1

    @pytest.mark.parametrize("N,M", [(300, 20), (1000, 60), (30, 8)], ids=["N300", "N1000", "r>=N"])
    def test_latent_law_matches_ambient(self, N, M):
        # KS against the ambient path, 30 manifolds x 10 projectors a side;
        # at N = 30 the rank r = 39 exceeds N and the points are scanned as is
        spec = spec_for_volume(1, N, LNV1, 128)
        latent = np.concatenate([
            _nested_worst(_latent_scan(spec, seed), N, (M // 2, M), 10, seed, 1)[0][:, 1]
            for seed in (derive_seed(N, ["latent", j]) for j in range(30))
        ])
        ambient = np.concatenate(
            [distortion_distribution(spec, M, 10, derive_seed(N, ["ambient", j])) for j in range(30)]
        )
        assert scipy.stats.ks_2samp(latent, ambient).pvalue > 0.01


class TestScalingFit:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(2)
        rows = []
        for _ in range(12):
            K = int(rng.integers(1, 5))
            lnV = float(rng.uniform(0.5, 6.0))
            eps = float(rng.uniform(0.1, 0.4))
            m = (1.2 * lnV + 2.5 * K) / eps**2
            rows.append((K, lnV, eps, m))
        a, b, resid = scaling_fit(rows)
        assert a == pytest.approx(1.2, abs=1e-6)
        assert b == pytest.approx(2.5, abs=1e-6)
        assert np.abs(resid).max() < 1e-6

    def test_rank_deficient(self):
        rows = [(1, 2.0, 0.2, 100.0), (2, 4.0, 0.2, 200.0)]  # lnV = 2K throughout
        with pytest.raises(RankDeficient):
            scaling_fit(rows)
        with pytest.raises(RankDeficient):
            scaling_fit([(1, 2.0, 0.2, 100.0)])

    def test_desk_scale_experiment(self):
        # full pipeline at desk scale recovers the measured scaling law
        # within a factor of two per coefficient
        M_grid = [8, 13, 21, 34, 55, 90, 148, 200]
        jobs = [
            (1, 1.0, 0.2, 256),
            (1, LNV1, 0.2, 256),
            (1, 2.2, 0.2, 256),
            (2, 2.0, 0.3, 32),
            (2, 2 * LNV1, 0.3, 32),
        ]
        pts = []
        for K, lnV, eps, grid in jobs:
            spec = spec_for_volume(K, 1000, lnV, grid)
            res = m_star_empirical(
                spec, eps, 0.05, M_grid, 50, seed=derive_seed(4242, ["fit", K, f"{lnV:.4f}"])
            )
            pts.append((K, lnV, eps, res.m_star_emp))
        a, b, _ = scaling_fit(pts)
        assert 0.6 <= a <= 2.4
        assert 1.25 <= b <= 5.0


class TestFigureData:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            figure_data("fig7")

    def test_unknown_param(self):
        with pytest.raises(ValueError):
            figure_data("fig4", {"bogus": 1})

    def test_fig4_defaults_match_headline_parameters(self):
        t = figure_data("fig4", {"N": 60, "n_grid": 64}, seed=4)
        assert t.params["L"] == 10.0 and t.params["lam"] == 1.0
        assert len(t) == 63  # center excluded

    def test_fig4_theory_columns_consistent(self):
        t = figure_data("fig4", {"N": 60, "n_grid": 64}, seed=4)
        chord = np.array([mp.expected_chord_sq(r, 1.0) for r in t.columns["rho"]])
        cos = np.array([mp.expected_tangent_cosine(r) for r in t.columns["rho"]])
        assert np.abs(chord - t.columns["chord_sq_theory"]).max() < 1e-12
        assert np.abs(cos - t.columns["tangent_cos_theory"]).max() < 1e-12

    def test_per_axis_parameters_take_one_value_per_axis(self):
        # a curve takes a scalar or a one-value sequence alike; a sequence
        # of another length, or a scalar for a surface, names the key
        base = figure_data("fig4", {"N": 60, "n_grid": 64}, seed=4)
        seq = figure_data("fig4", {"N": 60, "n_grid": [64], "lam": [1.0], "L": (10.0,)}, seed=4)
        assert all(np.array_equal(base.columns[k], seq.columns[k]) for k in base.columns)
        with pytest.raises(ValueError, match="fig4 parameter 'lam' needs one value per axis"):
            figure_data("fig4", {"N": 60, "n_grid": 64, "lam": [1.0, 2.0]})
        with pytest.raises(ValueError, match="fig5 parameter 'n_grid' needs one value per axis"):
            figure_data("fig5", {"N": 40, "n_grid": 12})

    def test_fig5_theory_columns_consistent(self):
        t = figure_data("fig5", {"N": 40, "n_grid": (12, 12)}, seed=4)
        th = np.stack(
            [np.sort(mp.expected_principal_cosines(r, 2))[::-1] for r in t.columns["rho"]]
        )
        assert np.abs(th[:, 0] - t.columns["cos1_theory"]).max() < 1e-12
        assert np.abs(th[:, 1] - t.columns["cos2_theory"]).max() < 1e-12
        assert t.params["lam"] == (1.0, 1.8)

    def test_fig6_theory_columns_consistent(self):
        t = figure_data(
            "fig6a",
            {
                "K_values": (1,),
                "lnV_over_K": (1.0,),
                "M_grid": (8, 16, 32, 64, 128),
                "n_proj": 25,
                "grid_per_axis": {1: 64},
                "N": 200,
            },
            seed=11,
        )
        assert len(t) == 1
        K, lnV, N = 1, 1.0, 200
        assert t.columns["m_star_new"][0] == mp.m_star_bound(0.2, 0.05, K, N, lnV)
        assert t.columns["m_star_bw"][0] == pytest.approx(
            mp.bw_underestimate(0.2, 0.05, K, N, lnV), rel=1e-12
        )
        assert t.columns["m_star_nv"][0] == pytest.approx(
            mp.nv_underestimate(0.2, 0.05, K, lnV), rel=1e-12
        )
        assert t.columns["m_star_emp"][0] > 0

    def test_fig6_unachievable_names_point(self):
        params = {"N_values": (150,), "M_grid": (8, 16), "n_proj": 20, "grid_per_axis": {1: 64},
                  "eps_target": 1e-3}
        with pytest.raises(Unachievable, match=r"^fig6b point K=1, lnV=1\.55\d*, N=150: quantile"):
            figure_data("fig6b", params, seed=2)

    def test_fig6a_default_reaches_target_at_seed_1(self):
        # the K = 2, lnV = 4.4 point of the default table (with its derived
        # seed) needs more than 200 projections at seed 1
        t = figure_data("fig6a", {"K_values": [2], "lnV_over_K": [2.2]}, seed=1)
        assert len(t) == 1
        assert 200 < t.columns["m_star_emp"][0] <= 316

    def test_fig6a_oversized_grid_refused_before_any_point(self, monkeypatch):
        # the K = 1 points come first, but the 780^2 surface is refused
        # before any of them is sampled
        def no_sample(*args, **kwargs):
            raise AssertionError("a point was computed before every scan size was checked")

        monkeypatch.setattr(mp.experiments, "isometric_coordinates", no_sample)
        with pytest.raises(ValueError, match=r"^fig6a point K=2, .*608400 points"):
            figure_data("fig6a", {"grid_per_axis": {1: 512, 2: 780}}, seed=1)

    def test_fig6b_default_volume_convention(self):
        t = figure_data(
            "fig6b",
            {
                "N_values": (150, 250),
                "M_grid": (8, 16, 32, 64, 128),
                "n_proj": 25,
                "grid_per_axis": {1: 64},
            },
            seed=2,
        )
        # volume fixed to (10 sqrt(2)/3)^K while N varies
        assert np.allclose(t.columns["lnV"], LNV1)
        assert np.array_equal(t.columns["N"], [150.0, 250.0])
        assert np.all(t.columns["m_star_emp"] > 0)
