"""GP grid sampler: covariance, concentration, frames, serialization."""

import math

import numpy as np
import pytest

from mfldproj import (
    ManifoldSample,
    ManifoldSpec,
    NumericalBreakdown,
    derive_seed,
    empirical_chord_sq,
    empirical_principal_angles,
    empirical_tangent_cosine,
    expected_chord_sq,
    expected_principal_cosines,
    load_sample,
    sample_manifold,
    save_sample,
    self_averaging_audit,
    spec_for_volume,
    tangent_frames,
)
from mfldproj.sampling import _spectral_factor, coordinate_count, grid_axes, isometric_coordinates


def spec1d(N=200, n=48, L=6.0, lam=1.0, ell=1.0):
    return ManifoldSpec(K=1, N=N, ell=ell, lam=(lam,), L=(L,), grid=(n,))


@pytest.fixture(scope="module")
def curve_ensemble():
    """64 independent realizations of a modest random curve."""
    spec = spec1d()
    return spec, [sample_manifold(spec, 100 + r) for r in range(64)]


class TestSampleManifold:
    def test_shape_and_finiteness(self):
        spec = ManifoldSpec(K=2, N=30, ell=1.0, lam=(1.0, 2.0), L=(4.0, 6.0), grid=(8, 12))
        s = sample_manifold(spec, 1)
        assert s.points.shape == (96, 30)
        assert np.all(np.isfinite(s.points))

    def test_bitwise_determinism(self):
        spec = spec1d(N=50, n=32)
        a = sample_manifold(spec, 9)
        b = sample_manifold(spec, 9)
        assert a.points.tobytes() == b.points.tobytes()
        c = sample_manifold(spec, 10)
        assert c.points.tobytes() != a.points.tobytes()

    def test_points_read_only(self):
        s = sample_manifold(spec1d(N=20, n=8), 0)
        with pytest.raises(ValueError):
            s.points[0, 0] = 1.0

    def test_grid_axes_cover_half_open_interval(self):
        spec = spec1d(n=10, L=5.0)
        (ax,) = grid_axes(spec)
        assert ax[0] == 0.0
        assert ax[-1] == pytest.approx(5.0 - 0.5)
        assert np.allclose(np.diff(ax), 0.5)

    def test_kernel_covariance_monte_carlo(self, curve_ensemble):
        # sample covariance of phi(s1)phi(s2), averaged over coordinates
        # and pairs at a fixed lag, against its expected decay.  Products
        # within one realization are correlated along the curve, so the
        # standard error comes from the spread of the 64 independent
        # per-realization means.
        spec, samples = curve_ensemble
        h = spec.L[0] / spec.grid[0]
        sigma_sq = spec.ell**2 / spec.N
        for lag in (4, 8, 16):
            rho = (lag * h / spec.lam[0]) ** 2
            per_real = np.array(
                [float((s.points[:-lag] * s.points[lag:]).mean()) for s in samples]
            )
            expected = sigma_sq * math.exp(-rho / 2)
            se = per_real.std(ddof=1) / math.sqrt(len(per_real))
            assert abs(per_real.mean() - expected) < 4 * se

    def test_marginal_variance(self, curve_ensemble):
        spec, samples = curve_ensemble
        p = spec.grid[0] // 2
        vals = np.concatenate([s.points[p] for s in samples])
        var = float(np.mean(vals**2))
        expected = spec.ell**2 / spec.N
        se = expected * math.sqrt(2.0 / vals.size)
        assert abs(var - expected) < 4 * se

    def test_chord_law_of_large_numbers(self, curve_ensemble):
        # empirical squared chords averaged over realizations converge on
        # the expected-geometry curve at three separations
        spec, samples = curve_ensemble
        h = spec.L[0] / spec.grid[0]
        i = 0
        for lag in (2, 8, 24):
            rho = (lag * h / spec.lam[0]) ** 2
            chords = [empirical_chord_sq(s, i, i + lag) for s in samples]
            expected = expected_chord_sq(rho, spec.ell)
            se = expected * math.sqrt(2.0 / spec.N) / math.sqrt(len(samples))
            assert abs(np.mean(chords) - expected) < 4 * se


def pooled_audit(spec, master, n_real=16):
    """Audit pooled over independent realizations.

    The grid points of one realization are correlated over lam, so a
    single curve holds only about L/lam independent norms and its mean and
    spread scatter well beyond the per-point law.
    """
    return self_averaging_audit(
        sample_manifold(spec, derive_seed(master, ["audit", r])) for r in range(n_real)
    )


# the golden-regression grid, the fig4 grid and both axes of a surface
FACTOR_SPECS = [
    spec_for_volume(1, 1000, math.log(10 * math.sqrt(2) / 3), 256),
    spec1d(N=1000, n=1024, L=10.0),
    ManifoldSpec(K=2, N=200, ell=1.0, lam=(1.0, 1.8), L=(12.0, 20.0), grid=(32, 32)),
]
FACTOR_AXES = [
    (ax, lam, L)
    for spec in FACTOR_SPECS
    for ax, lam, L in zip(grid_axes(spec), spec.lam, spec.L)
]


class TestSpectralFactor:
    @pytest.mark.parametrize("ax,lam,L", FACTOR_AXES)
    def test_matches_exact_kernel(self, ax, lam, L):
        F, _ = _spectral_factor(ax, lam, L)
        d = (ax[:, None] - ax[None, :]) / lam
        assert np.abs(F @ F.T - np.exp(-0.5 * d * d)).max() <= 1e-14

    @pytest.mark.parametrize("ax,lam,L", FACTOR_AXES)
    def test_derivative_matches_kernel_derivatives(self, ax, lam, L):
        # with d = (s_i - s_j)/lam: d^2 k / ds_i ds_j = (1 - d^2) e^{-d^2/2} / lam^2
        # and dk / ds_j = d e^{-d^2/2} / lam
        F, dF = _spectral_factor(ax, lam, L)
        d = (ax[:, None] - ax[None, :]) / lam
        k = np.exp(-0.5 * d * d)
        assert np.abs(lam**2 * (dF @ dF.T) - (1.0 - d * d) * k).max() <= 1e-14
        assert np.abs(lam * (F @ dF.T) - d * k).max() <= 1e-14

    def test_rank_set_by_extent_not_grid(self):
        # modes with weight >= 1e-17 s0 on a circle of length L + 9 lam
        F, dF = _spectral_factor(np.arange(256) * (4.714 / 256), 1.0, 4.714)
        assert F.shape == dF.shape == (256, 39)
        for n in (1024, 4096):
            assert _spectral_factor(np.arange(n) * (10.0 / n), 1.0, 10.0)[0].shape == (n, 53)


class TestIsometricCoordinates:
    @pytest.mark.parametrize("K,N,grid,lnV,rank", [
        (1, 1000, 256, 1.55, 39), (2, 1000, 10, 0.0, 841), (1, 30, 64, 1.55, 30),
    ], ids=["curve", "surface", "r>=N"])
    def test_gram_equals_points(self, K, N, grid, lnV, rank):
        spec = spec_for_volume(K, N, lnV, grid, ell=1.7)
        X = sample_manifold(spec, 8).points
        C = isometric_coordinates(spec, 8)
        assert C.shape == (spec.n_points, rank) and coordinate_count(spec) == rank  # known before sampling
        assert np.abs(C @ C.T - X @ X.T).max() <= 1e-14 * spec.ell**2
        if rank == N:  # no latent rank to gain: the points themselves
            assert np.array_equal(C, X)


class TestSelfAveragingAudit:
    def test_concentration_large_N(self):
        spec = ManifoldSpec(K=1, N=1000, ell=1.0, lam=(1.0,), L=(10.0,), grid=(256,))
        audit = pooled_audit(spec, 0)
        assert audit.sq_norms.shape == (16 * 256,)
        assert 0.97 <= audit.mean <= 1.03
        assert audit.expected_mean == 1.0
        assert 0.5 * audit.expected_rel_sd <= audit.rel_sd <= 2.0 * audit.expected_rel_sd
        assert audit.expected_rel_sd == pytest.approx(math.sqrt(2 / 1000))

    def test_degenerate_single_coordinate(self):
        # N = 1: squared norms are chi-square with one degree of freedom,
        # relative spread sqrt(2), no concentration
        spec = ManifoldSpec(K=1, N=1, ell=1.0, lam=(1.0,), L=(40.0,), grid=(512,))
        audit = pooled_audit(spec, 0)
        assert 1.0 <= audit.rel_sd <= 1.9
        assert audit.expected_rel_sd == pytest.approx(math.sqrt(2.0))

    def test_pooling_validation(self):
        spec = spec1d(N=20, n=8)
        one = sample_manifold(spec, 0)
        assert np.array_equal(self_averaging_audit(one).sq_norms,
                              self_averaging_audit([one]).sq_norms)
        with pytest.raises(ValueError):
            self_averaging_audit([])
        with pytest.raises(ValueError):
            self_averaging_audit([one, sample_manifold(spec1d(N=20, n=9), 0)])


class TestEmpiricalChordSq:
    def test_same_point(self):
        s = sample_manifold(spec1d(N=40, n=16), 3)
        assert empirical_chord_sq(s, 5, 5) == 0.0

    def test_matches_summation_oracle(self):
        s = sample_manifold(spec1d(N=300, n=16), 4)
        d = s.points[2] - s.points[9]
        oracle = math.fsum(float(v) * float(v) for v in d)
        assert empirical_chord_sq(s, 2, 9) == pytest.approx(oracle, rel=1e-13)

    def test_index_errors(self):
        s = sample_manifold(spec1d(N=20, n=8), 0)
        with pytest.raises(IndexError):
            empirical_chord_sq(s, 0, 8)
        with pytest.raises(IndexError):
            empirical_chord_sq(s, -1, 0)


class TestTangentFrames:
    def test_orthonormal_bases(self):
        spec = ManifoldSpec(K=2, N=100, ell=1.0, lam=(1.0, 1.0), L=(4.0, 4.0), grid=(12, 12))
        fr = tangent_frames(sample_manifold(spec, 5))
        gram = np.einsum("pna,pnb->pab", fr.bases, fr.bases)
        assert np.abs(gram - np.eye(2)).max() < 1e-8

    def test_metric_matches_expected_scale(self):
        # the derivative along axis a has per-coordinate variance
        # ell^2 / (N lam_a^2), so the metric diagonal averages (ell/lam_a)^2
        spec = ManifoldSpec(K=2, N=400, ell=1.5, lam=(1.0, 1.3), L=(6.0, 7.8), grid=(32, 32))
        m = tangent_frames(sample_manifold(spec, 12)).metric
        for a in range(2):
            expected = (spec.ell / spec.lam[a]) ** 2
            got = float(m[:, a, a].mean())
            assert abs(got / expected - 1.0) < 0.08
        scale = spec.ell**2 / (spec.lam[0] * spec.lam[1])
        assert float(np.abs(m[:, 0, 1]).mean()) < 0.15 * scale

    def test_derivs_match_central_differences(self):
        # on the fig4 curve the central difference of the points is off by
        # O((h/lam)^2), about 6e-5 relative
        spec = spec1d(N=1000, n=1024, L=10.0)
        s = sample_manifold(spec, 2024)
        exact = tangent_frames(s).derivs[1:-1, 0, :]
        h = spec.L[0] / spec.grid[0]
        central = (s.points[2:] - s.points[:-2]) / (2.0 * h)
        rel = np.linalg.norm(central - exact, axis=1) / np.linalg.norm(exact, axis=1)
        assert rel.max() < 1e-3

    def test_points_must_be_the_realization(self):
        spec = spec1d(N=20, n=8)
        s = sample_manifold(spec, 3)
        other = ManifoldSample(spec=spec, points=s.points, seed=4)
        with pytest.raises(ValueError, match="realization"):
            tangent_frames(other)
        moved = ManifoldSample(spec=spec, points=s.points + 1e-9, seed=3)
        with pytest.raises(ValueError, match="realization"):
            tangent_frames(moved)
        # rounding of another BLAS build is tolerated
        rounded = ManifoldSample(spec=spec, points=s.points + 1e-14, seed=3)
        assert np.array_equal(tangent_frames(rounded).derivs, tangent_frames(s).derivs)

    def test_singular_metric_breaks(self):
        # one ambient coordinate: the two derivatives at a point are
        # parallel, so the 2 x 2 metric has rank 1
        spec = ManifoldSpec(K=2, N=1, ell=1.0, lam=(1.0, 1.0), L=(4.0, 4.0), grid=(6, 5))
        with pytest.raises(NumericalBreakdown):
            tangent_frames(sample_manifold(spec, 0))


@pytest.fixture(scope="module")
def surface_frames():
    spec = ManifoldSpec(K=2, N=200, ell=1.0, lam=(1.0, 1.8), L=(12.0, 20.0), grid=(32, 32))
    sample = sample_manifold(spec, 7)
    return spec, sample, tangent_frames(sample)


class TestEmpiricalAngles:

    def test_same_point(self, surface_frames):
        _, _, fr = surface_frames
        assert np.allclose(empirical_principal_angles(fr, 10, 10), 1.0, atol=1e-10)

    def test_right_rotation_invariance(self, surface_frames):
        _, _, fr = surface_frames
        rng = np.random.default_rng(3)
        q1 = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        q2 = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        direct = empirical_principal_angles(fr, 5, 200)
        rotated = np.linalg.svd((fr.bases[5] @ q1).T @ (fr.bases[200] @ q2), compute_uv=False)
        assert np.allclose(direct, np.clip(rotated, 0, 1), atol=1e-10)

    def test_mean_cosines_follow_expected_curve(self, surface_frames):
        # binned means against the expected cosine curves, for separations
        # up to rho = 4, relative to the central grid point
        spec, sample, fr = surface_frames
        center = np.ravel_multi_index((16, 16), spec.grid)
        mesh = np.meshgrid(*sample.sigma_axes, indexing="ij")
        sig = np.stack([m.ravel() for m in mesh], axis=-1)
        d = (sig - sig[center]) / np.asarray(spec.lam)
        rho = np.einsum("ij,ij->i", d, d)
        sel = np.nonzero((rho > 1e-12) & (rho <= 4.0))[0]
        cos_emp = np.stack([empirical_principal_angles(fr, center, j) for j in sel])
        cos_th = np.stack([np.sort(expected_principal_cosines(r, 2))[::-1] for r in rho[sel]])
        bins = np.digitize(rho[sel], np.linspace(0, 4, 9))
        for b in np.unique(bins):
            m = bins == b
            if m.sum() < 5:
                continue
            gap = np.abs(cos_emp[m].mean(axis=0) - cos_th[m].mean(axis=0))
            assert gap.max() < 0.15

    def test_signed_tangent_cosine_needs_curvelike(self, surface_frames):
        _, _, fr = surface_frames
        with pytest.raises(ValueError):
            empirical_tangent_cosine(fr, 0, 1)


class TestBinaryDump:
    def test_roundtrip(self, tmp_path):
        spec = ManifoldSpec(K=2, N=17, ell=1.3, lam=(1.0, 2.5), L=(3.0, 5.0), grid=(4, 6))
        s = sample_manifold(spec, 123456789)
        path = tmp_path / "dump.bin"
        save_sample(s, path)
        back = load_sample(path)
        assert back.spec == spec
        assert back.seed == 123456789
        assert back.points.tobytes() == s.points.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(back.sigma_axes, s.sigma_axes))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_sample(path)
