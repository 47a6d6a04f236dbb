"""Projectors, distortions and principal angles."""

import functools
import math
import sys
import threading

import numpy as np
import pytest
import scipy.stats

import mfldproj as mp
from mfldproj import (
    ChordScan,
    DistortionSummary,
    NumericalBreakdown,
    Projector,
    SubspaceBasis,
    jl_point_bound,
    pointset_distortion,
    principal_angles,
    random_subspace,
    sample_projector,
    subspace_distortion,
    vector_distortion,
    weyl_gap,
)
from mfldproj import experiments, projections
from mfldproj.projections import _haar_frame_rows, _Screened
from mfldproj.sampling import isometric_coordinates


class TestSampleProjector:
    def test_orthonormal_rows(self):
        for N, M in [(50, 1), (100, 40), (64, 64)]:
            A = sample_projector(N, M, 3)
            assert np.abs(A.rows @ A.rows.T - np.eye(M)).max() < 1e-10

    def test_deterministic(self):
        a = sample_projector(80, 11, 42)
        b = sample_projector(80, 11, 42)
        assert a.rows.tobytes() == b.rows.tobytes()
        c = sample_projector(80, 11, 43)
        assert c.rows.tobytes() != a.rows.tobytes()

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            sample_projector(10, 11, 0)
        with pytest.raises(ValueError):
            sample_projector(10, 0, 0)

    def test_projected_norm_unbiased(self):
        # For a fixed unit u, ||Au||^2 is Beta(M/2, (N-M)/2) with mean M/N,
        # so (N/M)||Au||^2 has mean 1 and known variance (the oracle).
        N, M, draws = 200, 20, 2000
        u = np.zeros(N)
        u[0] = 1.0
        vals = np.array([
            (N / M) * float(np.sum((sample_projector(N, M, 1000 + i).rows @ u) ** 2))
            for i in range(draws)
        ])
        a, b = M / 2.0, (N - M) / 2.0
        var_beta = a * b / ((a + b) ** 2 * (a + b + 1))
        se = (N / M) * math.sqrt(var_beta / draws)
        assert abs(vals.mean() - 1.0) < 3 * se


class TestHaarFrameRows:
    def test_first_row_norm_law(self):
        # the first row of a Haar N x k frame is the projection of a fixed
        # unit vector onto a uniform k-dimensional subspace: its squared
        # norm is Beta(k/2, (N - k)/2)
        N, k = 50, 7
        rng = np.random.default_rng(21)
        sq = [float(np.sum(_haar_frame_rows(N, k, 3, rng)[0] ** 2)) for _ in range(2000)]
        assert scipy.stats.kstest(sq, scipy.stats.beta(k / 2, (N - k) / 2).cdf).pvalue > 0.01

    def test_square_frame_rows_are_a_projector(self):
        # at k = N the rows come from the projector's N x M normals, by
        # Gram + Cholesky instead of Householder QR: equal to rounding
        rows = _haar_frame_rows(40, 40, 9, np.random.default_rng(5))
        assert np.abs(rows - sample_projector(40, 9, 5).rows).max() < 1e-13

    @pytest.mark.parametrize("N, k, M", [(60, 25, 10), (300, 139, 100), (30, 29, 1)])
    def test_wide_frame_rows_are_transposed_haar_frame(self, N, k, M, monkeypatch):
        # k > M: with the Wishart tail replaced by the Gram of an explicit
        # (N - k) x M Gaussian, the rows are the transposed first k rows of
        # the Haar frame H L^{-T} (L L^T = H^T H) of the stacked Gaussian H
        G = np.random.default_rng(7).standard_normal((k, M))
        tail = np.random.default_rng(8).standard_normal((N - k, M))
        monkeypatch.setattr(projections, "_wishart", lambda dof, K, size, rng: (tail.T @ tail)[None])
        got = _haar_frame_rows(N, k, M, np.random.default_rng(7))
        H = np.vstack([G, tail])
        W = np.linalg.solve(np.linalg.cholesky(H.T @ H), H.T).T
        assert got.shape == (M, k)
        assert np.abs(got - W[:k].T).max() < 1e-13

    def test_wide_frame_rows_match_householder_law(self):
        # k > M against the first M rows of a Householder Haar frame:
        # extreme singular values, one entry and one row norm
        N, k, M, draws = 60, 25, 10, 4000
        rng_a, rng_b = np.random.default_rng(30), np.random.default_rng(31)
        wide = [_haar_frame_rows(N, k, M, rng_a) for _ in range(draws)]
        ambient = [projections._haar_columns(N, k, rng_b)[:M] for _ in range(draws)]

        def stats(rows):
            s = np.linalg.svd(np.array(rows), compute_uv=False)
            return s[:, 0], s[:, -1], np.array([r[2, 3] for r in rows]), np.array([np.linalg.norm(r[1]) for r in rows])

        for a, b in zip(stats(wide), stats(ambient)):
            assert scipy.stats.ks_2samp(a, b).pvalue > 0.01

    @pytest.mark.parametrize("M", [200, 199])
    def test_square_frame_rows_are_orthonormal(self, M):
        rows = _haar_frame_rows(200, 200, M, np.random.default_rng(M))
        assert np.abs(rows @ rows.T - np.eye(M)).max() < 1e-9


class TestVectorDistortion:
    def test_full_projection_preserves_norms(self):
        A = sample_projector(40, 40, 0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            u = rng.standard_normal(40)
            assert vector_distortion(A, u) < 1e-12

    def test_scale_invariance(self):
        A = sample_projector(100, 10, 0)
        u = np.random.default_rng(2).standard_normal(100)
        assert abs(vector_distortion(A, 3.0 * u) - vector_distortion(A, u)) < 1e-12

    def test_matches_naive_oracle(self):
        A = sample_projector(1000, 100, 7)
        u = np.random.default_rng(3).standard_normal(1000)
        # independent route: explicit dot products and fsum accumulation
        proj = [math.fsum(A.rows[m, i] * u[i] for i in range(1000)) for m in range(100)]
        naive = abs(
            math.sqrt(1000 / 100) * math.sqrt(math.fsum(p * p for p in proj))
            / math.sqrt(math.fsum(x * x for x in u))
            - 1.0
        )
        assert vector_distortion(A, u) == pytest.approx(naive, abs=1e-12)

    def test_zero_vector(self):
        A = sample_projector(10, 2, 0)
        with pytest.raises(ValueError):
            vector_distortion(A, np.zeros(10))

    def test_rotation_invariance_ks(self):
        # the distortion law of a fixed direction is rotation invariant
        N, M, draws = 100, 10, 2000
        rng = np.random.default_rng(5)
        u = rng.standard_normal(N)
        R = np.linalg.qr(rng.standard_normal((N, N)))[0]
        d1 = np.array([vector_distortion(sample_projector(N, M, i), u) for i in range(draws)])
        d2 = np.array([
            vector_distortion(sample_projector(N, M, 10_000 + i), R @ u) for i in range(draws)
        ])
        assert scipy.stats.ks_2samp(d1, d2).pvalue > 0.05

    def test_tail_below_jl_bound(self):
        # By rotation invariance, distortion over random unit directions
        # under one fixed A has the same law as over random A at fixed u.
        N, trials = 500, 10_000
        rng = np.random.default_rng(11)
        for M in (50, 100):
            A = sample_projector(N, M, M)
            U = rng.standard_normal((trials, N))
            proj = np.linalg.norm(U @ A.rows.T, axis=1)
            dist = np.abs(math.sqrt(N / M) * proj / np.linalg.norm(U, axis=1) - 1.0)
            for eps in (0.1, 0.2, 0.3):
                bound = jl_point_bound(eps, M, mode="full")
                rate = float(np.mean(dist > eps))
                sigma = math.sqrt(bound * (1 - bound) / trials)
                assert rate <= bound + 3 * sigma


class TestPointsetDistortion:
    def test_two_points_equal_vector(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((2, 60))
        A = sample_projector(60, 6, 1)
        got = pointset_distortion(A, X)
        assert got.max == pytest.approx(vector_distortion(A, X[0] - X[1]), abs=1e-12)
        assert got.n_evaluated == 1

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((64, 50))
        A = sample_projector(50, 8, 2)
        oracle = max(
            vector_distortion(A, X[i] - X[j]) for i in range(64) for j in range(i + 1, 64)
        )
        got = pointset_distortion(A, X)
        assert got.max == pytest.approx(oracle, rel=1e-12)
        i, j = got.argmax
        assert vector_distortion(A, X[i] - X[j]) == pytest.approx(got.max, rel=1e-12)

    def test_adding_point_never_decreases(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((65, 30))
        A = sample_projector(30, 5, 3)
        m64 = pointset_distortion(A, X[:64]).max
        m65 = pointset_distortion(A, X).max
        assert m65 >= m64

    def test_block_size_independent(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((100, 40))
        A = sample_projector(40, 10, 4)
        a = pointset_distortion(A, X, block=7).max
        b = pointset_distortion(A, X, block=1024).max
        assert a == pytest.approx(b, rel=1e-12)

    def test_coincident_points_skipped(self):
        X = np.zeros((3, 10))
        X[2, 0] = 1.0
        A = sample_projector(10, 2, 1)
        got = pointset_distortion(A, X)
        assert got.n_evaluated == 2  # the (0,1) zero chord is skipped

    def test_identical_points_skipped(self):
        # the Gram-expanded length of a chord between identical points is
        # rounding noise, often positive; such pairs must not be scanned
        rng = np.random.default_rng(0)
        X = np.cumsum(rng.standard_normal((512, 200)), axis=0)
        X[3] = X[2]
        dedup = np.delete(X, 3, axis=0)
        scan = ChordScan(X)
        for seed in range(40):
            A = sample_projector(200, 5 if seed % 2 else 40, seed)
            expected = pointset_distortion(A, dedup).max
            for got in (pointset_distortion(A, X), scan.summary(A)):
                assert got.argmax not in ((2, 3), (3, 2))
                assert got.n_evaluated == 512 * 511 // 2 - 1
                assert got.max == pytest.approx(expected, rel=1e-12)
        # a constant first coordinate ties every point there, so rows are
        # compared in full; -0.0 and 0.0 are the same coordinate
        X[:, 0] = 0.0
        X[3, 0] = -0.0
        dedup = np.delete(X, 3, axis=0)
        scan = ChordScan(X)
        for seed in range(5):
            A = sample_projector(200, 5, seed)
            expected = pointset_distortion(A, dedup).max
            for got in (pointset_distortion(A, X), scan.summary(A)):
                assert got.argmax not in ((2, 3), (3, 2))
                assert got.n_evaluated == 512 * 511 // 2 - 1
                assert got.max == pytest.approx(expected, rel=1e-12)

    def test_needs_two_points(self):
        A = sample_projector(10, 2, 1)
        with pytest.raises(ValueError):
            pointset_distortion(A, np.zeros((1, 10)))

    def test_summary_invariant(self):
        with pytest.raises(ValueError):
            DistortionSummary(max=0.5, argmax=(0, 1), n_evaluated=2, samples=np.array([0.1, 0.2]))


def elementwise_worst(A, X, block):
    """Largest |sqrt(s r) - 1| over every scanned pair, one pair at a time,
    on the scan's block layout."""
    return nested_elementwise_worst(X, X @ A.rows.T, A.N, (A.M,), block)[0]


def nested_elementwise_worst(X, Y, N, M_grid, block):
    """Largest |sqrt(s r) - 1| over every scanned pair at each M of the
    nested grid, one pair at a time, on the scan's block layout: full-scale
    squared lengths |z_i|^2 + |z_j|^2 - 2 z_i.z_j, the projected ones summed
    one column segment [M_{k-1}, M_k) of Y at a time, each ratio clipped at
    0, and pairs of identical points skipped."""
    edges = (0, *M_grid)
    segs = [np.ascontiguousarray(Y[:, a:b]) for a, b in zip(edges, edges[1:])]
    xsq = np.einsum("ij,ij->i", X, X)
    sqs = [np.einsum("ij,ij->i", seg, seg) for seg in segs]
    best = [-1.0] * len(M_grid)
    for i0 in range(0, len(X), block):
        for j0 in range(i0, len(X), block):
            r, c = slice(i0, i0 + block), slice(j0, j0 + block)
            da = xsq[r, None] + xsq[None, c] - 2.0 * (X[r] @ X[c].T)
            keep = (da > 0.0) & ~np.all(X[r, None] == X[None, c], axis=2)
            if i0 == j0:
                keep &= np.triu(np.ones_like(keep), k=1)
            dp = 0.0
            for m, (seg, sq) in enumerate(zip(segs, sqs)):
                dp = dp + (sq[r, None] + sq[None, c] - 2.0 * (seg[r] @ seg[c].T))
                if keep.any():
                    d = np.abs(np.sqrt(N / M_grid[m] * (np.maximum(dp[keep], 0.0) / da[keep])) - 1.0)
                    best[m] = max(best[m], float(d.max()))
    return best


@functools.lru_cache(maxsize=None)
def gp_curve(P):
    """Isometric coordinates (P x 139) of one smooth Gaussian-process curve
    in R^1000 at volume 40: only its diagonal blocks and their neighbours
    are too short to screen in float32.  Shared between tests: copy before
    changing it."""
    X = isometric_coordinates(mp.spec_for_volume(1, 1000, math.log(40.0), P), 5)
    X.flags.writeable = False
    return X


def frame_rows(N, k, M, seed):
    """The first M rows of a Haar N x k frame, as the M* experiments draw them."""
    return _haar_frame_rows(N, k, M, np.random.default_rng(seed))


def screened_cases():
    """Point sets for the screened scan: the smooth curve, the same curve
    far from the origin, duplicated points and exact-zero chords in
    off-diagonal blocks, and a last block 104 points wide."""
    curve = gp_curve(1024)
    dup = curve.copy()
    dup[700] = dup[100]  # identical points in block pair (0, 5)
    dup[[5, 300]] = 0.0  # an exact-zero chord in block pair (0, 2)
    return {
        "curve": curve,
        "shifted": curve + 1e3,
        "duplicates": dup,
        "ragged": curve[:1000],
    }


class TestChordScan:
    def test_extremes_equal_elementwise_max(self):
        # min/max of the ratio per block gives the per-pair maximum bit for bit
        rng = np.random.default_rng(12)
        X = np.cumsum(rng.standard_normal((150, 40)), axis=0)
        X[[5, 6, 20]] = 0.0  # exactly zero chords in a diagonal and an off-diagonal block
        scan = ChordScan(X, block=16)
        for seed in range(6):
            A = sample_projector(40, 4 + seed, seed)
            got = scan.summary(A)
            assert got.max == elementwise_worst(A, X, 16)
            assert got.n_evaluated == 150 * 149 // 2 - 3
            i, j = got.argmax
            assert i < j
            assert vector_distortion(A, X[i] - X[j]) == pytest.approx(got.max, rel=1e-9)

    def test_reuse_matches_pointset_distortion(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((90, 30))
        scan = ChordScan(X, block=8)
        for seed in range(4):
            A = sample_projector(30, 5, seed)
            assert scan.summary(A) == pointset_distortion(A, X, block=8)

    def test_nested_equals_prefix_scans(self):
        # at every M the nested pass equals a one-segment scan of the first
        # M image columns; the first M is that scan bit for bit
        rng = np.random.default_rng(14)
        X = np.cumsum(rng.standard_normal((150, 40)), axis=0)
        X[[5, 6]] = X[4]
        M_grid = (3, 7, 8, 19, 30)
        scan = ChordScan(X, block=16)
        for seed in range(3):
            Y = X @ sample_projector(40, 30, seed).rows.T
            got = scan.nested(Y, 40, M_grid)
            for M, g in zip(M_grid, got):
                ref = scan.nested(Y[:, :M], 40, (M,))[0]
                assert g.max == pytest.approx(ref.max, rel=0, abs=1e-12)
                assert g.n_evaluated == ref.n_evaluated
            assert got[0] == scan.nested(Y[:, :3], 40, (3,))[0]

    def test_nested_equals_elementwise_max_at_every_M(self):
        # 150 points in blocks of 16 (the last is ragged), a duplicated
        # point, exactly zero chords, and width-1 column segments; the
        # chords among points 59-62 have coinciding images, so their computed
        # projected lengths are rounding noise of either sign, clipped at 0
        rng = np.random.default_rng(15)
        X = np.cumsum(rng.standard_normal((150, 40)), axis=0)
        X[[5, 6, 20]] = 0.0
        X[40] = X[30]
        scan = ChordScan(X, block=16)
        for M_grid in ((1, 2, 7, 30), (3, 8, 19), (40,)):
            for seed in range(3):
                Y = X @ sample_projector(40, M_grid[-1], seed).rows.T
                Y[[60, 61, 62]] = Y[59]
                got = scan.nested(Y, 40, M_grid)
                assert [g.max for g in got] == nested_elementwise_worst(X, Y, 40, M_grid, 16)
                assert all(g.n_evaluated == 150 * 149 // 2 - 4 for g in got)

    def test_chord_orthogonal_to_rows_has_distortion_one(self):
        # integer coordinates make every length exact: the chord (0, 1) lies
        # beyond the first 30 coordinates, so its projected length is 0 at
        # every M, and no other chord reaches distortion 1 while N / M < 4
        rng = np.random.default_rng(16)
        X = rng.integers(-8, 9, size=(60, 40)).astype(float)
        X[1] = X[0]
        X[1, 35] += 1.0
        M_grid = (12, 20, 30)
        Y = X[:, :30]
        got = ChordScan(X, block=16).nested(Y, 40, M_grid)
        assert [g.max for g in got] == [1.0] * 3 == nested_elementwise_worst(X, Y, 40, M_grid, 16)
        assert all(g.argmax == (0, 1) for g in got)

    def test_concurrent_nested_calls_match_serial(self):
        # every call scans in buffers of its own, so two threads on one scan
        # get the serial results; the smooth curve goes through the float32
        # screen, whose operands and buffers belong to the call as well
        rng = np.random.default_rng(17)
        X = np.cumsum(rng.standard_normal((300, 30)), axis=0)
        curve = gp_curve(1024)
        inputs = [
            (ChordScan(X, block=32), 30, (4, 9, 20), [X @ sample_projector(30, 20, seed).rows.T for seed in range(2)]),
            (ChordScan(curve), 1000, (16, 63, 100), [curve @ frame_rows(1000, curve.shape[1], 100, seed).T
                                                     for seed in range(2)]),
        ]
        assert any(isinstance(b, _Screened) for b in inputs[1][0]._blocks)
        for scan, N, M_grid, images in inputs:
            serial = [scan.nested(Y, N, M_grid) for Y in images]
            results = [None, None]
            barrier = threading.Barrier(2, timeout=60)

            def work(t):
                barrier.wait()
                results[t] = [scan.nested(images[t], N, M_grid) for _ in range(5)]

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(th.is_alive() for th in threads)
            for t in range(2):
                assert results[t] == [serial[t]] * 5

    def test_empty_scan_raises(self):
        A = sample_projector(10, 2, 1)
        with pytest.raises(ValueError, match="no chord"):
            pointset_distortion(A, np.ones((5, 10)))
        with pytest.raises(ValueError, match="no chord"):
            ChordScan(np.ones((5, 10)))

    def test_all_pairs_above_4096_points(self):
        X = gp_curve(4097)
        A = sample_projector(X.shape[1], 20, 3)
        got = ChordScan(X).summary(A)
        assert got.n_evaluated == 4097 * 4096 // 2
        assert got == pointset_distortion(A, X)

    def test_cache_size_checked_from_the_point_count(self):
        # 9 bytes per entry of the blocks on and above the diagonal: 16384
        # points could take 1.2 GB, 21782 points just over 2 GiB
        projections._check_cache_size(16384)
        with pytest.raises(ValueError, match=r"21782 points could cache 2147585796 bytes.* 2147483648 bytes"):
            projections._check_cache_size(21782)
        with pytest.raises(ValueError, match="32768 points"):
            ChordScan(np.broadcast_to(np.arange(32768.0)[:, None], (32768, 2)))

    def test_rejects_non_finite(self):
        rng = np.random.default_rng(18)
        X = rng.standard_normal((40, 10))
        A = sample_projector(10, 3, 1)
        for bad in (np.nan, np.inf):
            Xb = X.copy()
            Xb[7, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                pointset_distortion(A, Xb)
            with pytest.raises(ValueError, match="finite"):
                ChordScan(Xb)
        scan = ChordScan(X)
        Y = X @ A.rows.T
        Yb = Y.copy()
        Yb[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            scan.nested(Yb, 10, (1, 3))
        # images need only be array-like
        assert scan.nested(Y.tolist(), 10, (1, 3)) == scan.nested(Y, 10, (1, 3))

    def test_checks_points(self):
        with pytest.raises(ValueError):
            ChordScan(np.zeros((1, 10)))
        with pytest.raises(ValueError):
            ChordScan(np.zeros(10))
        with pytest.raises(ValueError):
            ChordScan(np.eye(3)).summary(sample_projector(10, 2, 1))
        scan = ChordScan(np.eye(3))
        for images, M_grid in ((np.ones((3, 4)), (2, 2)), (np.ones((3, 4)), (0, 2)),
                               (np.ones((3, 4)), (2, 5)), (np.ones((2, 4)), (1, 2))):
            with pytest.raises(ValueError):
                scan.nested(images, 10, M_grid)


def screen_of(Y, M_grid):
    """The nested segments of the images ``Y``, their operands and the
    float32 screen over them, as :func:`projections._scan` builds them."""
    edges = (0, *M_grid)
    segs = [Y[:, a:b] for a, b in zip(edges, edges[1:])]
    ops = [projections._sq_operands(seg) for seg in segs]
    return segs, ops, projections._Screen(segs, ops, M_grid)


def screened_lengths(scan, run, t):
    """The float64 half squared lengths da of block t of the screened
    ``run`` of ``scan``, rows by columns."""
    nr, c0, c1 = run.rec.shape[1], run.bounds[t], run.bounds[t + 1]
    rows, cols = slice(run.i0, run.i0 + nr), slice(run.j0 + c0, run.j0 + c1)
    shape = (nr, c1 - c0)
    return projections._block_half_sq(*scan._ambient, rows, cols, np.empty(shape), np.empty(shape))


def float64_ratios(scan, segs, ops, run):
    """``(t, m, r)`` per block t of the screened ``run`` of ``scan`` and
    index m of the nested grid: r (rows by columns) the float64 ratios of
    projected to ambient half squared length that the scan computes."""
    nr = run.rec.shape[1]
    for t in range(len(run.max_rec)):
        c0, c1 = run.bounds[t], run.bounds[t + 1]
        rows, cols = slice(run.i0, run.i0 + nr), slice(run.j0 + c0, run.j0 + c1)
        shape = (nr, c1 - c0)
        da = screened_lengths(scan, run, t)
        proj = 0.0
        for m, (seg, (lead, trail)) in enumerate(zip(segs, ops)):
            proj = proj + projections._block_half_sq(seg, lead, trail, rows, cols, np.empty(shape), np.empty(shape))
            yield t, m, proj / da


def screened_runs(scan):
    return [b for b in scan._blocks if isinstance(b, _Screened)]


def screen_error_ratio(scan, Y, N, M_grid):
    """Largest |r32 - r64| / slack over every entry of every screened block
    of ``scan`` at every M of the nested grid: r32 from the float32 pass,
    scaled by the block's step, r64 the float64 ratio the scan computes for
    the pair, and the slack the screen widens the block's scaled float32
    extremes by, which is checked to be exactly the screen's."""
    segs, ops, screen = screen_of(Y, M_grid)
    worst = 0.0
    for run in screened_runs(scan):
        r32 = [r.copy() for r in screen.ratios(run)]
        slack = screen.slack(run)
        up, down = screen.widened(run)
        for t, m, r64 in float64_ratios(scan, segs, ops, run):
            r = r32[m][run.bounds[t] : run.bounds[t + 1]].T * run.step[t]
            bound = slack[m, t] + (8 * 2.0**-24 + 2 * run.qerr[t]) * np.abs(r).max() + 2.0**-126 * run.step[t]
            assert (up[m, t], down[m, t]) == (r.max() + bound, r.min() - bound)
            worst = max(worst, float((np.abs(r - r64) / bound).max()))
    return worst


def count_recomputed(monkeypatch, scan):
    """A list that gains one entry each time ``scan`` recomputes the float64
    lengths of a screened block."""
    calls = []
    block_half_sq = projections._block_half_sq

    def spy(Z, *args):
        if Z is scan.points:
            calls.append(1)
        return block_half_sq(Z, *args)

    monkeypatch.setattr(projections, "_block_half_sq", spy)
    return calls


class TestScreenedScan:
    @pytest.mark.parametrize("case", ["curve", "shifted", "duplicates", "ragged"])
    def test_screened_scan_equals_oracles(self, case, monkeypatch):
        # nested and summary equal the unscreened streaming kernel (max,
        # argmax and count), the pair-by-pair maximum and pointset_distortion
        X = screened_cases()[case]
        N, M_grid, k = 1000, (25, 63, 100), X.shape[1]
        scan = ChordScan(X)
        n_blocks = 8 * 9 // 2
        if case == "shifted":  # |x|^2 / 2 ~ 7e7 against chords of order 1
            assert scan.screened_blocks == 0
        else:
            assert scan.screened_blocks >= n_blocks // 2
        if case == "duplicates":
            dropped = [(b[0], b[1]) for b in scan._blocks if not isinstance(b, _Screened) and b[3] is not None]
            assert {(0, 256), (0, 640)} <= set(dropped)
        if case == "ragged":
            assert any(b.bounds[-1] - b.bounds[-2] == 104 for b in scan._blocks if isinstance(b, _Screened))
        order = []
        for b in scan._blocks:
            order += [(b.i0, b.j0 + int(c)) for c in b.bounds[:-1]] if isinstance(b, _Screened) else [b[:2]]
        assert order == [(i0, j0) for i0, j0, _, _ in projections._chord_blocks(X, 128)]
        recomputed = count_recomputed(monkeypatch, scan)
        for seed in range(2):
            Y = X @ frame_rows(N, k, M_grid[-1], seed).T
            recomputed.clear()
            got = scan.nested(Y, N, M_grid)
            if case != "shifted":  # most screened blocks are skipped
                assert len(recomputed) < scan.screened_blocks / 2
            assert got == projections._scan(Y, N, M_grid, projections._chord_blocks(X, 128))
            assert [g.max for g in got] == nested_elementwise_worst(X, Y, N, M_grid, 128)
            A = sample_projector(k, 50, seed)
            assert scan.summary(A) == pointset_distortion(A, X)
            assert scan.summary(A).max == elementwise_worst(A, X, 128)

    def test_ties_keep_the_unscreened_order(self):
        # integer coordinates make every length exact: the chords (3, 40)
        # and (5, 100) lie beyond the first 30 coordinates, so both have
        # distortion 1 at every M, and no other chord reaches it while
        # N / M < 4.  The first, in a screened run, comes before the second,
        # in a block with identical points, so it is the worst pair.
        rng = np.random.default_rng(19)
        X = rng.integers(-8, 9, size=(150, 40)).astype(float)
        X[40], X[100], X[101] = X[3], X[5], X[6]
        X[40, 35] += 8.0
        X[100, 36] += 8.0
        scan = ChordScan(X, block=16)
        runs = [b for b in scan._blocks if isinstance(b, _Screened)]
        assert any(b.i0 == 0 and b.j0 <= 32 < b.j0 + b.bounds[-1] for b in runs)
        assert not any(b.i0 == 0 and b.j0 <= 96 < b.j0 + b.bounds[-1] for b in runs)
        M_grid, Y = (12, 20, 30), X[:, :30]
        got = scan.nested(Y, 40, M_grid)
        assert got == projections._scan(Y, 40, M_grid, projections._chord_blocks(X, 16))
        assert [(g.max, g.argmax) for g in got] == [(1.0, (3, 40))] * 3

    def test_ties_prefer_the_diagonal_band(self):
        # integer coordinates make every length exact: the chords (3, 40),
        # in the far block (0, 32), and (20, 41), in the band block
        # (16, 32), lie beyond the first 30 coordinates, so both have
        # distortion 1 at every M, and no other chord reaches it while
        # N / M < 4.  The band is scanned first, so every path reports the
        # band pair, through the screen and without it.
        rng = np.random.default_rng(19)
        X = rng.integers(-8, 9, size=(150, 40)).astype(float)
        X[40], X[41] = X[3], X[20]
        X[40, 35] += 8.0
        X[41, 36] += 8.0
        scan = ChordScan(X, block=16)
        runs = {(b.i0, b.j0) for b in scan._blocks if isinstance(b, _Screened)}
        assert {(0, 32), (16, 32)} <= runs
        M_grid, Y = (12, 20, 30), X[:, :30]
        want = [(1.0, (20, 41))] * 3
        assert [(g.max, g.argmax) for g in scan.nested(Y, 40, M_grid)] == want
        got = projections._scan(Y, 40, M_grid, projections._chord_blocks(X, 16))
        assert [(g.max, g.argmax) for g in got] == want
        A = Projector(rows=np.eye(30, 40), M=30, N=40, seed=0)
        assert (pointset_distortion(A, X, block=16).argmax, scan.summary(A).argmax) == ((20, 41), (20, 41))

    @pytest.mark.parametrize("block", [16, 128])
    def test_band_blocks_come_first(self, block):
        # the diagonal blocks and their first neighbours (j0 - i0 <= block)
        # precede every far block, in the stream and in the cache, and a
        # cached run is closed once it reaches one screen product's columns
        rng = np.random.default_rng(20)
        X = gp_curve(2048)[:2000] if block == 128 else np.cumsum(rng.standard_normal((150, 40)), axis=0)
        streamed = [(i0, j0) for i0, j0, _, _ in projections._chord_blocks(X, block)]
        starts = range(0, len(X), block)
        assert sorted(streamed) == [(i0, j0) for i0 in starts for j0 in starts if j0 >= i0]
        band = [j0 - i0 <= block for i0, j0 in streamed]
        assert band == sorted(band, reverse=True) and sum(band) == 2 * len(starts) - 1
        scan = ChordScan(X, block=block)
        cached = []
        for b in scan._blocks:
            cached += [(b.i0, b.j0 + int(c)) for c in b.bounds[:-1]] if isinstance(b, _Screened) else [b[:2]]
        assert cached == streamed
        runs = [b for b in scan._blocks if isinstance(b, _Screened)]
        assert runs and all(b.bounds[-1] <= projections._SCREEN_COLS for b in runs)
        if block == 128:  # the far blocks of row 0 span 1744 columns
            assert (runs[0].i0, runs[0].j0, runs[0].bounds[-1]) == (0, 256, projections._SCREEN_COLS)
        assert any(b.bounds[-1] - b.bounds[-2] < block for b in runs)

    def test_slack_bounds_float32_error(self):
        # every float32 ratio is within the screen's slack of the float64
        # one, at every M: on random points, and on points moved far from
        # the origin until their blocks are just inside the conditioning limit
        rng = np.random.default_rng(21)
        base = rng.standard_normal((512, 30))
        N, M_grid = 200, (1, 3, 8, 20, 50)
        shortest = [float(da.min()) for i0, j0, da, _ in projections._chord_blocks(base, 128)
                    if i0 != j0]
        shift = math.sqrt(0.8e-4 * float(np.median(shortest)) / 2.0**-24 / 30)
        for X in (base, base + shift):
            scan = ChordScan(X)
            assert scan.screened_blocks > 0
            h = scan._ambient[2][1]
            cond = max(
                2.0**-24 * (h[b.i0 : b.i0 + 128].max() + h[b.j0 + b.bounds[t] : b.j0 + b.bounds[t + 1]].max())
                * b.max_rec[t]
                for b in scan._blocks if isinstance(b, _Screened) for t in range(len(b.max_rec))
            )
            assert cond < 1e-4
            if X is not base:
                assert cond > 0.5e-4
            for seed in range(3):
                Y = X @ frame_rows(N, 30, M_grid[-1], seed).T
                assert screen_error_ratio(scan, Y, N, M_grid) <= 1.0

    def test_widened_extremes_hold_the_float64_ratios(self):
        # the screen skips a block on its widened float32 extremes alone,
        # so they must bound every float64 ratio of the block at every M
        X, N, M_grid = gp_curve(2048), 1000, (63, 100)
        scan = ChordScan(X)
        checked = 0
        for seed in range(2):
            segs, ops, screen = screen_of(X @ frame_rows(N, X.shape[1], M_grid[-1], seed).T, M_grid)
            for run in screened_runs(scan):
                up, down = screen.widened(run)
                for t, m, r in float64_ratios(scan, segs, ops, run):
                    assert down[m, t] <= r.min() and r.max() <= up[m, t], (seed, run.i0, run.j0, t, m)
                    checked += 1
        assert checked == 2 * len(M_grid) * scan.screened_blocks

    def test_screened_reciprocals_take_two_bytes_per_pair(self):
        # a screened pair keeps one 16-bit code q of 1 / da, scaled per block
        # so that its largest code is 65535, and q step is within a relative
        # qerr of 1 / da
        scan = ChordScan(gp_curve(2048))
        runs = screened_runs(scan)
        assert scan.screened_blocks >= 100  # of 136 blocks
        for run in runs:
            assert run.rec.dtype == np.uint16 and run.rec.flags.c_contiguous
            assert run.rec.nbytes == 2 * run.rec.shape[1] * run.bounds[-1]
            for t in range(len(run.max_rec)):
                q, da = run.rec[run.bounds[t] : run.bounds[t + 1]].T, screened_lengths(scan, run, t)
                assert q.max() == 65535 and q.min() >= 1
                assert run.max_rec[t] == 1.0 / da.min() and run.step[t] == run.max_rec[t] / 65535
                assert run.qerr[t] == 0.5 * run.max_rec[t] * da.max() / 65535
                assert np.abs(q * run.step[t] * da - 1.0).max() <= run.qerr[t] * (1.0 + 1e-9)
        assert sum(r.rec.nbytes for r in runs) == 2 * 128 * 128 * scan.screened_blocks

    @pytest.mark.parametrize("shifted", [False, True])
    def test_quantization_edge(self, shifted, monkeypatch):
        # the smooth curve with a linear trend along a new axis, centred:
        # its farthest blocks have 1 / da spanning 1.7 to 2 times, the
        # nearer ones more.  At small M the quantization term 2 qerr |r| is
        # then most of the widening; moved from the origin until its blocks
        # are just inside the conditioning limit, the float32 term is.
        # Either way the widened extremes hold the float64 ratios, the
        # float32 error stays within the slack, and the scan is the
        # elementwise one bit for bit
        curve = gp_curve(1024)
        X = np.hstack([np.linspace(0.0, 10.0, len(curve), endpoint=False)[:, None], curve])
        X -= X.mean(axis=0)
        N, M_grid, k = 1000, (1, 2, 3), X.shape[1]
        if shifted:
            shortest = [float(da.min()) for i0, j0, da, _ in projections._chord_blocks(X, 128) if j0 - i0 > 128]
            X += math.sqrt(0.8e-4 * float(np.median(shortest)) / 2.0**-24 / k)
        scan = ChordScan(X)
        runs = screened_runs(scan)
        spans = [2 * 65535 * q for r in runs for q in r.qerr]
        assert min(spans) < 2.0 and sum(span < 2.5 for span in spans) >= 3
        h = scan._ambient[2][1]
        cond = max(2.0**-24 * (h[r.i0 : r.i0 + 128].max() + h[r.j0 + r.bounds[t] : r.j0 + r.bounds[t + 1]].max())
                   * r.max_rec[t] for r in runs for t in range(len(r.max_rec)))
        assert 0.5e-4 < cond < 1e-4 if shifted else cond < 1e-6
        recomputed = count_recomputed(monkeypatch, scan)
        for seed in range(2):
            Y = X @ frame_rows(N, k, M_grid[-1], seed).T
            segs, ops, screen = screen_of(Y, M_grid)
            for run in runs:
                up, down = screen.widened(run)
                for t, m, r in float64_ratios(scan, segs, ops, run):
                    assert down[m, t] <= r.min() and r.max() <= up[m, t], (seed, run.i0, run.j0, t, m)
            assert screen_error_ratio(scan, Y, N, M_grid) <= 1.0
            recomputed.clear()
            got = scan.nested(Y, N, M_grid)
            assert len(recomputed) < scan.screened_blocks
            assert [g.max for g in got] == nested_elementwise_worst(X, Y, N, M_grid, 128)
            assert got == projections._scan(Y, N, M_grid, projections._chord_blocks(X, 128))

    def test_screen_skips_most_far_blocks(self, monkeypatch):
        # on a smooth curve the float64 pass runs on fewer than a quarter of
        # the screened blocks per projector, also on the 12-value default
        # fig6a grid, where a block must be ruled out at every M
        X, N = gp_curve(2048), 1000
        scan = ChordScan(X)
        n_screened = scan.screened_blocks
        assert n_screened >= 100  # of 136 blocks
        recomputed = count_recomputed(monkeypatch, scan)
        for M_grid in ((63, 100), experiments._FIG_DEFAULTS["fig6a"]["M_grid"]):
            for seed in range(4):
                recomputed.clear()
                scan.nested(X @ frame_rows(N, X.shape[1], M_grid[-1], seed).T, N, M_grid)
                assert len(recomputed) < n_screened / 4, (M_grid, seed)


class TestSubspaceDistortion:
    def test_full_projection(self):
        A = sample_projector(30, 30, 2)
        U = random_subspace(30, 4, 3)
        assert subspace_distortion(A, U) < 1e-10

    def test_dominates_sphere_sampling(self):
        N, K, M = 50, 3, 10
        A = sample_projector(N, M, 4)
        U = random_subspace(N, K, 5)
        rng = np.random.default_rng(6)
        s = rng.standard_normal((100_000, K))
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        vecs = s @ U.cols.T
        dist = np.abs(math.sqrt(N / M) * np.linalg.norm(vecs @ A.rows.T, axis=1) - 1.0)
        exact = subspace_distortion(A, U)
        gap_small = exact - float(dist[:1000].max())
        gap_large = exact - float(dist.max())
        assert gap_large >= -1e-12
        assert gap_large <= gap_small
        assert gap_large < 0.01

    def test_basis_invariance(self):
        N, K, M = 40, 5, 12
        A = sample_projector(N, M, 7)
        U = random_subspace(N, K, 8)
        Q = np.linalg.qr(np.random.default_rng(9).standard_normal((K, K)))[0]
        U2 = SubspaceBasis(cols=U.cols @ Q)
        assert abs(subspace_distortion(A, U) - subspace_distortion(A, U2)) < 1e-10

    def test_requires_K_le_M(self):
        A = sample_projector(30, 3, 2)
        U = random_subspace(30, 4, 3)
        with pytest.raises(ValueError):
            subspace_distortion(A, U)

    def test_rank_deficient_rejected(self):
        cols = np.zeros((10, 2))
        cols[:, 0] = cols[:, 1] = 1.0 / math.sqrt(10)
        with pytest.raises(ValueError):
            SubspaceBasis(cols=cols)


class TestPrincipalAngles:
    def test_identical(self):
        U = random_subspace(30, 4, 1)
        assert np.allclose(principal_angles(U, U).cosines, 1.0, atol=1e-12)

    def test_orthogonal(self):
        U = SubspaceBasis(cols=np.eye(10)[:, :3])
        V = SubspaceBasis(cols=np.eye(10)[:, 3:6])
        assert np.allclose(principal_angles(U, V).cosines, 0.0)

    def test_sorted_and_clipped(self):
        U = random_subspace(40, 6, 2)
        V = random_subspace(40, 6, 3)
        c = principal_angles(U, V).cosines
        assert np.all(np.diff(c) <= 0)
        assert np.all((c >= 0) & (c <= 1))

    def test_projector_difference_spectrum_oracle(self):
        # nonzero singular values of U U^T - V V^T are the angle sines,
        # each occurring twice
        N, K = 40, 5
        U = random_subspace(N, K, 4)
        V = random_subspace(N, K, 5)
        sines = np.sqrt(1.0 - principal_angles(U, V).cosines ** 2)
        diff = U.cols @ U.cols.T - V.cols @ V.cols.T
        sv = np.linalg.svd(diff, compute_uv=False)
        expected = np.sort(np.concatenate([sines, sines]))[::-1]
        assert np.allclose(sv[: 2 * K], expected, atol=1e-8)
        assert np.allclose(sv[2 * K :], 0.0, atol=1e-8)

    def test_factors_orthogonal(self):
        U = random_subspace(25, 3, 6)
        V = random_subspace(25, 3, 7)
        pa = principal_angles(U, V, keep_factors=True)
        assert np.abs(pa.W.T @ pa.W - np.eye(3)).max() < 1e-10
        assert np.abs(pa.V.T @ pa.V - np.eye(3)).max() < 1e-10
        rebuilt = pa.W @ np.diag(pa.cosines) @ pa.V.T
        assert np.allclose(rebuilt, U.cols.T @ V.cols, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            principal_angles(random_subspace(30, 3, 0), random_subspace(30, 4, 0))


class TestWeylGap:
    def test_identical_subspaces(self):
        A = sample_projector(60, 10, 1)
        U = random_subspace(60, 3, 2)
        res = weyl_gap(A, U, U)
        assert np.allclose(res.gaps, 0.0, atol=1e-12)

    def test_random_triples_certified(self):
        for t in range(60):
            A = sample_projector(120, 12, 3 * t)
            U = random_subspace(120, 4, 3 * t + 1)
            V = random_subspace(120, 4, 3 * t + 2)
            res = weyl_gap(A, U, V)  # raises on violation
            assert res.max_gap <= res.bound + 1e-10

    def test_non_orthogonal_projector_rejected(self):
        A = sample_projector(40, 8, 0)
        bad = Projector(rows=2.0 * A.rows, M=8, N=40, seed=0)
        U = random_subspace(40, 3, 1)
        with pytest.raises(ValueError):
            weyl_gap(bad, U, U)

    def test_requires_K_le_M(self):
        A = sample_projector(40, 2, 0)
        U = random_subspace(40, 3, 1)
        with pytest.raises(ValueError):
            weyl_gap(A, U, U)


def test_weyl_breakdown_is_raising():
    # sanity: the certification path raises NumericalBreakdown rather than
    # silently returning when fed an inconsistent bound
    A = sample_projector(30, 6, 0)
    U = random_subspace(30, 2, 1)
    V = random_subspace(30, 2, 2)
    res = weyl_gap(A, U, V)
    assert isinstance(res.bound, float)
    with pytest.raises(NumericalBreakdown):
        weyl_gap(A, U, V, tol=-1.0 - res.bound)  # force an impossible tolerance
