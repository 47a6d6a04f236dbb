"""Projectors, distortions and principal angles."""

import functools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import mfldproj as mp
from mfldproj import (
    ChordScan,
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
        monkeypatch.setattr(projections, "_wishart", lambda dof, K, rng: tail.T @ tail)
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

    @pytest.mark.parametrize("K, size, dof", [(39, 1, 800), (39, 1, 895), (39, 1, 95), (5, 1024, 800),
                                              (5, 1024, 95), (4, 3, 4)])
    def test_wishart_factor_draws_the_per_i_stream(self, K, size, dof):
        # the K chi-squares of the Bartlett diagonal come from one call, with
        # the values and the stream after them of one call per diagonal entry
        rng, ref = np.random.default_rng(dof), np.random.default_rng(dof)
        x = np.zeros((K, K, size))
        projections._wishart_factor(dof, rng, x)
        rows, cols = np.tril_indices(K, -1)
        lower = ref.standard_normal((size, rows.size)).T
        diag = np.stack([np.sqrt(ref.chisquare(dof - i, size=size)) for i in range(K)])
        assert np.array_equal(x[cols, rows], lower)
        assert np.array_equal(x[np.arange(K), np.arange(K)], diag)
        assert np.array_equal(rng.standard_normal(7), ref.standard_normal(7))


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

    def test_block_size_independent(self, block_size):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((100, 40))
        A = sample_projector(40, 10, 4)
        block_size(7)
        a = pointset_distortion(A, X).max
        block_size(1024)
        b = pointset_distortion(A, X).max
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
            for got in (pointset_distortion(A, X), summary(scan, A)):
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
            for got in (pointset_distortion(A, X), summary(scan, A)):
                assert got.argmax not in ((2, 3), (3, 2))
                assert got.n_evaluated == 512 * 511 // 2 - 1
                assert got.max == pytest.approx(expected, rel=1e-12)

    def test_needs_two_points(self):
        A = sample_projector(10, 2, 1)
        with pytest.raises(ValueError):
            pointset_distortion(A, np.zeros((1, 10)))


def elementwise_worst(A, X, block):
    """Largest |sqrt(s r) - 1| over every scanned pair, one pair at a time,
    on the scan's block layout."""
    return nested_elementwise_worst(X, X @ A.rows.T, A.N, (A.M,), block)[0]


def nested_elementwise_worst(X, Y, N, M_grid, block):
    """Largest |sqrt(s r) - 1| over every scanned pair at each M of the
    nested grid, one pair at a time, on the scan's block layout: full-scale
    squared lengths |z_i|^2 + |z_j|^2 - 2 z_i.z_j, the projected ones summed
    one column segment [M_{k-1}, M_k) of Y at a time, each ratio the
    projected length times the reciprocal of the ambient one and clipped
    at 0, and pairs of identical points skipped.  A diagonal block's
    projected Gram is formed by gemm, as the scan forms it, and both of a
    pair's entries (i, j) and (j, i) are taken: the scan keeps the larger."""
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
                np.fill_diagonal(keep, False)
            dp = 0.0
            for m, (seg, sq) in enumerate(zip(segs, sqs)):
                dp = dp + (sq[r, None] + sq[None, c] - 2.0 * (seg[r] @ seg[c].copy().T))
                if keep.any():
                    d = np.abs(np.sqrt(N / M_grid[m] * (np.maximum(dp[keep], 0.0) * (1.0 / da[keep]))) - 1.0)
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


def summary(scan, A):
    """The worst chord of ``scan`` under the projector A."""
    return scan.worst(A.rows, A.N, (A.M,))[0]


@pytest.fixture
def block_size(monkeypatch):
    """A function that sets the chord scan's block size, ``_BLOCK``, for the
    rest of the test.  A scan reads it when it is built and when it scans,
    so a test builds and scans each ChordScan at one block size."""
    def set_block(block):
        monkeypatch.setattr(projections, "_BLOCK", block)

    return set_block


def chord_blocks(X):
    """The blocks of ``_chord_blocks`` of the points X, streamed."""
    return projections._chord_blocks(projections._ambient(X))


def streamed_scan(X, Y, N, M_grid):
    """``_scan`` of the images Y of the points X over their blocks of
    ``_chord_blocks``, streamed as ``pointset_distortion`` streams them."""
    ambient = projections._ambient(X)
    return projections._scan(Y, N, M_grid, projections._chord_blocks(ambient), ambient, projections._Workspace())


def cached_scan(scan, Y, N, M_grid):
    """``_scan`` of the images Y of the points of ``scan`` over its cached
    blocks, in a workspace of its own."""
    return projections._scan(Y, N, M_grid, scan._blocks, scan._ambient, projections._Workspace())


def planned_far(P):
    """Far blocks (j0 - i0 > 2 block) of the block rows that hold at least
    two of them: the blocks the plan of a ChordScan of P points screens."""
    block = projections._BLOCK
    starts = range(0, P, block)
    per_row = [sum(j0 - i0 > 2 * block for j0 in starts) for i0 in starts]
    return sum(n for n in per_row if n >= 2)


def planned_runs(P):
    """``(i0, j0, columns)`` of each screened run the plan of a ChordScan of
    P points makes: the far blocks of each block row that holds at least
    two of them, consecutive, in runs of ceil(1024 / block) blocks."""
    block = projections._BLOCK
    starts, per_run, runs = range(0, P, block), -(-1024 // block), []
    for i0 in starts:
        far = [j0 for j0 in starts if j0 - i0 > 2 * block]
        if len(far) >= 2:
            runs += [(i0, far[k], min(far[k] + per_run * block, P) - far[k]) for k in range(0, len(far), per_run)]
    return runs


def planned_bytes(P):
    """Bytes of the cache the plan of a ChordScan of P points keeps."""
    return sum(projections._plan_bytes(P))


def cached_order(scan):
    """``(i0, j0)`` of every block of the cache of ``scan``, in its order,
    those of each screened run one by one."""
    order = []
    for b in scan._blocks:
        if isinstance(b, _Screened):
            order += [(b.i0, b.j0 + c) for c in range(0, b.width, projections._BLOCK)]
        else:
            order.append(b[:2])
    return order


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


def tie_points():
    """150 integer points, in blocks of 16, whose chords (3, 56) and
    (5, 100) lie beyond the first 30 coordinates, and the identical points
    6 and 101."""
    rng = np.random.default_rng(19)
    X = rng.integers(-8, 9, size=(150, 40)).astype(float)
    X[56], X[100], X[101] = X[3], X[5], X[6]
    X[56, 35] += 8.0
    X[100, 36] += 8.0
    return X


# the ambient blocks of the diagonal blocks of a smooth curve (300 points:
# two full blocks and a ragged one), and the syrk products of projected
# segments of widths 1, 6 and 53, as column views
SYMMETRY_CHILD = """
import math, numpy as np, mfldproj as mp
from mfldproj import projections
X = mp.sampling.isometric_coordinates(mp.spec_for_volume(1, 1000, math.log(40.0), 300), 5)
Y = X @ np.random.default_rng(3).standard_normal((X.shape[1], 60))
checked = []
for i0, j0, rec, n in projections._chord_blocks(projections._ambient(X)):
    if i0 == j0:
        zeros = np.argwhere(rec == 0.0)
        checked.append(np.array_equal(rec, rec.T) and np.array_equal(zeros[:, 0], zeros[:, 1])
                       and len(zeros) == len(rec) and n == len(rec) * (len(rec) - 1) // 2)
        rows = slice(i0, i0 + len(rec))
        for a, b in ((0, 1), (1, 7), (7, 60)):
            lead, trail = projections._sq_operands(Y[:, a:b])
            part = projections._block_half_sq(Y[:, a:b], lead, trail, rows, rows, np.empty(rec.shape),
                                              np.empty(rec.shape))
            checked.append(np.array_equal(part, part.T))
print(len(checked), all(checked))
"""


class TestChordScan:
    def test_diagonal_blocks_are_symmetric(self):
        # numpy forms a block times its own transpose with syrk and mirrors
        # it, which the cached ambient diagonal blocks rely on: their
        # reciprocal lengths are symmetric, their zeros (the dropped pairs,
        # here only the diagonal) too, and the count of their nonzero
        # entries is halved (a numpy that stops doing so fails here).  The projected
        # blocks of the scan go through gemm instead and need not be
        # symmetric; the syrk path is checked on column segments as well.
        # Checked at one and two BLAS threads, each in a child process
        src = str(Path(mp.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = subprocess.run([sys.executable, "-c", SYMMETRY_CHILD], env=env, capture_output=True, text=True,
                                 check=True, timeout=300)
            assert out.stdout.split() == ["12", "True"], threads

    def test_diagonal_is_blanked(self, block_size):
        # integer coordinates make every length exact, so the diagonal of a
        # diagonal block has projected length 0 against reciprocal 0: left
        # in, it would be the smallest ratio, a distortion of exactly 1.
        # No chord lies beyond the first 30 coordinates, so the worst is
        # below 1, found above the diagonal
        rng = np.random.default_rng(22)
        X = rng.integers(-8, 9, size=(60, 40)).astype(float)
        M_grid, rows = (12, 20, 30), np.eye(30, 40)
        Y = X @ rows.T
        block_size(16)
        scan = ChordScan(X)
        for got in (scan.worst(rows, 40, M_grid), streamed_scan(X, Y, 40, M_grid)):
            assert [g.max for g in got] == nested_elementwise_worst(X, Y, 40, M_grid, 16)
            assert all(g.max < 0.9 and g.argmax[0] < g.argmax[1] for g in got)

    def test_identical_points_in_a_diagonal_block(self, block_size):
        # a diagonal block keeps the reciprocal 0 for its diagonal and its
        # dropped pairs, the pair of identical points and its mirror image,
        # and still scans every other pair above its diagonal
        rng = np.random.default_rng(23)
        X = np.cumsum(rng.standard_normal((150, 40)), axis=0)
        X[9] = X[5]
        block_size(16)
        scan = ChordScan(X)
        i0, j0, rec, n = scan._blocks[0]
        zeros = sorted((int(i), int(j)) for i, j in zip(*np.nonzero(rec == 0.0)) if i != j)
        assert (i0, j0) == (0, 0) and zeros == [(5, 9), (9, 5)] and not projections._diagonal(rec).any()
        assert n == 16 * 15 // 2 - 1
        assert all(b[3] == (b[2].size if b[0] != b[1] else len(b[2]) * (len(b[2]) - 1) // 2)
                   for b in scan._blocks[1:] if not isinstance(b, _Screened))
        for seed in range(3):
            A = sample_projector(40, 5 + seed, seed)
            got = summary(scan, A)
            assert got == pointset_distortion(A, X)
            assert got.max == elementwise_worst(A, X, 16)
            assert got.n_evaluated == 150 * 149 // 2 - 1
            assert got.argmax not in ((5, 9), (9, 5))

    def test_extremes_equal_elementwise_max(self, block_size):
        # min/max of the ratio per block gives the per-pair maximum bit for bit
        rng = np.random.default_rng(12)
        X = np.cumsum(rng.standard_normal((150, 40)), axis=0)
        X[[5, 6, 20]] = 0.0  # exactly zero chords in a diagonal and an off-diagonal block
        block_size(16)
        scan = ChordScan(X)
        for seed in range(6):
            A = sample_projector(40, 4 + seed, seed)
            got = summary(scan, A)
            assert got.max == elementwise_worst(A, X, 16)
            assert got.n_evaluated == 150 * 149 // 2 - 3
            i, j = got.argmax
            assert i < j
            assert vector_distortion(A, X[i] - X[j]) == pytest.approx(got.max, rel=1e-9)

    def test_reuse_matches_pointset_distortion(self, block_size):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((90, 30))
        block_size(8)
        scan = ChordScan(X)
        for seed in range(4):
            A = sample_projector(30, 5, seed)
            assert summary(scan, A) == pointset_distortion(A, X)

    def test_nested_equals_prefix_scans(self, block_size):
        # at every M the nested pass equals a one-segment scan of the first
        # M rows; the first M is the scan of its image columns bit for bit
        rng = np.random.default_rng(14)
        X = np.cumsum(rng.standard_normal((150, 40)), axis=0)
        X[[5, 6]] = X[4]
        M_grid = (3, 7, 8, 19, 30)
        block_size(16)
        scan = ChordScan(X)
        for seed in range(3):
            rows = sample_projector(40, 30, seed).rows
            got = scan.worst(rows, 40, M_grid)
            for M, g in zip(M_grid, got):
                ref = scan.worst(rows[:M], 40, (M,))[0]
                assert g.max == pytest.approx(ref.max, rel=0, abs=1e-12)
                assert g.n_evaluated == ref.n_evaluated
            assert got[0] == cached_scan(scan, (X @ rows.T)[:, :3], 40, (3,))[0]

    def test_nested_equals_elementwise_max_at_every_M(self, block_size):
        # 150 points in blocks of 16 (the last is ragged), a duplicated
        # point, exactly zero chords, and width-1 column segments; points
        # 60-62 differ from point 59 only in coordinates that the rows zero,
        # so the chords among points 59-62 have coinciding images, and
        # their computed projected lengths are rounding noise of either
        # sign, clipped at 0
        rng = np.random.default_rng(15)
        X = np.cumsum(rng.standard_normal((150, 40)), axis=0)
        X[[5, 6, 20]] = 0.0
        X[40] = X[30]
        X[60:63] = X[59]
        X[60:63, 36:39] += np.eye(3)
        block_size(16)
        scan = ChordScan(X)
        for M_grid in ((1, 2, 7, 30), (3, 8, 19), (40,)):
            for seed in range(3):
                rows = sample_projector(40, M_grid[-1], seed).rows.copy()
                rows[:, 36:] = 0.0
                Y = X @ rows.T
                got = scan.worst(rows, 40, M_grid)
                assert [g.max for g in got] == nested_elementwise_worst(X, Y, 40, M_grid, 16)
                assert all(g.n_evaluated == 150 * 149 // 2 - 4 for g in got)

    def test_chord_orthogonal_to_rows_has_distortion_one(self, block_size):
        # integer coordinates make every length exact: the chord (0, 1) lies
        # beyond the first 30 coordinates, so its projected length is 0 at
        # every M, and no other chord reaches distortion 1 while N / M < 4
        rng = np.random.default_rng(16)
        X = rng.integers(-8, 9, size=(60, 40)).astype(float)
        X[1] = X[0]
        X[1, 35] += 1.0
        M_grid, rows = (12, 20, 30), np.eye(30, 40)
        Y = X @ rows.T
        block_size(16)
        got = ChordScan(X).worst(rows, 40, M_grid)
        assert [g.max for g in got] == [1.0] * 3 == nested_elementwise_worst(X, Y, 40, M_grid, 16)
        assert all(g.argmax == (0, 1) for g in got)

    def test_concurrent_nested_calls_match_serial(self, block_size):
        # every thread scans in a workspace of its own, so two threads on one
        # scan get the serial results; the smooth curve goes through the
        # float32 screen, whose operands and buffers belong to the thread too
        rng = np.random.default_rng(17)
        X = np.cumsum(rng.standard_normal((300, 30)), axis=0)
        curve = gp_curve(1024)
        inputs = [
            (32, X, 30, (4, 9, 20), [sample_projector(30, 20, seed).rows for seed in range(2)]),
            (128, curve, 1000, (16, 63, 100), [frame_rows(1000, curve.shape[1], 100, seed) for seed in range(2)]),
        ]
        for block, points, N, M_grid, rows in inputs:
            block_size(block)
            scan = ChordScan(points)
            if points is curve:
                assert any(isinstance(b, _Screened) for b in scan._blocks)
            serial = [scan.worst(r, N, M_grid) for r in rows]
            results = [None, None]
            barrier = threading.Barrier(2, timeout=60)

            def work(t):
                barrier.wait()
                results[t] = [scan.worst(rows[t], N, M_grid) for _ in range(5)]

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

    def test_second_projector_allocates_no_block(self):
        # after one warm-up projector the images, the block buffers and the
        # operands of both passes come from the thread's workspace, so the
        # next call allocates no array of a block's size (128 x 128
        # float64) or larger; the smooth curve takes the float32 screen too
        X, N, M_grid = gp_curve(1024), 1000, (16, 63, 100)
        scan = ChordScan(X)
        assert scan.screened_blocks > 0
        rows = [frame_rows(N, X.shape[1], M_grid[-1], seed) for seed in range(2)]
        want = [cached_scan(scan, X @ r.T, N, M_grid) for r in rows]
        assert scan.worst(rows[0], N, M_grid) == want[0]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = scan.worst(rows[1], N, M_grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert got == want[1]
        assert peak < 128 * 128 * 8

    def test_workspace_bytes_are_the_thread_workspace(self):
        # the size check's count of one thread's workspace is the arrays a
        # scan takes that grow with the point count (the 2048-point curve's
        # row 0 fills a run of 1024 columns); the rest of the workspace,
        # buffers of one block's size, stays under 1 MiB
        X, N, M_grid = gp_curve(2048), 1000, (16, 63, 100)
        scan = ChordScan(X)
        scan.worst(frame_rows(N, X.shape[1], M_grid[-1], 0), N, M_grid)
        bufs = scan._local.work._bufs
        names = ("images", "lead", "trail", "screen_operands", "screen_H", "screen_run")
        grown = sum(bufs[name].nbytes for name in names)
        assert grown == projections._workspace_bytes(2048, M_grid)
        assert sum(b.nbytes for b in bufs.values()) - grown < 2**20

    def test_nested_worst_is_the_same_on_one_and_two_threads(self):
        # pool threads scan in workspaces of their own; the calling thread
        # reuses its workspace after the pool is gone
        spec = mp.spec_for_volume(1, 1000, math.log(40.0), 512)
        scan = experiments._latent_scan(spec, 3)
        runs = [experiments._nested_worst(scan, 1000, (16, 63, 100), 4, 3, threads) for threads in (1, 2, 1)]
        for worst, recomputed, pairs in runs[1:]:
            assert np.array_equal(worst, runs[0][0]) and (recomputed, pairs) == runs[0][1:]

    @pytest.mark.parametrize("twin", ["lower", "upper"])
    def test_unequal_twins_report_the_larger(self, twin, monkeypatch, block_size):
        # integer coordinates make every length exact: the chord (3, 9) lies
        # along the first axis, so its ratio is exactly 1 at every M, and the
        # other chords, mostly in the first 12 coordinates, stay below it.
        # One twin of its projected half length in the diagonal block is
        # raised by one ulp, as gemm may round it, which raises that twin's
        # distortion: the scan at every M of a grid, at each M alone, and
        # pointset_distortion report the raised distortion, as the pair (3, 9)
        rng = np.random.default_rng(24)
        X = rng.integers(-1, 2, size=(60, 40)).astype(float)
        X[:, :12] = 4 * rng.integers(-8, 9, size=(60, 12))
        X[9] = X[3]
        X[9, 0] += 8.0
        a, b = (9, 3) if twin == "lower" else (3, 9)
        block_half_sq = projections._block_half_sq

        def spy(Z, lead, trail, rows, cols, out, gram, *rest):
            block_half_sq(Z, lead, trail, rows, cols, out, gram, *rest)
            if Z is not X and Z is not scan.points and rows == cols == slice(0, 16) and out[a, b] != 0.0:
                out[a, b] = np.nextafter(out[a, b], math.inf)
            return out

        def want(M):
            raised = abs(math.sqrt(40 / M * float(np.nextafter(1.0, 2.0))) - 1.0)
            assert raised > abs(math.sqrt(40 / M) - 1.0)
            return raised, (3, 9)

        block_size(16)
        scan = ChordScan(X)
        monkeypatch.setattr(projections, "_block_half_sq", spy)
        M_grid = (12, 25, 30)
        assert [(g.max, g.argmax) for g in scan.worst(np.eye(30, 40), 40, M_grid)] == [want(M) for M in M_grid]
        for M in M_grid:
            A = Projector(rows=np.eye(M, 40), M=M, N=40)
            for got in (summary(scan, A), pointset_distortion(A, X)):
                assert (got.max, got.argmax) == want(M)

    def test_empty_scan_raises(self):
        A = sample_projector(10, 2, 1)
        with pytest.raises(ValueError, match="no chord"):
            pointset_distortion(A, np.ones((5, 10)))
        with pytest.raises(ValueError, match="no chord"):
            ChordScan(np.ones((5, 10)))

    def test_all_pairs_above_4096_points(self):
        X = gp_curve(4097)
        A = sample_projector(X.shape[1], 20, 3)
        got = summary(ChordScan(X), A)
        assert got.n_evaluated == 4097 * 4096 // 2
        assert got == pointset_distortion(A, X)

    @pytest.mark.parametrize("P", [512, 1000, 1024, 2048, 4096, "shifted", "duplicates", "ties", "block48"])
    def test_planned_bytes_are_the_cache_bytes(self, P, block_size):
        # the build keeps what the plan made from the point count alone
        # counts, whatever the points: smooth curves, one far from the
        # origin, identical points and exact-zero chords (in band and
        # screened blocks), integer points in blocks of 16, and 2000 points
        # in blocks of 48, which does not divide a run's 1024 columns
        if isinstance(P, int):
            X, block = gp_curve(1024)[:1000] if P == 1000 else gp_curve(P), 128
        elif P == "block48":
            X, block = gp_curve(2048)[:2000], 48
        else:
            X, block = (tie_points(), 16) if P == "ties" else (screened_cases()[P], 128)
        block_size(block)
        scan = ChordScan(X)
        assert scan.screened_blocks == planned_far(len(X))
        assert scan.cache_bytes == planned_bytes(len(X)) == sum(
            a.nbytes for b in scan._blocks for a in b if isinstance(a, np.ndarray))
        runs = [(b.i0, b.j0, b.width) for b in scan._blocks if isinstance(b, _Screened)]
        assert runs == planned_runs(len(X))
        if P == "block48":  # row 0's 39 far blocks: 22 of 48 columns, then 16 and one of 32
            assert runs[:2] == [(0, 144, 22 * 48), (0, 144 + 22 * 48, 16 * 48 + 32)]

    def test_cache_size_checked_from_the_plan(self):
        # 8 bytes per pair of the band and 16 per screened far block: a
        # 32768-point curve plans 101 MB, and 635102 points are the first
        # that plan more than 2 GiB
        assert planned_bytes(32768) == 100_915_232
        projections._check_cache_size(32768)
        projections._check_cache_size(635101)
        with pytest.raises(ValueError, match=r"^a chord scan of 635102 points would cache more than 2147483648 bytes"):
            projections._check_cache_size(635102)

    def test_cache_over_the_limit_refused_before_the_build(self, monkeypatch):
        # the plan is the only size check: under a limit one byte below it
        # a scan is refused before a reciprocal length is computed, and at
        # the plan it is built, whatever the points
        def no_build(*args):
            raise AssertionError("the cache was built before its size was checked")

        for X in screened_cases().values():
            limit = planned_bytes(len(X)) - 1
            monkeypatch.setattr(projections, "_CACHE_LIMIT", limit)
            with monkeypatch.context() as m:
                m.setattr(projections, "_ambient", no_build)
                with pytest.raises(ValueError, match=rf"^a chord scan of {len(X)} points would cache more than {limit} bytes"):
                    ChordScan(X)
            monkeypatch.setattr(projections, "_CACHE_LIMIT", limit + 1)
            assert ChordScan(X).cache_bytes == limit + 1

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
        for bad in (np.nan, np.inf):
            rows = A.rows.copy()
            rows[1, 4] = bad
            with pytest.raises(ValueError, match="finite"):
                scan.worst(rows, 10, (1, 3))
            # rows past the largest M are not read
            assert scan.worst(rows, 10, (1,)) == scan.worst(A.rows, 10, (1,))
        # rows need only be array-like
        assert scan.worst(A.rows.tolist(), 10, (1, 3)) == scan.worst(A.rows, 10, (1, 3))

    def test_checks_points(self):
        with pytest.raises(ValueError):
            ChordScan(np.zeros((1, 10)))
        with pytest.raises(ValueError):
            ChordScan(np.zeros(10))
        with pytest.raises(ValueError):
            summary(ChordScan(np.eye(3)), sample_projector(10, 2, 1))
        scan = ChordScan(np.eye(3))
        for rows, M_grid in ((np.ones((4, 3)), (2, 2)), (np.ones((4, 3)), (0, 2)),
                             (np.ones((4, 3)), (2, 5)), (np.ones((4, 2)), (1, 2))):
            with pytest.raises(ValueError):
                scan.worst(rows, 10, M_grid)

    @pytest.mark.parametrize("shape, bad, N, M_grid, message", [
        ((4, 30), None, 40, (1, 2), r"rows must be \(M, 40\), got \(4, 30\)"),
        ((40,), None, 40, (1, 2), r"rows must be \(M, 40\), got \(40,\)"),
        ((4, 40), None, 40, (2, 5), r"need M <= min\(N, rows\) = 4, got 5"),
        ((40, 40), None, 20, (10, 30), r"need M <= min\(N, rows\) = 20, got 30"),
        ((4, 40), np.nan, 40, (1, 3), "finite"),
        ((4, 40), None, 40, (2, 2), "strictly ascending"),
        ((4, 40), None, 40, (3, 2), "strictly ascending"),
        ((4, 40), None, 40, (0, 2), "strictly ascending and positive"),
        ((4, 40), None, 40, (), "strictly ascending"),
        ((4, 40), None, 20.7, (1, 2), "N must be int, got 20.7"),
        ((4, 40), None, 0, (1, 2), "N must be >= 1, got 0"),
    ])
    def test_worst_checks_its_inputs_before_scanning(self, monkeypatch, shape, bad, N, M_grid, message):
        # rows of the wrong width, too few rows, non-finite rows, a bad grid
        # and an N that is not a whole number >= 1 are refused before any
        # block is scanned
        scan = ChordScan(np.cumsum(np.random.default_rng(26).standard_normal((50, 40)), axis=0))
        rows = np.full(shape, 0.1)
        if bad is not None:
            rows[1, 5] = bad
        monkeypatch.setattr(projections, "_scan", lambda *args: pytest.fail("scanned before the inputs were checked"))
        with pytest.raises(ValueError, match=message):
            scan.worst(rows, N, M_grid)

    def test_worst_takes_whole_M_only(self):
        # a non-integral M is refused with the entry named, not truncated;
        # a whole float is that integer
        scan = ChordScan(np.cumsum(np.random.default_rng(27).standard_normal((50, 10)), axis=0))
        A = sample_projector(10, 3, 1)
        with pytest.raises(ValueError, match="M_grid entry must be int, got 2.7"):
            scan.worst(A.rows, 10, (2.7,))
        assert scan.worst(A.rows, 10, (1, 2.0)) == scan.worst(A.rows, 10, (1, 2))

    def test_points_are_copied(self, block_size):
        # the scan keeps its own read-only copy of the points: doubling the
        # caller's array afterwards changes no result, and a fresh scan of
        # the doubled points, whose ratios are the same bit for bit, agrees
        rng = np.random.default_rng(25)
        X = np.cumsum(rng.standard_normal((300, 40)), axis=0)
        A = sample_projector(40, 10, 3)
        block_size(32)
        scan = ChordScan(X)
        want = summary(scan, A)
        X *= 2.0
        assert summary(scan, A) == want == summary(ChordScan(X), A)
        assert scan.points is not X and not scan.points.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            scan.points[0, 0] = 1.0

    def test_each_call_returns_its_own_result(self):
        # a result holds no view of the thread's workspace: a later call
        # with other rows leaves an earlier result as it was, and each is
        # the scan of its own images
        X, N, M_grid = gp_curve(1024), 1000, (5, 10)
        scan = ChordScan(X)
        rows = [frame_rows(N, X.shape[1], 10, seed) for seed in range(2)]
        got = [scan.worst(r, N, M_grid) for r in rows]
        assert got[0] != got[1]
        for r, g in zip(rows, got):
            assert g == cached_scan(scan, X @ r.T, N, M_grid)


def screen_of(scan, Y, M_grid):
    """The nested segments of the images ``Y`` of the points of ``scan``,
    their operands and the float32 screen over them, as
    :func:`projections._scan` builds them."""
    edges = (0, *M_grid)
    segs = [Y[:, a:b] for a, b in zip(edges, edges[1:])]
    ops = [projections._sq_operands(seg) for seg in segs]
    return segs, ops, projections._Screen(segs, ops, M_grid, scan._ambient, projections._Workspace())


def block_slices(run, t):
    """The rows and the columns of the points of block t of the screened
    ``run``."""
    block = projections._BLOCK
    return slice(run.i0, run.i0 + block), slice(run.j0 + t * block, run.j0 + min((t + 1) * block, run.width))


def screened_lengths(scan, run, t):
    """The float64 half squared lengths da of block t of the screened
    ``run`` of ``scan``, rows by columns."""
    rows, cols = block_slices(run, t)
    shape = (rows.stop - rows.start, cols.stop - cols.start)
    return projections._block_half_sq(*scan._ambient[:3], rows, cols, np.empty(shape), np.empty(shape))


def float64_ratios(scan, segs, ops, run):
    """``(t, m, r)`` per block t of the screened ``run`` of ``scan`` and
    index m of the nested grid: r (rows by columns) the float64 ratios of
    projected half squared length to ambient one, as the scan computes
    them: the projected length times the reciprocal of the ambient one."""
    for t in range(len(run.max_rec)):
        rows, cols = block_slices(run, t)
        shape = (rows.stop - rows.start, cols.stop - cols.start)
        rec = 1.0 / screened_lengths(scan, run, t)
        proj = 0.0
        for m, (seg, (lead, trail)) in enumerate(zip(segs, ops)):
            proj = proj + projections._block_half_sq(seg, lead, trail, rows, cols, np.empty(shape), np.empty(shape))
            yield t, m, proj * rec


def screened_runs(scan):
    return [b for b in scan._blocks if isinstance(b, _Screened)]


def screen_error_ratio(scan, Y, N, M_grid):
    """Largest |t rec - r64| / slack over every entry of every screened
    block of ``scan`` at every M of the nested grid: t the float32 sum of
    the screen, rec the float64 reciprocal length, r64 the float64 ratio
    the scan computes for the pair, and the slack the screen's.  The
    screen's block bounds are checked to be the block's extremes of t
    times its reciprocal extremes, chosen by sign, widened by that slack."""
    segs, ops, screen = screen_of(scan, Y, M_grid)
    worst = 0.0
    for run in screened_runs(scan):
        sums, slack = screen.sums(run).copy(), screen.slack(run)
        up, down = screen.widened(run, sums, slack)
        for t, m, r64 in float64_ratios(scan, segs, ops, run):
            cols = block_slices(run, t)[1]
            s = sums[m][cols.start - run.j0 : cols.stop - run.j0].T.astype(float)
            hi, lo, rec = s.max(), s.min(), 1.0 / screened_lengths(scan, run, t)
            assert (run.max_rec[t], run.min_rec[t]) == (rec.max(), rec.min())
            assert up[m, t] == hi * (run.max_rec[t] if hi >= 0 else run.min_rec[t]) + slack[m, t]
            assert down[m, t] == lo * (run.min_rec[t] if lo >= 0 else run.max_rec[t]) - slack[m, t]
            worst = max(worst, float((np.abs(s * rec - r64) / slack[m, t]).max()))
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


def count_float64_passes(monkeypatch):
    """A list that gains the open M of each screened block that reaches
    the float64 pass, the M its pair-by-pair bounds leave open."""
    passes = []
    unresolved = projections._Screen.unresolved

    def spy(*args):
        for block in unresolved(*args):
            passes.append(block[4])
            yield block

    monkeypatch.setattr(projections._Screen, "unresolved", spy)
    return passes


class TestScreenedScan:
    @pytest.mark.parametrize("case", ["curve", "shifted", "duplicates", "ragged", "block48"])
    def test_screened_scan_equals_oracles(self, case, monkeypatch, block_size):
        # the scan at every M of a grid and at one M equals the unscreened
        # streaming kernel (max, argmax and count), the pair-by-pair maximum
        # and pointset_distortion, at the same block size; in blocks of 48,
        # which do not divide a run's 1024 columns, the rows of 2000 points
        # hold up to two runs
        X, block = (gp_curve(2048)[:2000], 48) if case == "block48" else (screened_cases()[case], 128)
        N, M_grid, k = 1000, (25, 63, 100), X.shape[1]
        block_size(block)
        scan = ChordScan(X)
        # every far block of a row with at least two, also far from the
        # origin (|x|^2 / 2 ~ 7e7 against chords of order 1) and with
        # identical points
        assert scan.screened_blocks == planned_far(len(X)) == (779 if case == "block48" else 14)
        if case == "duplicates":  # the zero chord in the band block (0, 256), the identical points in (0, 640)
            dropped = [b[:2] for b in scan._blocks if not isinstance(b, _Screened) and b[0] != b[1] and b[3] < b[2].size]
            rec = next(b[2] for b in scan._blocks if b[:2] == (0, 256))
            assert dropped == [(0, 256)] and np.flatnonzero(rec == 0.0).tolist() == [5 * 128 + 44]
            (run,) = [b for b in scan._blocks if isinstance(b, _Screened) and b.pairs < block * b.width]
            assert (run.i0, run.j0, run.pairs) == (0, 384, 128 * 640 - 1)
        if case == "ragged":
            assert any(b.width % block == 104 for b in scan._blocks if isinstance(b, _Screened))
        assert cached_order(scan) == [(i0, j0) for i0, j0, _, _ in chord_blocks(X)]
        passes = count_float64_passes(monkeypatch)
        for seed in range(2):
            rows = frame_rows(N, k, M_grid[-1], seed)
            Y = X @ rows.T
            passes.clear()
            got = scan.worst(rows, N, M_grid)
            if case != "shifted":  # most screened blocks are skipped
                assert len(passes) < scan.screened_blocks / 2
            assert got == streamed_scan(X, Y, N, M_grid)
            assert [g.max for g in got] == nested_elementwise_worst(X, Y, N, M_grid, block)
            A = sample_projector(k, 50, seed)
            assert summary(scan, A) == pointset_distortion(A, X)
            assert summary(scan, A).max == elementwise_worst(A, X, block)

    def test_ties_keep_the_unscreened_order(self, block_size):
        # integer coordinates make every length exact: the chords (3, 56)
        # and (5, 100) lie beyond the first 30 coordinates, so both have
        # distortion 1 at every M, and no other chord reaches it while
        # N / M < 4.  The first, in a screened run, comes before the second,
        # in a later block of the same screened run, (0, 96), which holds
        # the identical points 6 and 101, so it is the worst pair.
        X = tie_points()
        block_size(16)
        scan = ChordScan(X)
        runs = [b for b in scan._blocks if isinstance(b, _Screened)]
        assert any(b.i0 == 0 and b.j0 <= 48 and 96 < b.j0 + b.width for b in runs)
        M_grid, rows = (12, 20, 30), np.eye(30, 40)
        Y = X @ rows.T
        got = scan.worst(rows, 40, M_grid)
        assert got == streamed_scan(X, Y, 40, M_grid)
        assert [(g.max, g.argmax, g.n_evaluated) for g in got] == [(1.0, (3, 56), 11174)] * 3

    def test_ties_prefer_the_diagonal_band(self, block_size):
        # integer coordinates make every length exact: the chords (3, 56),
        # in the far block (0, 48), and (20, 41), in the band block
        # (16, 32), lie beyond the first 30 coordinates, so both have
        # distortion 1 at every M, and no other chord reaches it while
        # N / M < 4.  The band is scanned first, so every path reports the
        # band pair, through the screen and without it.
        rng = np.random.default_rng(19)
        X = rng.integers(-8, 9, size=(150, 40)).astype(float)
        X[56], X[41] = X[3], X[20]
        X[56, 35] += 8.0
        X[41, 36] += 8.0
        block_size(16)
        scan = ChordScan(X)
        assert (0, 48) in {(b.i0, b.j0) for b in scan._blocks if isinstance(b, _Screened)}
        M_grid, rows = (12, 20, 30), np.eye(30, 40)
        Y = X @ rows.T
        want = [(1.0, (20, 41))] * 3
        assert [(g.max, g.argmax) for g in scan.worst(rows, 40, M_grid)] == want
        got = streamed_scan(X, Y, 40, M_grid)
        assert [(g.max, g.argmax) for g in got] == want
        A = Projector(rows=np.eye(30, 40), M=30, N=40)
        assert (pointset_distortion(A, X).argmax, summary(scan, A).argmax) == ((20, 41), (20, 41))

    @pytest.mark.parametrize("block", [16, 128])
    def test_band_blocks_come_first(self, block, block_size):
        # the diagonal blocks and their first two neighbours
        # (j0 - i0 <= 2 block) precede every far block, in the stream and in
        # the cache, none of them is screened, and a cached run is closed
        # once it reaches one screen product's columns
        rng = np.random.default_rng(20)
        X = gp_curve(2048)[:2000] if block == 128 else np.cumsum(rng.standard_normal((150, 40)), axis=0)
        block_size(block)
        streamed = [(i0, j0) for i0, j0, _, _ in chord_blocks(X)]
        starts = range(0, len(X), block)
        assert sorted(streamed) == [(i0, j0) for i0 in starts for j0 in starts if j0 >= i0]
        band = [j0 - i0 <= 2 * block for i0, j0 in streamed]
        assert band == sorted(band, reverse=True) and sum(band) == 3 * len(starts) - 3
        scan = ChordScan(X)
        assert cached_order(scan) == streamed
        runs = [b for b in scan._blocks if isinstance(b, _Screened)]
        assert runs and all(b.width <= projections._SCREEN_COLS for b in runs)
        assert all(b.j0 - b.i0 > 2 * block for b in runs)
        if block == 128:  # the far blocks of row 0 span 1616 columns
            assert (runs[0].i0, runs[0].j0, runs[0].width) == (0, 384, projections._SCREEN_COLS)
        assert any(b.width % block for b in runs)  # a last block narrower than the others

    def test_slack_bounds_float32_error(self):
        # every float32 ratio is within the screen's slack of the float64
        # one, at every M: on random points, and on the same points moved
        # far from the origin, where float32 rounding of their norms is
        # more than 1e-3 of the shortest chord of a block (at +1e5, over a
        # thousand times the chord itself): the slack grows with the norms
        rng = np.random.default_rng(21)
        base = rng.standard_normal((1024, 30))
        N, M_grid = 200, (1, 3, 8, 20, 50)
        for shift in (0.0, 100.0, 1e5):
            X = base + shift
            scan = ChordScan(X)
            assert scan.screened_blocks == planned_far(1024)
            h = scan._ambient[2][1]
            cond = max(
                2.0**-24 * (h[b.i0 : b.i0 + 128].max() + h[block_slices(b, t)[1]].max())
                * b.max_rec[t]
                for b in scan._blocks if isinstance(b, _Screened) for t in range(len(b.max_rec))
            )
            assert cond < 1e-4 if shift == 0.0 else cond > (1e-3 if shift == 100.0 else 1e3)
            for seed in range(3):
                Y = X @ frame_rows(N, 30, M_grid[-1], seed).T
                assert screen_error_ratio(scan, Y, N, M_grid) <= 1.0

    def test_widened_extremes_hold_the_float64_ratios(self):
        # the screen skips a block on its widened block bounds alone, or on
        # its widened pair-by-pair bounds, so each must hold every float64
        # ratio of the block at every M; and a block with a distortion above
        # the running worst at every M, by less than float32 rounding,
        # reaches the float64 pass at every M, with the reciprocal lengths
        # the scan would recompute
        X, N, M_grid = gp_curve(2048), 1000, (63, 100)
        scan = ChordScan(X)
        checked = 0
        for seed in range(2):
            Y = X @ frame_rows(N, X.shape[1], M_grid[-1], seed).T
            segs, ops, screen = screen_of(scan, Y, M_grid)
            for run in screened_runs(scan):
                sums, slack = screen.sums(run), screen.slack(run)
                up, down = screen.widened(run, sums, slack)
                worst = np.zeros((len(run.max_rec), len(M_grid)))
                for t, m, r in float64_ratios(scan, segs, ops, run):
                    assert down[m, t] <= r.min() and r.max() <= up[m, t], (seed, run.i0, run.j0, t, m)
                    worst[t, m] = np.abs(np.sqrt(N / M_grid[m] * np.maximum(r, 0.0)) - 1.0).max()
                    checked += 1
                for t in range(len(run.max_rec)):
                    target = block_slices(run, t)[1].start
                    for i0, j0, rec, _, open_ms in screen.unresolved(run, N, M_grid, list(worst[t] * (1 - 1e-8))):
                        if j0 == target:
                            break
                    assert (j0, open_ms) == (target, (0, 1))
                    assert np.array_equal(rec, 1.0 / screened_lengths(scan, run, t))
            assert screen_error_ratio(scan, Y, N, M_grid) <= 1.0
        assert checked == 2 * len(M_grid) * scan.screened_blocks

    @pytest.mark.parametrize("sums", [[[-1.0, -2.0], [-3.0, -0.5]], [[-1.0, 2.0], [3.0, -0.5]], [[1.0, 2.0], [3.0, 0.5]]])
    def test_block_bounds_choose_the_reciprocal_by_sign(self, sums, block_size):
        # every ratio t rec of a block with t between its extremes and rec
        # between min rec and max rec lies between the block bounds, which
        # are the extreme corners of that box
        block_size(2)
        run = _Screened(0, 0, 2, np.array([4.0]), np.array([1.0]), 4)
        sums = np.array([sums], np.float32)
        up, down = projections._Screen.widened(run, sums, np.zeros((1, 1)))
        corners = [t * r for t in (sums.min(), sums.max()) for r in (1.0, 4.0)]
        assert (up[0, 0], down[0, 0]) == (max(corners), min(corners))

    def test_screened_blocks_keep_two_reciprocal_bounds(self):
        # a screened block keeps no per-pair array, and no column offset:
        # only the largest and the smallest of its float64 reciprocal
        # lengths, which equal those of the reciprocals the scan recomputes
        scan = ChordScan(gp_curve(2048))
        runs = screened_runs(scan)
        assert scan.screened_blocks == planned_far(2048) == 90  # every far block of a row with at least two
        for run in runs:
            arrays = [a for a in run if isinstance(a, np.ndarray)]
            assert [a.shape for a in arrays] == [(len(run.max_rec),), (len(run.max_rec),)]
            for t in range(len(run.max_rec)):
                rec = 1.0 / screened_lengths(scan, run, t)
                assert (run.max_rec[t], run.min_rec[t]) == (rec.max(), rec.min())
        assert sum(run.pairs for run in runs) == 128 * 128 * scan.screened_blocks  # no dropped pair
        unscreened = [b for b in scan._blocks if not isinstance(b, _Screened)]
        assert scan.cache_bytes == \
            8 * sum(rec.size for _, _, rec, _ in unscreened) + 16 * scan.screened_blocks

    def test_far_blocks_alone_in_their_row_stay_in_float64(self, monkeypatch):
        # 512 points make four block rows, and only row 0 holds a far
        # block, (0, 384): nothing is screened, the cache keeps 8 bytes per
        # entry, and the scan is bit for bit the one that screens nothing
        X, N, M_grid = gp_curve(512), 1000, (4, 6, 10, 16, 25, 40, 63, 100, 158, 200)
        scan = ChordScan(X)
        assert scan.screened_blocks == 0 and planned_far(512) == 0
        assert scan.cache_bytes == 8 * sum(rec.size for _, _, rec, _ in scan._blocks) == 8 * 128 * 128 * 10
        assert [b[:2] for b in scan._blocks if b[1] - b[0] > 256] == [(0, 384)]
        plan = projections._plan
        with monkeypatch.context() as m:
            m.setattr(projections, "_plan", lambda *args: ((i0, j0, j1, False) for i0, j0, j1, _ in plan(*args)))
            unscreened = ChordScan(X)
        for seed in range(2):
            rows = frame_rows(N, X.shape[1], M_grid[-1], seed)
            got = scan.worst(rows, N, M_grid)
            assert got == unscreened.worst(rows, N, M_grid) and {g.recomputed for g in got} == {0}

    def test_lone_far_block_of_a_row_keeps_float64(self):
        # of the 1024-point curve's 15 far blocks, (512, 896) is the only
        # one in its block row: it alone keeps its reciprocal lengths
        scan = ChordScan(gp_curve(1024))
        kept = [b[:2] for b in scan._blocks if not isinstance(b, _Screened) and b[1] - b[0] > 256]
        assert kept == [(512, 896)]
        assert scan.screened_blocks == 14

    @pytest.mark.parametrize("shifted", [False, True], ids=["spread", "conditioning"])
    def test_block_bounds_edge(self, shifted, monkeypatch):
        # the smooth curve around a circle of radius 20, centred: a far
        # block's 1 / da spans 1.2 to over 400 times (the last blocks of
        # the first row hold chords across the circle's start), so block
        # bounds are loose and the pair-by-pair bounds rule out most blocks
        # they leave open; moved from the origin by 10 in every coordinate,
        # float32 rounding of its norms is far above 1e-4 of a block's
        # shortest chord, and the float32 term of the slack is most of the
        # widening.  Either way the block bounds hold the
        # float64 ratios, the float32 error stays within the slack, and the
        # scan is the elementwise one bit for bit
        curve = gp_curve(1024)
        angle = 2.0 * np.pi * np.arange(len(curve)) / len(curve)
        X = np.hstack([20.0 * np.cos(angle)[:, None], 20.0 * np.sin(angle)[:, None], curve])
        X -= X.mean(axis=0)
        N, M_grid, k = 1000, (2, 10, 50), X.shape[1]
        if shifted:
            X += 10.0
        scan = ChordScan(X)
        runs = screened_runs(scan)
        spreads = [hi / lo for r in runs for hi, lo in zip(r.max_rec, r.min_rec)]
        h = scan._ambient[2][1]
        cond = max(2.0**-24 * (h[r.i0 : r.i0 + 128].max() + h[block_slices(r, t)[1]].max())
                   * r.max_rec[t] for r in runs for t in range(len(r.max_rec)))
        assert cond > 1e-4 if shifted else max(spreads) > 400.0
        recomputed, passes = count_recomputed(monkeypatch, scan), count_float64_passes(monkeypatch)
        for seed in range(2):
            rows = frame_rows(N, k, M_grid[-1], seed)
            Y = X @ rows.T
            segs, ops, screen = screen_of(scan, Y, M_grid)
            for run in runs:
                up, down = screen.widened(run, screen.sums(run), screen.slack(run))
                for t, m, r in float64_ratios(scan, segs, ops, run):
                    assert down[m, t] <= r.min() and r.max() <= up[m, t], (seed, run.i0, run.j0, t, m)
            assert screen_error_ratio(scan, Y, N, M_grid) <= 1.0
            recomputed.clear()
            passes.clear()
            got = scan.worst(rows, N, M_grid)
            assert len(passes) < len(recomputed) / 2
            assert [g.max for g in got] == nested_elementwise_worst(X, Y, N, M_grid, 128)
            assert got == streamed_scan(X, Y, N, M_grid)

    def test_recomputed_blocks_scan_only_the_open_M(self, monkeypatch):
        # a screened block that the block bounds cannot rule out at every M
        # is recomputed once, then bounded pair by pair at the M still open;
        # the float64 pass adds up its segments only to the largest M its
        # pairs leave open and takes extremes only at those M.  The results
        # equal the unscreened pass and a pass that scans those blocks at
        # every M
        X, N, M_grid = gp_curve(2048), 1000, experiments._FIG_DEFAULTS["fig6a"]["M_grid"]
        scan = ChordScan(X)
        n_band = sum(not isinstance(b, _Screened) for b in scan._blocks)
        extremes, segments = [], []
        unresolved, extremes_of, block_half_sq = projections._Screen.unresolved, projections._extremes, \
            projections._block_half_sq

        def spy_extremes(*args):
            extremes.append(1)
            return extremes_of(*args)

        def spy_block_half_sq(Z, *args):
            if Z is not scan.points:
                segments.append(1)
            return block_half_sq(Z, *args)

        monkeypatch.setattr(projections, "_extremes", spy_extremes)
        monkeypatch.setattr(projections, "_block_half_sq", spy_block_half_sq)
        recomputed, passes = count_recomputed(monkeypatch, scan), count_float64_passes(monkeypatch)
        every = tuple(range(len(M_grid)))
        skipped, paired = 0, 0
        for seed in range(3):
            rows = frame_rows(N, X.shape[1], M_grid[-1], seed)
            Y = X @ rows.T
            for log in (extremes, segments, recomputed, passes):
                log.clear()
            got = scan.worst(rows, N, M_grid)
            assert recomputed and got[0].recomputed == len(recomputed)
            assert all(o and list(o) == sorted(set(o)) and set(o) <= set(every) for o in passes)
            assert len(extremes) == n_band * len(M_grid) + sum(len(o) for o in passes)
            assert len(segments) == n_band * len(M_grid) + sum(o[-1] + 1 for o in passes)
            skipped += sum(len(M_grid) - len(o) for o in passes)
            paired += len(recomputed) - len(passes)
            assert got == streamed_scan(X, Y, N, M_grid)
            with monkeypatch.context() as m:
                m.setattr(projections._Screen, "unresolved",
                          lambda screen, *args: (b[:4] + (every,) for b in unresolved(screen, *args)))
                assert scan.worst(rows, N, M_grid) == got
        assert skipped > 0 and paired > 0

    def test_screen_skips_most_far_blocks(self, monkeypatch):
        # on a smooth curve the float64 pass runs on fewer than a quarter of
        # the screened blocks per projector, also on the 12-value default
        # fig6a grid, where a block must be ruled out at every M
        X, N = gp_curve(2048), 1000
        scan = ChordScan(X)
        n_screened = scan.screened_blocks
        assert n_screened == planned_far(2048) == 90  # every far block of a row with at least two
        passes = count_float64_passes(monkeypatch)
        for M_grid in ((63, 100), experiments._FIG_DEFAULTS["fig6a"]["M_grid"]):
            for seed in range(4):
                passes.clear()
                scan.worst(frame_rows(N, X.shape[1], M_grid[-1], seed), N, M_grid)
                assert len(passes) < n_screened / 4, (M_grid, seed)


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
        bad = Projector(rows=2.0 * A.rows, M=8, N=40)
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
