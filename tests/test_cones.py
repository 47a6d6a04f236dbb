"""Guarantee functions, boundary samplers and Monte Carlo verifiers."""

import csv
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.stats

from mfldproj import (
    GuaranteeVacuous,
    Projector,
    SubspaceBasis,
    VerificationReport,
    g_chordal,
    g_tangential,
    invert_g_chordal,
    invert_g_tangential,
    principal_angles,
    random_subspace,
    sample_chordal_boundary,
    sample_projector,
    sample_tangential_boundary,
    subspace_distortion,
    verify_chordal_guarantee,
    verify_tangential_guarantee,
)
from mfldproj import cones, projections
from mfldproj.cones import (
    _boundary_worst_candidates,
    _cholesky_solve,
    _chordal_boundary_distortions_reduced,
    _complement_frames,
    _extreme_eigenvalue_bounds,
    _g_tangential_exact_raw,
    _tangential_boundary_grams,
    _tangential_boundary_singular_values,
    _tangential_center,
)
from mfldproj.harness import RunConfig
from mfldproj.harness import run as run_config
from mfldproj.projections import _haar_frame_rows, _strict_lower, _wishart_factor
from mfldproj.seeding import derive_seed

mp.mp.dps = 40

# both reduced verifiers at N = 2000; prints one hash of every report array
REDUCED_CHILD = """
import hashlib, numpy as np, mfldproj as mp
h = hashlib.sha256()
for rep in (mp.verify_chordal_guarantee(2000, 200, 0.005, 500, 10, seed=31),
            mp.verify_tangential_guarantee(2000, 200, 5, 0.002, 200, 10, seed=31)):
    assert rep.params["sampler"] == "reduced"
    h.update(np.concatenate([rep.dist_x, rep.worst_dist_y]).tobytes())
print(h.hexdigest())
"""


class TestGChordal:
    def test_degenerate_cone(self):
        assert g_chordal(0.37, 0.0, 1000, 100) == 0.37

    def test_frozen_value(self):
        got = g_chordal(0.2, 0.01, 1000, 100)
        assert got == pytest.approx(0.2 - math.sqrt(10) * 0.01, rel=1e-14)
        assert got == pytest.approx(0.1683772233983162, rel=1e-12)

    def test_vacuous(self):
        with pytest.raises(GuaranteeVacuous):
            g_chordal(0.1, 0.05, 1000, 100)

    def test_monotonicity(self):
        gs = [g_chordal(0.2, s, 1000, 100) for s in (0.001, 0.01, 0.02)]
        assert np.all(np.diff(gs) < 0)
        ge = [g_chordal(e, 0.01, 1000, 100) for e in (0.15, 0.2, 0.3)]
        assert np.all(np.diff(ge) > 0)

    def test_inversion_roundtrip(self):
        for d in (0.01, 0.1, 0.4):
            eps = invert_g_chordal(d, 0.007, 1000, 100)
            assert eps == pytest.approx(d + math.sqrt(10) * 0.007, rel=1e-14)
            assert g_chordal(eps, 0.007, 1000, 100) == pytest.approx(d, abs=1e-12)


def _g_exact_mp(eps, s, n):
    eps, s, n = mp.mpf(eps), mp.mpf(s), mp.mpf(n)
    gp = mp.sqrt((1 + eps) ** 2 - 2 * s * mp.sqrt(n * (n - (1 + eps) ** 2)) - n * s * s) - 1
    gm = 1 - mp.sqrt((1 - eps) ** 2 + 2 * s * mp.sqrt(n * (n - (1 - eps) ** 2)) - n * s * s)
    return min(gp, gm)


def _g_exact_oracle(eps, s, n):
    return float(_g_exact_mp(eps, s, n))


class TestGTangential:
    def test_degenerate_cone(self):
        assert g_tangential(0.37, 0.0, 1000, 100, mode="approx") == 0.37
        assert g_tangential(0.37, 0.0, 1000, 100, mode="exact") == pytest.approx(0.37, abs=1e-14)

    def test_approx_value(self):
        assert g_tangential(0.2, 0.001, 1000, 100) == pytest.approx(0.19, rel=1e-14)

    def test_exact_frozen(self):
        got = g_tangential(0.2, 1e-5, 100000, 100, mode="exact")
        oracle = _g_exact_oracle("0.2", "1e-5", 1000)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(0.18760016065014378, rel=1e-10)
        # the lower singular-value branch is the active minimum here
        assert got < 0.19164353108961903

    def test_exact_near_approx_in_regime(self):
        # with sin(theta) at the M eps / N scale the two forms agree to a
        # few percent of eps; the approximate form is the M/N -> 0 limit
        for n_over_m in (100, 1000, 10000):
            N, M = 100 * n_over_m, 100
            s = 0.01 * M / N  # (N/M) s = 0.01
            e = g_tangential(0.2, s, N, M, mode="exact")
            a = g_tangential(0.2, s, N, M, mode="approx")
            assert abs(e - a) < 0.02 * 0.2

    def test_vacuous(self):
        with pytest.raises(GuaranteeVacuous):
            g_tangential(0.2, 0.05, 1000, 100, mode="approx")

    def test_exact_domain_requires_headroom(self):
        with pytest.raises(ValueError):
            g_tangential(0.2, 0.001, 100, 80, mode="exact")  # N/M < (1+eps)^2

    def test_exact_sqrt_domain_error(self):
        # wide cone at large N/M: the branch square roots go negative
        with pytest.raises(ValueError):
            g_tangential(0.2, 0.001, 100000, 100, mode="exact")

    def test_monotonicity(self):
        gs = [g_tangential(0.2, s, 1000, 100) for s in (0.0005, 0.002, 0.01)]
        assert np.all(np.diff(gs) < 0)
        ge = [g_tangential(e, 1e-4, 10000, 100, mode="exact") for e in (0.1, 0.2, 0.3)]
        assert np.all(np.diff(ge) > 0)

    def test_invert_approx(self):
        eps = invert_g_tangential(0.05, 0.002, 1000, 100)
        assert eps == pytest.approx(0.05 + 10 * 0.002, rel=1e-14)

    def test_invert_exact_roundtrip(self):
        d = 0.11
        eps = invert_g_tangential(d, 1e-4, 10000, 100, mode="exact")
        assert g_tangential(eps, 1e-4, 10000, 100, mode="exact") == pytest.approx(d, abs=1e-10)

    def test_invert_exact_closed_form_against_mpmath(self):
        # the eps whose exact budget is d, found by an mpmath root search at
        # 40 digits around the closed form; d runs up to 0.8, where the
        # budget falls more than 2 (N/M) sin(theta_T) below eps, and on past
        # 1, which no eps reaches (the lower branch stays below 1)
        rng = np.random.default_rng(17)
        solved = 0
        with mp.workdps(40):
            for _ in range(300):
                M = int(rng.integers(1, 200))
                N = M + int(M * rng.uniform(1.5, 500))
                s, d = 10 ** rng.uniform(-7, -2), rng.uniform(0.001, 1.5)
                try:
                    eps = invert_g_tangential(d, s, N, M, mode="exact")
                except ValueError:
                    continue
                assert d < 1.0
                solved += 1
                oracle = mp.findroot(lambda e: _g_exact_mp(e, s, mp.mpf(N) / M) - mp.mpf(d),
                                     (mp.mpf(eps) - mp.mpf("1e-9"), mp.mpf(eps) + mp.mpf("1e-9")),
                                     solver="anderson")
                assert abs(float(oracle) - eps) <= 1e-12 * eps
                assert _g_tangential_exact_raw(eps, s, N, M) == pytest.approx(d, abs=1e-12)
        assert solved >= 100

    @pytest.mark.parametrize("d, s, N, M", [
        (0.2, 0.001, 100, 80),      # N/M < (1 + d)^2: no eps in the domain reaches d
        (0.05, 0.01, 100000, 100),  # wide cone at large N/M: the lower branch has no root
        (-0.5, 1e-4, 10000, 100),   # the root would be eps <= 0
        (1.2, 1e-4, 10000, 100),    # the lower branch stays below 1
        (1.0, 1e-4, 10000, 100),
    ])
    def test_invert_exact_outside_domain(self, d, s, N, M):
        with pytest.raises(ValueError):
            invert_g_tangential(d, s, N, M, mode="exact")


class TestBoundarySamplers:
    def test_chordal_exact_angle_and_norm(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(300)
        y = sample_chordal_boundary(x, 0.02, 5, size=200)
        xhat = x / np.linalg.norm(x)
        cos = (y @ xhat) / np.linalg.norm(y, axis=1)
        assert np.abs(cos - math.sqrt(1 - 0.02**2)).max() < 1e-10
        assert np.abs(np.linalg.norm(y, axis=1) - np.linalg.norm(x)).max() < 1e-10

    def test_chordal_degenerate(self):
        x = np.arange(1.0, 11.0)
        y = sample_chordal_boundary(x, 0.0, 3)
        assert np.allclose(y, x, atol=1e-12)

    def test_chordal_mean_parallel_to_center(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100)
        sin_t = 0.3
        y = sample_chordal_boundary(x, sin_t, 7, size=10000)
        xhat = x / np.linalg.norm(x)
        perp = y.mean(axis=0) - (y.mean(axis=0) @ xhat) * xhat
        # each orthogonal coordinate of the mean has SE ~ |x| sin_t / sqrt(S N)
        se = np.linalg.norm(x) * sin_t / math.sqrt(10000)
        assert np.abs(perp).max() < 4 * se

    def test_tangential_construction(self):
        U = random_subspace(200, 4, 3)
        V = sample_tangential_boundary(U, 0.05, 9)
        assert np.abs(V.cols.T @ V.cols - np.eye(4)).max() < 1e-10
        cos = principal_angles(U, V).cosines
        assert np.abs(cos - math.sqrt(1 - 0.05**2)).max() < 1e-8

    def test_tangential_degenerate(self):
        U = random_subspace(50, 3, 1)
        V = sample_tangential_boundary(U, 0.0, 2)
        assert np.allclose(principal_angles(U, V).cosines, 1.0, atol=1e-10)

    def test_tangential_needs_room(self):
        U = random_subspace(10, 6, 1)
        with pytest.raises(ValueError):
            sample_tangential_boundary(U, 0.1, 0)


class TestReducedSamplers:
    def test_chordal_reduced_matches_ambient_law(self):
        rng = np.random.default_rng(0)
        N, M, sin_t, S = 400, 40, 0.01, 20000
        x = rng.standard_normal(N)
        A = sample_projector(N, M, 5)
        xhat = x / np.linalg.norm(x)
        y = sample_chordal_boundary(x, sin_t, 123, size=S)
        d_amb = np.abs(
            math.sqrt(N / M) * np.linalg.norm(y @ A.rows.T, axis=1) / np.linalg.norm(y, axis=1)
            - 1.0
        )
        d_red = _chordal_boundary_distortions_reduced(
            A.rows @ xhat, N, M, sin_t, S, np.random.default_rng(99)
        )
        assert scipy.stats.ks_2samp(d_amb, d_red).pvalue > 0.01

    def test_tangential_reduced_matches_ambient_law(self):
        assert tangential_ks_pvalue(300, 30, 4) > 0.01

    def test_tangential_reduced_matches_ambient_law_below_2k(self):
        # M < 2K: W_vis ~ Wishart_K(M - K) is drawn as an explicit Gram
        assert tangential_ks_pvalue(100, 6, 4) > 0.01

    @pytest.mark.parametrize("N", [19, 18, 16])
    def test_tangential_reduced_matches_ambient_law_small_invisible_dof(self, N):
        # N - K - M = 3, 2, 0 < K: W_inv is an explicit (or empty) Gram too,
        # so the verifier keeps the reduced sampler down to N - K - M = 0
        assert tangential_ks_pvalue(N, 12, 4) > 0.01

    @pytest.mark.parametrize("N, M, K", [(15, 12, 4), (16, 14, 4), (20, 17, 4)])
    def test_tangential_reduced_matches_ambient_law_beyond_zero_invisible_dof(self, N, M, K):
        # M + K > N: the row space of A meets U' in j = M + K - N dimensions,
        # so the top j singular values are exactly 1 in both laws; the rest
        # are compared index by index
        j = M + K - N
        reduced, ambient = tangential_singular_values(N, M, K)
        assert np.abs(reduced[:, K - j:] - 1).max() < 1e-12
        assert np.abs(ambient[:, K - j:] - 1).max() < 1e-12
        for i in range(K - j):
            assert scipy.stats.ks_2samp(reduced[:, i], ambient[:, i]).pvalue > 0.01

    @pytest.mark.parametrize("N, M", [(300, 30), (40, 1), (31, 30)])  # r = 0 at M = 1, q = 0 at N = M + 1
    def test_chordal_four_scalars_match_vector_formula(self, N, M):
        rng = np.random.default_rng(4)
        S = 20000
        x = rng.standard_normal(N)
        v = sample_projector(N, M, 6).rows @ (x / np.linalg.norm(x))
        a = rng.standard_normal((S, M))
        s0 = rng.standard_normal(S)
        q = rng.chisquare(N - M - 1, S) if N - M - 1 > 0 else np.zeros(S)
        vhat = v / np.linalg.norm(v)
        alpha = a @ vhat
        rest = a - np.outer(alpha, vhat)
        draws = [alpha] + ([(M - 1, np.einsum("ij,ij->i", rest, rest))] if M > 1 else []) + [s0]
        draws += [(N - M - 1, q)] if N - M - 1 > 0 else []
        c0_sq = float(v @ v)
        w_perp = math.sqrt(1 - c0_sq)
        for sin_t in (0.0, 1e-3, 0.3, 0.999):
            replay = Replay(*draws)
            got = _chordal_boundary_distortions_reduced(v, N, M, sin_t, S, replay)
            assert not replay.draws
            # the M-vector formula: g = a, s0, q with A g_perp = a - t v
            cos_t = math.sqrt(1 - sin_t**2)
            t = a @ v + w_perp * s0
            az = a - np.outer(t, v)
            proj_sq = np.einsum("ij,ij->i", az, az)
            inv_norm = 1 / np.sqrt(proj_sq + (s0 - t * w_perp) ** 2 + q)
            ay_sq = (cos_t**2 * c0_sq + 2 * cos_t * sin_t * (az @ v) * inv_norm
                     + sin_t**2 * proj_sq * inv_norm**2)
            want = np.abs(np.sqrt((N / M) * ay_sq) - 1)
            assert np.abs(got - want).max() < 1e-13

    @pytest.mark.parametrize("N, M, K", [(300, 30, 4), (100, 6, 4)])
    def test_tangential_singular_values_match_frame_formula(self, N, M, K, monkeypatch):
        rng = np.random.default_rng(5)
        S = 200
        au = sample_projector(N, M, 3).rows @ random_subspace(N, K, 2).cols
        P, d, Qt = np.linalg.svd(au, full_matrices=False)
        root = np.eye(M) - P @ np.diag(1 - np.sqrt(1 - d**2)) @ P.T  # (I - AU AU^T)^{1/2}
        H = rng.standard_normal((S, M, K))
        z = P.T @ H
        # Wishart factors X (X^T X = W) as the R of a QR: W_vis = H^T (I - P P^T) H
        # from the part of H off the columns of P, W_inv from its own Gaussian
        perp = np.linalg.svd(P, full_matrices=True)[0][:, K:]
        r_vis = np.linalg.qr(perp.T @ H, mode="r")
        r_inv = np.linalg.qr(rng.standard_normal((S, N - K - M, K)), mode="r")
        w_inv = r_inv.transpose(0, 2, 1) @ r_inv
        factors = {}

        def factor(dof, rng_, out):
            out[...] = factors.pop(dof).transpose(1, 2, 0)

        monkeypatch.setattr(cones, "_wishart_factor", factor)
        for sin_t in (0.0, 1e-3, 0.3, 0.999):
            factors.update({M - K: r_vis, N - K - M: r_inv})
            replay = Replay(z)
            got = _tangential_boundary_singular_values(au, N, M, sin_t, S, replay)
            assert not factors and not replay.draws
            # A V = S H L^{-T} for the frame of (H, W_inv), in the basis Q of A U
            L = np.linalg.cholesky(H.transpose(0, 2, 1) @ H + w_inv)
            av = root @ H @ np.linalg.inv(L).transpose(0, 2, 1) @ Qt
            want = np.linalg.svd(math.sqrt(1 - sin_t**2) * au + sin_t * av, compute_uv=False)
            assert np.abs(got - want[:, ::-1]).max() < 1e-13

    @pytest.mark.parametrize("N, M, K", [
        (1000, 100, 5), (100, 6, 4), (19, 12, 4), (18, 12, 4), (16, 12, 4), (16, 14, 4), (20, 17, 4), (300, 30, 1),
    ])
    def test_grams_match_stacked_oracle(self, N, M, K):
        # M - K < K at (100, 6, 4), N - K - M < K at N = 19, 18, 16 with
        # M = 12, and j = M + K - N > 0 at (16, 14, 4) and (20, 17, 4)
        au = _haar_frame_rows(N, K, M, np.random.default_rng(K))
        for seed, sin_t in enumerate((0.0, 5e-4, 0.3, 0.999)):
            center = _tangential_center(au, N, M, sin_t)
            got = _tangential_boundary_grams(center, N, M, sin_t, 1024, np.random.default_rng(seed))
            want = stacked_boundary_grams(center, N, M, sin_t, 1024, np.random.default_rng(seed))
            got = got.transpose(2, 0, 1)
            assert not np.triu(got, 1).any()
            err = np.abs(got - np.tril(want)).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
            assert err.max() < 1e-14

    @pytest.mark.parametrize("N, M, K", [(300, 30, 4), (16, 12, 4), (300, 30, 1), (30, 30, 1)])
    def test_tangential_center_is_projected_haar_frame(self, N, M, K, monkeypatch):
        # U = H L^{-T} with L L^T = H^T H (the Haar frame of the Gaussian H)
        # and A the first M coordinate rows: A U = H_M L^{-T}; at K = 1 this
        # is the chordal center A xhat = g_M / ||g|| of the chord x = g
        H = np.random.default_rng(8).standard_normal((N, K))
        tail = H[M:]
        monkeypatch.setattr(projections, "_wishart", lambda dof, K_, rng_: tail.T @ tail)
        replay = Replay(H[:M])
        got = _haar_frame_rows(N, K, M, replay)
        assert not replay.draws
        U = np.linalg.solve(np.linalg.cholesky(H.T @ H), H.T).T
        assert np.abs(got - U[:M]).max() < 1e-13
        A = Projector(rows=np.eye(M, N), M=M, N=N)
        s = np.linalg.svd(got, compute_uv=False)
        dist = max(math.sqrt(N / M) * s[0] - 1, 1 - math.sqrt(N / M) * s[-1])
        assert dist == pytest.approx(subspace_distortion(A, SubspaceBasis(cols=U)), abs=1e-13)

    @pytest.mark.parametrize("K", [1, 2, 5])
    def test_cholesky_solve_matches_solve(self, K):
        # [S; R^T] as the verifier lays it out, stack axis last; the upper
        # triangle of S is never read, so it holds noise here
        rng = np.random.default_rng(K)
        z = rng.standard_normal((500, 4 * K, K))
        s = z.transpose(0, 2, 1) @ z
        r = rng.standard_normal((500, K, 2 * K))
        a = np.concatenate([s + np.triu(rng.standard_normal(s.shape), 1), r.transpose(0, 2, 1)], axis=1)
        a = np.ascontiguousarray(a.transpose(1, 2, 0))
        _cholesky_solve(a, K)
        chol = np.linalg.cholesky(s)
        want = np.linalg.solve(chol, r)
        got_l, got_x = np.tril(a[:K].transpose(2, 0, 1)), a[K:].transpose(2, 1, 0)
        assert (np.abs(got_l - chol).max(axis=(1, 2)) / np.abs(chol).max(axis=(1, 2))).max() < 1e-14
        assert (np.abs(got_x - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))).max() < 1e-14

    @pytest.mark.parametrize("dof", [0, 2, 4, 9])
    def test_wishart_mean(self, dof):
        x = np.zeros((min(dof, 4), 4, 20000))
        _wishart_factor(dof, np.random.default_rng(dof), x)
        w = np.einsum("cas,cbs->sab", x, x)
        assert np.all(np.linalg.matrix_rank(w) == min(dof, 4))
        assert np.abs(w.mean(axis=0) - dof * np.eye(4)).max() < 0.15


class TestCertifiedWorst:
    @pytest.mark.parametrize(
        "N, M, K, sin_t, tie",
        [(1000, 100, K, s, False) for K in (1, 2, 5) for s in (0.0, 1e-9, 0.0005, 0.05, 0.5, 0.99)]
        + [(16, 14, 4, 0.0005, False), (20, 17, 4, 0.05, False), (1000, 100, 5, 0.0005, True)],
    )
    def test_chunk_maximum_matches_oracle(self, N, M, K, sin_t, tie, monkeypatch):
        # at sin_t = 1e-9 the bounds are tight to rounding, so eigvalsh
        # lands outside them without the margin; (16, 14, 4) and (20, 17, 4)
        # have M + K > N (j = 2 and 1 singular values of A U exactly 1); tie
        # sets d_1 = d_2 on the side that holds the worst distortion, where
        # Kato-Temple mostly bounds nothing, so many draws go to eigvalsh
        au = _haar_frame_rows(N, K, M, np.random.default_rng(K))
        if tie:
            au = np.eye(M, K) * np.array([0.5, 0.5, 0.4, 0.3, 0.2])
        scale = math.sqrt(N / M)
        center = _tangential_center(au, N, M, sin_t)
        solved = count_eigvalsh(monkeypatch)
        for seed in range(8):
            s = _tangential_boundary_singular_values(au, N, M, sin_t, 1024, np.random.default_rng(seed))
            want = np.maximum(scale * s[:, -1] - 1.0, 1.0 - scale * s[:, 0]).max()
            grams = _tangential_boundary_grams(center, N, M, sin_t, 1024, np.random.default_rng(seed))
            if K > 1:
                max_lo, max_hi, min_lo, min_hi = _extreme_eigenvalue_bounds(grams)
                lam = np.linalg.eigvalsh(grams.transpose(2, 0, 1))
                assert np.all((max_lo <= lam[:, -1]) & (lam[:, -1] <= max_hi))
                assert np.all((min_lo <= lam[:, 0]) & (lam[:, 0] <= min_hi))
            solved[0] = 0
            assert _boundary_worst_candidates(grams, scale).max() == want
            if K == 1:
                assert solved[0] == 0
            if tie:
                assert solved[0] > 100

    @pytest.mark.parametrize("N, M, K, sin_t, mode", [
        (1000, 100, 5, 0.0005, "approx"), (1000, 100, 5, 0.002, "exact"), (300, 30, 1, 0.01, "approx"),
        (16, 14, 4, 0.05, "approx"), (200, 20, 2, 0.5, "approx"),
    ])
    def test_reports_match_plain_eigvalsh(self, N, M, K, sin_t, mode, monkeypatch):
        def run():
            return verify_tangential_guarantee(N, M, K, sin_t, 3000, 4, seed=12, mode=mode)

        def plain(grams, scale):
            s = np.sqrt(np.maximum(np.linalg.eigvalsh(grams.transpose(2, 0, 1)), 0.0))
            return np.maximum(scale * s.max(axis=1) - 1.0, 1.0 - scale * s.min(axis=1))

        certified = run()
        monkeypatch.setattr(cones, "_boundary_worst_candidates", plain)
        oracle = run()
        for field in dataclasses.fields(VerificationReport):
            a, b = getattr(certified, field.name), getattr(oracle, field.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field.name

    def test_eigvalsh_sees_under_one_percent_at_criterion_4(self, monkeypatch):
        solved = count_eigvalsh(monkeypatch)
        for s in (0.0005, 0.002):
            rep = verify_tangential_guarantee(1000, 100, 5, s, 5000, 10, seed=derive_seed(909, ["tangential", f"{s}"]))
            assert rep.violation_fraction == 0.0
        assert 0 < solved[0] < 0.01 * 2 * 10 * 5000


def count_eigvalsh(monkeypatch):
    """Count the matrices ``np.linalg.eigvalsh`` solves from here on, in
    the returned one-element list."""
    solved = [0]
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        solved[0] += len(a) if a.ndim == 3 else 1
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return solved


def stacked_wishart(dof, K, size, rng):
    """(size, K, K) Wishart_K(dof) draws from the draws of ``_wishart_factor``,
    as dense products."""
    if dof < K:
        g = rng.standard_normal((size, dof, K))
        return g.transpose(0, 2, 1) @ g
    bart = np.zeros((size, K, K))
    rows, cols = _strict_lower(K)
    bart[:, rows, cols] = rng.standard_normal((size, rows.size))
    for i in range(K):
        bart[:, i, i] = np.sqrt(rng.chisquare(dof - i, size=size))
    return bart @ bart.transpose(0, 2, 1)


def stacked_boundary_grams(center, N, M, sin_t, size, rng):
    """The (size, K, K) Grams of ``_tangential_boundary_grams`` from the same
    draws, both triangles, formed matrix by matrix: dense Wisharts,
    ``np.linalg.cholesky``, the inverse factor and stacked products."""
    d, e, cd = center
    K = d.size
    j = max(0, M + K - N)
    z = rng.standard_normal((size, K, K))
    zt = z.transpose(0, 2, 1)
    w_vis = stacked_wishart(M - K, K, size, rng)
    w_inv = stacked_wishart(max(0, N - K - M), K, size, rng)
    linv = np.linalg.inv(np.linalg.cholesky(zt[:, :, j:] @ z[:, j:] + w_vis + w_inv))
    bt = sin_t * linv @ (zt * e) + np.diag(cd)  # B^T = c D + s L^{-1} Z^T E
    return bt @ bt.transpose(0, 2, 1) + sin_t**2 * (linv @ w_vis) @ linv.transpose(0, 2, 1)


def tangential_singular_values(N, M, K, sin_t=0.01, S=15000):
    """(S, K) ascending singular values of A U' for one (A, U): from the
    reduced law and from ambient complement frames."""
    U = random_subspace(N, K, 2)
    A = sample_projector(N, M, 3)
    au = A.rows @ U.cols
    reduced = _tangential_boundary_singular_values(au, N, M, sin_t, S, np.random.default_rng(10))
    frames = _complement_frames(U.cols, np.random.default_rng(20), S)
    av = np.einsum("mn,snk->smk", A.rows, frames, optimize=True)
    ambient = np.linalg.svd(math.sqrt(1 - sin_t**2) * au[None] + sin_t * av, compute_uv=False)
    return reduced, ambient[:, ::-1]


def tangential_ks_pvalue(N, M, K):
    """KS p-value between the reduced and ambient worst-direction distortions."""
    scale = math.sqrt(N / M)
    d1, d2 = (np.maximum(scale * s[:, -1] - 1, 1 - scale * s[:, 0]) for s in tangential_singular_values(N, M, K))
    return scipy.stats.ks_2samp(d1, d2).pvalue


class Replay:
    """Generator stand-in that hands out prescribed draws in call order:
    arrays for ``standard_normal``, ``(df, array)`` for ``chisquare``."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def standard_normal(self, shape):
        out = self.draws.pop(0)
        assert out.shape == np.empty(shape).shape
        return out

    def chisquare(self, df, size=None):
        want_df, out = self.draws.pop(0)
        assert df == want_df and np.shape(out) == (() if size is None else (size,))
        return out


class TestVerifiers:
    def test_chordal_degenerate_cone_exact(self):
        rep = verify_chordal_guarantee(200, 20, 0.0, 50, 8, seed=3)
        assert rep.violation_fraction == 0.0
        assert np.abs(rep.worst_dist_y - rep.dist_x).max() < 1e-10

    def test_chordal_no_violations_and_margins_tighten(self):
        reps = {
            s: verify_chordal_guarantee(500, 50, s, 4000, 12, seed=5)
            for s in (0.001, 0.01, 0.05)
        }
        for rep in reps.values():
            assert rep.violation_fraction == 0.0
        means = [reps[s].margins.mean() for s in (0.001, 0.01, 0.05)]
        assert means[0] < means[1] < means[2]

    def test_chordal_samplers_agree(self):
        kw = dict(N=300, M=30, sin_theta_c=0.01, n_boundary=3000, n_trials=12)
        fast = verify_chordal_guarantee(**kw, seed=8, sampler="reduced")
        slow = verify_chordal_guarantee(**kw, seed=8, sampler="ambient")
        assert fast.violation_fraction == slow.violation_fraction == 0.0
        # the samplers draw different central chords, so compare each
        # trial's excess of the worst boundary distortion over the center
        excess = (fast.worst_dist_y - fast.dist_x) - (slow.worst_dist_y - slow.dist_x)
        assert np.abs(excess).max() < 0.05
        assert abs(fast.margins.mean() - slow.margins.mean()) < 0.02

    def test_chordal_vacuous_trials_flagged(self):
        rep = verify_chordal_guarantee(500, 50, 0.05, 500, 10, seed=2)
        assert rep.vacuous.any()
        assert rep.violation_fraction == 0.0

    def test_tangential_degenerate_cone_exact(self):
        rep = verify_tangential_guarantee(100, 20, 3, 0.0, 50, 6, seed=3)
        assert rep.violation_fraction == 0.0
        assert np.abs(rep.worst_dist_y - rep.dist_x).max() < 1e-10

    def test_tangential_no_violations_and_margins_tighten(self):
        reps = {
            s: verify_tangential_guarantee(500, 50, 4, s, 1500, 10, seed=7)
            for s in (0.0005, 0.002, 0.01)
        }
        for rep in reps.values():
            assert rep.violation_fraction == 0.0
        means = [reps[s].margins.mean() for s in (0.0005, 0.002, 0.01)]
        assert means[0] < means[1] < means[2]

    def test_tangential_samplers_agree(self):
        kw = dict(N=300, M=30, K=4, sin_theta_t=0.002, n_boundary=1000, n_trials=8)
        fast = verify_tangential_guarantee(**kw, seed=9, sampler="reduced")
        slow = verify_tangential_guarantee(**kw, seed=9, sampler="ambient")
        assert fast.violation_fraction == slow.violation_fraction == 0.0
        excess = (fast.worst_dist_y - fast.dist_x) - (slow.worst_dist_y - slow.dist_x)
        assert np.abs(excess).max() < 0.05

    @pytest.mark.parametrize("kind", ["chordal", "tangential"])
    def test_reduced_trials_match_ambient_law(self, kind):
        # independent seeds a side; 400 trials of each sampler
        if kind == "chordal":
            run = lambda **kw: verify_chordal_guarantee(300, 30, 0.01, 50, 400, **kw)
        else:
            run = lambda **kw: verify_tangential_guarantee(300, 30, 4, 0.01, 50, 400, **kw)
        fast, slow = run(seed=3), run(seed=4, sampler="ambient")
        assert fast.params["sampler"] == "reduced"
        assert scipy.stats.ks_2samp(fast.dist_x, slow.dist_x).pvalue > 0.01
        assert scipy.stats.ks_2samp(fast.worst_dist_y, slow.worst_dist_y).pvalue > 0.01

    def test_reduced_trials_stay_out_of_ambient_space(self, monkeypatch):
        def ambient(*args, **kwargs):
            raise AssertionError("a reduced trial drew an object in R^N")

        for module, name in ((cones, "sample_projector"), (cones, "random_subspace"),
                             (projections, "_haar_columns")):
            monkeypatch.setattr(module, name, ambient)
        verify_chordal_guarantee(300, 30, 0.01, 100, 3, seed=1)
        verify_chordal_guarantee(30, 30, 0.01, 100, 3, seed=1)
        for N in (300, 16):  # N - K - M = 0 at N = 16
            rep = verify_tangential_guarantee(N, 12, 4, 0.01, 100, 3, seed=1)
            assert rep.params["sampler"] == "reduced"

    @pytest.mark.parametrize("N, M, K", [(15, 12, 4), (16, 14, 4), (20, 17, 4), (16, 16, 4), (8, 8, 4)])
    def test_tangential_stays_reduced_below_zero_invisible_dof(self, N, M, K, monkeypatch):
        def ambient(*args, **kwargs):
            raise AssertionError("a reduced trial drew an object in R^N")

        for module, name in ((cones, "sample_projector"), (cones, "random_subspace"),
                             (projections, "_haar_columns"), (cones, "_complement_frames")):
            monkeypatch.setattr(module, name, ambient)
        rep = verify_tangential_guarantee(N, M, K, 0.01, 100, 3, seed=1)
        assert rep.params["sampler"] == "reduced"
        assert rep.violation_fraction == 0.0

    @pytest.mark.parametrize("N, M, K", [(15, 12, 4), (16, 14, 4), (20, 17, 4)])
    def test_tangential_reduced_trials_match_ambient_law_beyond_zero_invisible_dof(self, N, M, K):
        # worst_dist_y has an atom at sqrt(N/M) - 1 (singular values exactly
        # 1), which rounding noise would split: compare both laws at 1e-9
        run = lambda **kw: verify_tangential_guarantee(N, M, K, 0.01, 50, 400, **kw)
        fast, slow = run(seed=3), run(seed=4, sampler="ambient")
        assert fast.params["sampler"] == "reduced"
        for name in ("dist_x", "worst_dist_y"):
            a, b = (np.round(getattr(rep, name), 9) for rep in (fast, slow))
            assert scipy.stats.ks_2samp(a, b).pvalue > 0.01

    def test_tangential_exact_mode(self):
        N, M, K = 1000, 100, 5
        reps = {s: verify_tangential_guarantee(N, M, K, s, 1000, 10, seed=11, mode="exact")
                for s in (0.0005, 0.002, 0.005)}
        for s, rep in reps.items():
            assert rep.violation_fraction == 0.0
            for t in range(rep.n_trials):
                assert rep.g_value[t] == _g_tangential_exact_raw(rep.worst_dist_y[t], s, N, M)
                assert g_tangential(rep.eps_x[t], s, N, M, mode="exact") == pytest.approx(rep.dist_x[t], abs=1e-10)
        means = [reps[s].margins.mean() for s in (0.0005, 0.002, 0.005)]
        assert means[0] < means[1] < means[2]

    def test_reduced_reports_independent_of_blas_threads(self):
        # each setting acts on a child process only
        src = str(Path(cones.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = subprocess.run(
                [sys.executable, "-c", REDUCED_CHILD],
                env=env, capture_output=True, text=True, check=True, timeout=300,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1

    def test_monotone_guarantee_chain(self):
        # in every non-vacuous trial the two report directions express the
        # same inequality chain: dist_x >= g(worst) iff worst <= eps_x
        rep = verify_chordal_guarantee(400, 40, 0.005, 2000, 15, seed=13)
        ok = ~rep.vacuous
        assert np.all((rep.dist_x[ok] >= rep.g_value[ok] - 1e-12))
        assert np.all(rep.worst_dist_y <= rep.eps_x + 1e-12)

    def test_determinism(self):
        a = verify_chordal_guarantee(200, 20, 0.01, 500, 5, seed=42)
        b = verify_chordal_guarantee(200, 20, 0.01, 500, 5, seed=42)
        assert np.array_equal(a.worst_dist_y, b.worst_dist_y)
        assert np.array_equal(a.dist_x, b.dist_x)

    def test_csv_columns(self, tmp_path):
        params = {"N": 100, "M": 20, "K": 3, "chordal_sin_theta": [], "tangential_sin_theta": [0.01],
                  "n_trials": 4, "tangential_boundary": 100}
        assert run_config(RunConfig(command="verify-cones", params=params, master_seed=1, out_dir=str(tmp_path))) == 0
        rep = verify_tangential_guarantee(100, 20, 3, 0.01, 100, 4, seed=derive_seed(1, ["tangential", "0.01"]))
        with open(tmp_path / "tangential_0.01.csv") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        assert rows[0] == ["trial", "dist_x", "worst_dist_y", "g_value", "eps_x", "violated"]
        assert len(rows) == 5
        assert float(rows[1][1]) == rep.dist_x[0]  # 17 significant digits round-trip

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_chordal_guarantee(100, 10, 1.5, 10, 2, seed=0)
        with pytest.raises(ValueError):
            verify_tangential_guarantee(100, 10, 20, 0.01, 10, 2, seed=0)
        with pytest.raises(ValueError):
            verify_chordal_guarantee(100, 10, 0.01, 10, 2, seed=0, sampler="nope")
