"""Acceptance suite: the headline results reproduced at desk scale.

Each test covers one numbered criterion and prints a one-line verdict
(visible with ``pytest -s``).  Tolerances are fixed here, not tuned at run
time; seeds are frozen so the suite is deterministic.

The corresponding full-scale runs (ambient dimension 2e4, 16384-point
curves and 128 x 128 surfaces, every chord scanned) use the same code
paths and are described in the README as reproduction jobs; they do not
gate this suite.
"""

import math
import time

import numpy as np
import pytest

import mfldproj as mp
from mfldproj import derive_seed
from mfldproj.harness import RunConfig, run
from mfldproj.sampling import tangent_frames

LNV1 = math.log(10 * math.sqrt(2) / 3)


def verdict(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def curve_full_scale():
    """The headline random-curve configuration at full scale."""
    spec = mp.ManifoldSpec(K=1, N=1000, ell=1.0, lam=(1.0,), L=(10.0,), grid=(1024,))
    sample = mp.sample_manifold(spec, 2024)
    return spec, sample


def test_criterion_1_constants():
    t0 = time.time()
    c = mp.theory_constants()
    w = mp.lambert_w_minus1(-0.5 * math.exp(-0.5))
    elapsed = time.time() - t0
    ok = (
        abs(c.rho_star - 2.513) <= 1e-3
        and abs(c.C0 - (-0.097651)) <= 1e-6
        and abs(-1 - 2 * w - c.rho_star) < 1e-14
        and elapsed < 1.0
    )
    verdict(
        "criterion 1 (saddle constants)",
        ok,
        f"rho*={c.rho_star:.6f}, C0={c.C0:.8f}, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_2_expected_geometry_full_scale(curve_full_scale):
    spec, sample = curve_full_scale
    t0 = time.time()
    pts = sample.points
    xsq = np.einsum("ij,ij->i", pts, pts)
    chord = xsq[:, None] + xsq[None, :] - 2.0 * (pts @ pts.T)
    sig = sample.sigma_axes[0]
    rho = (sig[:, None] - sig[None, :]) ** 2
    iu, ju = np.triu_indices(spec.n_points, k=1)
    r, c = rho[iu, ju], chord[iu, ju]
    sel = (r > 0) & (r <= 10.0)
    theory = np.array([mp.expected_chord_sq(v, spec.ell) for v in r[sel]])
    frac_chord = float(np.mean(np.abs(c[sel] / theory - 1.0) <= 0.2))

    frames = tangent_frames(sample)
    center = spec.n_points // 2
    tc = frames.derivs[:, 0, :]
    nrm = np.linalg.norm(tc, axis=1)
    cos = tc @ tc[center] / (nrm * nrm[center])
    rho_c = (sig - sig[center]) ** 2
    psel = (rho_c > 0) & (rho_c <= 4.0)
    theo = np.array([mp.expected_tangent_cosine(v) for v in rho_c[psel]])
    frac_cos = float(np.mean(np.abs(cos[psel] - theo) <= 0.1))
    elapsed = time.time() - t0

    ok = frac_chord >= 0.95 and frac_cos >= 0.95
    verdict(
        "criterion 2 (random-curve geometry, N=1000, 1024 pts)",
        ok,
        f"chords within 20%: {frac_chord:.1%} of {int(sel.sum())} pairs; "
        f"tangent cosines within 0.1: {frac_cos:.1%}; {elapsed:.1f} s",
    )


def test_criterion_3_surface_principal_angles():
    t0 = time.time()
    table = mp.figure_data("fig5", seed=2024)  # K=2, N=200, 64x64 grid
    rho = table.columns["rho"]
    sel = (rho <= 4.0) & (rho > 0)
    bins = np.digitize(rho[sel], np.linspace(0.0, 4.0, 9))
    worst = 0.0
    n_bins = 0
    for b in np.unique(bins):
        m = bins == b
        if m.sum() < 5:
            continue
        n_bins += 1
        for which in ("cos1", "cos2"):
            gap = abs(
                table.columns[f"{which}_emp"][sel][m].mean()
                - table.columns[f"{which}_theory"][sel][m].mean()
            )
            worst = max(worst, float(gap))
    elapsed = time.time() - t0
    ok = worst <= 0.15 and n_bins >= 6 and elapsed < 60.0
    verdict(
        "criterion 3 (random-surface principal angles, K=2, N=200)",
        ok,
        f"worst binned mean gap {worst:.3f} over {n_bins} bins (tolerance 0.15); {elapsed:.1f} s",
    )


def test_criterion_4_cone_guarantees():
    t0 = time.time()
    chordal = {
        s: mp.verify_chordal_guarantee(
            N=1000, M=100, sin_theta_c=s, n_boundary=20_000, n_trials=50,
            seed=derive_seed(909, ["chordal", f"{s}"]),
        )
        for s in (0.001, 0.005, 0.01)
    }
    tangential = {
        s: mp.verify_tangential_guarantee(
            N=1000, M=100, K=5, sin_theta_t=s, n_boundary=5_000, n_trials=50,
            seed=derive_seed(909, ["tangential", f"{s}"]),
        )
        for s in (0.0005, 0.002)
    }
    elapsed = time.time() - t0

    viol = {f"C{s}": rep.violation_fraction for s, rep in chordal.items()}
    viol.update({f"T{s}": rep.violation_fraction for s, rep in tangential.items()})
    chordal_margins = [chordal[s].margins.mean() for s in (0.001, 0.005, 0.01)]
    tangential_margins = [tangential[s].margins.mean() for s in (0.0005, 0.002)]
    ok = (
        all(v <= 0.01 for v in viol.values())
        and chordal_margins[0] < chordal_margins[1] < chordal_margins[2]
        and tangential_margins[0] < tangential_margins[1]
    )
    verdict(
        "criterion 4 (cone guarantees, N=1000, M=100)",
        ok,
        f"violations {viol}; chordal margins {[f'{m:.4f}' for m in chordal_margins]}, "
        f"tangential margins {[f'{m:.4f}' for m in tangential_margins]}; {elapsed:.0f} s",
    )


def test_criterion_5_subspace_distortion_typicality():
    t0 = time.time()
    dists = [
        mp.subspace_distortion(
            mp.sample_projector(1000, 160, derive_seed(3030, ["A", i])),
            mp.random_subspace(1000, 10, derive_seed(3030, ["U", i])),
        )
        for i in range(200)
    ]
    med = float(np.median(dists))
    elapsed = time.time() - t0
    target = math.sqrt(10 / 160)
    ok = abs(med - target) <= 0.25 * target and elapsed < 60.0
    verdict(
        "criterion 5 (subspace distortion typicality, K=10, M=160)",
        ok,
        f"median {med:.4f} vs sqrt(K/M)={target:.4f} (+/-25%); {elapsed:.1f} s",
    )


def test_criterion_6_empirical_projection_count():
    t0 = time.time()
    spec = mp.spec_for_volume(1, 1000, LNV1, 512)
    res = mp.m_star_empirical(
        spec,
        eps_target=0.2,
        delta=0.05,
        M_grid=[4, 6, 10, 16, 25, 40, 63, 100, 158, 200],
        n_proj=100,
        seed=20240101,
    )
    bound = mp.m_star_bound(0.2, 0.05, 1, 1000, LNV1)
    scaling_prediction = (1.2 * LNV1 + 2.5) / 0.04  # about 109
    elapsed = time.time() - t0
    ok = 60.0 <= res.m_star_emp <= 160.0 and res.m_star_emp <= bound and elapsed < 600.0
    verdict(
        "criterion 6 (empirical M*, K=1, N=1000, V=10sqrt2/3)",
        ok,
        f"M*_emp={res.m_star_emp:.1f} in [60,160] (scaling law ~{scaling_prediction:.0f}), "
        f"analytic bound {bound}; {elapsed:.0f} s",
    )


def test_criterion_7_theory_curve_ordering():
    t0 = time.time()
    rows = []
    ok = True
    for K in (1, 2, 4, 8):
        lnV = K * LNV1
        m_new = mp.m_star_bound(0.2, 0.05, K, 1000, lnV, rounded=False)
        m_nv = mp.nv_underestimate(0.2, 0.05, K, lnV)
        m_bw = mp.bw_underestimate(0.2, 0.05, K, 1000, lnV)
        ok &= m_new < m_nv < m_bw
        ok &= (m_bw / m_new) > 100.0
        ok &= 3.0 <= (m_nv / m_new) <= 30.0
        rows.append(f"K={K}: bw/new={m_bw / m_new:.0f}, nv/new={m_nv / m_new:.1f}")
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    verdict("criterion 7 (theory-curve ordering at N=1000)", bool(ok), "; ".join(rows))


class TestCriterion8Properties:
    def test_weyl_certification(self):
        t0 = time.time()
        violations = 0
        max_gap_ratio = 0.0
        for t in range(1000):
            A = mp.sample_projector(1000, 50, derive_seed(606, ["A", t]))
            U = mp.random_subspace(1000, 5, derive_seed(606, ["U", t]))
            V = mp.random_subspace(1000, 5, derive_seed(606, ["V", t]))
            try:
                res = mp.weyl_gap(A, U, V)
                if res.bound > 0:
                    max_gap_ratio = max(max_gap_ratio, res.max_gap / res.bound)
            except mp.NumericalBreakdown:
                violations += 1
        elapsed = time.time() - t0
        verdict(
            "criterion 8a (singular-value gap certification)",
            violations == 0,
            f"0 violations required, got {violations} over 1000 triples "
            f"(worst gap/bound {max_gap_ratio:.3f}); {elapsed:.0f} s",
        )

    def test_projector_orthonormality(self):
        worst = 0.0
        for i, (N, M) in enumerate([(1000, 100), (500, 499), (200, 1), (64, 64)]):
            A = mp.sample_projector(N, M, derive_seed(33, [i]))
            worst = max(worst, float(np.linalg.norm(A.rows @ A.rows.T - np.eye(M))))
        verdict(
            "criterion 8b (projector orthonormality)",
            worst < 1e-10,
            f"worst ||AA^T - I||_F = {worst:.2e}",
        )

    def test_self_averaging_bands(self, curve_full_scale):
        # the per-point law holds across realizations; one curve has only
        # about L/lam independent norms, so pool 16 independent curves
        spec, _ = curve_full_scale
        audit = mp.self_averaging_audit(
            mp.sample_manifold(spec, derive_seed(2024, ["8c", r])) for r in range(16)
        )
        ok = (
            0.97 <= audit.mean <= 1.03
            and 0.5 * audit.expected_rel_sd <= audit.rel_sd <= 2.0 * audit.expected_rel_sd
        )
        verdict(
            "criterion 8c (self-averaging audit)",
            ok,
            f"mean |phi|^2 = {audit.mean:.4f}, rel SD {audit.rel_sd:.4f} "
            f"vs sqrt(2/N) = {audit.expected_rel_sd:.4f}",
        )

    def test_determinism_replays(self, tmp_path):
        spec = mp.spec_for_volume(2, 100, 2.0, 12)
        s1 = mp.sample_manifold(spec, 77)
        s2 = mp.sample_manifold(spec, 77)
        sample_ok = s1.points.tobytes() == s2.points.tobytes()
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert run(RunConfig(command="bounds", params={}, master_seed=8, out_dir=str(d))) == 0
        csv_ok = (d1 / "bounds.csv").read_bytes() == (d2 / "bounds.csv").read_bytes()
        verdict(
            "criterion 8d (byte-identical replays)",
            sample_ok and csv_ok,
            f"sampler identical: {sample_ok}; artifact identical: {csv_ok}",
        )

    def test_bound_inversion_consistency(self):
        worst = 0.0
        for eps in (0.1, 0.2, 0.3):
            for delta in (0.01, 0.05):
                for K in (1, 3, 8):
                    for N in (500, 5000):
                        for lnV in (0.5, 4.0, 12.0):
                            m = mp.m_star_bound(eps, delta, K, N, lnV)
                            p = mp.delta_total(eps, m, K, N, lnV).probability
                            worst = max(worst, p / delta)
        verdict(
            "criterion 8e (bound inversion)",
            worst <= 1.0 + 1e-9,
            f"max delta_total(M_bar)/delta = {worst:.12f}",
        )
