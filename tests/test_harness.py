"""Config validation, seeded runs, artifact determinism, replay, CLI."""

import csv
import json

import numpy as np
import pytest

import mfldproj as mp
from mfldproj.harness import RunConfig, main, run
from mfldproj.projections import _Screened
from mfldproj.seeding import derive_seed


def assert_refused_before_work(tmp_path, capsys, monkeypatch, argv, message):
    """Run the CLI on ``argv`` with sampling, the bounds and the cone
    verifiers patched to fail if called: it must exit with status 1, write
    a ValueError record with ``message`` and leave no manifest."""
    def no_work(*args, **kwargs):
        raise AssertionError("computed before the parameters were checked")

    for module, name in ((mp.sampling, "_latent"), (mp.bounds, "bound_report"),
                         (mp.cones, "verify_chordal_guarantee"), (mp.cones, "verify_tangential_guarantee")):
        monkeypatch.setattr(module, name, no_work)
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert (record["code"], record["message"]) == ("ValueError", message)
    assert not (out / "run_manifest.json").exists()


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(42, ["a", 1]) == derive_seed(42, ["a", 1])

    def test_empty_path_is_master(self):
        assert derive_seed(987654321, []) == 987654321

    def test_label_types_distinguished(self):
        assert derive_seed(1, [1]) != derive_seed(1, ["1"])
        with pytest.raises(TypeError):
            derive_seed(1, [1.5])

    def test_path_order_matters(self):
        assert derive_seed(7, ["a", "b"]) != derive_seed(7, ["b", "a"])

    def test_sibling_collision_monte_carlo(self):
        # one million sibling paths from one master: all tokens distinct
        seen = {derive_seed(123, ["job", i]) for i in range(1_000_000)}
        assert len(seen) == 1_000_000

    def test_64_bit_range(self):
        for i in range(50):
            s = derive_seed(5, ["x", i])
            assert 0 <= s < 2**64


class TestRunConfig:
    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"command": "bounds", "bogus": 1})

    def test_unknown_param_key(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"command": "bounds", "params": {"nope": 2}})

    def test_unknown_command(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"command": "teleport"})

    def test_missing_command(self):
        with pytest.raises(ValueError, match="^config must declare a command$"):
            RunConfig.from_dict({"params": {}})

    def test_non_string_command(self):
        with pytest.raises(ValueError, match=r"^unknown command \['bounds'\]; expected one of "):
            RunConfig.from_dict({"command": ["bounds"]})

    def test_integral_floats_are_integers(self):
        cfg = RunConfig.from_dict({"command": "bounds", "master_seed": 3.0, "threads": 2.0})
        assert (cfg.master_seed, cfg.threads) == (3, 2)
        assert type(cfg.master_seed) is int and type(cfg.threads) is int

    @pytest.mark.parametrize("command, params, missing", [
        ("sample", {"N": 10}, ["K", "L", "grid", "lam"]),
        ("figure", {"params": {}}, ["kind"]),
        ("replay", {}, ["manifest"]),
    ])
    def test_missing_required_keys_named(self, command, params, missing):
        with pytest.raises(ValueError) as exc:
            RunConfig(command=command, params=params)
        assert str(exc.value) == f"missing required parameter keys for {command!r}: {missing}"

    @pytest.mark.parametrize("command, params, message", [
        ("bounds", {"points": 5}, "parameter 'points' must be a list, got 5"),
        ("verify-cones", {"chordal_sin_theta": 0.01}, "parameter 'chordal_sin_theta' must be a list, got 0.01"),
        ("figure", {"kind": "fig4", "params": [1]}, "fig4 'params' must be an object, got [1]"),
    ])
    def test_wrong_containers_named_when_run(self, tmp_path, capsys, command, params, message):
        cfg = RunConfig(command=command, params=params, out_dir=str(tmp_path))
        assert run(cfg) == 1
        record = json.loads(capsys.readouterr().err)
        assert (record["code"], record["message"]) == ("ValueError", message)
        assert not (tmp_path / "run_manifest.json").exists()

    def test_bad_format_or_threads(self):
        with pytest.raises(ValueError):
            RunConfig(command="bounds", params={}, format="xml")
        with pytest.raises(ValueError):
            RunConfig(command="bounds", params={}, threads=0)


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(row for row in fh if not row.startswith("#")))
    return rows[0], rows[1:]


def read_echo(path):
    with open(path) as fh:
        lines = [ln for ln in fh if ln.startswith("#")]
    config = json.loads(lines[0].split("# config: ", 1)[1])
    seed = int(lines[1].split("# master_seed: ", 1)[1])
    return config, seed


LNV = mp.experiments.LNV_PER_K_DEFAULT
MSTAR_SMALL = {"K": 1, "N": 150, "lnV": 1.0, "grid_per_axis": 48, "eps_target": 0.45, "delta": 0.1,
               "M_grid": [6, 12, 24, 48], "n_proj": 20}
SAMPLE_ARGS = ["--param", "K=1", "--param", "N=100", "--param", "lam=[1.0]", "--param", "L=[10.0]",
               "--param", "grid=[16]"]
CONES_SMALL = {"N": 120, "M": 12, "K": 3, "chordal_sin_theta": [0.01], "tangential_sin_theta": [0.01],
               "n_trials": 4, "chordal_boundary": 200, "tangential_boundary": 100}


class TestManifest:
    @pytest.mark.parametrize("command, params", [("bounds", {}), ("mstar", MSTAR_SMALL), ("verify-cones", CONES_SMALL)])
    def test_reruns_differ_only_in_wall_time(self, tmp_path, command, params):
        # the benchmark hashes the manifest without its wall time, so any
        # other field that varies between runs would fail every rerun
        cfg = RunConfig(command=command, params=params, master_seed=4, out_dir=str(tmp_path))
        manifests = []
        for _ in range(2):
            assert run(cfg) == 0
            manifest = json.loads((tmp_path / "run_manifest.json").read_text())
            assert manifest.pop("wall_time_s") > 0.0
            manifests.append(manifest)
        assert manifests[0] == manifests[1]
        if command == "mstar":  # the work counts of the chord scan are deterministic too
            assert {"float64_recomputes", "pairs_scanned"} <= set(manifests[0]["diagnostics"])

    def test_mstar_reports_its_chord_cache(self, tmp_path, monkeypatch):
        # an mstar manifest records the bytes of the chord scan's cached
        # arrays, how many of its blocks the float32 screen takes, how many
        # screened blocks the float64 pass recomputed over all projectors
        # (counted here as calls that recompute lengths from the points
        # after the scan is built) and the chords each projector scans
        scans, recomputed = [], []
        latent_scan, block_half_sq = mp.experiments._latent_scan, mp.projections._block_half_sq

        def capture(*args):
            scans.append(latent_scan(*args))
            return scans[-1]

        def spy(Z, *args):
            if scans and Z is scans[0].points:
                recomputed.append(1)
            return block_half_sq(Z, *args)

        monkeypatch.setattr(mp.experiments, "_latent_scan", capture)
        monkeypatch.setattr(mp.projections, "_block_half_sq", spy)
        params = dict(MSTAR_SMALL, grid_per_axis=1024)
        cfg = RunConfig(command="mstar", params=params, master_seed=4, out_dir=str(tmp_path))
        assert run(cfg) == 0
        diagnostics = json.loads((tmp_path / "run_manifest.json").read_text())["diagnostics"]
        (scan,) = scans
        screened = [b for b in scan._blocks if isinstance(b, _Screened)]
        others = [b for b in scan._blocks if not isinstance(b, _Screened)]
        cached = [a for r in screened for a in (r.bounds, r.max_rec, r.min_rec)]
        cached += [rec for _, _, rec, _ in others]
        assert sum(a.nbytes for a in cached) == sum(mp.projections._plan_bytes(1024, 128))
        assert diagnostics == {"chord_cache_bytes": sum(a.nbytes for a in cached),
                               "screened_blocks": 8 * 9 // 2 - len(others),
                               "float64_recomputes": len(recomputed),
                               "pairs_scanned": 1024 * 1023 // 2}
        assert diagnostics["screened_blocks"] > 0 and diagnostics["float64_recomputes"] > 0


class TestRunBounds:
    @pytest.mark.parametrize("command, params, key, value, table", [
        ("bounds", {}, "points", [{"K": K, "N": 1000, "lnV": LNV * K} for K in (1, 2, 4, 8)], "bounds.csv"),
        ("mstar", MSTAR_SMALL, "lnV", LNV, "mstar.csv"),
    ])
    def test_explicit_null_is_the_documented_value(self, tmp_path, command, params, key, value, table):
        tables = []
        for name, given in (("null", None), ("value", value)):
            cfg = RunConfig(command=command, params=dict(params, **{key: given}), out_dir=str(tmp_path / name))
            assert run(cfg) == 0
            tables.append(read_csv(tmp_path / name / table))
        assert tables[0] == tables[1]

    def test_matches_theory_and_manifest(self, tmp_path):
        cfg = RunConfig(command="bounds", params={}, master_seed=1, out_dir=str(tmp_path))
        assert run(cfg) == 0
        header, rows = read_csv(tmp_path / "bounds.csv")
        col = {name: i for i, name in enumerate(header)}
        for row in rows:
            K = int(float(row[col["K"]]))
            N = int(float(row[col["N"]]))
            lnV = float(row[col["lnV"]])
            expected = mp.m_star_bound(0.2, 0.05, K, N, lnV)
            assert abs(float(row[col["m_star_new"]]) - expected) <= 1e-9 * expected
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["config"]["command"] == "bounds"
        assert manifest["master_seed"] == 1
        assert "bounds.csv" in manifest["artifacts"]

    def test_artifacts_embed_config_echo(self, tmp_path):
        cfg = RunConfig(command="bounds", params={}, master_seed=21, out_dir=str(tmp_path))
        assert run(cfg) == 0
        echo, seed = read_echo(tmp_path / "bounds.csv")
        assert echo["command"] == "bounds"
        assert seed == 21

    def test_byte_identical_reruns(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            cfg = RunConfig(command="bounds", params={}, master_seed=3, out_dir=str(d))
            assert run(cfg) == 0
        assert (d1 / "bounds.csv").read_bytes() == (d2 / "bounds.csv").read_bytes()

    def test_explicit_points(self, tmp_path):
        points = [{"K": 2, "N": 500, "lnV": 3.0, "M": 400}]
        cfg = RunConfig(command="bounds", params={"points": points}, out_dir=str(tmp_path))
        assert run(cfg) == 0
        header, rows = read_csv(tmp_path / "bounds.csv")
        assert len(rows) == 1
        assert float(rows[0][header.index("M_eval")]) == 400

    @pytest.mark.parametrize("points, message", [
        ([{"K": 1, "N": 10, "lnV": 1.0}, {"N": 10, "lnV": 1.0}],
         "bounds points[1] = {'N': 10, 'lnV': 1.0} is missing keys ['K']"),
        ([{"K": 2}], "bounds points[0] = {'K': 2} is missing keys ['N', 'lnV']"),
        ([[2, 10, 1.0]], "bounds points[0] = [2, 10, 1.0] is missing keys ['K', 'N', 'lnV']"),
    ])
    def test_points_missing_keys_named(self, tmp_path, capsys, points, message):
        # every entry is checked before any bound is computed, and the
        # error names the entry and its missing keys
        cfg = RunConfig(command="bounds", params={"points": points}, out_dir=str(tmp_path))
        assert run(cfg) == 1
        record = json.loads(capsys.readouterr().err)
        assert (record["code"], record["message"]) == ("ValueError", message)
        assert not (tmp_path / "bounds.csv").exists()

    def test_empty_points_write_the_header(self, tmp_path):
        cfg = RunConfig(command="bounds", params={"points": []}, out_dir=str(tmp_path))
        assert run(cfg) == 0
        header, rows = read_csv(tmp_path / "bounds.csv")
        assert header[:5] == ["eps", "delta", "K", "N", "lnV"] and len(header) == 26 and rows == []


class TestRunFigure:
    def test_fig4_roundtrip_numbers(self, tmp_path):
        cfg = RunConfig(
            command="figure",
            params={"kind": "fig4", "params": {"N": 50, "n_grid": 32}},
            master_seed=7,
            out_dir=str(tmp_path),
        )
        assert run(cfg) == 0
        header, rows = read_csv(tmp_path / "fig4.csv")
        table = mp.figure_data("fig4", {"N": 50, "n_grid": 32}, seed=7)
        # 17-significant-digit formatting round-trips float64 exactly
        got = np.array([float(r[header.index("rho")]) for r in rows])
        assert np.array_equal(got, table.columns["rho"])

    def test_json_format(self, tmp_path):
        cfg = RunConfig(
            command="figure",
            params={"kind": "fig4", "params": {"N": 40, "n_grid": 16}},
            master_seed=2,
            out_dir=str(tmp_path),
            format="json",
        )
        assert run(cfg) == 0
        payload = json.loads((tmp_path / "fig4.json").read_text())
        assert "chord_sq_emp" in payload

    def test_fig6b_threads_reach_m_star_and_keep_table(self, tmp_path, monkeypatch):
        # the run's thread count goes to every M* point, and the table is
        # byte-identical at 1 and 2 threads
        seen = []
        m_star = mp.experiments.m_star_empirical

        def spy(*args, threads=1, **kwargs):
            seen.append(threads)
            return m_star(*args, threads=threads, **kwargs)

        monkeypatch.setattr(mp.experiments, "m_star_empirical", spy)
        params = {"N_values": [150, 250], "M_grid": [8, 16, 32, 64, 128], "n_proj": 20,
                  "grid_per_axis": {"1": 64}}
        tables = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            cfg = RunConfig(command="figure", params={"kind": "fig6b", "params": params},
                            master_seed=3, out_dir=str(out), threads=threads)
            assert run(cfg) == 0
            tables.append((out / "fig6b.csv").read_bytes())
        assert seen == [1, 1, 2, 2]
        assert tables[0] == tables[1]

    def test_unknown_kind_fails_cleanly(self, tmp_path, capsys):
        cfg = RunConfig(command="figure", params={"kind": "fig9"}, out_dir=str(tmp_path))
        assert run(cfg) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "ValueError"
        assert not (tmp_path / "run_manifest.json").exists()


class TestRunSampleAndMstar:
    def test_sample_artifacts(self, tmp_path):
        cfg = RunConfig(
            command="sample",
            params={"K": 1, "N": 30, "ell": 1.0, "lam": [1.0], "L": [4.0], "grid": [16]},
            master_seed=11,
            out_dir=str(tmp_path),
        )
        assert run(cfg) == 0
        loaded = mp.load_sample(tmp_path / "sample.bin")
        direct = mp.sample_manifold(
            mp.ManifoldSpec(K=1, N=30, ell=1.0, lam=(1.0,), L=(4.0,), grid=(16,)), 11
        )
        assert loaded.points.tobytes() == direct.points.tobytes()

    def test_mstar_artifacts(self, tmp_path):
        cfg = RunConfig(
            command="mstar",
            params={
                "K": 1,
                "N": 150,
                "lnV": 1.0,
                "grid_per_axis": 48,
                "eps_target": 0.45,
                "delta": 0.1,
                "M_grid": [6, 12, 24, 48],
                "n_proj": 20,
            },
            master_seed=31,
            out_dir=str(tmp_path),
            threads=2,
        )
        assert run(cfg) == 0
        header, rows = read_csv(tmp_path / "mstar.csv")
        res = mp.m_star_empirical(
            mp.spec_for_volume(1, 150, 1.0, 48), 0.45, 0.1, [6, 12, 24, 48], 20, 31
        )
        assert float(rows[0][header.index("m_star_emp")]) == res.m_star_emp

    def test_oversized_scan_refused_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_sample(*args, **kwargs):
            raise AssertionError("a manifold was sampled before the scan size was checked")

        monkeypatch.setattr(mp.experiments, "isometric_coordinates", no_sample)
        cfg = RunConfig(command="mstar", params={"grid_per_axis": 1 << 20}, out_dir=str(tmp_path))
        assert run(cfg) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "ValueError"
        assert "1048576 points" in err["message"] and "2147483648 bytes" in err["message"]
        assert not (tmp_path / "run_manifest.json").exists()

    def test_cache_over_the_limit_refused_before_sampling(self, tmp_path, capsys, monkeypatch):
        # the limit counts the plan of the 1024-point curve's cache, three
        # arrays of its coordinates and the scan workspaces of the two
        # threads of --threads 2: one byte less is refused before any point
        # is sampled, with the JSON error record and no manifest
        spec = mp.spec_for_volume(1, 1000, mp.experiments.LNV_PER_K_DEFAULT, 1024)
        held = 3 * 8 * 1024 * mp.sampling.coordinate_count(spec) + \
            2 * mp.projections._workspace_bytes(1024, mp.experiments.MSTAR_DEFAULTS["M_grid"])
        limit = sum(mp.projections._plan_bytes(1024, 128)) + held - 1
        monkeypatch.setattr(mp.projections, "_CACHE_LIMIT", limit)
        assert_refused_before_work(
            tmp_path, capsys, monkeypatch,
            ["mstar", "--param", "grid_per_axis=1024", "--param", "n_proj=20", "--threads", "2"],
            f"a chord scan of 1024 points would cache more than {limit} bytes ({limit / 2**30:g} GiB), "
            f"counting {held} bytes of their coordinates and scan workspaces")

    def test_surface_too_large_to_sample_refused_before_sampling(self, tmp_path, capsys, monkeypatch):
        # a 700 x 700 surface plans a cache within 2 GiB, but its 1000
        # coordinates per point take 3.9 GB per array, and one thread's
        # scan workspace at the default grid 1.4 GB
        assert mp.sampling.coordinate_count(mp.spec_for_volume(2, 1000, 2 * mp.experiments.LNV_PER_K_DEFAULT, 700)) \
            == 1000
        mp.projections._check_cache_size(700 * 700)
        assert_refused_before_work(
            tmp_path, capsys, monkeypatch, ["mstar", "--param", "K=2", "--param", "grid_per_axis=700"],
            "a chord scan of 490000 points would cache more than 2147483648 bytes (2 GiB), "
            "counting 13176442880 bytes of their coordinates and scan workspaces")

    def test_mstar_k2_defaults_use_a_32_by_32_surface(self, tmp_path, monkeypatch):
        # the K = 2 grid default is the fig6 one, not the K = 1 count per
        # axis: 512^2 points would make a 262144-point surface
        specs = []
        m_star = mp.experiments.m_star_empirical

        def spy(spec, *args, **kwargs):
            specs.append(spec)
            return m_star(spec, *args, **kwargs)

        monkeypatch.setattr(mp.experiments, "m_star_empirical", spy)
        cfg = RunConfig(command="mstar", params={"K": 2, "n_proj": 20}, master_seed=1, out_dir=str(tmp_path))
        assert run(cfg) == 0
        assert [s.grid for s in specs] == [(32, 32)]
        header, rows = read_csv(tmp_path / "mstar.csv")
        assert int(rows[0][header.index("K")]) == 2
        assert float(rows[0][header.index("lnV")]) == 2 * mp.experiments.LNV_PER_K_DEFAULT

    def test_mstar_grid_per_axis_map_with_string_keys(self, tmp_path, capsys):
        # the per-K object that fig6 accepts, keyed by strings as in JSON
        tables = []
        for grid in (48, {"1": 48, "2": 8}):
            out = tmp_path / str(len(tables))
            cfg = RunConfig(command="mstar", params=dict(MSTAR_SMALL, grid_per_axis=grid), master_seed=4,
                            out_dir=str(out))
            assert run(cfg) == 0
            tables.append(read_csv(out / "mstar.csv"))
        assert tables[0] == tables[1]
        cfg = RunConfig(command="mstar", params=dict(MSTAR_SMALL, K=3, grid_per_axis={"1": 48}),
                        out_dir=str(tmp_path / "k3"))
        assert run(cfg) == 1
        assert "no entry for K=3" in json.loads(capsys.readouterr().err)["message"]

    def test_mstar_m_grid_above_n_refused(self, tmp_path, capsys):
        cfg = RunConfig(command="mstar", params=dict(MSTAR_SMALL, M_grid=[6, 151]), out_dir=str(tmp_path))
        assert run(cfg) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "ValueError" and "M <= N" in err["message"]


class TestRunVerifyCones:
    def test_small_run_and_threads_invariance(self, tmp_path):
        params = {
            "N": 120,
            "M": 12,
            "K": 3,
            "chordal_sin_theta": [0.01],
            "tangential_sin_theta": [0.01],
            "n_trials": 4,
            "chordal_boundary": 200,
            "tangential_boundary": 100,
        }
        d1, d2 = tmp_path / "t1", tmp_path / "t2"
        cfg1 = RunConfig(command="verify-cones", params=params, master_seed=5, out_dir=str(d1))
        cfg2 = RunConfig(
            command="verify-cones", params=params, master_seed=5, out_dir=str(d2), threads=4
        )
        assert run(cfg1) == 0 and run(cfg2) == 0
        for name in ("chordal_0.01.csv", "tangential_0.01.csv", "cone_summary.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


    def test_inputs_checked_before_any_job(self, tmp_path, capsys, monkeypatch):
        # K = 200 > M = 100 fails the tangential jobs; the chordal jobs
        # queued before them must not run first
        def no_job(*args, **kwargs):
            raise AssertionError("a verification ran before all inputs were checked")

        monkeypatch.setattr(mp.cones, "verify_chordal_guarantee", no_job)
        rc = main(["verify-cones", "--out-dir", str(tmp_path), "--param", "K=200"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "ValueError"
        assert "K <= M <= N" in err["message"]
        assert not (tmp_path / "run_manifest.json").exists()


class TestReplay:
    def test_replay_matches(self, tmp_path):
        src = tmp_path / "orig"
        cfg = RunConfig(command="bounds", params={}, master_seed=9, out_dir=str(src))
        assert run(cfg) == 0
        rep_dir = tmp_path / "check"
        rep = RunConfig(
            command="replay",
            params={"manifest": str(src / "run_manifest.json")},
            out_dir=str(rep_dir),
        )
        assert run(rep) == 0
        header, rows = read_csv(rep_dir / "replay_diff.csv")
        assert all(r[1] == "1" for r in rows)

    def test_replay_matches_json_format(self, tmp_path):
        src = tmp_path / "orig"
        cfg = RunConfig(
            command="figure",
            params={"kind": "fig4", "params": {"N": 40, "n_grid": 16}},
            master_seed=2,
            out_dir=str(src),
            format="json",
        )
        assert run(cfg) == 0
        payload = json.loads((src / "fig4.json").read_text())
        assert payload["config"] == {"command": "figure", "params": cfg.params, "format": "json"}
        rep = RunConfig(
            command="replay",
            params={"manifest": str(src / "run_manifest.json")},
            out_dir=str(tmp_path / "check"),
        )
        assert run(rep) == 0

    @pytest.mark.parametrize("command, params, tables", [
        ("verify-cones",
         {"N": 120, "M": 12, "K": 3, "chordal_sin_theta": [0.01], "tangential_sin_theta": [0.01],
          "n_trials": 4, "chordal_boundary": 200, "tangential_boundary": 100},
         ["chordal_0.01", "cone_summary", "tangential_0.01"]),
        ("mstar",
         {"K": 1, "N": 150, "lnV": 1.0, "grid_per_axis": 48, "eps_target": 0.45, "delta": 0.1,
          "M_grid": [6, 12, 24, 48], "n_proj": 20},
         ["mstar", "mstar_curve"]),
    ])
    def test_replay_matches_json_tables(self, tmp_path, command, params, tables):
        src = tmp_path / "orig"
        cfg = RunConfig(command=command, params=params, master_seed=4, out_dir=str(src), format="json")
        assert run(cfg) == 0
        manifest = json.loads((src / "run_manifest.json").read_text())
        assert manifest["artifacts"] == [t + ".json" for t in tables]
        assert not list(src.glob("*.csv"))
        for name in manifest["artifacts"]:
            payload = json.loads((src / name).read_text())
            assert payload["config"] == {"command": command, "params": params, "format": "json"}
        rep = RunConfig(command="replay", params={"manifest": str(src / "run_manifest.json")},
                        out_dir=str(tmp_path / "check"), format="json")
        assert run(rep) == 0
        diff = json.loads((tmp_path / "check" / "replay_diff.json").read_text())
        assert diff["artifact"] == manifest["artifacts"] and diff["identical"] == [1] * len(tables)

    def test_replay_detects_tampering(self, tmp_path):
        src = tmp_path / "orig"
        cfg = RunConfig(command="bounds", params={}, master_seed=9, out_dir=str(src))
        assert run(cfg) == 0
        data = (src / "bounds.csv").read_text().replace("0", "1", 1)
        (src / "bounds.csv").write_text(data)
        rep = RunConfig(
            command="replay",
            params={"manifest": str(src / "run_manifest.json")},
            out_dir=str(tmp_path / "check"),
        )
        assert run(rep) == 1

    def test_replay_of_failing_run_reports_its_error_once(self, tmp_path, capsys):
        # a manifest whose config cannot reach its target: the replay's
        # single error record is the re-run's own
        manifest = tmp_path / "run_manifest.json"
        config = {"command": "mstar", "params": dict(MSTAR_SMALL, eps_target=1e-3), "master_seed": 4}
        manifest.write_text(json.dumps({"config": config, "artifacts": ["mstar.csv", "mstar_curve.csv"]}))
        rep = RunConfig(command="replay", params={"manifest": str(manifest)}, out_dir=str(tmp_path / "check"))
        assert run(rep) == 1
        records = capsys.readouterr().err.strip().splitlines()
        assert len(records) == 1
        record = json.loads(records[0])
        assert record["code"] == "Unachievable" and "exceeds target 0.001" in record["message"]
        assert not (tmp_path / "check" / "run_manifest.json").exists()

    def test_replay_of_manifest_with_non_string_command(self, tmp_path, capsys):
        src = tmp_path / "orig"
        assert run(RunConfig(command="bounds", params={}, out_dir=str(src))) == 0
        manifest = json.loads((src / "run_manifest.json").read_text())
        manifest["config"]["command"] = ["bounds"]
        (src / "run_manifest.json").write_text(json.dumps(manifest))
        rep = RunConfig(command="replay", params={"manifest": str(src / "run_manifest.json")},
                        out_dir=str(tmp_path / "check"))
        assert run(rep) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["code"] == "ValueError" and record["message"].startswith("unknown command ['bounds']; ")
        assert not (tmp_path / "check" / "run_manifest.json").exists()


class TestCLI:
    def test_bounds_cli(self, tmp_path):
        rc = main(["bounds", "--out-dir", str(tmp_path), "--seed", "4"])
        assert rc == 0
        assert (tmp_path / "bounds.csv").exists()

    def test_param_override(self, tmp_path):
        rc = main(
            [
                "figure",
                "--out-dir",
                str(tmp_path),
                "--seed",
                "3",
                "--param",
                "kind=fig4",
                "--param",
                'params={"N": 40, "n_grid": 16}',
            ]
        )
        assert rc == 0
        assert (tmp_path / "fig4.csv").exists()

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "command": "figure",
                    "params": {"kind": "fig4", "params": {"N": 40, "n_grid": 16}},
                    "master_seed": 1,
                    "out_dir": str(tmp_path / "wrong"),
                }
            )
        )
        out = tmp_path / "right"
        rc = main(["figure", "--config", str(cfg_path), "--out-dir", str(out)])
        assert rc == 0
        assert (out / "fig4.csv").exists()
        assert not (tmp_path / "wrong").exists()

    def test_file_leaves_a_required_key_to_a_flag(self, tmp_path):
        # the file, the flags and the defaults are merged before the one
        # validation; a --param wins over the file, and the manifest keeps
        # the merged params as given, without the defaults (ell)
        cfg_path = tmp_path / "base.json"
        cfg_path.write_text(json.dumps({"command": "sample",
                                        "params": {"N": 100, "lam": [1.0], "L": [10.0], "grid": [64]}}))
        out = tmp_path / "out"
        rc = main(["sample", "--config", str(cfg_path), "--param", "K=1", "--param", "N=50", "--out-dir", str(out)])
        assert rc == 0 and (out / "sample.bin").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["params"] == {"K": 1, "N": 50, "lam": [1.0], "L": [10.0], "grid": [64]}
        assert mp.load_sample(out / "sample.bin").spec.N == 50

    def test_file_without_command_runs_the_cli_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": {"eps": 0.3}, "master_seed": 6}))
        assert main(["bounds", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "bounds.csv")
        assert {float(row[header.index("eps")]) for row in rows} == {0.3}
        assert read_echo(tmp_path / "bounds.csv") == ({"command": "bounds", "params": {"eps": 0.3},
                                                      "format": "csv"}, 6)

    def test_file_params_checked_against_the_cli_command(self, tmp_path, capsys):
        # the file's own command does not choose the parameter table
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"command": "mstar", "params": {"eps": 0.3}}))
        assert main(["bounds", "--config", str(cfg_path), "--out-dir", str(tmp_path / "bounds")]) == 0
        cfg_path.write_text(json.dumps({"command": "bounds", "params": {"eps": 0.3}}))
        out = tmp_path / "mstar"
        assert main(["mstar", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"].startswith("unknown parameter keys for 'mstar': ['eps']; allowed: ")
        assert not out.exists()

    @pytest.mark.parametrize("raw, message", [
        ({"command": "bounds", "params": [1, 2]}, "'params' must be an object, got [1, 2]"),
        ({"command": "bounds", "params": None}, "'params' must be an object, got None"),
        ({"command": "bounds", "threads": [2]}, "config key 'threads' must be int, got [2]"),
        ({"command": "bounds", "master_seed": "one"}, "config key 'master_seed' must be int, got 'one'"),
        ([1], "'config' must be an object, got [1]"),
        ({"command": "bounds", "master_seed": 3.9}, "config key 'master_seed' must be int, got 3.9"),
        ({"command": "bounds", "threads": 2.5}, "config key 'threads' must be int, got 2.5"),
        ({"command": "bounds", "master_seed": True}, "config key 'master_seed' must be int, got True"),
    ])
    def test_wrong_typed_file_values_exit_code(self, tmp_path, capsys, raw, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(cfg_path), "--param", "eps=0.3", "--out-dir", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {"code": "ValueError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["sample", *SAMPLE_ARGS, "--param", "K=1.7"], "parameter 'K' must be int, got 1.7"),
        (["sample", *SAMPLE_ARGS, "--param", "grid=[16.9]"], "parameter 'grid' entry must be int, got 16.9"),
        (["sample", *SAMPLE_ARGS, "--param", "N=100.5"], "parameter 'N' must be int, got 100.5"),
        (["verify-cones", "--param", "n_trials=2.5"], "parameter 'n_trials' must be int, got 2.5"),
        (["verify-cones", "--param", "tangential_boundary=100.5"],
         "parameter 'tangential_boundary' must be int, got 100.5"),
        (["bounds", "--param", 'points=[{"K": 1, "N": 1000, "lnV": 1}, {"K": 2, "N": 1000, "lnV": 2, "M": 80.5}]'],
         "bounds points[1] 'M' must be int, got 80.5"),
        (["bounds", "--param", 'points=[{"K": 1.5, "N": 1000, "lnV": 1}]'], "bounds points[0] 'K' must be int, got 1.5"),
        (["mstar", "--param", "K=true"], "parameter 'K' must be int, got True"),
        (["mstar", "--param", "N=1000.5"], "parameter 'N' must be int, got 1000.5"),
        (["mstar", "--param", "n_proj=20.5"], "parameter 'n_proj' must be int, got 20.5"),
        (["mstar", "--param", "M_grid=[4, 6.5]"], "parameter 'M_grid' entry must be int, got 6.5"),
        (["mstar", "--param", "grid_per_axis=64.5"], "parameter 'grid_per_axis' must be int, got 64.5"),
        (["mstar", "--param", 'grid_per_axis={"1": 64.5}'], "parameter 'grid_per_axis' must be int, got 64.5"),
        (["figure", "--param", "kind=fig4", "--param", 'params={"n_grid": 16.5}'],
         "fig4 parameter 'n_grid' entry must be int, got 16.5"),
        (["figure", "--param", "kind=fig5", "--param", 'params={"N": "200"}'],
         "fig5 parameter 'N' must be int, got '200'"),
        (["figure", "--param", "kind=fig6a", "--param", 'params={"K_values": [1.5]}'],
         "fig6a parameter 'K_values' entry must be int, got 1.5"),
        (["figure", "--param", "kind=fig6a", "--param", 'params={"M_grid": [4, 6.5]}'],
         "fig6a parameter 'M_grid' entry must be int, got 6.5"),
        (["figure", "--param", "kind=fig6b", "--param", 'params={"N_values": [200, 500.5]}'],
         "fig6b parameter 'N_values' entry must be int, got 500.5"),
        (["figure", "--param", "kind=fig6b", "--param", 'params={"n_proj": 20.5}'],
         "fig6b point K=1, lnV=1.55055, N=200: parameter 'n_proj' must be int, got 20.5"),
        (["mstar", "--param", 'grid_per_axis={"1.5": 64}'], "parameter 'grid_per_axis' key '1.5' is not an integer K"),
    ])
    def test_non_integral_parameters_exit_1(self, tmp_path, capsys, monkeypatch, argv, message):
        # refused with a record that names the key, before anything is
        # sampled, drawn or computed
        assert_refused_before_work(tmp_path, capsys, monkeypatch, argv, message)

    @pytest.mark.parametrize("argv, message", [
        (["mstar", "--param", "M_grid=5"], "parameter 'M_grid' must be a list, got 5"),
        (["figure", "--param", "kind=fig6a", "--param", 'params={"K_values": 1}'],
         "fig6a parameter 'K_values' must be a list, got 1"),
        (["figure", "--param", "kind=fig6b", "--param", 'params={"N_values": 200}'],
         "fig6b parameter 'N_values' must be a list, got 200"),
        (["figure", "--param", "kind=fig6a", "--param", 'params={"M_grid": 100}'],
         "fig6a parameter 'M_grid' must be a list, got 100"),
        (["figure", "--param", "kind=fig6a", "--param", 'params={"lnV_over_K": 1.0}'],
         "fig6a parameter 'lnV_over_K' must be a list, got 1.0"),
    ])
    def test_scalar_where_a_list_belongs_exit_1(self, tmp_path, capsys, monkeypatch, argv, message):
        # a scalar given for a list parameter is refused with a record that
        # names the key, before anything is sampled, drawn or computed
        assert_refused_before_work(tmp_path, capsys, monkeypatch, argv, message)

    @pytest.mark.parametrize("argv, message", [
        (["sample", *SAMPLE_ARGS, "--param", 'ell="1.0"'], "parameter 'ell' must be a finite number, got '1.0'"),
        (["sample", *SAMPLE_ARGS, "--param", "lam=[true]"], "parameter 'lam' entry must be a finite number, got True"),
        (["sample", *SAMPLE_ARGS, "--param", "L=[NaN]"], "parameter 'L' entry must be a finite number, got nan"),
        (["verify-cones", "--param", 'chordal_sin_theta=[0.001, "0.005"]'],
         "parameter 'chordal_sin_theta' entry must be a finite number, got '0.005'"),
        (["verify-cones", "--param", "tangential_sin_theta=[null]"],
         "parameter 'tangential_sin_theta' entry must be a finite number, got None"),
        (["bounds", "--param", "eps=[0.2]"], "parameter 'eps' must be a finite number, got [0.2]"),
        (["bounds", "--param", "delta=null"], "parameter 'delta' must be a finite number, got None"),
        (["bounds", "--param", 'points=[{"K": 1, "N": 1000, "lnV": NaN}]'],
         "bounds points[0] 'lnV' must be a finite number, got nan"),
        (["bounds", "--param", 'points=[{"K": 1, "N": 1000, "lnV": 1, "eps": "0.3"}]'],
         "bounds points[0] 'eps' must be a finite number, got '0.3'"),
        (["bounds", "--param", 'points=[{"K": 1, "N": 1000, "lnV": 1, "delta": Infinity}]'],
         "bounds points[0] 'delta' must be a finite number, got inf"),
        (["mstar", "--param", "eps_target=[0.2]"], "parameter 'eps_target' must be a finite number, got [0.2]"),
        (["mstar", "--param", 'eps_target="0.2"'], "parameter 'eps_target' must be a finite number, got '0.2'"),
        (["mstar", "--param", 'lnV="abc"'], "parameter 'lnV' must be a finite number, got 'abc'"),
        (["mstar", "--param", "delta=null"], "parameter 'delta' must be a finite number, got None"),
        (["figure", "--param", "kind=fig4", "--param", 'params={"L": "10"}'],
         "fig4 parameter 'L' entry must be a finite number, got '10'"),
        (["figure", "--param", "kind=fig4", "--param", 'params={"ell": null}'],
         "fig4 parameter 'ell' must be a finite number, got None"),
        (["figure", "--param", "kind=fig5", "--param", 'params={"lam": [1.0, true]}'],
         "fig5 parameter 'lam' entry must be a finite number, got True"),
        (["figure", "--param", "kind=fig6a", "--param", 'params={"lnV_over_K": [1.0, "2"]}'],
         "fig6a parameter 'lnV_over_K' entry must be a finite number, got '2'"),
        (["figure", "--param", "kind=fig6b", "--param", 'params={"delta": "0.05"}'],
         "fig6b point K=1, lnV=1.55055, N=200: parameter 'delta' must be a finite number, got '0.05'"),
    ])
    def test_non_real_parameters_exit_1(self, tmp_path, capsys, monkeypatch, argv, message):
        # a real parameter takes a finite int or float only, refused like an
        # integer one: a record that names the key, before any work
        assert_refused_before_work(tmp_path, capsys, monkeypatch, argv, message)

    @pytest.mark.parametrize("argv, message", [
        (["mstar", "--param", "eps_target=1.5", "--param", "n_proj=400"],
         "parameter 'eps_target' must be in (0, 1), got 1.5"),
        (["mstar", "--param", "eps_target=0"], "parameter 'eps_target' must be in (0, 1), got 0.0"),
        (["figure", "--param", "kind=fig6a", "--param", 'params={"eps_target": 1.0}'],
         "fig6a point K=1, lnV=1, N=1000: parameter 'eps_target' must be in (0, 1), got 1.0"),
        (["figure", "--param", "kind=fig6b", "--param", 'params={"eps_target": -0.2}'],
         "fig6b point K=1, lnV=1.55055, N=200: parameter 'eps_target' must be in (0, 1), got -0.2"),
    ])
    def test_eps_target_outside_the_unit_interval_exit_1(self, tmp_path, capsys, monkeypatch, argv, message):
        # every M* row holds bounds defined only for eps in (0, 1), so such
        # a target is refused before the first point is sampled
        assert_refused_before_work(tmp_path, capsys, monkeypatch, argv, message)

    def test_integral_float_parameters_are_integers(self, tmp_path):
        # 1.0 and 16.0 are whole numbers: the same sample as 1 and 16
        for name, values in (("ints", ["K=1", "grid=[16]"]), ("floats", ["K=1.0", "grid=[16.0]"])):
            argv = ["sample", *SAMPLE_ARGS, "--seed", "5", "--out-dir", str(tmp_path / name)]
            assert main(argv + [arg for v in values for arg in ("--param", v)]) == 0
        assert (tmp_path / "ints" / "sample.bin").read_bytes() == (tmp_path / "floats" / "sample.bin").read_bytes()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        rc = main(["bounds", "--out-dir", str(tmp_path), "--param", "nonsense=1"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "ValueError"

    def test_missing_required_key_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["sample", "--out-dir", str(out), "--param", "N=10"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "ValueError"
        assert "missing required parameter keys for 'sample': ['K', 'L', 'grid', 'lam']" in err["message"]
        assert not out.exists()

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        rc = main(["bounds", "--config", str(tmp_path / "absent.json"), "--out-dir", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "FileNotFoundError"

    def test_param_without_value_exit_code(self, tmp_path, capsys):
        rc = main(["bounds", "--out-dir", str(tmp_path), "--param", "foo"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "ValueError"
        assert "KEY=JSON" in err["message"]

    def test_fig6_grid_per_axis_with_string_keys(self, tmp_path):
        # JSON object keys are strings, as in the full-scale fig6a command
        params = {
            "N": 40,
            "K_values": [1],
            "lnV_over_K": [1.0],
            "M_grid": [10, 40],
            "n_proj": 20,
            "grid_per_axis": {"1": 16, "2": 4},
        }
        rc = main(["figure", "--out-dir", str(tmp_path), "--param", "kind=fig6a",
                   "--param", "params=" + json.dumps(params)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "fig6a.csv")
        assert len(rows) == 1
        assert float(rows[0][header.index("m_star_emp")]) <= 40
