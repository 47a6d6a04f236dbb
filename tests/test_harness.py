"""Config validation, seeded runs, artifact determinism, replay, CLI."""

import csv
import json

import numpy as np
import pytest

import mfldproj as mp
from mfldproj.harness import RunConfig, main, run
from mfldproj.projections import _Screened
from mfldproj.seeding import derive_seed


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
        with pytest.raises(ValueError):
            RunConfig.from_dict({"params": {}})

    def test_from_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"command": "bounds", "master_seed": 5}))
        cfg = RunConfig.from_file(p)
        assert cfg.command == "bounds" and cfg.master_seed == 5

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


MSTAR_SMALL = {"K": 1, "N": 150, "lnV": 1.0, "grid_per_axis": 48, "eps_target": 0.45, "delta": 0.1,
               "M_grid": [6, 12, 24, 48], "n_proj": 20}
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

    def test_mstar_reports_its_chord_cache(self, tmp_path):
        # an mstar manifest records the bytes of the chord scan's cached
        # arrays and how many of its blocks the float32 screen takes
        params = dict(MSTAR_SMALL, grid_per_axis=1024)
        cfg = RunConfig(command="mstar", params=params, master_seed=4, out_dir=str(tmp_path))
        assert run(cfg) == 0
        diagnostics = json.loads((tmp_path / "run_manifest.json").read_text())["diagnostics"]
        scan = mp.experiments._latent_scan(mp.spec_for_volume(1, 150, 1.0, 1024), 4)
        screened = [b for b in scan._blocks if isinstance(b, _Screened)]
        others = [b for b in scan._blocks if not isinstance(b, _Screened)]
        cached = [a for r in screened for a in (r.rec, r.bounds, r.max_rec, r.step, r.qerr)]
        cached += [a for _, _, da, drop in others for a in (da, drop) if a is not None]
        assert diagnostics == {"chord_cache_bytes": sum(a.nbytes for a in cached),
                               "screened_blocks": 8 * 9 // 2 - len(others)}
        assert diagnostics["screened_blocks"] > 0


class TestRunBounds:
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
        cfg = RunConfig(command="mstar", params={"grid_per_axis": 32768}, out_dir=str(tmp_path))
        assert run(cfg) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "ValueError"
        assert "32768 points" in err["message"] and "2147483648 bytes" in err["message"]
        assert not (tmp_path / "run_manifest.json").exists()


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

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        rc = main(["bounds", "--out-dir", str(tmp_path), "--param", "nonsense=1"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "ValueError"

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
