"""Tests of the benchmark itself: span arithmetic, traced-run replay and
failure accounting.  Run with ``python3 -m pytest perfbench/tests -q``."""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from spans import Span, self_times, summarize, tracing  # noqa: E402
from workloads import Workload, _mstar_counts  # noqa: E402


def test_self_times_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("leaf", 2.0, 3.0, 1, "r"),
        Span("a", 3.5, 6.0, 0, "r"),   # overlaps the first "a" by 0.5
        Span("b", 9.0, 12.0, 0, "r"),  # runs past its parent: clipped at 10
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])
    agg = summarize(spans)
    assert agg["a"]["calls"] == 2
    assert agg["a"]["s"] == pytest.approx(5.5)
    assert agg["a"]["self_s"] == pytest.approx(4.5)
    assert sum(a["self_s"] for a in agg.values()) == pytest.approx(12.5)


def test_tracing_records_nested_spans_and_restores_bindings():
    from mfldproj import bounds, harness

    original, original_run = bounds.m_star_bound, harness.run
    bindings = [("mfldproj.harness", "run", "harness.run"),
                ("mfldproj.bounds", "m_star_bound", "bounds.m_star_bound")]
    with tracing("t", bindings) as spans:
        assert bounds.m_star_bound is not original
        bounds.m_star_bound(0.2, 0.05, 1, 1000, 1.55)
        time.sleep(0.01)
    assert bounds.m_star_bound is original
    assert harness.run is original_run
    assert [(s.name, s.parent, s.run) for s in spans] == [("bounds.m_star_bound", None, "t")]
    assert spans[0].end > spans[0].start


def _tiny(name, command, params):
    return Workload(name, command, params, lambda out, p: [], _mstar_counts)


TINY_MSTAR = {"K": 1, "N": 60, "lnV": 1.5, "grid_per_axis": 64, "M_grid": [4, 40],
              "n_proj": 20, "eps_target": 0.9, "delta": 0.05}
TINY_CONES = {"N": 200, "M": 20, "K": 2, "n_trials": 2, "chordal_sin_theta": [0.01],
              "chordal_boundary": 100, "tangential_sin_theta": [0.01], "tangential_boundary": 100}


@pytest.mark.parametrize("command,params", [("mstar", TINY_MSTAR), ("verify-cones", TINY_CONES)])
def test_traced_run_writes_identical_artifacts(tmp_path, command, params):
    w = _tiny("tiny", command, params)
    deadline = time.monotonic() + 120
    plain = run.run_once(w, 3, tmp_path, False, deadline)
    traced = run.run_once(w, 3, tmp_path, True, deadline)
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["digest"] == traced["digest"]
    assert "spans" not in plain
    names = {s["name"] for s in traced["spans"]}
    assert "harness.run" in names and "projections.sample_projector" in names


def test_failing_configs_count_as_failed_without_crashing(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    # an M_grid entry above N passes the schema and fails mid-run
    bad_range = _tiny("bad-range", "mstar", {**TINY_MSTAR, "M_grid": [4, 100]})
    runs, setup, _ = run.measure(bad_range, 1, 0.1, trace=False)
    assert len(runs) == 1
    assert all(r["problems"] == ["harness.run returned 1"] for r in runs)
    record = json.loads(runs[0]["stderr"].splitlines()[-1])
    assert record["code"] == "ValueError" and "M <= N" in record["message"]
    metrics = run.end_to_end_metrics(runs, setup)
    assert metrics["ok_frac"] == 0.0 and metrics["run_s"] > 0

    # an unknown parameter key fails validation before the run starts
    bad_key = _tiny("bad-key", "mstar", {**TINY_MSTAR, "bogus": 1})
    runs, setup, _ = run.measure(bad_key, 1, 0.1, trace=False)
    assert all(r["problems"] == ["child process exited 2 without a result"] for r in runs)
    assert "unknown parameter keys" in runs[0]["stderr"]
    assert run.end_to_end_metrics(runs, setup)["ok_frac"] == 0.0


def test_artifacts_differing_from_an_earlier_run_fail(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    w = _tiny("tiny", "mstar", TINY_MSTAR)
    first, _, _ = run.measure(w, 5, 0.1, trace=False)
    assert first[0]["problems"] == []
    store = tmp_path / "digests.json"
    key = run.digest_key(w, 5)
    assert json.loads(store.read_text()) == {key: first[0]["digest"]}
    store.write_text(json.dumps({key: "0" * 64}))
    again, _, _ = run.measure(w, 5, 0.1, trace=False)
    assert again[0]["problems"] == ["artifacts differ from the first run at this seed"]


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
