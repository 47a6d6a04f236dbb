"""Benchmark of the mfldproj CLI entry point on three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mstar-ref --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``mstar-ref`` (criterion-6 M*),
``cones-ref`` (cone verification) and ``curve-4096`` (M* on a 4096-point
curve).  The loop is closed: one ``harness.run`` at a time, each in a fresh
process (``child.py``) with one BLAS thread and CLI ``--threads 1``, every
run at the same master seed.  Runs repeat while the next one is expected
to end within ``--seconds``; there is always at least one.

``--trace 0`` reports the end-to-end metrics:

- ``run_s``: median time from calling ``harness.run`` until the artifacts
  are written;
- ``peak_rss_mb``: lowest ``ru_maxrss`` of the runs' processes (identical
  runs of ``cones-ref`` peak at either about 128 or about 143 MiB, so a
  median would flip between the two);
- ``setup_s``: median time from process spawn until the package is
  imported and the config validated, over at least five process starts;
- ``ok_frac``: runs that passed over runs attempted.  The failure fraction
  is one minus it and is printed too.

A run fails if its process or ``harness.run`` exits nonzero, its workload
check fails, or its artifact hash differs from the first run's at the same
seed, inputs and package sources.  Those hashes are kept in
``.perfbench-out/digests.json`` across invocations, so invocations that
make a single run are compared too.

``--trace 1`` makes one untraced and one traced run and reports per-layer
metrics from the traced run's spans (``spans.py``), with the tracing
overhead as the difference of the two run times.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Host facts, every run's record,
failed runs' stderr and the spans go to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Span, self_times, summarize
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

BLAS_THREADS = 1
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

END_TO_END = {"run_s": "s", "peak_rss_mb": "MiB", "setup_s": "s", "ok_frac": "ratio"}

# name -> unit; every name is reported for every workload, 0 where the
# workload does not reach the layer
PER_LAYER = {
    "sampling.sample_manifold.s": "s",
    "sampling.sample_manifold.calls": "count",
    "sampling.sample_manifold.cpu_s": "s",
    "sampling.sample_manifold.peak_mb": "MiB",
    "projections.sample_projector.s": "s",
    "projections.sample_projector.calls": "count",
    "projections.sample_projector.ms_per_call": "ms",
    "projections.sample_projector.cpu_s": "s",
    "projections.subspace_distortion.s": "s",
    "projections.vector_distortion.s": "s",
    "projections.random_subspace.s": "s",
    "experiments.m_star_empirical.s": "s",
    "experiments.distortion_distribution.self_s": "s",
    "experiments.distortion_distribution.cpu_s": "s",
    "experiments.distortion_distribution.peak_mb": "MiB",
    "experiments.pairs_scanned": "count",
    "experiments.ns_per_pair": "ns",
    "cones.verify_chordal_guarantee.self_s": "s",
    "cones.chordal.boundary_draws": "count",
    "cones.chordal.ns_per_draw": "ns",
    "cones.verify_tangential_guarantee.self_s": "s",
    "cones.tangential.boundary_draws": "count",
    "cones.tangential.us_per_draw": "us",
    "bounds.m_star_bound.s": "s",
    "harness.run.self_s": "s",
    "harness.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
}


# the base of every per-layer ratio, printed next to it
RATIO_BASES = {
    "experiments.ns_per_pair": "experiments.distortion_distribution.self_s / experiments.pairs_scanned",
    "cones.chordal.ns_per_draw": "cones.verify_chordal_guarantee.self_s / cones.chordal.boundary_draws",
    "cones.tangential.us_per_draw":
        "cones.verify_tangential_guarantee.self_s / cones.tangential.boundary_draws",
    "projections.sample_projector.ms_per_call":
        "projections.sample_projector.s / projections.sample_projector.calls",
}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(request: dict, deadline: float) -> dict:
    """Run ``child.py`` on one request; wait for it to end."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(request)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - t0))
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
        timed_out = True
    rec = {"exit": proc.returncode, "stderr": stderr.strip(), "timed_out": timed_out,
           "wall_s": time.monotonic() - t0}
    lines = stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            out = json.loads(lines[-1])
        except json.JSONDecodeError:
            return rec
        rec["setup_s"] = out.pop("ready") - t0
        rec.update(out)
    return rec


def artifact_digest(out_dir: Path) -> tuple[str, int]:
    """Hash of the manifest (without its wall time) and every artifact it
    lists, and the total bytes of those files."""
    manifest_path = out_dir / "run_manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest.pop("wall_time_s", None)
    h = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode())
    size = manifest_path.stat().st_size
    for name in manifest["artifacts"]:
        data = (out_dir / name).read_bytes()
        h.update(name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def run_once(workload: Workload, seed: int, out_dir: Path, trace: bool, deadline: float) -> dict:
    """One run in a fresh process, checked; ``problems`` empty means passed."""
    if out_dir.exists():
        for f in out_dir.iterdir():
            f.unlink()
    rec = spawn({"config": workload.config(seed, out_dir), "trace": trace,
                 "run_id": f"{workload.name}/{seed}/{'traced' if trace else 'untraced'}"}, deadline)
    problems = []
    if rec["timed_out"]:
        problems.append("timed out")
    elif "rc" not in rec:
        problems.append(f"child process exited {rec['exit']} without a result")
    elif rec["rc"] != 0:
        problems.append(f"harness.run returned {rec['rc']}")
    else:
        try:
            rec["digest"], rec["artifact_bytes"] = artifact_digest(out_dir)
            problems += workload.check(out_dir, workload.params)
        except (OSError, KeyError, IndexError, ValueError) as exc:
            problems.append(f"artifacts unreadable: {type(exc).__name__}: {exc}")
    rec["problems"] = problems
    return rec


def digest_key(workload: Workload, seed: int) -> str:
    """Runs that share this key must write identical artifacts: same
    inputs, seed, BLAS thread count and package sources."""
    h = hashlib.sha256(json.dumps([workload.command, workload.params, seed, BLAS_THREADS]).encode())
    for path in sorted((ROOT / "src" / "mfldproj").rglob("*.py")):
        h.update(path.read_bytes())
    return f"{workload.name}/{seed}/{h.hexdigest()[:16]}"


def check_digests(runs: list[dict], key: str) -> None:
    """Fail every run whose artifacts differ from the first run's with the
    same key, in this invocation or an earlier one."""
    store_path = OUT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    for r in runs:
        if "digest" in r and r["digest"] != store.setdefault(key, r["digest"]):
            r["problems"].append("artifacts differ from the first run at this seed")
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[float], dict]:
    """Run the workload; returns run records, set-up samples and the host
    facts the first process reported."""
    deadline = time.monotonic() + DEADLINE_S
    out_dir = OUT / "runs" / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    start = time.monotonic()
    for traced in ([False, True] if trace else itertools.repeat(False)):
        rec = run_once(workload, seed, out_dir, traced, deadline)
        runs.append(rec)
        now = time.monotonic()
        if rec["timed_out"] or now + rec["wall_s"] > deadline:
            break
        if not trace and now - start + rec["wall_s"] > seconds:
            break
    check_digests(runs, digest_key(workload, seed))
    setup = [r["setup_s"] for r in runs if "setup_s" in r]
    host = next((r["host"] for r in runs if "host" in r), {})
    while not trace and len(setup) < SETUP_SAMPLES and time.monotonic() < deadline - 5:
        rec = spawn({"config": workload.config(seed, out_dir), "setup_only": True}, deadline)
        if "setup_s" not in rec:
            break
        setup.append(rec["setup_s"])
        host = host or rec["host"]
    return runs, setup, host


def host_facts(child_facts: dict) -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "ram_mb": None,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "blas_threads_set": BLAS_THREADS,
        "git_commit": None,
        **child_facts,
    }
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    facts["ram_mb"] = int(line.split()[1]) / 1024.0
    except OSError:
        pass
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            facts["git_commit"] = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return facts


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end_metrics(runs: list[dict], setup: list[float]) -> dict:
    timed = [r for r in runs if "run_s" in r]
    ok = sum(1 for r in runs if not r["problems"])
    return {
        "run_s": _median([r["run_s"] for r in timed]),
        "peak_rss_mb": min((r["maxrss_mb"] for r in timed), default=0.0),
        "setup_s": _median(setup),
        "ok_frac": ok / len(runs),
    }


def layer_metrics(spans, counts: dict, artifact_bytes: int, overhead_s: float) -> dict:
    """Per-layer metrics of one traced run; ratios name their base."""
    agg = summarize(spans)

    def g(name, key):
        return agg[name][key] if name in agg else (0 if key == "calls" else 0.0)

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    pairs = counts.get("pairs_scanned", 0)
    chordal = counts.get("chordal_boundary_draws", 0)
    tangential = counts.get("tangential_boundary_draws", 0)
    dd_self = g("experiments.distortion_distribution", "self_s")
    m = {
        "experiments.pairs_scanned": pairs,
        "experiments.ns_per_pair": ratio(dd_self, pairs, 1e9),
        "cones.chordal.boundary_draws": chordal,
        "cones.chordal.ns_per_draw": ratio(g("cones.verify_chordal_guarantee", "self_s"), chordal, 1e9),
        "cones.tangential.boundary_draws": tangential,
        "cones.tangential.us_per_draw": ratio(g("cones.verify_tangential_guarantee", "self_s"), tangential, 1e6),
        "projections.sample_projector.ms_per_call": ratio(
            g("projections.sample_projector", "s"), g("projections.sample_projector", "calls"), 1e3),
        "harness.artifact_bytes": artifact_bytes,
        "trace.overhead_s": overhead_s,
    }
    for name in PER_LAYER:
        if name not in m:
            m[name] = g(*name.rsplit(".", 1))
    return {name: m[name] for name in PER_LAYER}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mfldproj" / "harness.py").is_file():
        print(f"perfbench: no mfldproj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    runs, setup, child_facts = measure(workload, args.seed, args.seconds, bool(args.trace))
    host = host_facts(child_facts)
    counts = workload.counts(workload.params)
    failed = sum(1 for r in runs if r["problems"])
    for i, r in enumerate(runs):
        if r["problems"]:
            print(f"perfbench: run {i} failed: {'; '.join(r['problems'])}", file=sys.stderr)
            if r["stderr"]:
                print(r["stderr"], file=sys.stderr)

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"work counts, computed from the inputs: {json.dumps(counts, sort_keys=True)}")
    print(f"fail_frac = {failed / len(runs):.6g} ratio ({failed} of {len(runs)} runs failed)")
    extra = {}
    if args.trace:
        untraced, traced = runs[0], (runs[1] if len(runs) > 1 else {})
        records = traced.get("spans", [])
        spans = [Span(**r) for r in records]
        traced_s = traced.get("run_s", 0.0)
        overhead = traced_s - untraced.get("run_s", 0.0)
        metrics = layer_metrics(spans, counts, traced.get("artifact_bytes", 0), overhead)
        units, notes = PER_LAYER, {k: f"  ({v})" for k, v in RATIO_BASES.items()}
        attributed = sum(self_times(spans))
        extra["trace_identity"] = {"traced_run_s": traced_s, "span_self_s_total": attributed,
                                   "untraced_remainder_s": traced_s - attributed}
        print(f"traced run_s {traced_s:.6f} s = layer self times {attributed:.6f} s "
              f"+ untraced remainder {traced_s - attributed:.6f} s")
        (OUT / f"spans-{workload.name}-seed{args.seed}.json").write_text(json.dumps(records))
    else:
        metrics = end_to_end_metrics(runs, setup)
        units = END_TO_END
        notes = {"run_s": f"  (median of {len(runs)} runs)",
                 "peak_rss_mb": f"  (lowest of {len(runs)} runs)",
                 "setup_s": f"  (median of {len(setup)} process starts)"}
    for name, value in metrics.items():
        print(f"{name} = {_fmt(value)} {units[name]}{notes.get(name, '')}")

    run_records = [{k: v for k, v in r.items() if k != "spans"} for r in runs]
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "trace": args.trace, "host": host,
         "counts": counts, "metrics": metrics, "setup_samples": setup, "runs": run_records, **extra},
        indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
