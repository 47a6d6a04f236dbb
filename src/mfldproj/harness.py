"""Configuration, seeding, serialization and the command-line interface.

A run is described by a single JSON config file (nested key-value, schema
checked before any computation) plus a master seed; every artifact embeds
the config echo and seed so a run can be replayed and diffed byte for
byte.  Numbers are serialized with 17 significant digits, which
round-trips float64 exactly.

Subcommands: ``sample`` (draw and dump a manifold realization),
``verify-cones`` (Monte Carlo guarantee tests), ``bounds`` (tabulate the
analytic bounds), ``figure`` (emit figure data), ``mstar`` (empirical
minimal projection count) and ``replay`` (re-run a manifest and diff).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, bounds, cones, experiments, sampling
from .manifold import ManifoldSpec
from .seeding import derive_seed, pooled_map

__all__ = ["RunConfig", "run", "derive_seed", "main"]


# Allowed "params" keys per command; validation rejects anything else
# before any computation runs.
_SCHEMAS = {
    "sample": {"K", "N", "ell", "lam", "L", "grid"},
    "verify-cones": {
        "N",
        "M",
        "K",
        "chordal_sin_theta",
        "tangential_sin_theta",
        "n_trials",
        "chordal_boundary",
        "tangential_boundary",
    },
    "bounds": {"eps", "delta", "points"},
    "figure": {"kind", "params"},
    "mstar": {"K", "N", "lnV", "grid_per_axis", "eps_target", "delta", "M_grid", "n_proj"},
    "replay": {"manifest"},
}


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one run."""

    command: str
    params: dict
    master_seed: int = 0
    out_dir: str = "."
    threads: int = 1
    format: str = "csv"

    def __post_init__(self):
        if self.command not in _SCHEMAS:
            raise ValueError(f"unknown command {self.command!r}; expected one of {sorted(_SCHEMAS)}")
        allowed = _SCHEMAS[self.command]
        unknown = set(self.params) - allowed
        if unknown:
            raise ValueError(
                f"unknown parameter keys for {self.command!r}: {sorted(unknown)}; allowed: {sorted(allowed)}"
            )
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.format!r}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        unknown = set(raw) - _COMMON_KEYS - {"params"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "command" not in raw:
            raise ValueError("config must declare a command")
        return cls(
            command=raw["command"],
            params=dict(raw.get("params", {})),
            master_seed=int(raw.get("master_seed", 0)),
            out_dir=str(raw.get("out_dir", ".")),
            threads=int(raw.get("threads", 1)),
            format=str(raw.get("format", "csv")),
        )

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


_COMMON_KEYS = {f.name for f in fields(RunConfig)} - {"params"}


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    return str(value)


def _echo(cfg: RunConfig) -> dict:
    """Config echo embedded in every textual artifact.

    Only inputs that determine the numbers are echoed; out_dir and thread
    count are environment details and would break byte-identical replays
    into a different directory.
    """
    return {"command": cfg.command, "params": cfg.params, "format": cfg.format}


def _echo_lines(cfg: RunConfig) -> list[str]:
    """Comment preamble with the config echo and master seed, ahead of the
    CSV header row."""
    return [
        "# config: " + json.dumps(_echo(cfg), sort_keys=True),
        f"# master_seed: {cfg.master_seed}",
    ]


def _write_table(out: Path, stem: str, columns: dict, cfg: RunConfig) -> str:
    """Write one table as ``<stem>.csv`` or ``<stem>.json`` after the
    configured format, with the config echo; return the artifact name."""
    name = f"{stem}.{cfg.format}"
    values = {n: np.asarray(column).tolist() for n, column in columns.items()}
    if cfg.format == "csv":
        with open(out / name, "w", newline="") as fh:
            for line in _echo_lines(cfg):
                fh.write(line + "\n")
            writer = csv.writer(fh)
            writer.writerow(values)
            for row in zip(*values.values()):
                writer.writerow([_fmt(v) for v in row])
    else:
        payload = dict(values, config=_echo(cfg), master_seed=cfg.master_seed)
        (out / name).write_text(json.dumps(payload, sort_keys=True, indent=1))
    return name


def _manifest(cfg: RunConfig, artifacts: list[str], diagnostics: dict, started: float) -> dict:
    """The run's manifest.  Every field but ``wall_time_s`` is the same on
    reruns of one config; ``diagnostics`` holds what the runner reports
    about its work (for ``mstar``, the chord scan's cache bytes and
    screened blocks)."""
    return {
        "artifacts": sorted(artifacts),
        "config": asdict(cfg),
        "diagnostics": diagnostics,
        "master_seed": cfg.master_seed,
        "version": __version__,
        "numpy_version": np.__version__,
        "wall_time_s": time.perf_counter() - started,
    }


def _spec_from_params(p: dict) -> ManifoldSpec:
    return ManifoldSpec(
        K=int(p["K"]),
        N=int(p["N"]),
        ell=float(p.get("ell", 1.0)),
        lam=tuple(p["lam"]),
        L=tuple(p["L"]),
        grid=tuple(p["grid"]),
    )


def _run_sample(cfg: RunConfig, out: Path) -> tuple[list[str], dict]:
    spec = _spec_from_params(cfg.params)
    sample = sampling.sample_manifold(spec, cfg.master_seed)
    path = out / "sample.bin"
    sampling.save_sample(sample, path)
    audit = sampling.self_averaging_audit(sample)
    columns = {"mean_sq_norm": [audit.mean], "rel_sd": [audit.rel_sd],
               "expected_mean": [audit.expected_mean], "expected_rel_sd": [audit.expected_rel_sd]}
    return ["sample.bin", _write_table(out, "sample_audit", columns, cfg)], {}


def _run_verify_cones(cfg: RunConfig, out: Path) -> tuple[list[str], dict]:
    p = cfg.params
    N, M, K = int(p.get("N", 1000)), int(p.get("M", 100)), int(p.get("K", 5))
    n_trials = int(p.get("n_trials", 50))
    n_chordal = int(p.get("chordal_boundary", 20000))
    n_tangential = int(p.get("tangential_boundary", 5000))

    # every job's inputs are checked before the first job runs
    jobs = []
    for s in map(float, p.get("chordal_sin_theta", [0.001, 0.005, 0.01])):
        cones.check_cone_inputs(N, M, None, s, n_chordal, n_trials)
        jobs.append(("chordal", s, lambda s=s: cones.verify_chordal_guarantee(
            N, M, s, n_chordal, n_trials, derive_seed(cfg.master_seed, ["chordal", f"{s}"]))))
    for s in map(float, p.get("tangential_sin_theta", [0.0005, 0.002])):
        cones.check_cone_inputs(N, M, K, s, n_tangential, n_trials)
        jobs.append(("tangential", s, lambda s=s: cones.verify_tangential_guarantee(
            N, M, K, s, n_tangential, n_trials, derive_seed(cfg.master_seed, ["tangential", f"{s}"]))))
    reports = pooled_map(lambda job: job[2](), jobs, cfg.threads)

    artifacts = []
    summary = {"kind": [], "sin_theta": [], "violation_fraction": [], "mean_margin": []}
    for (kind, s, _), rep in zip(jobs, reports):
        trials = {"trial": np.arange(rep.n_trials), "dist_x": rep.dist_x, "worst_dist_y": rep.worst_dist_y,
                  "g_value": rep.g_value, "eps_x": rep.eps_x, "violated": rep.violated}
        artifacts.append(_write_table(out, f"{kind}_{s}", trials, cfg))
        for column, value in zip(summary.values(), (kind, s, rep.violation_fraction, float(np.mean(rep.margins)))):
            column.append(value)
    return artifacts + [_write_table(out, "cone_summary", summary, cfg)], {}


_BOUNDS_HEADER = [
    "eps", "delta", "K", "N", "lnV", "M_eval", "mu",
    "delta_long", "delta_long_log", "delta_long_ok",
    "delta_short", "delta_short_log", "delta_short_ok",
    "delta_total", "m_star_new", "gamma_star_c", "sin_theta_c_star", "chordal_ok",
    "gamma_star_t", "sin_theta_t_star", "tangential_ok",
    "m_star_bw", "m_star_nv", "crossover_closed", "rho_star", "C0",
]


def _run_bounds(cfg: RunConfig, out: Path) -> tuple[list[str], dict]:
    p = cfg.params
    eps, delta = float(p.get("eps", 0.2)), float(p.get("delta", 0.05))
    points = p.get("points")
    if points is None:
        points = [{"K": K, "N": 1000, "lnV": experiments.LNV_PER_K_DEFAULT * K} for K in (1, 2, 4, 8)]
    rows = []
    for pt in points:
        q = bounds.BoundQuery(
            eps=float(pt.get("eps", eps)),
            delta=float(pt.get("delta", delta)),
            K=int(pt["K"]),
            N=int(pt["N"]),
            lnV=float(pt["lnV"]),
            M=int(pt["M"]) if "M" in pt else None,
        )
        r = bounds.bound_report(q)
        rows.append([
            q.eps, q.delta, q.K, q.N, q.lnV, r.M_eval, r.mu,
            r.delta_long, r.delta_long_log, r.delta_long_ok,
            r.delta_short, r.delta_short_log, r.delta_short_ok,
            r.delta_total, r.m_bar, r.gamma_star_c, r.sin_theta_c_star, r.chordal_ok,
            r.gamma_star_t, r.sin_theta_t_star, r.tangential_ok,
            r.m_bw, r.m_nv, r.crossover_closed, r.rho_star, r.C0,
        ])
    columns = {name: [row[i] for row in rows] for i, name in enumerate(_BOUNDS_HEADER)}
    return [_write_table(out, "bounds", columns, cfg)], {}


def _run_figure(cfg: RunConfig, out: Path) -> tuple[list[str], dict]:
    kind = cfg.params.get("kind")
    table = experiments.figure_data(kind, cfg.params.get("params"), seed=cfg.master_seed, threads=cfg.threads)
    return [_write_table(out, table.kind, table.columns, cfg)], {}


def _run_mstar(cfg: RunConfig, out: Path) -> tuple[list[str], dict]:
    p = cfg.params
    K = int(p.get("K", 1))
    N = int(p.get("N", 1000))
    lnV = float(p.get("lnV", experiments.LNV_PER_K_DEFAULT * K))
    spec = experiments.spec_for_volume(K, N, lnV, int(p.get("grid_per_axis", 512)))
    res = experiments.m_star_empirical(
        spec,
        float(p.get("eps_target", 0.2)),
        float(p.get("delta", 0.05)),
        p.get("M_grid", [4, 6, 10, 16, 25, 40, 63, 100, 158, 200]),
        int(p.get("n_proj", 100)),
        cfg.master_seed,
        threads=cfg.threads,
    )
    curve = {"M": res.M_grid, "eps_quantile": res.eps_quantiles, "eps_isotonic": res.eps_isotonic}
    point = {"K": [K], "N": [N], "lnV": [lnV], "eps_target": [res.eps_target], "delta": [res.delta],
             "m_star_emp": [res.m_star_emp], "isotonic_adjusted": [res.isotonic_adjusted],
             "m_star_new": [bounds.m_star_bound(res.eps_target, res.delta, K, N, lnV)]}
    diagnostics = {"chord_cache_bytes": res.cache_bytes, "screened_blocks": res.screened_blocks}
    return [_write_table(out, "mstar_curve", curve, cfg), _write_table(out, "mstar", point, cfg)], diagnostics


def _run_replay(cfg: RunConfig, out: Path) -> tuple[list[str], dict]:
    manifest_path = Path(cfg.params["manifest"])
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    original = RunConfig.from_dict(manifest["config"])
    replay_dir = out / "replay"
    replay_dir.mkdir(parents=True, exist_ok=True)
    run(replace(original, out_dir=str(replay_dir)))
    src_dir = manifest_path.parent
    names = manifest["artifacts"]
    mismatches = []
    for name in names:
        a, b = src_dir / name, replay_dir / name
        if not a.exists() or not b.exists() or a.read_bytes() != b.read_bytes():
            mismatches.append(name)
    diff = {"artifact": names, "identical": [int(n not in mismatches) for n in names]}
    table = _write_table(out, "replay_diff", diff, cfg)
    if mismatches:
        raise RuntimeError(f"replay differs for artifacts: {mismatches}")
    return [table], {}


_RUNNERS = {
    "sample": _run_sample,
    "verify-cones": _run_verify_cones,
    "bounds": _run_bounds,
    "figure": _run_figure,
    "mstar": _run_mstar,
    "replay": _run_replay,
}


def run(config: RunConfig) -> int:
    """Execute a validated config; write artifacts plus a JSON manifest.

    Deterministic given (config, master_seed): identical configs produce
    byte-identical artifacts.  Returns the exit status (0 on success);
    on error a machine-readable record goes to stderr and the status is
    nonzero, with no partial manifest left behind.
    """
    started = time.perf_counter()
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        artifacts, diagnostics = _RUNNERS[config.command](config, out)
        manifest = _manifest(config, artifacts, diagnostics, started)
        (out / "run_manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
        return 0
    except Exception as exc:  # noqa: BLE001 - converted to a structured record
        record = {
            "code": type(exc).__name__,
            "module": type(exc).__module__,
            "message": str(exc),
            "command": config.command,
            "params": config.params,
        }
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfldproj",
        description="Random projections of Gaussian random manifolds: experiments and bounds.",
    )
    parser.add_argument("command", choices=sorted(_RUNNERS), help="what to run")
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (overrides config); above 1, run with OPENBLAS_NUM_THREADS=1")
    parser.add_argument("--out-dir", type=str, default=None, help="artifact directory (overrides config)")
    parser.add_argument("--format", choices=["csv", "json"], default=None, help="table format (overrides config)")
    parser.add_argument("--param", action="append", default=[], metavar="KEY=JSON",
                        help="override one params entry, value parsed as JSON")
    return parser


def _config_from_args(args) -> RunConfig:
    raw = asdict(RunConfig.from_file(args.config)) if args.config else {}
    raw["command"] = args.command
    params = dict(raw.get("params", {}))
    for item in args.param:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--param expects KEY=JSON, got {item!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    raw["params"] = params
    for flag, key in (("seed", "master_seed"), ("threads", "threads"),
                      ("out_dir", "out_dir"), ("format", "format")):
        val = getattr(args, flag)
        if val is not None:
            raw[key] = val
    return RunConfig.from_dict(raw)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except (OSError, ValueError, KeyError) as exc:
        print(json.dumps({"code": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
