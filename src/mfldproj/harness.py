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
from .manifold import ManifoldSpec, integer, listed, real
from .seeding import derive_seed, pooled_map

__all__ = ["RunConfig", "run", "derive_seed", "main"]


# Marks a parameter that has no default; see ``_COMMANDS`` below.
_REQUIRED = object()


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one run.  ``params`` holds the parameters
    as given; the defaults of ``_COMMANDS`` are merged in when it runs."""

    command: str
    params: dict
    master_seed: int = 0
    out_dir: str = "."
    threads: int = 1
    format: str = "csv"

    def __post_init__(self):
        if not isinstance(self.command, str) or self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}; expected one of {sorted(_COMMANDS)}")
        _, defaults = _COMMANDS[self.command]
        unknown = set(_object(self.params, "params")) - set(defaults)
        if unknown:
            raise ValueError(
                f"unknown parameter keys for {self.command!r}: {sorted(unknown)}; allowed: {sorted(defaults)}"
            )
        missing = {key for key, value in defaults.items() if value is _REQUIRED} - set(self.params)
        if missing:
            raise ValueError(f"missing required parameter keys for {self.command!r}: {sorted(missing)}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.format!r}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        unknown = set(_object(raw, "config")) - _COMMON_KEYS - {"params"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "command" not in raw:
            raise ValueError("config must declare a command")
        common = {key: raw[key] for key in ("out_dir", "format") if key in raw}
        for key, value in common.items():
            if not isinstance(value, str):
                raise ValueError(f"config key {key!r} must be a string, got {value!r}")
        common.update({key: integer(raw[key], f"config key {key!r}")
                       for key in ("master_seed", "threads") if key in raw})
        return cls(command=raw["command"], params=raw.get("params", {}), **common)


def _object(value, key: str):
    """``value``, or a ValueError naming ``key`` if it is not a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{key!r} must be an object, got {value!r}")
    return value


def _listed(p: dict, key: str):
    """The list parameter ``key``, or a ValueError naming it."""
    return listed(p[key], f"parameter {key!r}")


def _int(p: dict, key: str) -> int:
    """The integer parameter ``key``, or a ValueError naming it."""
    return integer(p[key], f"parameter {key!r}")


def _real(p: dict, key: str) -> float:
    """The real parameter ``key``, or a ValueError naming it."""
    return real(p[key], f"parameter {key!r}")


def _reals(p: dict, key: str) -> list[float]:
    """The entries of the list parameter ``key`` as reals, or a ValueError
    naming it."""
    return [real(v, f"parameter {key!r} entry") for v in _listed(p, key)]


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


def _write_table(out: Path, stem: str, columns: dict, cfg: RunConfig) -> str:
    """Write one table as ``<stem>.csv`` or ``<stem>.json`` after the
    configured format, with the config echo; return the artifact name."""
    name = f"{stem}.{cfg.format}"
    values = {n: np.asarray(column).tolist() for n, column in columns.items()}
    if cfg.format == "csv":
        with open(out / name, "w", newline="") as fh:
            fh.write(f"# config: {json.dumps(_echo(cfg), sort_keys=True)}\n# master_seed: {cfg.master_seed}\n")
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
    about its work (for ``mstar``, :attr:`experiments.MStarResult.diagnostics`,
    the one list of its diagnostics)."""
    return {
        "artifacts": sorted(artifacts),
        "config": asdict(cfg),
        "diagnostics": diagnostics,
        "master_seed": cfg.master_seed,
        "version": __version__,
        "numpy_version": np.__version__,
        "wall_time_s": time.perf_counter() - started,
    }


def _run_sample(cfg: RunConfig, p: dict, out: Path) -> tuple[list[str], dict]:
    spec = ManifoldSpec(K=_int(p, "K"), N=_int(p, "N"), ell=_real(p, "ell"), lam=_reals(p, "lam"),
                        L=_reals(p, "L"), grid=[integer(n, "parameter 'grid' entry") for n in _listed(p, "grid")])
    sample = sampling.sample_manifold(spec, cfg.master_seed)
    sampling.save_sample(sample, out / "sample.bin")
    audit = sampling.self_averaging_audit(sample)
    columns = {"mean_sq_norm": [audit.mean], "rel_sd": [audit.rel_sd],
               "expected_mean": [audit.expected_mean], "expected_rel_sd": [audit.expected_rel_sd]}
    return ["sample.bin", _write_table(out, "sample_audit", columns, cfg)], {}


def _run_verify_cones(cfg: RunConfig, p: dict, out: Path) -> tuple[list[str], dict]:
    N, M, K, n_trials = (_int(p, key) for key in ("N", "M", "K", "n_trials"))
    n_chordal, n_tangential = _int(p, "chordal_boundary"), _int(p, "tangential_boundary")

    # every job's inputs are checked before the first job runs
    jobs = []
    for s in _reals(p, "chordal_sin_theta"):
        cones.check_cone_inputs(N, M, None, s, n_chordal, n_trials)
        jobs.append(("chordal", s, lambda s=s: cones.verify_chordal_guarantee(
            N, M, s, n_chordal, n_trials, derive_seed(cfg.master_seed, ["chordal", f"{s}"]))))
    for s in _reals(p, "tangential_sin_theta"):
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


def _run_bounds(cfg: RunConfig, p: dict, out: Path) -> tuple[list[str], dict]:
    eps, delta = _real(p, "eps"), _real(p, "delta")
    if p["points"] is None:
        points = [{"K": K, "N": 1000, "lnV": experiments.LNV_PER_K_DEFAULT * K} for K in (1, 2, 4, 8)]
    else:
        points = _listed(p, "points")
    queries, allowed = [], {"K", "N", "lnV", "M", "eps", "delta"}
    for i, pt in enumerate(points):
        missing = sorted({"K", "N", "lnV"} - set(pt)) if isinstance(pt, dict) else ["K", "N", "lnV"]
        if missing:
            raise ValueError(f"bounds points[{i}] = {pt!r} is missing keys {missing}")
        unknown = sorted(set(pt) - allowed, key=str)
        if unknown:
            raise ValueError(f"bounds points[{i}] = {pt!r} has unknown keys {unknown}; allowed: {sorted(allowed)}")
        K, N, M = (integer(pt[key], f"bounds points[{i}] {key!r}") if key in pt else None for key in ("K", "N", "M"))
        given = {"eps": eps, "delta": delta, **pt}
        reals = {key: real(given[key], f"bounds points[{i}] {key!r}") for key in ("eps", "delta", "lnV")}
        queries.append(bounds.BoundQuery(K=K, N=N, M=M, **reals))
    reports = [bounds.bound_report(query) for query in queries]
    columns = {f.name: [getattr(r, f.name) for r in reports] for f in fields(bounds.BoundReport)}
    return [_write_table(out, "bounds", columns, cfg)], {}


def _run_figure(cfg: RunConfig, p: dict, out: Path) -> tuple[list[str], dict]:
    table = experiments.figure_data(p["kind"], p["params"], seed=cfg.master_seed, threads=cfg.threads)
    return [_write_table(out, table.kind, table.columns, cfg)], {}


def _run_mstar(cfg: RunConfig, p: dict, out: Path) -> tuple[list[str], dict]:
    K, N = _int(p, "K"), _int(p, "N")
    lnV = experiments.LNV_PER_K_DEFAULT * K if p["lnV"] is None else _real(p, "lnV")
    row, res = experiments.m_star_point(K, lnV, N, p["M_grid"], p, cfg.threads).row(cfg.master_seed)
    curve = {"M": res.M_grid, "eps_quantile": res.eps_quantiles, "eps_isotonic": res.eps_isotonic}
    point = {k: [row[k]] for k in
             ("K", "N", "lnV", "eps_target", "delta", "m_star_emp", "isotonic_adjusted", "m_star_new")}
    return [_write_table(out, "mstar_curve", curve, cfg), _write_table(out, "mstar", point, cfg)], res.diagnostics


def _run_replay(cfg: RunConfig, p: dict, out: Path) -> tuple[list[str], dict]:
    manifest_path = Path(p["manifest"])
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    original = RunConfig.from_dict(manifest["config"])
    replay_dir = out / "replay"
    # the re-run's own error, if any, is this run's error
    _execute(replace(original, out_dir=str(replay_dir)))
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


# Per command, its runner and its parameters with their defaults, the
# only place either is written down; ``_REQUIRED`` marks a parameter
# without a default.  A null ``points`` is the four points K = 1, 2, 4, 8
# at N = 1000 and lnV = ln(10 sqrt(2)/3) K.
_COMMANDS = {
    "sample": (_run_sample, {"K": _REQUIRED, "N": _REQUIRED, "ell": 1.0, "lam": _REQUIRED, "L": _REQUIRED,
                             "grid": _REQUIRED}),
    "verify-cones": (_run_verify_cones, {
        "N": 1000, "M": 100, "K": 5, "n_trials": 50,
        "chordal_sin_theta": (0.001, 0.005, 0.01), "chordal_boundary": 20000,
        "tangential_sin_theta": (0.0005, 0.002), "tangential_boundary": 5000,
    }),
    "bounds": (_run_bounds, {"eps": 0.2, "delta": 0.05, "points": None}),
    "figure": (_run_figure, {"kind": _REQUIRED, "params": {}}),
    "mstar": (_run_mstar, experiments.MSTAR_DEFAULTS),
    "replay": (_run_replay, {"manifest": _REQUIRED}),
}


def _execute(config: RunConfig) -> None:
    """Run ``config`` with its command's defaults merged under its params,
    and write its artifacts and manifest; raise on error."""
    started = time.perf_counter()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner, defaults = _COMMANDS[config.command]
    artifacts, diagnostics = runner(config, {**defaults, **config.params}, out)
    manifest = _manifest(config, artifacts, diagnostics, started)
    (out / "run_manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))


def run(config: RunConfig) -> int:
    """Execute a validated config; write artifacts plus a JSON manifest.

    Deterministic given (config, master_seed): identical configs produce
    byte-identical artifacts.  Returns the exit status (0 on success);
    on error a machine-readable record goes to stderr and the status is
    nonzero, with no partial manifest left behind.
    """
    try:
        _execute(config)
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
    parser.add_argument("command", choices=sorted(_COMMANDS), help="what to run")
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, dest="master_seed", metavar="SEED",
                        help="master seed (overrides config)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (overrides config); above 1, run with OPENBLAS_NUM_THREADS=1")
    parser.add_argument("--out-dir", type=str, default=None, help="artifact directory (overrides config)")
    parser.add_argument("--format", choices=["csv", "json"], default=None, help="table format (overrides config)")
    parser.add_argument("--param", action="append", default=[], metavar="KEY=JSON",
                        help="override one params entry, value parsed as JSON")
    return parser


def _config_from_args(args) -> RunConfig:
    """The config file's dict with the CLI command, the flags and the
    ``--param`` entries laid over it, validated once."""
    raw = {}
    if args.config:
        with open(args.config) as fh:
            raw = _object(json.load(fh), "config")
    params = dict(_object(raw.get("params", {}), "params"))
    for item in args.param:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--param expects KEY=JSON, got {item!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    flags = {key: getattr(args, key) for key in _COMMON_KEYS if getattr(args, key) is not None}
    return RunConfig.from_dict({**raw, **flags, "params": params})


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
