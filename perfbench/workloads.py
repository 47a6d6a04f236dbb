"""The benchmark's workloads: inputs, correctness checks and work counts.

Each workload is one ``RunConfig`` for the mfldproj CLI entry point.  The
benchmark seed becomes the run's master seed; every other input is fixed.
The checks are bands, not exact values, because the outputs move at 1e-6
with BLAS rounding.  Work counts are computed from the inputs, not
counted inside the program.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

LNV_REF = math.log(10.0 * math.sqrt(2.0) / 3.0)
M_GRID_DEFAULT = [4, 6, 10, 16, 25, 40, 63, 100, 158, 200]


def read_rows(path: Path) -> list[dict]:
    """Rows of a harness CSV artifact, skipping its ``#`` config echo."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _check_mstar_ref(out: Path, p: dict) -> list[str]:
    row = read_rows(out / "mstar.csv")[0]
    m_emp, m_bound = float(row["m_star_emp"]), float(row["m_star_new"])
    problems = []
    if not 60.0 <= m_emp <= 160.0:
        problems.append(f"M* = {m_emp} outside [60, 160]")
    if m_emp > m_bound:
        problems.append(f"M* = {m_emp} above m_star_bound = {m_bound}")
    return problems


def _check_cones(out: Path, p: dict) -> list[str]:
    problems = []
    margins: dict[str, list[tuple[float, float]]] = {}
    for row in read_rows(out / "cone_summary.csv"):
        if float(row["violation_fraction"]) > 0.01:
            problems.append(f"{row['kind']} sin_theta={row['sin_theta']}: violation fraction "
                            f"{row['violation_fraction']} > 1%")
        margins.setdefault(row["kind"], []).append((float(row["sin_theta"]), float(row["mean_margin"])))
    for kind, pts in margins.items():
        means = [m for _, m in sorted(pts)]
        if any(b <= a for a, b in zip(means, means[1:])):
            problems.append(f"{kind} mean margins do not increase with the angle: {means}")
    return problems


def _check_curve(out: Path, p: dict) -> list[str]:
    m_emp = float(read_rows(out / "mstar.csv")[0]["m_star_emp"])
    lo, hi = min(p["M_grid"]), max(p["M_grid"])
    return [] if lo <= m_emp <= hi else [f"M* = {m_emp} outside the M grid [{lo}, {hi}]"]


def _mstar_counts(p: dict) -> dict:
    P = int(p["grid_per_axis"]) ** int(p["K"])
    draws = int(p["n_proj"]) * len(p["M_grid"])
    return {
        "manifold_draws": len(p["M_grid"]),
        "projector_draws": draws,
        "pairs_scanned": P * (P - 1) // 2 * draws,
    }


def _cones_counts(p: dict) -> dict:
    n_c, n_t, trials = len(p["chordal_sin_theta"]), len(p["tangential_sin_theta"]), int(p["n_trials"])
    return {
        "projector_draws": (n_c + n_t) * trials,
        "chordal_boundary_draws": n_c * trials * int(p["chordal_boundary"]),
        "tangential_boundary_draws": n_t * trials * int(p["tangential_boundary"]),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    params: dict
    check: Callable[[Path, dict], list[str]]
    counts: Callable[[dict], dict]

    def config(self, seed: int, out_dir: Path) -> dict:
        """RunConfig dict for one run; single-threaded, seed as master seed."""
        return {"command": self.command, "params": self.params, "master_seed": int(seed),
                "out_dir": str(out_dir), "threads": 1, "format": "csv"}


# criterion 6, the paper's headline quantity at the acceptance reference
# point, with 40 projectors per M instead of 100: several short runs per
# measurement let the median drop a run slowed by other load on the host
MSTAR_REF_PARAMS = {
    "K": 1, "N": 1000, "lnV": LNV_REF, "grid_per_axis": 512, "M_grid": M_GRID_DEFAULT,
    "n_proj": 40, "eps_target": 0.2, "delta": 0.05,
}
# criterion-4 inputs with 10 trials per angle instead of 50: the per-trial
# work is unchanged and several runs fit one measurement
CONES_PARAMS = {
    "N": 1000, "M": 100, "K": 5, "n_trials": 10,
    "chordal_sin_theta": [0.001, 0.005, 0.01], "chordal_boundary": 20000,
    "tangential_sin_theta": [0.0005, 0.002], "tangential_boundary": 5000,
}
# fig4 grid density on the largest point set the all-pairs chord scan takes
CURVE_PARAMS = {
    "K": 1, "N": 1000, "lnV": math.log(40.0), "grid_per_axis": 4096, "M_grid": [63, 100],
    "n_proj": 20, "eps_target": 0.35, "delta": 0.05,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("mstar-ref", "mstar", MSTAR_REF_PARAMS, _check_mstar_ref, _mstar_counts),
        Workload("cones-ref", "verify-cones", CONES_PARAMS, _check_cones, _cones_counts),
        Workload("curve-4096", "mstar", CURVE_PARAMS, _check_curve, _mstar_counts),
    )
}
