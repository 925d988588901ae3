"""Workload definitions: stated sizes and the INI text generated from a seed.

Pure Python, so the parent process can generate inputs without importing
numpy.  ``full`` is the benchmarked size; ``tiny`` is for the self-test.
"""

from __future__ import annotations

import configparser
import io
from pathlib import Path

DEFAULT_SEED = 12345
NAMES = ("tail-c7", "sweep-c4", "rate-default")

# Physics of the acceptance-criteria fixtures: the (0, pi)^2 square, no F term.
_PHYSICS_PI = """\
[physics]
alpha = 0.5
beta = 0.5
gamma = 1.0
sigma = 3.0
L1 = 3.141592653589793
L2 = 3.141592653589793
"""

TAIL_EPS = (0.2, 0.17, 0.1445, 0.1228)
SWEEP_EPS = tuple(2.0 ** -k for k in range(3, 10))

SIZES = {
    "tail-c7": {"full": {"n_samples": 50}, "tiny": {"n_samples": 4}},
    "sweep-c4": {"full": {"n_samples": 8}, "tiny": {"n_samples": 2}},
    # rate-default runs configs/default.ini; ``tiny`` shrinks basis and budget
    "rate-default": {
        "full": {"rate": {"target_radius": "0.005", "n_bins": "1"}},
        "tiny": {"spectral": {"n1": "4", "n2": "4"}, "time": {"n_steps": "20"},
                 "rate": {"target_radius": "0.01", "n_bins": "1",
                          "n_rho": "3", "max_inner": "20"}},
    },
}


def _eps(values) -> str:
    return ", ".join(repr(v) for v in values)


def ini_text(workload: str, seed: int, size: str, root: Path) -> str:
    """INI run specification of ``workload`` at ``size`` for MC master ``seed``."""
    s = SIZES[workload][size]
    if workload == "tail-c7":
        return _PHYSICS_PI + f"""
[spectral]
n1 = 2
n2 = 2
pad_factor = 4

[jumps]
nu = 16.0
g = 1.0

[time]
T = 0.5
n_steps = 50

[noise]
eps_list = {_eps(TAIL_EPS)}

[initial]
modes = 1, 1, 1e-3, 0.0

[harness]
n_samples = {s["n_samples"]}

[run]
master_seed = {seed}
workers = 1
"""
    if workload == "sweep-c4":
        return _PHYSICS_PI + f"""
[spectral]
n1 = 8
n2 = 8
pad_factor = 4

[jumps]
nu = 1.0, 0.5
g = 0.5, -0.3

[control]
phi = 1.5, 0.5; 1.0, 1.5

[time]
T = 0.5
n_steps = 100

[noise]
eps_list = {_eps(SWEEP_EPS)}

[initial]
modes = 1, 1, 0.5, 0.0; 2, 2, 0.25, 0.1

[harness]
n_samples = {s["n_samples"]}

[run]
master_seed = {seed}
workers = 1
"""
    # rate-default is deterministic: the seed only fills [run] master_seed
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cfg.optionxform = str
    cfg.read_string((root / "configs" / "default.ini").read_text(encoding="utf-8"))
    for section, values in s.items():
        for key, value in values.items():
            cfg[section][key] = value
    cfg["run"]["master_seed"] = str(seed)
    cfg["run"]["workers"] = "1"
    out = io.StringIO()
    cfg.write(out)
    return out.getvalue()


def stated_size(workload: str, size: str) -> dict:
    """The workload's size as recorded with every result."""
    s = SIZES[workload][size]
    if workload == "tail-c7":
        return {"basis": "2x2", "grid": "11x11", "marks": 1, "nu": 16.0, "g": 1.0,
                "T": 0.5, "n_steps": 50, "eps": list(TAIL_EPS),
                "n_samples": s["n_samples"], "paths_per_solve": s["n_samples"] * len(TAIL_EPS),
                "solver": "harness.tail_probability (crude MC, raw solve_spde)"}
    if workload == "sweep-c4":
        return {"basis": "8x8", "grid": "35x35", "marks": 2, "control_bins": 2,
                "T": 0.5, "n_steps": 100, "eps": list(SWEEP_EPS),
                "n_samples": s["n_samples"], "paths_per_solve": s["n_samples"] * len(SWEEP_EPS),
                "solver": "harness.convergence_sweep"}
    return {"config": "configs/default.ini", "overrides": s,
            "solver": "rate.estimate_rate", "paths_per_solve": 1}
