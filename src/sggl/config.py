"""Run-specification files: INI-style ``key = value`` with section headers.

Every key maps to a model symbol or a frozen engineering default; unknown
keys and missing mandatory keys are hard errors, and constraint violations
are reported with the violated constraint.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass

import numpy as np

from .jumps import Control, JumpModel
from .params import Parameters
from .skeleton import TimeGrid
from .spectral import SpectralBasis, StateField, make_basis, zero_field


class ConfigError(ValueError):
    """Malformed, incomplete, or constraint-violating run specification."""


_SCHEMA: dict[str, dict[str, bool]] = {
    # section -> {key: mandatory}
    "physics": {"alpha": True, "beta": True, "gamma": True, "sigma": True,
                "L1": True, "L2": True, "lambda1": False, "lambda2": False},
    "spectral": {"n1": True, "n2": True, "pad_factor": False},
    "jumps": {"nu": True, "g": True},
    "control": {"phi": False},
    "time": {"T": True, "n_steps": True, "save_stride": False},
    "noise": {"eps_list": False},
    "initial": {"modes": False},
    "rate": {"target_phi": False, "target_radius": False, "rho0": False,
             "n_rho": False, "max_inner": False, "fd_step": False,
             "step0": False, "gap_tol": False, "n_bins": False},
    "harness": {"n_samples": False, "r2_floor": False, "energy_slack": False,
                "c_f": False, "c_g": False, "p_audit": False,
                "blowup_factor": False},
    "run": {"master_seed": False, "workers": False},
}

_MANDATORY_SECTIONS = ["physics", "spectral", "jumps", "time"]


@dataclass
class RunSpec:
    """Everything a subcommand needs, parsed and validated."""

    params: Parameters
    basis: SpectralBasis
    jm: JumpModel
    ctrl: Control
    grid: TimeGrid
    eps_list: list[float]
    u0: StateField
    master_seed: int
    workers: int
    options: dict[str, float]        # flat harness/rate knobs
    target_phi: np.ndarray | None
    target_radius: float
    config_hash: str
    raw_text: str


def _floats(s: str) -> list[float]:
    return [float(tok) for tok in s.replace(";", ",").split(",") if tok.strip()]


def _complexes(s: str) -> list[complex]:
    return [complex(tok.strip().replace(" ", "")) for tok in s.split(",") if tok.strip()]


def _matrix(s: str) -> np.ndarray:
    rows = [r for r in s.split(";") if r.strip()]
    return np.array([[float(t) for t in r.split(",") if t.strip()] for r in rows],
                    ndmin=2)


def _scalar(cfg, section: str, key: str, default: str, kind=float):
    """``kind(float(text))`` of an optional key; a value that is not a
    number is a ConfigError naming the key."""
    text = cfg[section].get(key, default) if section in cfg else default
    try:
        return kind(float(text))
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid [{section}] {key} = {text!r}: {exc}") from exc


def parse_config(path: str) -> RunSpec:
    """Parse and validate a run specification file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cfg.optionxform = str   # keys are case-sensitive (L1 vs l1)
    try:
        cfg.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in cfg.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in cfg[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
    for section in _MANDATORY_SECTIONS:
        if section not in cfg:
            raise ConfigError(f"missing mandatory section [{section}]")
        for key, mandatory in _SCHEMA[section].items():
            if mandatory and key not in cfg[section]:
                raise ConfigError(f"missing mandatory key '{key}' in [{section}]")

    phys = cfg["physics"]
    try:
        lam1 = _complexes(phys.get("lambda1", "0, 0"))
        lam2 = _complexes(phys.get("lambda2", "0, 0"))
        if len(lam1) != 2 or len(lam2) != 2:
            raise ConfigError("lambda1/lambda2 must be complex 2-vectors")
        params = Parameters(alpha=phys.getfloat("alpha"),
                            beta=phys.getfloat("beta"),
                            gamma=phys.getfloat("gamma"),
                            sigma=phys.getfloat("sigma"),
                            L1=phys.getfloat("L1"), L2=phys.getfloat("L2"),
                            lambda1=tuple(lam1), lambda2=tuple(lam2))
    except ValueError as exc:
        raise ConfigError(f"invalid [physics]: {exc}") from exc

    spec = cfg["spectral"]
    try:
        basis = make_basis(spec.getint("n1"), spec.getint("n2"), params,
                           spec.getint("pad_factor", fallback=4))
    except ValueError as exc:
        raise ConfigError(f"invalid [spectral]: {exc}") from exc

    try:
        jm = JumpModel(nu=np.array(_floats(cfg["jumps"]["nu"])),
                       g=np.array(_floats(cfg["jumps"]["g"])))
    except ValueError as exc:
        raise ConfigError(f"invalid [jumps]: {exc}") from exc

    tsec = cfg["time"]
    try:
        grid = TimeGrid(T=tsec.getfloat("T"), n_steps=tsec.getint("n_steps"),
                        save_stride=tsec.getint("save_stride", fallback=1))
    except ValueError as exc:
        raise ConfigError(f"invalid [time]: {exc}") from exc

    try:
        if "control" in cfg and "phi" in cfg["control"]:
            phi = _matrix(cfg["control"]["phi"])
            if phi.shape[1] != jm.n_marks:
                raise ConfigError(
                    f"control phi has {phi.shape[1]} columns, expected {jm.n_marks} marks")
            ctrl = Control(T=grid.T, phi=phi)
        else:
            ctrl = Control(T=grid.T, phi=np.ones((1, jm.n_marks)))
    except ValueError as exc:
        raise ConfigError(f"invalid [control]: {exc}") from exc

    try:
        eps_list = _floats(cfg["noise"].get("eps_list", "0.125")) if "noise" in cfg else [0.125]
    except ValueError as exc:
        raise ConfigError(f"invalid [noise]: {exc}") from exc
    if not eps_list or any(e <= 0 for e in eps_list):
        raise ConfigError("eps_list needs at least one entry, all > 0")

    u0 = zero_field(basis)
    if "initial" in cfg and "modes" in cfg["initial"]:
        # entries "k, m, re, im" separated by ';'
        for entry in cfg["initial"]["modes"].split(";"):
            if not entry.strip():
                continue
            try:
                vals = [float(t) for t in entry.split(",")]
            except ValueError as exc:
                raise ConfigError(f"invalid [initial] modes: {exc}") from exc
            if len(vals) != 4:
                raise ConfigError("initial modes entries must be 'k, m, re, im'")
            k, m = int(vals[0]), int(vals[1])
            if not (1 <= k <= basis.n1 and 1 <= m <= basis.n2):
                raise ConfigError(f"initial mode ({k},{m}) outside basis")
            u0.modes[k - 1, m - 1] = vals[2] + 1j * vals[3]

    options = {
        "n_samples": _scalar(cfg, "harness", "n_samples", "200", int),
        "r2_floor": _scalar(cfg, "harness", "r2_floor", "0.9"),
        "energy_slack": _scalar(cfg, "harness", "energy_slack", "0.2"),
        "c_f": _scalar(cfg, "harness", "c_f", "2.0"),
        "c_g": _scalar(cfg, "harness", "c_g", "4.0"),
        "p_audit": _scalar(cfg, "harness", "p_audit", "0"),   # 0 -> module default
        "blowup_factor": _scalar(cfg, "harness", "blowup_factor", "1e6"),
        "rate_rho0": _scalar(cfg, "rate", "rho0", "10.0"),
        "rate_n_rho": _scalar(cfg, "rate", "n_rho", "6", int),
        "rate_max_inner": _scalar(cfg, "rate", "max_inner", "60", int),
        "rate_fd_step": _scalar(cfg, "rate", "fd_step", "1e-4"),
        "rate_step0": _scalar(cfg, "rate", "step0", "0.5"),
        "rate_gap_tol": _scalar(cfg, "rate", "gap_tol", "1e-4"),
        "rate_n_bins": _scalar(cfg, "rate", "n_bins", "1", int),
    }
    if options["rate_n_bins"] < 1:
        raise ConfigError("[rate] n_bins must be >= 1")

    target_phi = None
    target_radius = _scalar(cfg, "rate", "target_radius", "0.0")
    if "rate" in cfg and "target_phi" in cfg["rate"]:
        try:
            target_phi = _matrix(cfg["rate"]["target_phi"])
        except ValueError as exc:
            raise ConfigError(f"invalid [rate] target_phi: {exc}") from exc
        if target_phi.shape[1] != jm.n_marks:
            raise ConfigError("target_phi column count must equal the number of marks")

    master_seed = _scalar(cfg, "run", "master_seed", "0", int)
    workers = _scalar(cfg, "run", "workers", "1", int)

    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return RunSpec(params=params, basis=basis, jm=jm, ctrl=ctrl, grid=grid,
                   eps_list=eps_list, u0=u0, master_seed=master_seed,
                   workers=workers, options=options, target_phi=target_phi,
                   target_radius=target_radius, config_hash=digest,
                   raw_text=text)
