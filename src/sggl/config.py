"""Run-specification files: INI-style ``key = value`` with section headers.

``_SCHEMA`` declares every key once: the reader that parses its text and
enforces its range, and its default or ``_REQUIRED``.  Every violation is a
ConfigError naming its section and key, or the constraint between keys.
"""

from __future__ import annotations

import cmath
import configparser
import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .jumps import Control, JumpModel
from .params import Parameters
from .rate import OptConfig
from .skeleton import TimeGrid
from .spectral import PAD_FACTOR, SpectralBasis, StateField, make_basis, zero_field


class ConfigError(ValueError):
    """Malformed, incomplete, or constraint-violating run specification."""


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
    options: dict[str, float]        # [harness] keys and the optimizer's [rate] keys
    target_phi: np.ndarray | None
    target_radius: float
    config_hash: str


# ---------------------------------------------------------------------------
# readers: the text of one value to the value, or ValueError with the reason

def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError("must be a number") from None
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if not value > 0:
        raise ValueError("must be > 0")
    return value


def _non_negative(text: str) -> float:
    value = _finite(text)
    if value < 0:
        raise ValueError("must be >= 0")
    return value


def _integer(text: str, low: int) -> int:
    message = f"must be an integer >= {low}"
    try:
        value = int(text)
    except ValueError:
        raise ValueError(message) from None
    if value < low:
        raise ValueError(message)
    return value


def count(text: str) -> int:
    """A count: an integer >= 1."""
    return _integer(text, 1)


def seed(text: str) -> int:
    """A master seed: an integer >= 0."""
    return _integer(text, 0)


def _list_of(read):
    """Reader of one or more values separated by ',' or ';'."""
    def read_list(text: str) -> list:
        values = [read(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]
        if not values:
            raise ValueError("needs at least one entry")
        return values
    return read_list


def _complex_pair(text: str) -> tuple[complex, complex]:
    message = "must be two finite complex numbers"
    try:
        values = [complex(tok.strip().replace(" ", "")) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(message) from None
    if len(values) != 2 or not all(cmath.isfinite(v) for v in values):
        raise ValueError(message)
    return tuple(values)


def _matrix(text: str) -> np.ndarray:
    """Non-negative entries; rows separated by ';', columns by ','."""
    rows = [[_non_negative(t) for t in row.split(",") if t.strip()]
            for row in text.split(";") if row.strip()]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("rows must have the same number of entries")
    return np.array(rows, ndmin=2)


def _modes(text: str) -> list[tuple[int, int, complex]]:
    """Entries 'k, m, re, im' separated by ';'."""
    entries = []
    for entry in text.split(";"):
        if not entry.strip():
            continue
        vals = entry.split(",")
        if len(vals) != 4:
            raise ValueError("entries must be 'k, m, re, im'")
        k, m = count(vals[0]), count(vals[1])
        if any(e[:2] == (k, m) for e in entries):
            raise ValueError(f"mode ({k},{m}) given twice")
        entries.append((k, m, _finite(vals[2]) + 1j * _finite(vals[3])))
    return entries


_REQUIRED = object()

_SCHEMA: dict[str, dict] = {
    # section -> {key: (reader, default or _REQUIRED)}
    "physics": {"alpha": (_finite, _REQUIRED), "beta": (_finite, _REQUIRED),
                "gamma": (_positive, _REQUIRED), "sigma": (_finite, _REQUIRED),
                "L1": (_positive, _REQUIRED), "L2": (_positive, _REQUIRED),
                "lambda1": (_complex_pair, Parameters.lambda1),
                "lambda2": (_complex_pair, Parameters.lambda2)},
    "spectral": {"n1": (count, _REQUIRED), "n2": (count, _REQUIRED),
                 "pad_factor": (count, PAD_FACTOR)},
    "jumps": {"nu": (_list_of(_positive), _REQUIRED),
              "g": (_list_of(_finite), _REQUIRED)},
    "control": {"phi": (_matrix, None)},            # None: phi = 1 on one bin
    "time": {"T": (_positive, _REQUIRED), "n_steps": (count, _REQUIRED)},
    "noise": {"eps_list": (_list_of(_positive), (0.125,))},
    "initial": {"modes": (_modes, ())},               # (): u0 = 0
    "rate": {"target_phi": (_matrix, None), "target_radius": (_non_negative, 0.0),
             # the optimizer's keys are OptConfig's fields: its ints are
             # counts, its floats step sizes and tolerances
             **{f.name: (count if isinstance(f.default, int) else _positive,
                         f.default) for f in fields(OptConfig)}},
    "harness": {"n_samples": (count, 200)},
    "run": {"master_seed": (seed, 0), "workers": (count, 1)},
}


def _read(cfg: configparser.ConfigParser) -> dict[str, dict]:
    """Every schema key's value, by section then key."""
    if cfg.defaults():      # configparser copies its keys into every section
        raise ConfigError("unknown section [DEFAULT]")
    for section in cfg.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in cfg[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
    values: dict[str, dict] = {}
    for section, keys in _SCHEMA.items():
        given = cfg[section] if section in cfg else {}
        if section not in cfg and any(d is _REQUIRED for _, d in keys.values()):
            raise ConfigError(f"missing mandatory section [{section}]")
        values[section] = {}
        for key, (read, default) in keys.items():
            if key not in given:
                if default is _REQUIRED:
                    raise ConfigError(f"missing mandatory key '{key}' in [{section}]")
                values[section][key] = default
                continue
            try:
                values[section][key] = read(given[key])
            except ValueError as exc:
                raise ConfigError(
                    f"invalid [{section}] {key} = {given[key]!r}: {exc}") from exc
    return values


def run_value(key: str, text: str, source: str):
    """The [run] ``key`` given as ``text`` outside the file, by ``source``
    (a flag or an environment variable), read as the file's key is."""
    read, _ = _SCHEMA["run"][key]
    try:
        return read(text)
    except ValueError as exc:
        raise ConfigError(f"invalid {source} {text!r}: {exc}") from exc


def _build(section: str, make):
    """``make()``, its ValueError (a constraint between keys) a ConfigError."""
    try:
        return make()
    except ValueError as exc:
        raise ConfigError(f"invalid [{section}]: {exc}") from exc


def parse_config(path: str) -> RunSpec:
    """Parse and validate a run specification file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # ';' separates rows and entries, so only '#' starts an inline comment
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cfg.optionxform = str   # keys are case-sensitive (L1 vs l1)
    try:
        cfg.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    v = _read(cfg)

    params = _build("physics", lambda: Parameters(**v["physics"]))
    basis = _build("physics", lambda: make_basis(params=params, **v["spectral"]))
    jm = _build("jumps", lambda: JumpModel(**v["jumps"]))
    grid = TimeGrid(**v["time"])

    def marks_matrix(section: str, key: str) -> np.ndarray | None:
        phi = v[section][key]
        if phi is not None and phi.shape[1] != jm.n_marks:
            raise ConfigError(f"invalid [{section}] {key}: {phi.shape[1]} columns, "
                              f"expected {jm.n_marks} marks")
        return phi

    phi = marks_matrix("control", "phi")
    ctrl = Control(T=grid.T, phi=np.ones((1, jm.n_marks)) if phi is None else phi)

    u0 = zero_field(basis)
    for k, m, value in v["initial"]["modes"]:
        if not (k <= basis.n1 and m <= basis.n2):
            raise ConfigError(f"invalid [initial] modes: mode ({k},{m}) outside basis")
        u0.modes[k - 1, m - 1] = value

    rate = v["rate"]
    options = {**v["harness"], **{f.name: rate[f.name] for f in fields(OptConfig)}}
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return RunSpec(params=params, basis=basis, jm=jm, ctrl=ctrl, grid=grid,
                   eps_list=list(v["noise"]["eps_list"]), u0=u0,
                   master_seed=v["run"]["master_seed"],
                   workers=v["run"]["workers"], options=options,
                   target_phi=marks_matrix("rate", "target_phi"),
                   target_radius=rate["target_radius"], config_hash=digest)
