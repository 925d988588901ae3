"""Result persistence: headered CSV, JSON reports, and flat binary field blocks.

Every emitted file begins with a header line recording the config hash and
the master seed, so any output can be traced back to its exact inputs.
Floats are written with 17 significant digits; reruns with identical config
and seed reproduce outputs byte for byte.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import fields

import numpy as np

from .skeleton import Trajectory


def header_line(config_hash: str, master_seed: int) -> str:
    return f"# config_sha256={config_hash} master_seed={master_seed}\n"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_trajectory_csv(path: str, traj: Trajectory, config_hash: str,
                         master_seed: int):
    """Columns: t, l2, grad_l2, l2sigma2 (the L^(2 sigma + 2) norm)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header_line(config_hash, master_seed))
        fh.write("t,l2,grad_l2,l2sigma2\n")
        for t, nr in zip(traj.times, traj.norms):
            lp = next(iter(nr.lp.values())) if nr.lp else float("nan")
            fh.write(f"{_fmt(t)},{_fmt(nr.l2)},{_fmt(nr.grad_l2)},{_fmt(lp)}\n")


def write_fields_bin(path: str, traj: Trajectory, config_hash: str,
                     master_seed: int):
    """Flat binary block of the complex mode coefficients.

    Layout after the ASCII header line: three little-endian uint64
    (n1, n2, count), then count * n1 * n2 interleaved (re, im) float64 LE,
    states in time order, row-major modes.
    """
    basis = traj.states[0].basis
    with open(path, "wb") as fh:
        fh.write(header_line(config_hash, master_seed).encode("utf-8"))
        fh.write(struct.pack("<QQQ", basis.n1, basis.n2, len(traj.states)))
        for st in traj.states:
            inter = np.empty(st.modes.size * 2)
            flat = st.modes.ravel()
            inter[0::2] = flat.real
            inter[1::2] = flat.imag
            fh.write(inter.astype("<f8").tobytes())


def read_fields_bin(path: str) -> tuple[str, np.ndarray]:
    """Return (header line, modes array of shape (count, n1, n2))."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("utf-8")
        n1, n2, count = struct.unpack("<QQQ", fh.read(24))
        raw = np.frombuffer(fh.read(count * n1 * n2 * 16), dtype="<f8")
    cplx = raw[0::2] + 1j * raw[1::2]
    return header, cplx.reshape(count, n1, n2)


def write_json(path: str, payload: dict, config_hash: str, master_seed: int):
    """JSON report whose first key is the provenance header."""
    doc = {"header": {"config_sha256": config_hash, "master_seed": master_seed}}
    doc.update(payload)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def write_event_log(path: str, event_log: list, config_hash: str, master_seed: int):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header_line(config_hash, master_seed))
        fh.write("t,mark,pre_l2,post_l2\n")
        for t, mark, pre, post in event_log:
            fh.write(f"{_fmt(t)},{mark},{_fmt(pre)},{_fmt(post)}\n")


def _csv_value(x) -> str:
    if isinstance(x, bool):
        return str(int(x))
    return str(x) if isinstance(x, int) else _fmt(x)


def write_cells_csv(path: str, cells: list, cell_type, config_hash: str,
                    master_seed: int):
    """One row per report cell, one column per field of ``cell_type``:
    floats with ``_fmt``, ints as integers, bools as 0/1."""
    names = [f.name for f in fields(cell_type)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header_line(config_hash, master_seed))
        fh.write(",".join(names) + "\n")
        for c in cells:
            fh.write(",".join(_csv_value(getattr(c, n)) for n in names) + "\n")


def ensure_dir(path: str):
    os.makedirs(path, exist_ok=True)
