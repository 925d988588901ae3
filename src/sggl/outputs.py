"""Result persistence: headered CSV, JSON files, and flat binary field blocks.

Every emitted file carries the config hash and the master seed, so any
output can be traced back to its exact inputs: CSV and binary files begin
with a header line, and JSON files (reports, the sweep checkpoint and
``error.json``) with a ``header`` object.  Floats are written with 17
significant digits; reruns with identical config and seed reproduce outputs
byte for byte.  JSON files are strict RFC 8259 JSON, a NaN or infinite float
written as null, and are written atomically: a crash never leaves one
truncated.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import suppress

import numpy as np

from .skeleton import Trajectory


def header_line(config_hash: str, master_seed: int) -> str:
    return f"# config_sha256={config_hash} master_seed={master_seed}\n"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_value(x) -> str:
    if isinstance(x, bool):
        return str(int(x))
    return str(x) if isinstance(x, int) else _fmt(x)


def write_csv(path: str, names: list[str], rows, config_hash: str,
              master_seed: int):
    """Headered CSV with columns ``names`` and one line per row of values:
    floats with ``_fmt``, ints as integers, bools as 0/1."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header_line(config_hash, master_seed))
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(map(_csv_value, row)) + "\n")


def write_fields_bin(path: str, traj: Trajectory, config_hash: str,
                     master_seed: int):
    """Flat binary block of the complex mode coefficients.

    Layout after the ASCII header line: three little-endian uint64
    (n1, n2, count), then count * n1 * n2 interleaved (re, im) float64 LE,
    states in time order, row-major modes.
    """
    count, n1, n2 = traj.modes.shape
    with open(path, "wb") as fh:
        fh.write(header_line(config_hash, master_seed).encode("utf-8"))
        fh.write(struct.pack("<QQQ", n1, n2, count))
        fh.write(traj.modes.astype("<c16").tobytes())


def read_fields_bin(path: str) -> tuple[str, np.ndarray]:
    """Return (header line, modes array of shape (count, n1, n2))."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("utf-8")
        n1, n2, count = struct.unpack("<QQQ", fh.read(24))
        modes = np.frombuffer(fh.read(count * n1 * n2 * 16), dtype="<c16")
    return header, modes.astype(complex).reshape(count, n1, n2)


def _finite_or_null(value):
    """``value`` with every non-finite float in it replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def json_header(config_hash: str | None, master_seed: int | None) -> dict:
    return {"config_sha256": config_hash, "master_seed": master_seed}


def write_json(path: str, payload: dict, config_hash: str | None,
               master_seed: int | None):
    """JSON file whose first key is the provenance header, written to a
    temporary file beside ``path`` and then moved over it; if either step
    fails, the temporary file is removed and the error raised."""
    doc = {"header": json_header(config_hash, master_seed), **payload}
    tmp = path + ".tmp"
    fh = open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            json.dump(_finite_or_null(doc), fh, indent=2, allow_nan=False)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def ensure_dir(path: str):
    os.makedirs(path, exist_ok=True)
