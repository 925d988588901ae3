"""Command-line entry points.

Subcommands: skeleton, simulate, controlled, rate, sweep, tail, audit,
verify.  All take --config and --out; --seed overrides the config master
seed and --workers (or SGGL_WORKERS) sizes the trajectory worker pool.
Only sweep takes --resume, which continues an interrupted sweep from its
checkpoint.  Exit codes: 0 ok, 1 invariant violation or module error
(running out of memory included), 2 usage error.  A config error, whether
found while parsing, in a --seed, --workers or SGGL_WORKERS value or inside
a command, and a module error also write ``error.json`` to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import asdict, astuple, fields

from . import harness, outputs
from .config import ConfigError, RunSpec, parse_config, run_value
from .jumps import Control, NoiseScale
from .params import ParameterError
from .rate import EndpointSpec, OptConfig, estimate_rate
from .skeleton import solve_skeleton
from .spde import solve_spde
from .timestep import BlowUpError
from .verify import run_invariant_suite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


@contextmanager
def _pool_mapper(workers: int):
    """Order-preserving mapper over a process pool that is shut down on exit;
    None for a single worker.  The pool gets at most one worker per usable
    CPU: it forks every worker at its first task.  Results are keyed by
    index, so statistics are identical for any worker count."""
    workers = min(workers, len(os.sched_getaffinity(0)))
    if workers <= 1:
        yield None
        return
    with ProcessPoolExecutor(max_workers=workers) as executor:
        yield executor.map


def _emit_error(out_dir: str, exc: Exception):
    """Write ``error.json`` to ``out_dir`` if it can be written at all."""
    payload = {"error": type(exc).__name__, "message": str(exc)}
    with suppress(OSError):
        outputs.ensure_dir(out_dir)
        with open(os.path.join(out_dir, "error.json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _opt_config(spec: RunSpec) -> OptConfig:
    return OptConfig(**{f.name: spec.options[f.name] for f in fields(OptConfig)})


def _write_cells(spec: RunSpec, path: str, cells: list, cell_type):
    """One row per report cell, one column per field of ``cell_type``."""
    outputs.write_csv(path, [f.name for f in fields(cell_type)],
                      map(astuple, cells), spec.config_hash, spec.master_seed)


def _write_trajectory(spec: RunSpec, out: str, traj):
    # l2sigma2 is the L^(2 sigma + 2) norm
    nr = traj.norms
    lp, = nr.lp.values()
    outputs.write_csv(os.path.join(out, "trajectory.csv"),
                      ["t", "l2", "grad_l2", "l2sigma2"],
                      zip(traj.times, nr.l2, nr.grad_l2, lp),
                      spec.config_hash, spec.master_seed)
    outputs.write_fields_bin(os.path.join(out, "fields.bin"), traj,
                             spec.config_hash, spec.master_seed)


def cmd_skeleton(spec: RunSpec, out: str, args) -> int:
    traj = solve_skeleton(spec.params, spec.basis, spec.u0, spec.jm, spec.ctrl, spec.grid)
    _write_trajectory(spec, out, traj)
    return EXIT_OK


def cmd_path(spec: RunSpec, out: str, args) -> int:
    """One path at the first eps: the raw SPDE for ``simulate``, the SPDE
    under the config control for ``controlled``."""
    log: list = []
    ctrl = spec.ctrl if args.command == "controlled" else None
    traj = solve_spde(spec.params, spec.basis, spec.u0, spec.jm,
                      NoiseScale(spec.eps_list[0]), spec.grid, spec.master_seed,
                      ctrl=ctrl, event_log=log)
    _write_trajectory(spec, out, traj)
    outputs.write_csv(os.path.join(out, "events.csv"),
                      ["t", "mark", "pre_l2", "post_l2"], log,
                      spec.config_hash, spec.master_seed)
    return EXIT_OK


def _target_from_spec(spec: RunSpec) -> EndpointSpec:
    if spec.target_phi is None:
        raise ConfigError("rate/tail runs need [rate] target_phi")
    ctrl = Control(T=spec.grid.T, phi=spec.target_phi)
    traj = solve_skeleton(spec.params, spec.basis, spec.u0, spec.jm, ctrl, spec.grid)
    return EndpointSpec(center=traj.endpoint, radius=spec.target_radius)


def cmd_rate(spec: RunSpec, out: str, args) -> int:
    target = _target_from_spec(spec)
    res = estimate_rate(target, spec.params, spec.basis, spec.jm, spec.u0,
                        spec.grid, _opt_config(spec))
    outputs.write_json(os.path.join(out, "rate.json"), {
        "value": res.value,
        "endpoint_gap": res.endpoint_gap,
        "iterations": res.iterations,
        "feasible": res.feasible,
        "marches": res.marches,
        "skeleton_paths": res.skeleton_paths,
        "control_phi": res.control.phi.tolist(),
        "target_radius": target.radius,
    }, spec.config_hash, spec.master_seed)
    return EXIT_OK


def _load_checkpoint(path: str, spec: RunSpec) -> dict:
    """Finished sweep cells by eps from a checkpoint of the same config and
    seed; {} (with a warning) if the checkpoint cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("config_sha256") != spec.config_hash \
                or doc.get("master_seed") != spec.master_seed:
            return {}
        return {row["eps"]: harness.SweepCell(**row) for row in doc.get("cells", [])}
    except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
        print(f"warning: ignoring unreadable checkpoint {path}: {exc}",
              file=sys.stderr)
        return {}


def _write_checkpoint(path: str, doc: dict):
    """Write ``doc`` to a temporary file beside ``path``, then move it over
    ``path``, so a crash never leaves a truncated checkpoint."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def cmd_sweep(spec: RunSpec, out: str, args) -> int:
    ckpt_path = os.path.join(out, "sweep.checkpoint.json")
    precomputed = {}
    if args.resume and os.path.exists(ckpt_path):
        precomputed = _load_checkpoint(ckpt_path, spec)

    def on_cell(cell):
        precomputed[cell.eps] = cell
        _write_checkpoint(ckpt_path, {
            "config_sha256": spec.config_hash,
            "master_seed": spec.master_seed,
            "cells": [asdict(c) for c in precomputed.values()]})

    with _pool_mapper(args.workers) as mapper:
        report = harness.convergence_sweep(
            spec.params, spec.basis, spec.jm, spec.u0, spec.ctrl, spec.grid,
            spec.eps_list, spec.options["n_samples"], spec.master_seed,
            _pool_map=mapper, precomputed=precomputed, on_cell=on_cell)
    _write_cells(spec, os.path.join(out, "sweep.csv"), report.cells,
                 harness.SweepCell)
    outputs.write_json(os.path.join(out, "sweep.json"), {
        "slope": report.slope,
        "r2": report.r2,
        "slope_flag": report.slope_flag,
        "eps": [c.eps for c in report.cells],
        "mean_sup_sq": [c.mean_sup_sq for c in report.cells],
    }, spec.config_hash, spec.master_seed)
    return EXIT_OK


def cmd_tail(spec: RunSpec, out: str, args) -> int:
    target = _target_from_spec(spec)
    rate_res = estimate_rate(target, spec.params, spec.basis, spec.jm, spec.u0,
                             spec.grid, _opt_config(spec))
    with _pool_mapper(args.workers) as mapper:
        report = harness.tail_probability(
            spec.params, spec.basis, spec.jm, spec.u0, spec.grid, target,
            spec.eps_list, spec.options["n_samples"], spec.master_seed,
            _pool_map=mapper)
    _write_cells(spec, os.path.join(out, "tail.csv"), report.cells,
                 harness.TailCell)
    outputs.write_json(os.path.join(out, "tail.json"), {
        "rate_value": rate_res.value,
        "rate_feasible": rate_res.feasible,
        "marches": report.marches,
        "substeps": report.substeps,
        "table_hits": report.table_hits,
        "cells": [asdict(c) for c in report.cells],
    }, spec.config_hash, spec.master_seed)
    return EXIT_OK


def cmd_audit(spec: RunSpec, out: str, args) -> int:
    traj = solve_skeleton(spec.params, spec.basis, spec.u0, spec.jm, spec.ctrl, spec.grid)
    report = harness.energy_audit(traj, spec.params, spec.jm, ctrl=spec.ctrl)
    outputs.write_json(os.path.join(out, "audit.json"), asdict(report),
                       spec.config_hash, spec.master_seed)
    return EXIT_OK if not report.violations else EXIT_VIOLATION


def cmd_verify(spec: RunSpec, out: str, args) -> int:
    failures = run_invariant_suite(spec)
    outputs.write_json(os.path.join(out, "verify.json"), {
        "ok": not failures,
        "failures": failures,
    }, spec.config_hash, spec.master_seed)
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return EXIT_OK if not failures else EXIT_VIOLATION


_COMMANDS = {
    "skeleton": cmd_skeleton,
    "simulate": cmd_path,
    "controlled": cmd_path,
    "rate": cmd_rate,
    "sweep": cmd_sweep,
    "tail": cmd_tail,
    "audit": cmd_audit,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sggl",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="run specification file")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", default=None,
                        help="override the config master seed")
        sp.add_argument("--workers", default=None,
                        help="trajectory worker pool size "
                             "(default: SGGL_WORKERS, else the config)")
        if name == "sweep":
            sp.add_argument("--resume", action="store_true",
                            help="resume an interrupted sweep from its checkpoint")
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        spec = parse_config(args.config)
        # a flag overrides the environment, which overrides the file
        if args.seed is not None:
            spec.master_seed = run_value("master_seed", args.seed, "--seed")
        if args.workers is not None:
            args.workers = run_value("workers", args.workers, "--workers")
        elif "SGGL_WORKERS" in os.environ:
            args.workers = run_value("workers", os.environ["SGGL_WORKERS"],
                                     "SGGL_WORKERS")
        else:
            args.workers = spec.workers
        outputs.ensure_dir(args.out)
        return _COMMANDS[args.command](spec, args.out, args)
    except (ConfigError, ParameterError) as exc:
        _emit_error(args.out, exc)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BlowUpError, ValueError, RuntimeError, OSError, MemoryError) as exc:
        _emit_error(args.out, exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
