"""sggl benchmark: one named workload per invocation, checked and timed.

    python3 bench/run.py --workload tail-c7 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Workloads, checks and metrics are described in
``README.md`` next to this file.

The load is one closed-loop process (``workers = 1``): each solve starts when
the previous one has been checked.  The workload runs in a fresh child
process with BLAS/OpenMP threads pinned to 1; set-up is timed from the
parent over several fresh children and reported as their median.  Times are
scaled to a reference host speed measured by a fixed kernel inside each
process (see ``worker.py``), because a shared host drifts by up to 2x.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs two traced
solves and prints the per-layer metrics, per solve (see ``spans.py``).
The last stdout line is the result object; the line before it records the
environment.  Exit status is 0 when a result was produced, 1 when the
workload process failed, 2 when the checkout holds no ``src/sggl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, NAMES, ini_text, stated_size

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5          # fresh processes whose set-up time is the median
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkloadFailed(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(cmd: list[str], env: dict[str, str]) -> tuple[float, float, dict | None]:
    """Start a workload process.

    Returns the seconds from start to ready, the host speed factor the
    process measured right after, and its result (None for set-up only).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkloadFailed("workload process timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not ready.startswith('{"ready"'):
        raise WorkloadFailed(f"workload process exited with status {proc.returncode}")
    msgs = {}
    for line in out.splitlines():
        if line.startswith('{"'):
            msgs.update(json.loads(line))
    return setup_s, msgs["speed"], msgs.get("result")


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _version(dist: str) -> str | None:
    from importlib import metadata
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny is for the self-test")
    p.add_argument("--reference", default=str(BENCH / "reference.json"),
                   help="recorded outputs the checks compare against")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "sggl" / "__init__.py").is_file():
        print(f"error: no sggl package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    ini = work / f"{args.workload}-{args.seed}-{args.size}-{os.getpid()}.ini"
    ini.write_text(ini_text(args.workload, args.seed, args.size, ROOT), encoding="utf-8")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--ini", str(ini), "--size", args.size, "--reference", args.reference,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = _child_env()
    try:
        setups = [] if args.trace else [
            _run_child(cmd + ["--setup-only"], env)[:2] for _ in range(SETUP_REPEATS - 1)]
        *main_setup, result = _run_child(cmd, env)
    except WorkloadFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        ini.unlink(missing_ok=True)
    if result is None:
        print(f"error: {args.workload}: no result from the workload process", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        setups.append(main_setup)
        metrics["setup_s"] = statistics.median(t * f for t, f in setups)
        result["detail"]["raw_setups_s"] = setups
    units = {m["name"]: m["unit"] for m in json.loads(
        (BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))[
            "per_layer" if args.trace else "end_to_end"]}

    environment = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "stated_size": stated_size(args.workload, args.size),
        "seconds": args.seconds, "trace": args.trace, "workers": 1,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": result["environment"]["numpy"],
        "scipy": _version("scipy"), "blas": result["environment"]["blas"],
        "blas_version": result["environment"]["blas_version"],
        "blas_threads": result["environment"]["blas_threads"],
        "thread_env": {v: "1" for v in THREAD_VARS},
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "detail": result["detail"],
    }
    print(json.dumps({"environment": environment}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
