"""Self-test of the benchmark at tiny sizes (about a minute on 2 cores).

    python3 bench/selftest.py

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, in both trace modes; that a deliberately wrong reference makes
``failed`` and ``failed_share`` positive; and that the benchmark exits
non-zero without a result where the checkout has no ``src/sggl``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench(script: Path, *args: str, cwd: Path = ROOT):
    done = subprocess.run([sys.executable, str(script), "--seconds", "1", "--size", "tiny", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith('{"correct"') else None
    return done.returncode, result, done.stderr


def _check_result(result, trace: int) -> list[str]:
    problems = []
    if result is None or set(result) != RESULT_KEYS:
        return [f"result keys {sorted(result or {})}"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
    for name, unit in want.items():
        entry = got.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, want {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted {result['attempted']!r}")
    return problems


def _wrong_reference(path: Path):
    ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    ref["tail-c7"]["tiny"] = [h + 1 for h in ref["tail-c7"]["tiny"]]
    ref["sweep-c4"]["tiny"] = [[v * 1.01 for v in row] for row in ref["sweep-c4"]["tiny"]]
    ref["rate-default"]["tiny"] += 0.01
    path.write_text(json.dumps(ref), encoding="utf-8")


def main() -> int:
    failures = []

    def report(label: str, problems: list[str]):
        print(f"{'PASS' if not problems else 'FAIL'} {label}"
              + "".join(f"\n    {p}" for p in problems))
        failures.extend(problems)

    run = BENCH / "run.py"
    for name in NAMES:
        for trace in (0, 1):
            code, result, err = _bench(run, "--workload", name, "--trace", str(trace))
            problems = _check_result(result, trace)
            if code != 0 or not (result and result["correct"] and result["failed"] == 0):
                problems.append(f"exit {code}, result {result and result['correct']}: {err[-500:]}")
            report(f"{name} trace {trace}: every metric with its unit, all checks pass", problems)

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    wrong = work / "wrong-reference.json"
    _wrong_reference(wrong)
    try:
        for name in NAMES:
            code, result, err = _bench(run, "--workload", name, "--trace", "1",
                                       "--reference", str(wrong))
            share = result["metrics"]["failed_share"]["value"] if result else None
            ok = code == 0 and result and result["failed"] > 0 and share > 0 \
                and not result["correct"]
            report(f"{name}: a wrong reference gives failed_share {share}",
                   [] if ok else [f"exit {code}, result {result}"])
    finally:
        wrong.unlink(missing_ok=True)

    bare = work / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, result, _ = _bench(bare / BENCH.name / "run.py", "--workload", NAMES[0],
                                 cwd=bare)
        report("without src/sggl: non-zero exit and no result",
               [] if code != 0 and result is None else [f"exit {code}, result {result}"])
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
