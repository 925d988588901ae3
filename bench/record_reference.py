"""Record the outputs the benchmark checks against, at the default seed.

    PYTHONPATH=src python3 bench/record_reference.py [--out bench/reference.json]

Run at the commit whose outputs are the reference; a change that alters
results on purpose re-records them in its own benchmark change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from sggl.config import parse_config

from worker import WORKLOADS
from workloads import DEFAULT_SEED, SIZES, ini_text

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--out", default=str(ROOT / "bench" / "reference.json"))
    args = p.parse_args(argv)
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    ref: dict = {}
    for name, cls in WORKLOADS.items():
        for size in SIZES[name]:
            ini = work / f"reference-{name}-{size}.ini"
            ini.write_text(ini_text(name, DEFAULT_SEED, size, ROOT), encoding="utf-8")
            try:
                wl = cls(parse_config(str(ini)), None)
            finally:
                ini.unlink()
            digest = wl.digest(wl.solve())
            ref.setdefault(name, {})[size] = digest[0] if name == "rate-default" else digest
            print(name, size, digest, file=sys.stderr)
    Path(args.out).write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
