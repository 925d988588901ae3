"""The benchmark's contract with the package.

Each workload of ``bench/``, at its ``tiny`` size and the default seed, is
built and solved through the API that ``bench/worker.py`` imports, and its
check against ``bench/reference.json`` must find nothing wrong: a change
that breaks that API or moves a pinned value fails here.  ``bench/`` is only
read.
"""

import sys
from pathlib import Path

import pytest

from sggl.config import parse_config

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from worker import WORKLOADS, _reference  # noqa: E402
from workloads import DEFAULT_SEED, NAMES, ini_text  # noqa: E402


@pytest.mark.parametrize("name", NAMES)
def test_bench_workload_matches_reference(tmp_path, name):
    ini = tmp_path / f"{name}.ini"
    ini.write_text(ini_text(name, DEFAULT_SEED, "tiny", BENCH.parent),
                   encoding="utf-8")
    spec = parse_config(str(ini))
    ref = _reference(str(BENCH / "reference.json"), name, "tiny", spec.master_seed)
    assert ref is not None
    wl = WORKLOADS[name](spec, ref)
    assert wl.check(wl.solve()) == 0
