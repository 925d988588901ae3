"""One workload process: set up, solve for the run's seconds, check outputs.

Started by ``run.py`` with BLAS/OpenMP threads pinned to 1 and the checkout's
``src`` on ``PYTHONPATH``.  It writes JSON lines to stdout: ``{"ready": ...}``
once the workload is set up (import, ``parse_config``, basis, reference
skeleton), ``{"speed": ...}`` with the host speed factor measured right
after, then ``{"result": ...}`` after the solve phase.  Every check runs
outside the timed section.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from sggl import harness, rate
from sggl.cli import _opt_config
from sggl.config import parse_config
from sggl.jumps import Control, NoiseScale, constant_control, sample_prm, trajectory_seed
from sggl.rate import EndpointSpec, cost
from sggl.skeleton import solve_skeleton
from sggl.spectral import StateField

import spans
from workloads import DEFAULT_SEED

SWEEP_SLOPE_FLOOR = 0.4
SWEEP_R2_FLOOR = 0.9
SWEEP_REL_TOL = 1e-9
TAIL_TOL = 1e-8
RATE_ABS_TOL = 1e-6
# counts that two traced solves of the same inputs must reproduce exactly,
# besides the call count of every span
REPEATING_COUNTS = ("events", "kicks", "grid_steps", "rate_iterations",
                    "rate_skeleton_solves")
PARSE_REPEATS = 5
# the traced run writes its spans here, next to the generated configs
SPANS_DIR = Path(__file__).resolve().parent.parent / ".bench_work"


def _l2(a) -> float:
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


class TailC7:
    """Crude-MC tail table on the criterion-7 shape (raw ``solve_spde``)."""

    jump_dense = True           # most sub-steps rebuild the linear tables

    def __init__(self, spec, reference):
        self.spec = spec
        self.n_samples = spec.options["n_samples"]
        self.paths = self.n_samples * len(spec.eps_list)
        skel = solve_skeleton(spec.params, spec.basis, spec.u0, spec.jm,
                              constant_control(spec.grid.T, spec.jm.n_marks, 1.0),
                              spec.grid)
        self.event = EndpointSpec(center=StateField(0.05 * skel.endpoint.modes, spec.basis),
                                  radius=0.05 * skel.endpoint.l2())
        self.reference = reference
        self._bounds = None

    def solve(self):
        s = self.spec
        return harness.tail_probability(s.params, s.basis, s.jm, s.u0, s.grid,
                                        self.event, s.eps_list, self.n_samples,
                                        s.master_seed)

    @staticmethod
    def digest(rep):
        return [c.hits for c in rep.cells]

    def _closed_form_bounds(self):
        """Per-eps (sure hits, undecidable hits) from the criterion-3 product.

        Each (sample, eps) endpoint is u0 exp(((1+ia)mu_11 + gamma - g nu) T)
        (1 + eps g)^N with N the event count of the same seed; a pair whose
        predicted gap lies within the tolerance of the radius is undecidable.
        """
        s = self.spec
        mu = s.basis.eigenvalues[0, 0]
        growth = np.exp(((1 + 1j * s.params.alpha) * mu + s.params.gamma
                         - float(np.sum(s.jm.g * s.jm.nu))) * s.grid.T)
        g = float(s.jm.g[0])
        bounds = []
        for eps in s.eps_list:
            sure = undecided = 0
            for i in range(self.n_samples):
                seed = trajectory_seed(s.master_seed, i)
                n = sample_prm(s.jm, NoiseScale(eps), s.grid.T, seed).n_events
                end = np.zeros_like(s.u0.modes)
                end[0, 0] = s.u0.modes[0, 0] * growth * (1 + eps * g) ** n
                gap = _l2(end - self.event.center.modes)
                if abs(gap - self.event.radius) <= TAIL_TOL * self.event.radius:
                    undecided += 1
                elif gap <= self.event.radius:
                    sure += 1
            bounds.append((sure, undecided))
        return bounds

    def check(self, rep) -> int:
        """Number of (sample, eps) hits that disagree with the closed form."""
        if self._bounds is None:
            self._bounds = self._closed_form_bounds()
        bad = 0
        for cell, (sure, undecided) in zip(rep.cells, self._bounds):
            bad += max(0, sure - cell.hits, cell.hits - sure - undecided)
        if self.reference is not None:
            bad += sum(abs(a - b) for a, b in zip(self.digest(rep), self.reference))
        return bad


class SweepC4:
    """Controlled eps-sweep on the criterion-4 shape."""

    jump_dense = True

    def __init__(self, spec, reference):
        self.spec = spec
        self.n_samples = spec.options["n_samples"]
        self.paths = self.n_samples * len(spec.eps_list)
        # the skeleton the sweep measures against; convergence_sweep solves it
        # again itself, so this keeps set-up comparable across workloads
        solve_skeleton(spec.params, spec.basis, spec.u0, spec.jm, spec.ctrl, spec.grid,
                       with_norms=False)
        self.reference = reference

    def solve(self):
        s = self.spec
        return harness.convergence_sweep(s.params, s.basis, s.jm, s.u0, s.ctrl,
                                         s.grid, s.eps_list, self.n_samples,
                                         s.master_seed)

    @staticmethod
    def digest(rep):
        return [[c.mean_sup_sq, c.se_sup_sq, c.mean_grad_int, c.se_grad_int,
                 c.mean_lp_int, c.se_lp_int] for c in rep.cells]

    def check(self, rep) -> int:
        """Paths of cells that fail the criterion-4 gates or the reference."""
        if not (rep.slope >= SWEEP_SLOPE_FLOOR and rep.r2 >= SWEEP_R2_FLOOR
                and not rep.slope_flag):
            return self.paths
        bad = 0
        ref = self.reference or [None] * len(rep.cells)
        for row, want in zip(self.digest(rep), ref):
            ok = all(math.isfinite(v) and v >= 0 for v in row)
            if want is not None:
                ok = ok and all(abs(a - b) <= SWEEP_REL_TOL * abs(b) for a, b in zip(row, want))
            bad += 0 if ok else self.n_samples
        return bad


class RateDefault:
    """``estimate_rate`` on configs/default.ini, as ``sggl rate`` runs it."""

    paths = 1
    jump_dense = False

    def __init__(self, spec, reference):
        self.spec = spec
        self.target_ctrl = Control(T=spec.grid.T, phi=spec.target_phi)
        skel = solve_skeleton(spec.params, spec.basis, spec.u0, spec.jm,
                              self.target_ctrl, spec.grid)
        self.target = EndpointSpec(center=skel.endpoint, radius=spec.target_radius)
        self.opt = _opt_config(spec)
        self.reference = reference

    def solve(self):
        s = self.spec
        return rate.estimate_rate(self.target, s.params, s.basis, s.jm, s.u0, s.grid, self.opt)

    @staticmethod
    def digest(res):
        return [res.value, res.endpoint_gap, res.iterations, bool(res.feasible)]

    def check(self, res) -> int:
        ok = (res.feasible
              and res.endpoint_gap <= self.target.radius + self.opt.gap_tol
              and res.value <= cost(self.target_ctrl, self.spec.jm)
              and abs(res.value - self.reference) <= RATE_ABS_TOL)
        return 0 if ok else 1


WORKLOADS = {"tail-c7": TailC7, "sweep-c4": SweepC4, "rate-default": RateDefault}


def _reference(path: str, workload: str, size: str, seed: int):
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)[workload][size]
    if workload == "rate-default":
        return ref                    # deterministic: holds for every seed
    return ref if seed == DEFAULT_SEED else None


# ---------------------------------------------------------------------------
# per-layer metrics from the traced solves

def _transform_cost(basis) -> dict[str, tuple[int, int]]:
    """(flops, bytes) per call, computed from shapes.

    A real-by-complex multiply-add counts 4 flops.  Bytes count each matmul's
    operands read once and its result written once: 8 per real, 16 per
    complex entry.  Cache effects are ignored.
    """
    n1, n2 = basis.n1, basis.n2
    N1, N2 = basis.grid_shape
    to_grid = (4 * N1 * n1 * n2 + 4 * N1 * n2 * N2,
               8 * N1 * n1 + 16 * n1 * n2 + 32 * N1 * n2 + 8 * N2 * n2 + 16 * N1 * N2)
    to_modes = (4 * n1 * N1 * N2 + 4 * n1 * N2 * n2 + 2 * n1 * n2,
                8 * N1 * n1 + 16 * N1 * N2 + 32 * n1 * N2 + 8 * N2 * n2 + 48 * n1 * n2)
    return {"spectral.to_grid": to_grid, "spectral.to_modes": to_modes,
            "spectral.grad_to_grid": (2 * to_grid[0], 2 * to_grid[1])}


def _layer_metrics(per_solve: list[dict], basis) -> dict[str, float]:
    """Per-solve layer metrics, averaged over the traced solves."""
    def mean(key):
        return statistics.fmean(p[key] for p in per_solve)

    def span(name, field):
        return statistics.fmean(p["stats"].get(name, {}).get(field, 0) for p in per_solve)

    def calls(name):
        return span(name, "calls")

    def self_s(name):
        return span(name, "self_s")

    m: dict[str, float] = {}
    for layer in ("to_grid", "to_modes", "grad_to_grid", "nonlinear", "compute_norms"):
        m[f"spectral.{layer}.calls"] = calls(f"spectral.{layer}")
        m[f"spectral.{layer}.self_s"] = self_s(f"spectral.{layer}")
    flops = nbytes = 0.0
    for name, (f, b) in _transform_cost(basis).items():
        flops += calls(name) * f
        nbytes += calls(name) * b
    m["spectral.transform.flops"] = flops
    m["spectral.transform.bytes"] = nbytes
    m["spectral.transform.flops_per_byte"] = flops / nbytes if nbytes else 0.0

    for layer in ("linear_tables", "etdrk2_step"):
        m[f"timestep.{layer}.calls"] = calls(f"timestep.{layer}")
        m[f"timestep.{layer}.self_s"] = self_s(f"timestep.{layer}")

    marches = calls("skeleton.march")
    substeps = calls("timestep.etdrk2_step")
    grid_steps = mean("grid_steps")
    m["skeleton.march.calls"] = marches
    m["skeleton.march.self_s"] = self_s("skeleton.march")
    m["skeleton.substeps"] = substeps
    m["skeleton.substeps_per_path"] = substeps / marches if marches else 0.0
    m["skeleton.table_cache.lookups"] = substeps
    m["skeleton.table_cache.hit_ratio"] = (
        1.0 - calls("timestep.linear_tables") / substeps if substeps else 0.0)
    m["skeleton.jump_substep_share"] = (substeps - grid_steps) / substeps if substeps else 0.0

    paths = calls("spde.path")
    events = mean("events")
    m["jumps.sample.calls"] = calls("jumps.sample")
    m["jumps.sample.self_s"] = self_s("jumps.sample")
    m["jumps.events"] = events
    m["jumps.events_per_path"] = events / paths if paths else 0.0

    durations = np.concatenate([p["path_s"] for p in per_solve]) * 1e3
    m["spde.path.calls"] = paths
    m["spde.path.ms_p50"] = float(np.percentile(durations, 50)) if durations.size else 0.0
    m["spde.path.ms_p90"] = float(np.percentile(durations, 90)) if durations.size else 0.0
    m["spde.kicks"] = mean("kicks")

    solves = mean("rate_skeleton_solves")
    m["rate.estimate.s"] = span("rate.estimate", "incl_s")
    m["rate.iterations"] = mean("rate_iterations")
    m["rate.skeleton_solves"] = solves
    m["rate.ms_per_skeleton_solve"] = mean("rate_skeleton_s") / solves * 1e3 if solves else 0.0

    m["harness.self_s"] = statistics.fmean(
        sum(v["self_s"] for k, v in p["stats"].items() if k.startswith("harness."))
        for p in per_solve)
    return m


# ---------------------------------------------------------------------------

# Host speed drifts by up to 2x over seconds to minutes on shared machines.
# A fixed kernel that does not touch sggl, shaped like the workload's basis
# and grid, is timed every PROBE_INTERVAL_S inside each solve; the solve's
# time is scaled by CAL_REFERENCE_S / (mean kernel time during the solve).
# Times are thus seconds at the host speed where the kernel takes
# CAL_REFERENCE_S; the iteration counts make it take about that long on a
# 2-core x86-64 host at 2.1 GHz with OpenBLAS pinned to one thread.
CAL_REFERENCE_S = 0.025
CAL_ITERATIONS = {(2, 11, True): 375, (8, 35, True): 230, (8, 35, False): 360}
PROBE_INTERVAL_S = 0.25
SETUP_KERNEL_RUNS = 4


class Kernel:
    """ETDRK2-like sub-steps on fixed arrays shaped (n, n) modes, (N, N) grid.

    Each sub-step does a grid round trip with a |u|^6 u nonlinearity twice;
    with ``tables`` it first builds exp and phi1 tables by a 14-term series,
    as a jump-dense marcher does on a cache miss.  Work is fixed per shape.
    """

    def __init__(self, n: int, N: int, tables: bool):
        rng = np.random.default_rng(0)
        self.S1 = rng.standard_normal((N, n)) / N
        self.S2 = rng.standard_normal((N, n)) / N
        self.x0 = 1e-2 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        self.L = -(1 + 0.5j) * rng.uniform(1.0, 10.0, (n, n))
        self.tables = tables
        self.iterations = CAL_ITERATIONS.get((n, N, tables), 200)

    def seconds(self) -> float:
        S1, S2, x0, L = self.S1, self.S2, self.x0, self.L
        x = x0
        E, p1 = np.exp(0.01 * L), np.ones_like(L)
        t0 = time.perf_counter()
        for _ in range(self.iterations):
            if self.tables:
                z = 0.01 * L
                E = np.exp(z)
                p1, term = np.zeros_like(z), np.ones_like(z)
                for k in range(1, 15):
                    p1 = p1 + term
                    term = term * z / (k + 1)
                p1 = np.where(np.abs(z) < 0.5, p1, (E - 1.0) / z)
            for _stage in range(2):
                U = S1 @ x @ S2.T
                V = -(1 - 0.5j) * (U.real ** 2 + U.imag ** 2) ** 3 * U
                x = E * x + 0.01 * p1 * (S1.T @ V @ S2) + x0
        return time.perf_counter() - t0


class SpeedProbe:
    """Times the calibration kernel every PROBE_INTERVAL_S during a solve.

    The kernel runs before a call to ``march``, the marching engine every
    workload goes through, and its time is left out of the solve's time.
    A kernel run before and after the solve covers solves that never march.
    """

    def __init__(self, basis, tables: bool):
        self.kernel = Kernel(basis.n1, basis.grid_shape[0], tables)
        self.samples: list[float] = []
        self.paused = 0.0
        self._next = 0.0
        self._saved: list = []

    def _probe(self):
        t0 = time.perf_counter()
        if t0 >= self._next:
            self.samples.append(self.kernel.seconds())
            t1 = time.perf_counter()
            self.paused += t1 - t0
            self._next = t1 + PROBE_INTERVAL_S

    def solve(self, wl, state) -> tuple[float, float]:
        """(solve seconds without the probes, speed factor) of one solve."""
        self.samples, self.paused = [self.kernel.seconds()], 0.0
        self._next = time.perf_counter() + PROBE_INTERVAL_S
        march = getattr(sys.modules.get("sggl.skeleton"), "march", None)
        if march is not None:
            def probed(*args, **kwargs):
                self._probe()
                return march(*args, **kwargs)
            spans.rebind(march, probed, self._saved)
        try:
            dt = _solve(wl, state)[0]
        finally:
            spans.restore(self._saved)
        self.samples.append(self.kernel.seconds())
        # the solve's time integrates the host's slowness, hence the mean
        return dt - self.paused, CAL_REFERENCE_S / statistics.fmean(self.samples)


def _parse(path: str):
    t0 = time.perf_counter()
    spec = parse_config(path)
    return spec, time.perf_counter() - t0


def _solve(wl, state):
    """Time one solve, then check it; returns (seconds, output or None)."""
    t0 = time.perf_counter()
    try:
        out = wl.solve()
    except Exception:
        dt = time.perf_counter() - t0
        traceback.print_exc()
        state["attempted"] += wl.paths
        state["failed"] += wl.paths
        return dt, None
    dt = time.perf_counter() - t0
    state["attempted"] += wl.paths
    try:
        bad = wl.check(out)
        digest = wl.digest(out)
    except Exception:
        traceback.print_exc()
        bad, digest = wl.paths, None
    if state.setdefault("digest", digest) != digest:
        print("output differs from the run's first solve", file=sys.stderr)
        bad = wl.paths
    if bad:
        print(f"{bad} of {wl.paths} operations failed the check", file=sys.stderr)
    state["failed"] += min(bad, wl.paths)
    return dt, out


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    return int(getattr(lib, sym)())
    except OSError:
        pass
    return None


def _blas_info():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return deps.get("name"), deps.get("version")
    except (KeyError, TypeError):
        return None, None


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--ini", required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--reference", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    spec, parse_s = _parse(args.ini)
    wl = WORKLOADS[args.workload](
        spec, _reference(args.reference, args.workload, args.size, spec.master_seed))
    print(json.dumps({"ready": True}), flush=True)
    # host speed right after set-up, for scaling the set-up time
    probe = SpeedProbe(spec.basis, wl.jump_dense)
    kernel = [probe.kernel.seconds() for _ in range(SETUP_KERNEL_RUNS)]
    print(json.dumps({"speed": CAL_REFERENCE_S / statistics.fmean(kernel)}), flush=True)
    if args.setup_only:
        return 0

    state = {"attempted": 0, "failed": 0}
    if args.trace == 0:
        walls, speeds, kernel_s = [], [], []
        t_run = time.perf_counter()
        while True:
            dt, speed = probe.solve(wl, state)
            walls.append(dt)
            speeds.append(speed)
            kernel_s.append(probe.samples)
            if time.perf_counter() - t_run + statistics.median(walls) > args.seconds:
                break
        wall = statistics.median(w * f for w, f in zip(walls, speeds))
        metrics = {
            "wall_s": wall,
            # a rate solve yields one estimate, so its work unit is the estimate
            "paths_per_s": wl.paths / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        extra = {"solves": len(walls), "raw_walls_s": walls, "speed_factors": speeds,
                 "kernel_s": kernel_s}
    else:
        tracer = spans.Tracer()
        per_solve, traced = [], []
        for _ in range(2):
            before = dict(tracer.counts)
            lo = tracer.mark()
            tracer.install()
            try:
                traced.append(_solve(wl, state)[0])
            finally:
                tracer.uninstall()
            stats = spans.layer_stats(tracer, lo, tracer.mark())
            solves, solve_s = stats.pop("_rate_skeleton_solves")
            per_solve.append({**{k: tracer.counts[k] - before[k] for k in tracer.counts},
                              "stats": stats, "spans": tracer.mark() - lo,
                              "path_s": stats.pop("_durations").get("spde.path", np.empty(0)),
                              "rate_skeleton_solves": solves, "rate_skeleton_s": solve_s})
        repeats = [{**{k: p[k] for k in REPEATING_COUNTS},
                    **{n: v["calls"] for n, v in p["stats"].items()}} for p in per_solve]
        if repeats[0] != repeats[1]:
            print("counts differ between the two traced solves", file=sys.stderr)
            state["failed"] += wl.paths
        tracer.save(str(SPANS_DIR / f"spans-{args.workload}.npz"))
        span_s = spans.span_cost()
        metrics = _layer_metrics(per_solve, spec.basis)
        metrics["config.parse.s"] = statistics.median(
            [parse_s] + [_parse(args.ini)[1] for _ in range(PARSE_REPEATS - 1)])
        metrics["trace.overhead_s"] = per_solve[0]["spans"] * span_s
        metrics["failed_share"] = state["failed"] / state["attempted"]
        extra = {"traced_s": traced, "spans_per_solve": per_solve[0]["spans"],
                 "span_cost_s": span_s, "counts": repeats[0]}

    name, version = _blas_info()
    result = {"attempted": state["attempted"], "failed": state["failed"],
              "metrics": metrics, "detail": extra,
              "environment": {"numpy": np.__version__, "blas": name,
                              "blas_version": version, "blas_threads": _blas_threads()}}
    print(json.dumps({"result": result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
