"""Span tracer that times calls into the public functions of each sggl layer.

The tracer wraps functions from outside the package: every name in a loaded
``sggl`` module that is bound to a traced function object is replaced by a
wrapper, so names bound by ``from ... import`` are wrapped where they are
looked up.  ``SpectralBasis`` transforms are wrapped on the class.  Spans
(name, parent, start, end) are appended to flat arrays in memory and turned
into per-layer self times after the traced solve; ``uninstall`` puts every
original binding back.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name); functions whose calls are counted from
# their arguments or results get a hook in ``Tracer._hooks``.
FUNCTIONS = [
    ("sggl.spectral", "compute_norms", "spectral.compute_norms"),
    ("sggl.skeleton", "make_nonlin", None),          # wraps the closure it returns
    ("sggl.timestep", "linear_tables", "timestep.linear_tables"),
    ("sggl.timestep", "etdrk2_step", "timestep.etdrk2_step"),
    ("sggl.skeleton", "march", "skeleton.march"),
    ("sggl.skeleton", "solve_skeleton", "skeleton.solve"),
    ("sggl.jumps", "sample_prm", "jumps.sample"),
    ("sggl.jumps", "sample_controlled_prm", "jumps.sample"),
    ("sggl.spde", "solve_spde", "spde.path"),
    ("sggl.spde", "solve_controlled_spde", "spde.path"),
    ("sggl.rate", "estimate_rate", "rate.estimate"),
    ("sggl.harness", "convergence_sweep", "harness.convergence_sweep"),
    ("sggl.harness", "sweep_cell", "harness.sweep_cell"),
    ("sggl.harness", "_sweep_one", "harness.sweep_one"),
    ("sggl.harness", "_traj_stats", "harness.traj_stats"),
    ("sggl.harness", "tail_probability", "harness.tail_probability"),
    ("sggl.harness", "_tail_one", "harness.tail_one"),
]
METHODS = [("to_grid", "spectral.to_grid"), ("to_modes", "spectral.to_modes"),
           ("grad_to_grid", "spectral.grad_to_grid")]
NONLINEAR = "spectral.nonlinear"


def rebind(fn, wrapper, saved: list):
    """Point every name bound to ``fn`` in a loaded sggl module at ``wrapper``.

    The replaced bindings are appended to ``saved`` for ``restore``.
    """
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "sggl" or key.startswith("sggl.")):
            continue
        for name, val in list(vars(mod).items()):
            if val is fn:
                saved.append((mod, name, val))
                setattr(mod, name, wrapper)


def restore(saved: list):
    for owner, name, val in reversed(saved):
        setattr(owner, name, val)
    saved.clear()


class Tracer:
    """In-memory span recorder plus the counters read from call arguments."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {"events": 0, "kicks": 0, "grid_steps": 0,
                       "rate_iterations": 0}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span: str, after=None):
        nid = self._name_id(span)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            name.append(nid)
            parent.append(stack[-1])
            stack.append(sid)
            end.append(0.0)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self):
        c = self.counts

        def sampled(args, kwargs, sample):
            c["events"] += int(sample.n_events)

        march = getattr(sys.modules.get("sggl.skeleton"), "march", None)
        march_sig = inspect.signature(march) if march is not None else None

        def marched(args, kwargs, traj):
            a = march_sig.bind(*args, **kwargs).arguments
            c["grid_steps"] += a["grid"].refined_steps(a["n_bins"])
            c["kicks"] += int(np.count_nonzero(np.asarray(a["kick_factors"]) != 1.0))

        def estimated(args, kwargs, res):
            c["rate_iterations"] += int(res.iterations)

        return {"jumps.sample": sampled, "skeleton.march": marched,
                "rate.estimate": estimated}

    # -- installing -------------------------------------------------------
    def install(self):
        hooks = self._hooks()
        for mod_name, attr, span in FUNCTIONS:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is None:
                continue        # absent in this version: its metrics read 0
            wrapper = (self._wrap_factory(fn) if span is None
                       else self.wrap(fn, span, hooks.get(span)))
            rebind(fn, wrapper, self._saved)
        basis_cls = getattr(sys.modules.get("sggl.spectral"), "SpectralBasis", None)
        for attr, span in METHODS:
            fn = basis_cls.__dict__.get(attr) if basis_cls is not None else None
            if fn is not None:
                self._saved.append((basis_cls, attr, fn))
                setattr(basis_cls, attr, self.wrap(fn, span))

    def _wrap_factory(self, factory):
        tracer = self

        def make(*args, **kwargs):
            return tracer.wrap(factory(*args, **kwargs), NONLINEAR)

        make.__wrapped__ = factory
        return make

    def uninstall(self):
        restore(self._saved)

    # -- reading ----------------------------------------------------------
    def mark(self) -> int:
        """Index of the next span; solves are delimited by marks."""
        return len(self.start)

    def arrays(self, lo: int = 0, hi: int | None = None):
        hi = len(self.start) if hi is None else hi
        # copies, so the arrays stay free to grow while the result lives
        return tuple(np.frombuffer(a, dtype=d)[lo:hi].copy() for a, d in
                     ((self.name, np.int32), (self.parent, np.int32),
                      (self.start, np.float64), (self.end, np.float64)))

    def save(self, path: str):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)


def span_cost(calls: int = 100_000, repeats: int = 3) -> float:
    """Seconds one traced call adds, timed on a no-op in this process.

    The tracing overhead of a solve is estimated as its span count times
    this cost, so the traced run needs no untraced twin.
    """
    def noop():
        return None

    wrapped = Tracer().wrap(noop, "noop")
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return sorted(costs)[repeats // 2]


def layer_stats(tracer: Tracer, lo: int, hi: int) -> dict:
    """Calls, inclusive and self seconds per span name for spans [lo, hi).

    Self time is a span's duration minus the durations of its direct
    children; spans of one segment have parents inside it or at -1.
    """
    name, parent, start, end = tracer.arrays(lo, hi)
    dur = end - start
    rel = parent.astype(np.int64) - lo
    inside = rel >= 0
    child = np.bincount(rel[inside], weights=dur[inside], minlength=dur.size)
    self_t = dur - child
    k = len(tracer.names)
    calls = np.bincount(name, minlength=k)
    incl = np.bincount(name, weights=dur, minlength=k)
    selfs = np.bincount(name, weights=self_t, minlength=k)
    out = {n: {"calls": int(calls[i]), "incl_s": float(incl[i]),
               "self_s": float(selfs[i])} for i, n in enumerate(tracer.names)}
    out["_durations"] = {n: dur[name == i] for i, n in enumerate(tracer.names)}
    out["_rate_skeleton_solves"] = _under(name, rel, dur, tracer._ids.get("skeleton.solve"),
                                          tracer._ids.get("rate.estimate"))
    return out


def _under(name, rel, dur, child, ancestor) -> tuple[int, float]:
    """Count and total seconds of ``child`` spans below an ``ancestor`` span."""
    if child is None or ancestor is None:
        return 0, 0.0
    n, total = 0, 0.0
    for i in np.flatnonzero(name == child):
        j = rel[i]
        while j >= 0 and name[j] != ancestor:
            j = rel[j]
        if j >= 0:
            n += 1
            total += float(dur[i])
    return n, total
