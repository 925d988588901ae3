"""Finite-activity Poisson random measure on [0,T] x {z_1..z_K}, with thinning.

The mark space is a finite set: mark j carries intensity weight nu_j and a
real jump amplitude g_j.  Sampling is exact and reproducible: each mark owns
a counter-based Philox substream derived from (seed, mark index), and event
times of a rate-lambda process are obtained by time-rescaling a unit-rate
exponential-gap stream.  The rescaling nests samples across intensities, so
a sweep over noise scales epsilon with a shared seed uses common random
numbers.

One sampler, ``sample_prm``, draws both the driving measure of intensity
eps^-1 nu and, given a control phi, the controlled measure of intensity
eps^-1 phi nu, by thinning each mark's dominating stream; phi = 1 gives
back the driving measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class JumpModel:
    """Finite mark space: weights nu({z_j}) > 0 and amplitudes g(z_j)."""

    nu: np.ndarray   # (K,), all > 0
    g: np.ndarray    # (K,), real

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if nu.ndim != 1 or g.shape != nu.shape or nu.size == 0:
            raise ValueError("nu and g must be 1D arrays of equal nonzero length")
        if not np.all(nu > 0):
            raise ValueError("all intensity weights nu_j must be > 0")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "g", g)

    @property
    def n_marks(self) -> int:
        return self.nu.size

    @property
    def total_nu(self) -> float:
        return float(self.nu.sum())


@dataclass(frozen=True)
class NoiseScale:
    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")


@dataclass(frozen=True)
class Control:
    """Nonnegative piecewise-constant intensity phi(t, z_j) on time bins."""

    T: float
    phi: np.ndarray   # (n_bins, K), >= 0

    def __post_init__(self):
        phi = np.atleast_2d(np.asarray(self.phi, dtype=float))
        if not self.T > 0:
            raise ValueError("control horizon T must be > 0")
        if np.any(phi < 0):
            raise ValueError("control intensities must be nonnegative")
        object.__setattr__(self, "phi", phi)

    @property
    def n_bins(self) -> int:
        return self.phi.shape[0]


def constant_control(T: float, n_marks: int, value: float = 1.0) -> Control:
    return Control(T=T, phi=np.full((1, n_marks), float(value)))


@dataclass
class JumpSample:
    """Time-sorted realized events (t_i, mark_i)."""

    times: np.ndarray    # (n,), increasing, in [0, T]
    marks: np.ndarray    # (n,), int indices into the mark space
    T: float

    @property
    def n_events(self) -> int:
        return self.times.size


def empty_sample(T: float) -> JumpSample:
    return JumpSample(np.empty(0), np.empty(0, dtype=int), T)


def validate_model(jm: JumpModel, delta: float) -> float:
    """Exponential-integrability functional sum_j exp(delta g_j^2) nu_j.

    Always finite for a finite mark space; the returned value is the desk
    analog of the integrability condition on the jump coefficient.
    """
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    return float(np.sum(np.exp(delta * jm.g**2) * jm.nu))


def mark_rng(seed: int, mark: int) -> np.random.Generator:
    # Philox is counter-based; (seed, mark) keys independent substreams
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(0, mark))
    return np.random.Generator(np.random.Philox(ss))


def trajectory_seed(master_seed: int, index: int) -> int:
    """Per-trajectory seed, independent of the parallel schedule."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _rate_scaled_times(rng: np.random.Generator, rate: float, T: float) -> np.ndarray:
    """Event times of a Poisson process of the given rate on [0, T].

    Realized as a unit-rate exponential-gap stream cut at rate*T and rescaled;
    for a fixed stream, samples at higher rate are supersets in law (CRN
    coupling across epsilon).
    """
    horizon = rate * T
    if horizon <= 0:
        return np.empty(0)
    total = 0.0
    chunks = []
    chunk = max(16, int(horizon * 1.2) + 8)
    while True:
        gaps = rng.standard_exponential(chunk)
        s = total + np.cumsum(gaps)
        keep = s[s < horizon]
        chunks.append(keep)
        if keep.size < gaps.size:
            break
        total = s[-1]
    arrivals = np.concatenate(chunks)
    return arrivals / rate


def sample_prm(jm: JumpModel, eps: NoiseScale, T: float, seed: int,
               ctrl: Control | None = None) -> JumpSample:
    """Sample the PRM of intensity (1/eps) phi(t, z) nu(dz) dt on [0, T].

    ``ctrl`` None means phi = 1, the driving noise itself.  Under a control,
    mark j is sampled at its dominating intensity M_j = max_b phi[b, j] and
    an event at (t, j) is kept with probability phi(t, z_j)/M_j, the
    acceptance draws following the mark's event stream.  With phi identically
    1 this reproduces the uncontrolled sample pathwise for a shared seed.
    """
    if not T > 0:
        raise ValueError("T must be > 0")
    if ctrl is not None and ctrl.T != T:
        raise ValueError(f"control horizon {ctrl.T} differs from the "
                         f"sampling horizon {T}")
    times_all, marks_all = [], []
    for j in range(jm.n_marks):
        M = 1.0 if ctrl is None else float(ctrl.phi[:, j].max())
        if M == 0.0:
            continue
        rng = mark_rng(seed, j)
        t = _rate_scaled_times(rng, M * jm.nu[j] / eps.epsilon, T)
        if ctrl is not None and t.size:
            bins = np.minimum((t * ctrl.n_bins / T).astype(int), ctrl.n_bins - 1)
            accept = rng.random(t.size) < ctrl.phi[bins, j] / M
            t = t[accept]
        times_all.append(t)
        marks_all.append(np.full(t.size, j, dtype=int))
    return _merge(times_all, marks_all, T)


def _merge(times_all, marks_all, T: float) -> JumpSample:
    if not times_all:
        return empty_sample(T)
    t = np.concatenate(times_all)
    m = np.concatenate(marks_all)
    order = np.argsort(t, kind="stable")
    return JumpSample(t[order], m[order], T)


def drift_coefficient(jm: JumpModel, phi: np.ndarray) -> np.ndarray:
    """c_b = sum_j g_j (phi[b, j] - 1) nu_j, the skeleton compensator drift
    on each control bin b: a (..., n_bins, K) stack of intensities gives its
    (..., n_bins) drift rows."""
    return np.sum(jm.g * (phi - 1.0) * jm.nu, axis=-1)


def compensator_drift(jm: JumpModel) -> float:
    """-sum_j g_j nu_j, the drift of the compensated driving noise; the raw
    and the controlled SPDE share it, since a control changes only events."""
    return float(-np.sum(jm.g * jm.nu))
