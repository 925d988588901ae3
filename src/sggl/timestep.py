"""Exponential time differencing (ETDRK2) engine shared by all solvers.

The mode-diagonal linear part L (stiff Laplacian, gain, and any
mode-independent drift coefficients) is integrated exactly; the remaining
nonlinearity is treated with the two-stage predictor-corrector

    a      = e^(hL) c + h phi1(hL) N(c)
    c_next = a + h phi2(hL) (N(a) - N(c))

which is second order.  phi1(z) = (e^z - 1)/z and phi2(z) = (e^z - 1 - z)/z^2
are evaluated on every entry as a Horner-evaluated Taylor series for phi2
and phi1 = 1 + z phi2, which avoids the cancellation near z = 0; the entries
with |z| >= 0.5 are then overwritten with the direct form
phi1 = expm1(z)/z, phi2 = (phi1 - 1)/z.

Everything is elementwise, so a step applies unchanged to a batch of paths
held as (S, n1, n2) arrays with per-path tables; each element is computed by
the same formula whatever the batch holds.
"""

from __future__ import annotations

import math

import numpy as np


class BlowUpError(RuntimeError):
    """Solution norm exceeded the blow-up cap; discretization artifact."""

    def __init__(self, step: int, t: float, norm: float, cap: float):
        self.step, self.t, self.norm, self.cap = step, t, norm, cap
        super().__init__(
            f"blow-up detected at step {step} (t={t:.6g}): "
            f"||u||={norm:.6g} exceeds cap {cap:.6g}")

    def __reduce__(self):
        # rebuilt from its fields, so it survives a process-pool round trip
        return type(self), (self.step, self.t, self.norm, self.cap)


_SERIES_CUT = 0.5
# phi2(z) = sum_k z^k/(k+2)!; 14 terms reach double precision for |z| < 0.5.
# Highest order first, for Horner's rule.
_PHI2_COEFFS = tuple(1.0 / math.factorial(k + 2) for k in range(13, -1, -1))


def _phi2_series(z: np.ndarray) -> np.ndarray:
    acc = np.full_like(z, _PHI2_COEFFS[0])
    for coef in _PHI2_COEFFS[1:]:
        # not in place: numpy rounds a lone entry's in-place product unlike a batch's
        acc = acc * z
        acc += coef
    return acc


def _phi12(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(phi1(z), phi2(z)): the series on every entry, then the direct form
    over the entries with |z| >= 0.5."""
    # the series overflows on large entries, which the direct form redoes
    with np.errstate(over="ignore", invalid="ignore"):
        p2 = _phi2_series(z)
        p1 = 1.0 + z * p2
    big = np.abs(z) >= _SERIES_CUT
    zb = z[big]
    d1 = np.expm1(zb) / zb
    p1[big] = d1
    p2[big] = (d1 - 1.0) / zb
    return p1, p2


def linear_tables(h, L: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e^(hL), h*phi1(hL), h*phi2(hL)) for a diagonal L, reusable across steps.

    ``h`` is a scalar, or one step size per leading entry of ``L``
    (shape ``L.shape[:-2]``) for a batch of paths.  h = 0 gives the exact
    identity tables (1, 0, 0).  Tables that overflow hold infs and NaNs,
    without a warning.
    """
    h = np.asarray(h, dtype=float)
    h = h.reshape(h.shape + (1, 1))
    z = h * L
    # Re z above about 709 overflows; ``march`` blows up a path stepped by it
    with np.errstate(over="ignore", invalid="ignore"):
        p1, p2 = _phi12(z)
        return np.exp(z), h * p1, h * p2


def etdrk2_step(c: np.ndarray, tables, nonlin) -> np.ndarray:
    """One ETDRK2 step of dc/dt = L*c + nonlin(c) with diagonal L, given the
    step's ``linear_tables(h, L)``."""
    E, hp1, hp2 = tables
    n0 = nonlin(c)
    a = E * c + hp1 * n0
    n1 = nonlin(a)
    return a + hp2 * (n1 - n0)
