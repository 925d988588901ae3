"""Physical parameters of the generalized Ginzburg-Landau model.

The evolution is

    du/dt = (1+i*alpha) Lap(u) - (1-i*beta) |u|^(2*sigma) u + gamma*u + F(u)

on the rectangle (0,L1) x (0,L2) with Dirichlet boundary conditions,
where F(u) = lambda1 . grad(|u|^2 u) + (lambda2 . grad u) |u|^2 with two
complex constant 2-vectors lambda1, lambda2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

BETA_CONSTRAINT = "0<|β|<√(2σ+1)/σ"
SIGMA_CONSTRAINT = "σ>2"


class ParameterError(ValueError):
    """A model parameter violates its admissibility constraint."""


@dataclass(frozen=True)
class Parameters:
    """Constants of the equation and the domain dimensions.

    Well-posedness requires sigma > 2 and 0 < |beta| < sqrt(2*sigma+1)/sigma;
    gamma is a strictly positive linear gain.
    """

    alpha: float
    beta: float
    gamma: float
    sigma: float
    L1: float
    L2: float
    lambda1: tuple[complex, complex] = (0j, 0j)
    lambda2: tuple[complex, complex] = (0j, 0j)

    def __post_init__(self):
        if not self.sigma > 2:
            raise ParameterError(
                f"sigma={self.sigma} violates {SIGMA_CONSTRAINT}")
        beta_cap = math.sqrt(2 * self.sigma + 1) / self.sigma
        if not (0 < abs(self.beta) < beta_cap):
            raise ParameterError(
                f"beta={self.beta} violates {BETA_CONSTRAINT} "
                f"(cap {beta_cap:.6g})")
        if not self.gamma > 0:
            raise ParameterError(f"gamma={self.gamma} must be > 0")
        if not (self.L1 > 0 and self.L2 > 0):
            raise ParameterError("domain dimensions L1, L2 must be > 0")
        object.__setattr__(self, "lambda1", tuple(complex(v) for v in self.lambda1))
        object.__setattr__(self, "lambda2", tuple(complex(v) for v in self.lambda2))

    @property
    def lp_exponent(self) -> float:
        """The exponent 2 sigma + 2, unrounded, of the L^(2 sigma + 2) norm
        that the energy estimate controls."""
        return 2 * self.sigma + 2
