"""Shared fixtures and independent numerical oracles for the test suite.

The oracle helpers here deliberately avoid the package's transform machinery:
fields are evaluated from explicit sine formulas on dense interior grids and
projected back by plain quadrature, so they can catch sign or normalization
errors in the library transforms.
"""

import numpy as np
import pytest

from sggl import JumpModel, Parameters, make_basis


def jm2():
    """The two-mark jump model of the tests: amplitudes of opposite sign."""
    return JumpModel(nu=np.array([1.0, 0.5]), g=np.array([0.5, -0.3]))


@pytest.fixture(scope="session")
def params_pi():
    """Reference parameter set on the (0,pi)^2 square."""
    return Parameters(alpha=0.5, beta=0.5, gamma=1.0, sigma=3.0,
                      L1=np.pi, L2=np.pi)


@pytest.fixture(scope="session")
def basis8(params_pi):
    return make_basis(8, 8, params_pi, pad_factor=4)


@pytest.fixture(scope="session")
def basis1(params_pi):
    return make_basis(1, 1, params_pi, pad_factor=4)


# ---------------------------------------------------------------------------
# dense-grid oracle machinery (independent of the library transforms)

class DenseGrid:
    """Uniform interior collocation grid with explicit sine-mode evaluation."""

    def __init__(self, L1, L2, N=256):
        self.L1, self.L2, self.N = L1, L2, N
        self.x = np.arange(1, N + 1) * (L1 / (N + 1))
        self.y = np.arange(1, N + 1) * (L2 / (N + 1))
        self.w = (L1 / (N + 1)) * (L2 / (N + 1))

    def mode(self, k, m):
        """Orthonormal basis function e_{k,m} on the grid (k, m 1-based)."""
        fx = np.sqrt(2.0 / self.L1) * np.sin(k * np.pi * self.x / self.L1)
        fy = np.sqrt(2.0 / self.L2) * np.sin(m * np.pi * self.y / self.L2)
        return np.outer(fx, fy)

    def mode_grad(self, k, m):
        fx = np.sqrt(2.0 / self.L1) * np.sin(k * np.pi * self.x / self.L1)
        fy = np.sqrt(2.0 / self.L2) * np.sin(m * np.pi * self.y / self.L2)
        dfx = np.sqrt(2.0 / self.L1) * (k * np.pi / self.L1) * np.cos(k * np.pi * self.x / self.L1)
        dfy = np.sqrt(2.0 / self.L2) * (m * np.pi / self.L2) * np.cos(m * np.pi * self.y / self.L2)
        return np.outer(dfx, fy), np.outer(fx, dfy)

    def field(self, modes):
        """Evaluate a coefficient matrix as a grid field, with its gradient."""
        n1, n2 = modes.shape
        U = np.zeros((self.N, self.N), dtype=complex)
        Ux = np.zeros_like(U)
        Uy = np.zeros_like(U)
        for k in range(n1):
            for m in range(n2):
                c = modes[k, m]
                if c == 0:
                    continue
                e = self.mode(k + 1, m + 1)
                ex, ey = self.mode_grad(k + 1, m + 1)
                U += c * e
                Ux += c * ex
                Uy += c * ey
        return U, Ux, Uy

    def project(self, values, n1, n2):
        """Quadrature projection of grid values onto the first n1 x n2 modes.

        Exact for trigonometric polynomials of sine degree below N+1, which
        covers the degree-(2s+1) products of low-mode fields used in tests.
        """
        out = np.zeros((n1, n2), dtype=complex)
        for k in range(n1):
            for m in range(n2):
                out[k, m] = self.w * np.sum(self.mode(k + 1, m + 1) * values)
        return out


def oracle_B_modes(modes, params, n1, n2, N=256):
    """Dense-grid evaluation of B(u) = -(1-i b)|u|^(2s)u + gamma u + F(u).

    F is computed from its original form lambda1 . grad(|u|^2 u)
    + (lambda2 . grad u)|u|^2, with grad(|u|^2 u) obtained by the product
    rule applied factor by factor (u * conj(u) * u), so the oracle does not
    share the library's algebraic rearrangement.
    """
    g = DenseGrid(params.L1, params.L2, N)
    U, Ux, Uy = g.field(modes)
    absU2 = np.abs(U) ** 2
    # d/dx (u ubar u) = Ux*conj(U)*U + U*conj(Ux)*U + U*conj(U)*Ux, same in y
    Wx = Ux * np.conj(U) * U + U * np.conj(Ux) * U + absU2 * Ux
    Wy = Uy * np.conj(U) * U + U * np.conj(Uy) * U + absU2 * Uy
    l1, l2 = params.lambda1, params.lambda2
    F = l1[0] * Wx + l1[1] * Wy + (l2[0] * Ux + l2[1] * Uy) * absU2
    sep = -(1.0 - 1j * params.beta) * absU2 ** params.sigma * U
    vals = sep + F
    return g.project(vals, n1, n2) + params.gamma * modes


def oracle_F_modes(modes, params, n1, n2, N=256):
    """Dense-grid evaluation of F(u) alone (see oracle_B_modes)."""
    p0 = Parameters(alpha=params.alpha, beta=params.beta, gamma=params.gamma,
                    sigma=params.sigma, L1=params.L1, L2=params.L2,
                    lambda1=params.lambda1, lambda2=params.lambda2)
    full = oracle_B_modes(modes, p0, n1, n2, N)
    bare = Parameters(alpha=params.alpha, beta=params.beta, gamma=params.gamma,
                      sigma=params.sigma, L1=params.L1, L2=params.L2)
    no_f = oracle_B_modes(modes, bare, n1, n2, N)
    return full - no_f


def rel_err(a, b):
    denom = np.max(np.abs(b))
    if denom == 0:
        return float(np.max(np.abs(a - b)))
    return float(np.max(np.abs(a - b)) / denom)
