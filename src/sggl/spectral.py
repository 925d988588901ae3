"""Orthonormal sine-basis spectral core on a 2D rectangle with Dirichlet walls.

Basis functions e_{k,m}(x,y) = (2/sqrt(L1*L2)) sin(k pi x/L1) sin(m pi y/L2),
k,m >= 1, diagonalize the Dirichlet Laplacian with eigenvalues
mu_{k,m} = -pi^2 (k^2/L1^2 + m^2/L2^2).  Nonlinear terms are evaluated
pseudo-spectrally on an oversampled interior collocation grid (zero padding
controlled by ``pad_factor``) and projected back by the exact discrete
sine-orthogonality quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import Parameters


@dataclass(frozen=True)
class SpectralBasis:
    """Truncated sine basis with cached collocation transform matrices.

    Immutable after construction; every operation below is a pure function,
    so a basis can be shared freely across threads.
    """

    n1: int
    n2: int
    L1: float
    L2: float
    pad_factor: int
    eigenvalues: np.ndarray          # (n1, n2), mu_{k,m} < 0
    # padded-grid machinery (interior points only, Dirichlet walls excluded)
    _S1: np.ndarray = field(repr=False, default=None)   # (N1, n1) sine values
    _S2: np.ndarray = field(repr=False, default=None)
    _C1: np.ndarray = field(repr=False, default=None)   # (N1, n1) d/dx values
    _C2: np.ndarray = field(repr=False, default=None)
    _w: float = field(repr=False, default=0.0)          # quadrature cell area

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self._S1.shape[0], self._S2.shape[0]

    @property
    def cell_area(self) -> float:
        return self._w

    def to_grid(self, modes: np.ndarray) -> np.ndarray:
        """Evaluate a coefficient array on the padded collocation grid."""
        return self._S1 @ modes @ self._S2.T

    def grad_to_grid(self, modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate (du/dx, du/dy) on the padded collocation grid."""
        ux = self._C1 @ modes @ self._S2.T
        uy = self._S1 @ modes @ self._C2.T
        return ux, uy

    def to_modes(self, values: np.ndarray) -> np.ndarray:
        """Project padded-grid values onto the first n1 x n2 sine modes.

        Exact for fields band-limited below the padded Nyquist frequency;
        residual aliasing of non-polynomial nonlinearities is controlled by
        pad_factor.
        """
        return self._w * (self._S1.T @ values @ self._S2)


def make_basis(n1: int, n2: int, params: Parameters, pad_factor: int = 4) -> SpectralBasis:
    """Build the n1 x n2 sine basis for the domain in ``params``."""
    if n1 < 1 or n2 < 1:
        raise ValueError(f"basis dimensions must be >= 1, got {n1}x{n2}")
    if pad_factor < 1:
        raise ValueError(f"pad_factor must be >= 1, got {pad_factor}")
    L1, L2 = params.L1, params.L2
    k = np.arange(1, n1 + 1)
    m = np.arange(1, n2 + 1)
    eig = -np.pi**2 * (k[:, None]**2 / L1**2 + m[None, :]**2 / L2**2)

    N1 = pad_factor * (n1 + 1) - 1
    N2 = pad_factor * (n2 + 1) - 1
    x = np.arange(1, N1 + 1) * (L1 / (N1 + 1))
    y = np.arange(1, N2 + 1) * (L2 / (N2 + 1))
    # orthonormal 1D factors sqrt(2/L) sin(k pi x / L)
    S1 = np.sqrt(2.0 / L1) * np.sin(np.outer(x, k) * np.pi / L1)
    S2 = np.sqrt(2.0 / L2) * np.sin(np.outer(y, m) * np.pi / L2)
    C1 = np.sqrt(2.0 / L1) * (k * np.pi / L1) * np.cos(np.outer(x, k) * np.pi / L1)
    C2 = np.sqrt(2.0 / L2) * (m * np.pi / L2) * np.cos(np.outer(y, m) * np.pi / L2)
    w = (L1 / (N1 + 1)) * (L2 / (N2 + 1))
    return SpectralBasis(n1=n1, n2=n2, L1=L1, L2=L2, pad_factor=pad_factor,
                         eigenvalues=eig, _S1=S1, _S2=S2, _C1=C1, _C2=C2, _w=w)


@dataclass
class StateField:
    """Complex field represented by its sine-mode coefficient matrix."""

    modes: np.ndarray
    basis: SpectralBasis

    def copy(self) -> "StateField":
        return StateField(self.modes.copy(), self.basis)

    def l2(self) -> float:
        # Parseval: the basis is orthonormal in L2
        return float(np.sqrt(np.sum(np.abs(self.modes) ** 2)))


def zero_field(basis: SpectralBasis) -> StateField:
    return StateField(np.zeros((basis.n1, basis.n2), dtype=complex), basis)


def mode_field(basis: SpectralBasis, k: int, m: int, amp: complex = 1.0) -> StateField:
    """The single mode amp * e_{k,m} (k, m are 1-based)."""
    if not (1 <= k <= basis.n1 and 1 <= m <= basis.n2):
        raise ValueError(f"mode ({k},{m}) outside basis {basis.n1}x{basis.n2}")
    u = zero_field(basis)
    u.modes[k - 1, m - 1] = amp
    return u


@dataclass
class NormReport:
    l2: float
    grad_l2: float
    lp: dict[int, float]


def _check_finite(u: StateField):
    if not np.all(np.isfinite(u.modes)):
        raise ValueError("state field contains non-finite coefficients")


def apply_A(u: StateField, params: Parameters) -> StateField:
    """Stiff linear operator (1+i*alpha)*Laplacian, diagonal in this basis."""
    _check_finite(u)
    coef = (1.0 + 1j * params.alpha) * u.basis.eigenvalues
    return StateField(coef * u.modes, u.basis)


def _add_F_grid(acc: np.ndarray, U: np.ndarray, absU2: np.ndarray,
                u: StateField, params: Parameters) -> np.ndarray:
    """``acc`` plus the grid values of F(u), summed as (acc + a1|u|^2) + a2 u^2.

    F(u) = lambda1 . grad(|u|^2 u) + (lambda2 . grad u)|u|^2 is expanded via
    grad(|u|^2 u) = 2|u|^2 grad u + u^2 grad(conj u), i.e.

        F(u) = ((2 lambda1 + lambda2) . grad u)|u|^2 + (lambda1 . grad(conj u)) u^2,

    with U = u and absU2 = |u|^2 on the padded grid.  Returns ``acc`` itself
    when lambda1 = lambda2 = 0.
    """
    l1, l2v = params.lambda1, params.lambda2
    if all(c == 0 for c in l1) and all(c == 0 for c in l2v):
        return acc
    Ux, Uy = u.basis.grad_to_grid(u.modes)
    a1 = (2 * l1[0] + l2v[0]) * Ux + (2 * l1[1] + l2v[1]) * Uy
    a2 = l1[0] * np.conj(Ux) + l1[1] * np.conj(Uy)
    return acc + a1 * absU2 + a2 * U * U


def _nonlinear_grid(u: StateField, params: Parameters) -> np.ndarray:
    """Grid values of -(1-i*beta)|u|^(2 sigma) u + F(u) on the padded grid."""
    U = u.basis.to_grid(u.modes)
    absU2 = U.real**2 + U.imag**2
    # |u|^(2 sigma) u; 0^positive = 0 handles the zero set
    sep = -(1.0 - 1j * params.beta) * absU2 ** params.sigma * U
    return _add_F_grid(sep, U, absU2, u, params)


def apply_F(u: StateField, params: Parameters) -> StateField:
    """Cubic derivative term F(u), evaluated pseudo-spectrally."""
    _check_finite(u)
    b = u.basis
    U = b.to_grid(u.modes)
    absU2 = U.real**2 + U.imag**2
    return StateField(b.to_modes(_add_F_grid(np.zeros_like(U), U, absU2, u, params)), b)


def apply_B(u: StateField, params: Parameters) -> StateField:
    """Nonlinear-plus-gain operator -(1-i*beta)|u|^(2s)u + gamma*u + F(u)."""
    _check_finite(u)
    b = u.basis
    modes = b.to_modes(_nonlinear_grid(u, params)) + params.gamma * u.modes
    return StateField(modes, b)


def compute_norms(u: StateField, p_list: list[int] | None = None) -> NormReport:
    """L2 and H1 seminorms via Parseval, Lp norms via collocation quadrature."""
    _check_finite(u)
    b = u.basis
    sq = np.abs(u.modes) ** 2
    l2 = float(np.sqrt(np.sum(sq)))
    grad = float(np.sqrt(np.sum(np.abs(b.eigenvalues) * sq)))
    lp: dict[int, float] = {}
    if p_list:
        absU = np.abs(b.to_grid(u.modes))
        for p in p_list:
            lp[p] = float((b.cell_area * np.sum(absU ** p)) ** (1.0 / p))
    return NormReport(l2=l2, grad_l2=grad, lp=lp)
