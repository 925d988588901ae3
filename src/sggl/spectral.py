"""Orthonormal sine-basis spectral core on a 2D rectangle with Dirichlet walls.

Basis functions e_{k,m}(x,y) = (2/sqrt(L1*L2)) sin(k pi x/L1) sin(m pi y/L2),
k,m >= 1, diagonalize the Dirichlet Laplacian with eigenvalues
mu_{k,m} = -pi^2 (k^2/L1^2 + m^2/L2^2).  Nonlinear terms are evaluated
pseudo-spectrally on an oversampled interior collocation grid (zero padding
controlled by ``pad_factor``) and projected back by the exact discrete
sine-orthogonality quadrature.

With S1 (N1 x n1), S2 (N2 x n2) the 1-D sine factors sampled on the grid
and C1, C2 their x- and y-derivatives, a coefficient array c has grid
values S1 c S2^T, gradient (C1 c S2^T, S1 c C2^T), and grid values G
project back to w S1^T G S2 (w the quadrature cell area).  Every factor is
real, and ``make_basis`` stores each in the form that one real GEMM applies
to the float64 view of a complex operand (real and imaginary parts
interleaved along its last axis): a left factor as is, a right factor M as
kron(M, I2).  A complex transform thus costs the flops of its real and
imaginary parts, with no per-call cast of a real factor to complex, and
every grid field comes out C-contiguous.  A batch (S, n1, n2) is
transformed one (n1, n2) slice per GEMM, all of the same shape, so a
path's result does not depend on the batch it is marched in.
``make_nonlin`` evaluates the whole nonlinearity on these factors in one
kernel; ``apply_B`` and ``apply_F`` go through it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .params import Parameters

# default oversampling: n modes on an axis get pad_factor (n + 1) - 1 grid points
PAD_FACTOR = 4


def _float_view(X: np.ndarray) -> np.ndarray:
    """X as C-contiguous complex128 (copied only if it is not), viewed as float64."""
    return np.ascontiguousarray(X, dtype=np.complex128).view(np.float64)


def _left(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ X for real A (m, k) and complex X (..., k, n), as real GEMMs."""
    return np.matmul(A, _float_view(X)).view(np.complex128)


def _right(X: np.ndarray, R: np.ndarray) -> np.ndarray:
    """X @ M for complex X (..., m, k) and R = kron(M, I2), as real GEMMs."""
    return np.matmul(_float_view(X), R).view(np.complex128)


@dataclass(frozen=True)
class SpectralBasis:
    """Truncated sine basis with its precomputed collocation transform factors.

    Immutable after construction; every operation below is a pure function,
    so a basis can be shared freely across threads.  The transforms take one
    (n1, n2) coefficient array or a batch shaped (S, n1, n2), and grid values
    shaped (N1, N2) or (S, N1, N2) likewise.
    """

    n1: int
    n2: int
    L1: float
    L2: float
    pad_factor: int
    eigenvalues: np.ndarray          # (n1, n2), mu_{k,m} < 0
    # padded-grid factors (interior points only, Dirichlet walls excluded)
    _S1: np.ndarray = field(repr=False, default=None)   # (N1, n1) sine values
    _C1: np.ndarray = field(repr=False, default=None)   # (N1, n1) d/dx values
    _P1: np.ndarray = field(repr=False, default=None)   # (n1, N1): w S1^T
    _RS2: np.ndarray = field(repr=False, default=None)  # kron(S2^T, I2)
    _RC2: np.ndarray = field(repr=False, default=None)  # kron(C2^T, I2), d/dy
    _RP2: np.ndarray = field(repr=False, default=None)  # kron(S2, I2)
    _w: float = field(repr=False, default=0.0)          # quadrature cell area

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self._S1.shape[0], self._RS2.shape[1] // 2

    @property
    def cell_area(self) -> float:
        return self._w

    def to_grid(self, modes: np.ndarray) -> np.ndarray:
        """Evaluate a coefficient array on the padded collocation grid."""
        return _left(self._S1, _right(modes, self._RS2))

    def grad_to_grid(self, modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate (du/dx, du/dy) on the padded collocation grid."""
        ux = _left(self._C1, _right(modes, self._RS2))
        uy = _left(self._S1, _right(modes, self._RC2))
        return ux, uy

    def to_modes(self, values: np.ndarray) -> np.ndarray:
        """Project padded-grid values onto the first n1 x n2 sine modes.

        Exact for fields band-limited below the padded Nyquist frequency;
        residual aliasing of non-polynomial nonlinearities is controlled by
        pad_factor.
        """
        return _right(_left(self._P1, values), self._RP2)


def make_basis(n1: int, n2: int, params: Parameters,
               pad_factor: int = PAD_FACTOR) -> SpectralBasis:
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
    I2 = np.eye(2)
    return SpectralBasis(n1=n1, n2=n2, L1=L1, L2=L2, pad_factor=pad_factor,
                         eigenvalues=eig, _S1=S1, _C1=C1,
                         _P1=np.ascontiguousarray(w * S1.T),
                         _RS2=np.kron(S2.T, I2), _RC2=np.kron(C2.T, I2),
                         _RP2=np.kron(S2, I2), _w=w)


@dataclass
class StateField:
    """Complex field represented by its sine-mode coefficient matrix."""

    modes: np.ndarray
    basis: SpectralBasis

    def copy(self) -> "StateField":
        return StateField(self.modes.copy(), self.basis)

    def l2(self) -> float:
        return float(np.sqrt(norm_powers(self.basis, self.modes)[0]))


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
    """Norms of one field (floats) or of each field of a stack (arrays
    shaped like the stack's leading axes)."""

    l2: float | np.ndarray
    grad_l2: float | np.ndarray
    lp: dict[int, float | np.ndarray]


def _check_finite(u: StateField):
    if not np.all(np.isfinite(u.modes)):
        raise ValueError("state field contains non-finite coefficients")


def apply_A(u: StateField, params: Parameters) -> StateField:
    """Stiff linear operator (1+i*alpha)*Laplacian, diagonal in this basis."""
    _check_finite(u)
    coef = (1.0 + 1j * params.alpha) * u.basis.eigenvalues
    return StateField(coef * u.modes, u.basis)


def _nonlin_kernel(params: Parameters, basis: SpectralBasis, saturation: bool):
    """Mode-space map c -> P[s(u) + F(u)] on the precomputed factors.

    s(u) = -(1-i*beta)|u|^(2 sigma) u if ``saturation``, else 0; P projects
    grid values back onto the basis.  F(u) = lambda1 . grad(|u|^2 u)
    + (lambda2 . grad u)|u|^2 is expanded via grad(|u|^2 u) = 2|u|^2 grad u
    + u^2 grad(conj u), i.e.

        F(u) = ((2 lambda1 + lambda2) . grad u)|u|^2 + (lambda1 . grad(conj u)) u^2.

    The grid sum is formed divided by kappa = -(1-i*beta) (or 1 without
    saturation), so the saturable term is a real scaling of u and kappa
    multiplies the n1 x n2 result instead of the padded grid.  Terms whose
    lambdas vanish are left out when the kernel is built.

    The grid fields live in buffers that the returned function keeps
    between calls, sized for the largest batch it has seen.  A batch's
    fields run to megabytes; allocated afresh on every call, their pages
    went back to the system and were faulted in again each time (about 14
    page faults per path and call at 8x8), which cost more than the
    arithmetic.  So one returned function must not run in two threads at
    once.
    """
    kappa = -(1.0 - 1j * params.beta) if saturation else 1.0
    l1, l2 = params.lambda1, params.lambda2
    with_F, with_conj = any(l1) or any(l2), any(l1)
    ax, ay = ((2 * l1[i] + l2[i]) / kappa for i in (0, 1))
    bx, by = (np.conj(l1[i] / kappa) for i in (0, 1))
    sigma = params.sigma
    S1, C1, P1 = basis._S1, basis._C1, basis._P1
    RS2, RC2, RP2 = basis._RS2, basis._RC2, basis._RP2
    half, grid = (basis.n1, basis.grid_shape[1]), basis.grid_shape
    # one path's share of each buffer
    layout = {"R": (half, complex), "U": (grid, complex), "a": (grid, float),
              "t": (grid, float), "H": (half, complex)}
    if with_F:
        layout.update(R1=(half, complex), Ux=(grid, complex), Uy=(grid, complex),
                      T=(grid, complex), T2=(grid, complex))
    bases: dict[str, np.ndarray] = {}
    spaces: dict[tuple, SimpleNamespace] = {}

    def workspace(lead: tuple) -> SimpleNamespace:
        """The buffers' views for batch shape ``lead``, with the float64 view
        ``<name>_f`` of each complex one and u's real and imaginary parts;
        they are kept because making a view costs about as much as a small
        elementwise op."""
        w = spaces.get(lead)
        if w is None:
            S = math.prod(lead)
            if not bases or S > len(bases["U"]):
                bases.update((k, np.empty((S,) + shape, dtype))
                             for k, (shape, dtype) in layout.items())
                spaces.clear()
            w = spaces[lead] = SimpleNamespace()
            for k, base in bases.items():
                v = base[:S].reshape(lead + base.shape[1:])
                setattr(w, k, v)
                if v.dtype == complex:
                    setattr(w, k + "_f", v.view(np.float64))
            w.U_re, w.U_im = w.U.real, w.U.imag
        return w

    def nonlin(c: np.ndarray) -> np.ndarray:
        w = workspace(c.shape[:-2])
        cf = _float_view(c)
        U, a = w.U, w.a
        np.matmul(cf, RS2, out=w.R_f)               # c S2^T, shared by u and du/dx
        np.matmul(S1, w.R_f, out=w.U_f)
        np.multiply(w.U_re, w.U_re, out=a)          # |u|^2
        np.multiply(w.U_im, w.U_im, out=w.t)
        a += w.t
        if with_F:
            Ux, Uy, T = w.Ux, w.Uy, w.T
            np.matmul(C1, w.R_f, out=w.Ux_f)
            np.matmul(cf, RC2, out=w.R1_f)
            np.matmul(S1, w.R1_f, out=w.Uy_f)
            np.multiply(Ux, ax, out=T)              # ((2 l1 + l2) . grad u)|u|^2
            np.multiply(Uy, ay, out=w.T2)
            T += w.T2
            T *= a
            if with_conj:                           # (l1 . grad conj u) u^2
                Ux *= bx
                Uy *= by
                Ux += Uy
                np.conjugate(Ux, out=Ux)
                Ux *= U
                Ux *= U
                T += Ux
        if saturation:
            # |u|^(2 sigma) u; 0^positive = 0 handles the zero set
            np.power(a, sigma, out=a)
            U *= a
            if with_F:
                U += T
            G = w.U_f
        else:
            G = w.T_f if with_F else np.zeros_like(w.U_f)
        np.matmul(P1, G, out=w.H_f)
        out = np.matmul(w.H_f, RP2).view(np.complex128)
        out *= kappa
        return out
    return nonlin


def make_nonlin(params: Parameters, basis: SpectralBasis):
    """Mode-space nonlinearity N(c): saturable term -(1-i*beta)|u|^(2 sigma) u
    plus the derivative term F(u), evaluated pseudo-spectrally.

    The returned function takes one (n1, n2) coefficient array or a batch
    shaped (S, n1, n2) and returns an array of the same shape.
    """
    return _nonlin_kernel(params, basis, saturation=True)


def apply_F(u: StateField, params: Parameters) -> StateField:
    """Cubic derivative term F(u), evaluated pseudo-spectrally."""
    _check_finite(u)
    return StateField(_nonlin_kernel(params, u.basis, saturation=False)(u.modes), u.basis)


def apply_B(u: StateField, params: Parameters) -> StateField:
    """Nonlinear-plus-gain operator -(1-i*beta)|u|^(2s)u + gamma*u + F(u)."""
    _check_finite(u)
    modes = make_nonlin(params, u.basis)(u.modes) + params.gamma * u.modes
    return StateField(modes, u.basis)


def norm_powers(basis: SpectralBasis, modes: np.ndarray, p_list=()):
    """(||u||^2, ||grad u||^2, {p: int |u|^p dx}) of each field of a
    (..., n1, n2) coefficient stack, each shaped like its leading axes.

    The squared L2 norm and H1 seminorm come from Parseval (the basis is
    orthonormal in L2), the Lp integrals from collocation quadrature on the
    padded grid.
    """
    sq = np.abs(modes) ** 2
    l2sq = np.sum(sq, axis=(-2, -1))
    gradsq = np.sum(np.abs(basis.eigenvalues) * sq, axis=(-2, -1))
    lp = {}
    if p_list:
        absU = np.abs(basis.to_grid(modes))
        lp = {p: basis.cell_area * np.sum(absU ** p, axis=(-2, -1)) for p in p_list}
    return l2sq, gradsq, lp


def scalar_pow(x, e: float):
    """x ** e elementwise, one Python float at a time.

    numpy's vectorised array pow rounds some values differently from the
    scalar libm pow; the written norms and audit figures are the scalar
    pow's.  A 0-d input gives a numpy scalar.
    """
    out = np.array([v ** e for v in np.ravel(x).tolist()])
    return out.reshape(np.shape(x))[()]


def compute_norms(u: StateField, p_list: list[int] | None = None) -> NormReport:
    """L2 norm, H1 seminorm and Lp norms (``norm_powers``) of one field, or
    of each field of a stack: ``u.modes`` shaped (..., n1, n2)."""
    _check_finite(u)
    l2sq, gradsq, lp = norm_powers(u.basis, u.modes, p_list)
    return NormReport(l2=np.sqrt(l2sq), grad_l2=np.sqrt(gradsq),
                      lp={p: scalar_pow(v, 1.0 / p) for p, v in lp.items()})
