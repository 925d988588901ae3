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
kernel, with the derivative term's constants and conjugation folded into
copies of the right factors, and -(1 - i beta) into the projection's; the
derivative term is left out only when lambda1 = lambda2 = 0.  ``apply_B``
goes through it, and ``apply_F`` is its difference from the same kernel
with lambda1 = lambda2 = 0.

Grid powers |u|^q are taken from |u|^2, never from |u| (which costs a
hypot).  The kernel forms |u|^2 as conj(u) u in a complex buffer and
multiplies u by its power in place (``_times_power_by``), so no pass reads
a strided real or imaginary part or casts a real field to complex;
``norm_powers`` and the energy audit take re^2 + im^2 (``_abs_sq``) and
raise it to p / 2 by ``_power_by`` for |u|^p, with p = 2 sigma + 2 exactly.
Both raise an integer exponent by repeated multiplication, so sigma = 3 and
the L^8 quadrature need no libm pow.  Any other real power, such as
sigma = 2.3's |u|^6.6 or an Lp norm's root, is ``np.power`` on the whole
array, which rounds a value alike alone or in any array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .params import Parameters

# default oversampling: n modes on an axis get pad_factor (n + 1) - 1 grid points
PAD_FACTOR = 4
# The nonlinearity kernel walks a batch in row chunks whose grid buffers hold
# at most this many bytes, so they stay in a core's L2 cache: 14 rows at 8x8
# with F, 34 without (``chunk_rows``).
WORKSPACE_BYTES = 1_500_000


def _row_chunks(S: int, most: int) -> list[slice]:
    """S rows cut into the fewest slices of at most ``most`` rows (at least
    one), equal in length give or take one; the first is a longest one."""
    n = max(1, -(-S // max(1, most)))
    edges = [-(-i * S // n) for i in range(n + 1)]      # ceil(i S / n)
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _float_view(X: np.ndarray) -> np.ndarray:
    """X as C-contiguous complex128 (copied only if it is not), viewed as float64."""
    return np.ascontiguousarray(X, dtype=np.complex128).view(np.float64)


def _power_by(e: float):
    """The map (a, out) -> a ** e for a non-negative float field ``a``,
    written to ``out`` (allocated if None), with the multiplications worked
    out once for a caller that raises many fields to the same e.

    An integer e >= 1 is applied by left-to-right binary powering: for each
    bit of e after the leading one the result is squared, then multiplied by
    ``a`` if the bit is set, all in place in ``out``, which must not be
    ``a``.  So a ** 3 is (a * a) * a, bit for bit, and e = 1 returns ``a``
    itself.  Any other e goes to ``np.power``.
    """
    if not float(e).is_integer():
        return lambda a, out: np.power(a, e, out=out)
    if e < 1:
        raise ValueError(f"integer exponent must be >= 1, got {e}")
    odd = [bit == "1" for bit in bin(int(e))[3:]]

    def power(a: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        r = a
        for times_a in odd:
            r = out = np.multiply(r, r, out=out)
            if times_a:
                r *= a
        return r
    return power


def _times_power_by(e: float):
    """The map (U, A) -> U * A ** e in place in U, for complex fields U and
    A; A is spent.  The kernel's |u|^(2 sigma) u, with A = |u|^2.

    An integer e >= 1 is applied by right-to-left binary powering: U *= A
    for each set bit of e, lowest first, and A *= A between bits, so no
    other buffer is needed: U A^3 is (U A) A^2.  Any other e goes to
    ``np.power`` in place in A.
    """
    if not float(e).is_integer():
        def times_pow(U: np.ndarray, A: np.ndarray):
            U *= np.power(A, e, out=A)
        return times_pow
    bits = [bit == "1" for bit in reversed(bin(int(e))[2:])]

    def times_pow(U: np.ndarray, A: np.ndarray):
        for i, times_A in enumerate(bits):
            if i:
                A *= A
            if times_A:
                U *= A
    return times_pow


def _abs_sq(U: np.ndarray) -> np.ndarray:
    """|U|^2 = re^2 + im^2 of a C-contiguous complex array, which is spent:
    its parts are squared in place, so no temporary is allocated."""
    v = U.view(np.float64)
    v *= v
    return v[..., ::2] + v[..., 1::2]


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
    for name, L, n in (("L1", L1, n1), ("L2", L2, n2)):
        # L^2 within float range, and the axis's largest eigenvalue term
        # within a quarter of it, so the two axes' sum stays finite too
        sq = L * L
        if not (0 < sq < math.inf and math.pi**2 * n**2 / sq < np.finfo(float).max / 4):
            raise ValueError(f"{name} = {L!r} puts the Laplacian's eigenvalues "
                             f"pi^2 k^2/{name}^2, k <= {n}, outside float range")
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
    return SpectralBasis(n1=n1, n2=n2, pad_factor=pad_factor,
                         eigenvalues=eig, _S1=S1, _C1=C1,
                         _P1=np.ascontiguousarray(w * S1.T),
                         _RS2=np.kron(S2.T, I2), _RC2=np.kron(C2.T, I2),
                         _RP2=np.kron(S2, I2), _w=w)


@dataclass
class StateField:
    """Complex field represented by its sine-mode coefficient matrix."""

    modes: np.ndarray
    basis: SpectralBasis

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


def _check_finite(u: StateField):
    if not np.all(np.isfinite(u.modes)):
        raise ValueError("state field contains non-finite coefficients")


def apply_A(u: StateField, params: Parameters) -> StateField:
    """Stiff linear operator (1+i*alpha)*Laplacian, diagonal in this basis."""
    _check_finite(u)
    coef = (1.0 + 1j * params.alpha) * u.basis.eigenvalues
    return StateField(coef * u.modes, u.basis)


def _kernel_layout(basis: SpectralBasis, with_F: bool) -> dict:
    """One path's share of each of the nonlinearity kernel's buffers, all
    complex, as {name: shape}."""
    n1, grid = basis.n1, basis.grid_shape
    # Y: c S2^T, and with F the folded x parts beside it over the folded y parts
    layout = {"U": grid, "A": grid, "Y": ((1 + with_F) * n1, (1 + 2 * with_F) * grid[1])}
    if with_F:
        layout.update(D=grid, E=grid)
    return layout


def _row_bytes(layout: dict) -> int:
    return sum(math.prod(shape) for shape in layout.values()) * np.dtype(complex).itemsize


def _has_F(params: Parameters) -> bool:
    return any(params.lambda1) or any(params.lambda2)


def chunk_rows(params: Parameters, basis: SpectralBasis) -> int:
    """The rows that the nonlinearity of ``make_nonlin(params, basis)``
    evaluates in one chunk: as many as its buffers hold within
    WORKSPACE_BYTES, at least one."""
    layout = _kernel_layout(basis, _has_F(params))
    return max(1, WORKSPACE_BYTES // _row_bytes(layout))


def make_nonlin(params: Parameters, basis: SpectralBasis):
    """Mode-space nonlinearity N(c) = P[s(u) + F(u)]: the saturable term
    s(u) = -(1-i*beta)|u|^(2 sigma) u plus the derivative term F(u),
    evaluated pseudo-spectrally on the precomputed factors.

    The returned function takes one (n1, n2) coefficient array or a batch
    shaped (S, n1, n2) and returns an array of the same shape.  P projects
    grid values back onto the basis.  F(u) = lambda1 . grad(|u|^2 u)
    + (lambda2 . grad u)|u|^2 is expanded via grad(|u|^2 u) = 2|u|^2 grad u
    + u^2 grad(conj u), i.e.

        F(u) = ((2 lambda1 + lambda2) . grad u)|u|^2 + (lambda1 . grad(conj u)) u^2.

    The grid sum is formed divided by kappa = -(1-i*beta), so the saturable
    term is u times a power of |u|^2, and kappa is folded into the
    projection's right factor, kron(S2, [[Re kappa, Im kappa], [-Im kappa,
    Re kappa]]), so no pass scales the result.  F is left out when both
    lambdas vanish.

    F's gradient fields D = ((2 lambda1 + lambda2)/kappa) . grad u and
    E = (lambda1/kappa) . grad(conj u) come straight out of GEMMs.  A
    constant times a float pair, conjugated or not, is a real 2x2 map, which
    the kernel folds into copies of the right factors once (``folded``).
    Per chunk cf @ [kron(S2^T, I2) | kron(S2^T, A_x) | kron(S2^T, B_x)] gives
    c S2^T and the x parts of D and E, and cf @ [kron(C2^T, A_y) |
    kron(C2^T, B_y)] their y parts, in the rows below them in one buffer Y;
    [C1 | S1] applied to Y's D columns, then to its E columns, sums the
    parts.  That is seven GEMMs with the projection, and F's grid passes are
    D |u|^2, E u twice and their sum.  D, E and u each keep a contiguous
    buffer: a layout with D and E side by side in one array was slower.
    Without F, Y holds c S2^T alone, the first GEMM is cf @ kron(S2^T, I2)
    into it, and the kernel makes four GEMMs.

    |u|^2 is conj(u) u, two contiguous complex passes into the buffer
    ``A``; its imaginary part is 0 up to rounding (numpy's complex product
    may fuse its multiply-adds).  F's D |u|^2 reads A, then
    ``_times_power_by(sigma)``, built with the kernel, multiplies u by
    A^sigma in place, powering A in place too: U *= A, A *= A, U *= A for
    sigma = 3, and for a non-integer sigma ``np.power`` into A and one
    product.  With F a chunk thus makes ten grid passes at sigma = 3, all
    complex and contiguous, and without F five.  The projection's first
    GEMM writes into the spent c S2^T.

    The grid fields live in buffers that the returned function keeps
    between calls.  A batch's fields run to megabytes; allocated afresh on
    every call, their pages went back to the system and were faulted in
    again each time (about 14 page faults per path and call at 8x8), which
    cost more than the arithmetic.  Every batch is walked in equal row
    chunks of at most ``chunk_rows`` rows (``_row_chunks``), so the buffers
    stay within WORKSPACE_BYTES and in cache however large the batch, and
    a batch's chunks do not depend on the batches before it.  The buffers
    hold min(S, ``chunk_rows``) rows for the largest batch S so far: a
    larger one reallocates them, which a march, whose rows only leave,
    never needs after its first call.  A row's arithmetic is the same in
    any chunk.  No reference cycle holds the function, so a march's kernel
    frees its buffers as soon as the march drops it.  One returned function
    may serve many marches, one at a time: it must not run in two threads
    at once.
    """
    kappa = -(1.0 - 1j * params.beta)
    l1, l2 = params.lambda1, params.lambda2
    with_F = _has_F(params)
    times_pow = _times_power_by(params.sigma)
    S1, P1 = basis._S1, basis._P1
    RS2 = basis._RS2
    n1, g = basis.n1, RS2.shape[1]          # g: floats in a grid row

    def times(a: complex) -> list:
        """The real 2x2 map that takes a float pair [x, y] to a (x + iy)."""
        return [[a.real, a.imag], [-a.imag, a.real]]
    RP2k = np.kron(basis._RP2[::2, ::2], times(kappa))     # kron(S2, kappa)
    K1 = RS2
    if with_F:
        CS = np.hstack((basis._C1, S1))

        def folded(R: np.ndarray, i: int) -> list:
            """Axis i's factor R = kron(M, I2) as kron(M, A_i) and
            kron(M, B_i): a float pair [x, y] times A_i is a (x + iy), times
            B_i is b conj(x + iy), for D's constant a and E's b."""
            a, b = (2 * l1[i] + l2[i]) / kappa, l1[i] / kappa
            maps = (times(a), [[b.real, b.imag], [b.imag, -b.real]])
            return [np.kron(R[::2, ::2], m) for m in maps]
        K1 = np.hstack([RS2] + folded(RS2, 0))
        K2 = np.hstack(folded(basis._RC2, 1))
    half_f = (n1, 2 * basis.n2)             # a coefficient array's float view
    one_point = math.prod(basis.grid_shape) == 1
    layout = _kernel_layout(basis, with_F)
    most = chunk_rows(params, basis)
    bases: dict[str, np.ndarray] = {}
    plans: dict[int, list] = {}

    def views(S: int) -> SimpleNamespace:
        """The buffers' first S rows, with the float64 view ``<name>_f`` of
        each (all are complex) and the blocks of Y:
        without F, Y is c S2^T and the F blocks are empty; with F, Y's lower
        first g columns go unused."""
        w = SimpleNamespace()
        for k, base in bases.items():
            v = base[:S]
            setattr(w, k, v)
            setattr(w, k + "_f", v.view(np.float64))
        Y = w.Y_f
        w.R_f, w.Yx, w.Yy = Y[:, :n1, :g], Y[:, :n1], Y[:, n1:, g:]
        w.YD, w.YE = Y[..., g:2 * g], Y[..., 2 * g:]
        return w

    def plan(S: int) -> list:
        """[(rows, views)] for each chunk of a batch of S rows.  Plans are
        kept, because making a view costs about as much as a small
        elementwise op; reallocating the buffers drops them."""
        n = min(S, most)
        if not bases or n > len(bases["U"]):
            bases.update((k, np.empty((n,) + shape, complex))
                         for k, shape in layout.items())
            plans.clear()
        p = plans[S] = [(rows, views(rows.stop - rows.start))
                        for rows in _row_chunks(S, most)]
        return p

    def chunk(w: SimpleNamespace, cf: np.ndarray, out: np.ndarray):
        """The rows cf (S, n1, 2 n2) of the float view, in the views ``w``,
        into ``out``."""
        U, A = w.U, w.A
        np.matmul(cf, K1, out=w.Yx)                 # c S2^T; D and E: x parts
        if with_F:
            np.matmul(cf, K2, out=w.Yy)             # D and E: y parts
        np.matmul(S1, w.R_f, out=w.U_f)
        np.conjugate(U, out=A)                      # |u|^2
        A *= U
        if with_F:
            D, E = w.D, w.E
            np.matmul(CS, w.YD, out=w.D_f)
            D *= A                                  # ((2 l1 + l2) . grad u)|u|^2
            np.matmul(CS, w.YE, out=w.E_f)
            E *= U                                  # (l1 . grad conj u) u^2
            E *= U
            D += E
        times_pow(U, A)                           # |u|^(2 sigma) u
        if with_F:
            U += D
        np.matmul(P1, w.U_f, out=w.R_f)
        np.matmul(w.R_f, RP2k, out=out)             # kappa P[...]

    def nonlin(c: np.ndarray) -> np.ndarray:
        # numpy multiplies a lone complex number in place without the fused
        # multiply-adds of its vector loop, so a lone grid value is evaluated
        # in a batch of two, as in any larger batch
        lone = one_point and c.size == 1
        if lone:
            c = np.broadcast_to(c, (2,) + c.shape)
        res = np.empty(c.shape, dtype=complex)
        cf, out = _float_view(c), res.view(np.float64)
        # a batch (S, n1, n2) is sliced as it is: a reshape costs about as much
        # as a small op, and a rate search makes tens of thousands of calls
        if c.ndim != 3:
            cf, out = cf.reshape(-1, *half_f), out.reshape(-1, *half_f)
        for rows, w in plans.get(len(cf)) or plan(len(cf)):
            chunk(w, cf[rows], out[rows])
        return res[0] if lone else res
    return nonlin


def apply_F(u: StateField, params: Parameters) -> StateField:
    """Cubic derivative term F(u): ``make_nonlin``'s value less its value
    with lambda1 = lambda2 = 0, which is the same code when both vanish, so
    F is then exactly 0."""
    _check_finite(u)
    no_F = replace(params, lambda1=(0j, 0j), lambda2=(0j, 0j))
    F = make_nonlin(params, u.basis)(u.modes) - make_nonlin(no_F, u.basis)(u.modes)
    return StateField(F, u.basis)


def apply_B(u: StateField, params: Parameters) -> StateField:
    """Nonlinear-plus-gain operator -(1-i*beta)|u|^(2s)u + gamma*u + F(u)."""
    _check_finite(u)
    modes = make_nonlin(params, u.basis)(u.modes) + params.gamma * u.modes
    return StateField(modes, u.basis)


def _norm_rows(basis: SpectralBasis) -> int:
    """The rows of a grid-side norm's row chunks (``_row_chunks``): as many
    as keep the temporaries of the kernel without F (a half-transformed
    field, the grid field, |u|^2 and its power) within a quarter of
    WORKSPACE_BYTES."""
    return WORKSPACE_BYTES // 4 // _row_bytes(_kernel_layout(basis, with_F=False))


def _lp_power(grid_sq: np.ndarray, p: float) -> np.ndarray:
    """|u|^p for a real p from the grid values of |u|^2: (|u|^2)^(p / 2) by
    ``_power_by``, so an even p is raised by multiplication."""
    return _power_by(p / 2)(grid_sq, None)


def norm_powers(basis: SpectralBasis, modes: np.ndarray, p: float | None = None):
    """(||u||^2, ||grad u||^2, int |u|^p dx) of each field of a
    (..., n1, n2) coefficient stack, each shaped like its leading axes; the
    integral is None when p is None.

    The squared L2 norm and H1 seminorm come from Parseval (the basis is
    orthonormal in L2), the Lp integral, for a real p, from collocation
    quadrature of ``_lp_power`` on the padded grid.  The quadrature runs
    beside the kernel's buffers (a sweep reduces its buffered grid-time
    fields mid-march), so it takes row chunks of ``_norm_rows`` rows.
    """
    sq = np.abs(modes) ** 2
    l2sq = np.sum(sq, axis=(-2, -1))
    gradsq = np.sum(np.abs(basis.eigenvalues) * sq, axis=(-2, -1))
    if p is None:
        return l2sq, gradsq, None
    flat = modes.reshape((-1,) + modes.shape[-2:])
    lp = []
    for rows in _row_chunks(len(flat), _norm_rows(basis)):
        grid_sq = _abs_sq(basis.to_grid(flat[rows]))
        lp.append(basis.cell_area * np.sum(_lp_power(grid_sq, p), axis=(-2, -1)))
    return l2sq, gradsq, np.concatenate(lp).reshape(l2sq.shape)[()]
