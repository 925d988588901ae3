"""Spectral core: basis construction, operators, norms, and their invariants."""

import numpy as np
import pytest
from scipy.integrate import quad

from sggl import (Parameters, ParameterError, StateField, apply_A, apply_B,
                  apply_F, compute_norms, make_basis, make_nonlin, mode_field,
                  zero_field)

from conftest import DenseGrid, oracle_B_modes, oracle_F_modes, rel_err


# ---------------------------------------------------------------------------
# parameter admissibility

def test_parameters_validate():
    Parameters(alpha=0.0, beta=0.5, gamma=1.0, sigma=3.0, L1=1.0, L2=1.0)
    with pytest.raises(ParameterError):
        Parameters(alpha=0.0, beta=0.5, gamma=1.0, sigma=2.0, L1=1.0, L2=1.0)
    with pytest.raises(ParameterError):
        Parameters(alpha=0.0, beta=0.9, gamma=1.0, sigma=3.0, L1=1.0, L2=1.0)
    with pytest.raises(ParameterError):
        Parameters(alpha=0.0, beta=0.0, gamma=1.0, sigma=3.0, L1=1.0, L2=1.0)
    with pytest.raises(ParameterError):
        Parameters(alpha=0.0, beta=0.5, gamma=0.0, sigma=3.0, L1=1.0, L2=1.0)


# ---------------------------------------------------------------------------
# basis and eigenvalues

def test_eigenvalues_1x1_square(params_pi):
    b = make_basis(1, 1, params_pi)
    assert np.allclose(b.eigenvalues, [[-2.0]], rtol=0, atol=1e-14)


def test_eigenvalues_2x1_square(params_pi):
    b = make_basis(2, 1, params_pi)
    assert np.allclose(b.eigenvalues, [[-2.0], [-5.0]], rtol=0, atol=1e-13)


def test_eigenvalues_rectangle():
    p = Parameters(alpha=0.0, beta=0.5, gamma=1.0, sigma=3.0, L1=1.0, L2=2.0)
    b = make_basis(8, 8, p)
    assert b.eigenvalues[0, 0] == pytest.approx(-np.pi**2 * (1 + 0.25), rel=1e-14)
    assert np.all(b.eigenvalues < 0)


def test_eigenvalue_formula_full_table():
    p = Parameters(alpha=0.0, beta=0.5, gamma=1.0, sigma=3.0, L1=1.3, L2=0.7)
    b = make_basis(5, 4, p)
    for k in range(5):
        for m in range(4):
            want = -np.pi**2 * ((k + 1)**2 / 1.3**2 + (m + 1)**2 / 0.7**2)
            assert b.eigenvalues[k, m] == pytest.approx(want, rel=1e-14)


def test_make_basis_rejects_bad_dims(params_pi):
    with pytest.raises(ValueError):
        make_basis(0, 4, params_pi)
    with pytest.raises(ValueError):
        make_basis(4, 4, params_pi, pad_factor=0)


def test_roundtrip_grid_modes(basis8):
    rng = np.random.default_rng(7)
    modes = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    back = basis8.to_modes(basis8.to_grid(modes))
    assert rel_err(back, modes) < 1e-12


def test_transforms_match_explicit_sine_sums_on_rectangle():
    # n1 != n2 and L1 != L2, batched and single: an axis or batch-layout mix-up
    # changes a shape or a value
    p = Parameters(alpha=0.5, beta=0.5, gamma=1.0, sigma=3.0, L1=np.pi, L2=2.0)
    b = make_basis(6, 5, p, pad_factor=4)
    N1, N2 = b.grid_shape
    x = np.arange(1, N1 + 1) * (p.L1 / (N1 + 1))
    y = np.arange(1, N2 + 1) * (p.L2 / (N2 + 1))
    k, m = np.arange(1, 7), np.arange(1, 6)
    S1 = np.sqrt(2 / p.L1) * np.sin(np.outer(x, k) * np.pi / p.L1)
    S2 = np.sqrt(2 / p.L2) * np.sin(np.outer(y, m) * np.pi / p.L2)
    C1 = np.sqrt(2 / p.L1) * (k * np.pi / p.L1) * np.cos(np.outer(x, k) * np.pi / p.L1)
    C2 = np.sqrt(2 / p.L2) * (m * np.pi / p.L2) * np.cos(np.outer(y, m) * np.pi / p.L2)
    rng = np.random.default_rng(17)
    modes = rng.standard_normal((3, 6, 5)) + 1j * rng.standard_normal((3, 6, 5))
    U, (Ux, Uy) = b.to_grid(modes), b.grad_to_grid(modes)
    assert U.shape == Ux.shape == Uy.shape == (3, N1, N2)
    for s in range(3):
        assert rel_err(U[s], S1 @ modes[s] @ S2.T) < 1e-13
        assert rel_err(Ux[s], C1 @ modes[s] @ S2.T) < 1e-13
        assert rel_err(Uy[s], S1 @ modes[s] @ C2.T) < 1e-13
        assert rel_err(b.to_grid(modes[s]), S1 @ modes[s] @ S2.T) < 1e-13
    assert rel_err(b.to_modes(U), modes) < 1e-12
    assert rel_err(b.to_modes(U[1]), modes[1]) < 1e-12


# ---------------------------------------------------------------------------
# apply_A

def test_apply_A_eigenfunction_alpha0(basis1):
    p = Parameters(alpha=0.0, beta=0.5, gamma=1.0, sigma=3.0, L1=np.pi, L2=np.pi)
    u = mode_field(basis1, 1, 1)
    out = apply_A(u, p)
    assert out.modes[0, 0] == pytest.approx(-2.0, rel=1e-14)


def test_apply_A_eigenfunction_alpha_half(basis1, params_pi):
    u = mode_field(basis1, 1, 1)
    out = apply_A(u, params_pi)
    assert out.modes[0, 0] == pytest.approx(-2.0 - 1.0j, rel=1e-14)


def test_apply_A_zero(basis8, params_pi):
    out = apply_A(zero_field(basis8), params_pi)
    assert np.all(out.modes == 0)


def test_apply_A_eigen_exact_all_modes(params_pi):
    b = make_basis(16, 16, params_pi)
    for k in (1, 3, 9, 16):
        for m in (1, 5, 16):
            u = mode_field(b, k, m)
            out = apply_A(u, params_pi)
            want = (1 + 0.5j) * b.eigenvalues[k - 1, m - 1]
            assert abs(out.modes[k - 1, m - 1] - want) <= 1e-13 * abs(want)
            off = out.modes.copy()
            off[k - 1, m - 1] = 0
            assert np.all(off == 0)


def test_apply_A_rejects_nonfinite(basis8, params_pi):
    u = zero_field(basis8)
    u.modes[0, 0] = np.nan
    with pytest.raises(ValueError):
        apply_A(u, params_pi)


# ---------------------------------------------------------------------------
# apply_F against the dense-grid quadrature oracle

def test_apply_F_zero(basis8, params_pi):
    assert np.all(apply_F(zero_field(basis8), params_pi).modes == 0)


def test_apply_F_vanishes_without_lambda(basis8, params_pi):
    u = mode_field(basis8, 1, 1, amp=0.7 + 0.2j)
    assert np.all(apply_F(u, params_pi).modes == 0)


def test_apply_F_single_mode_oracle():
    # the derivative terms carry even (cosine) harmonic content whose sine
    # projection converges with the oversampling factor; pad 16 is converged
    # well below the 1e-6 comparison level
    p = Parameters(alpha=0.5, beta=0.5, gamma=1.0, sigma=3.0, L1=np.pi,
                   L2=np.pi, lambda1=(1.0, 0.0), lambda2=(0.0, 0.0))
    b = make_basis(8, 8, p, pad_factor=16)
    u = mode_field(b, 1, 1)
    got = apply_F(u, p).modes
    want = oracle_F_modes(u.modes, p, 8, 8, N=512)
    assert rel_err(got, want) < 1e-6


def test_apply_F_complex_field_oracle():
    p = Parameters(alpha=0.5, beta=0.5, gamma=1.0, sigma=3.0, L1=np.pi,
                   L2=np.pi, lambda1=(0.3 + 0.1j, -0.2), lambda2=(0.1, 0.4j))
    b = make_basis(8, 8, p, pad_factor=16)
    u = zero_field(b)
    u.modes[0, 0] = 0.8 + 0.3j
    u.modes[1, 2] = -0.4 + 0.6j
    got = apply_F(u, p).modes
    want = oracle_F_modes(u.modes, p, 8, 8, N=512)
    assert rel_err(got, want) < 1e-6


def test_apply_F_real_lambda_keeps_real_fields_real(basis8):
    p = Parameters(alpha=0.5, beta=0.5, gamma=1.0, sigma=3.0, L1=np.pi,
                   L2=np.pi, lambda1=(0.4, -0.3), lambda2=(0.2, 0.1))
    u = zero_field(basis8)
    u.modes[0, 0] = 0.9
    u.modes[2, 1] = -0.3
    out = apply_F(u, p)
    assert np.max(np.abs(out.modes.imag)) < 1e-12


# ---------------------------------------------------------------------------
# apply_B

def test_apply_B_zero(basis8, params_pi):
    assert np.all(apply_B(zero_field(basis8), params_pi).modes == 0)


def test_apply_B_small_amplitude_linear(basis8, params_pi):
    # with tiny amplitude the gain term dominates: ||B(u) - gamma u|| <= K|c|^(2s+1)
    q = 2 * params_pi.sigma + 1
    c1 = 1e-2
    u1 = mode_field(basis8, 1, 1, amp=c1)
    r1 = apply_B(u1, params_pi).modes - params_pi.gamma * u1.modes
    K = np.sqrt(np.sum(np.abs(r1) ** 2)) / c1 ** q
    assert K > 0
    for c in (1e-3, 3e-3):
        u = mode_field(basis8, 1, 1, amp=c)
        r = apply_B(u, params_pi).modes - params_pi.gamma * u.modes
        assert np.sqrt(np.sum(np.abs(r) ** 2)) <= 1.01 * K * c ** q


def test_apply_B_two_mode_oracle():
    p = Parameters(alpha=0.5, beta=0.5, gamma=1.0, sigma=3.0, L1=np.pi,
                   L2=np.pi, lambda1=(0.1, 0.05), lambda2=(0.05, -0.02))
    b = make_basis(8, 8, p, pad_factor=8)
    u = zero_field(b)
    u.modes[0, 0] = 1.0
    u.modes[1, 1] = 1.0
    got = apply_B(u, p).modes
    want = oracle_B_modes(u.modes, p, 8, 8)
    assert rel_err(got, want) < 1e-6


def test_apply_B_noninteger_sigma_oracle():
    p = Parameters(alpha=0.2, beta=0.4, gamma=0.5, sigma=2.5, L1=np.pi, L2=np.pi)
    b = make_basis(4, 4, p, pad_factor=6)
    u = mode_field(b, 1, 1, amp=0.6 - 0.2j)
    got = apply_B(u, p).modes
    want = oracle_B_modes(u.modes, p, 4, 4, N=512)
    # |u|^(2s) is non-polynomial for s=2.5; residual aliasing dominates
    assert rel_err(got, want) < 1e-4


# ---------------------------------------------------------------------------
# make_nonlin: the fused kernel against the formula on the public transforms

def nonlin_by_transforms(modes, basis, p):
    """-(1-i beta)|U|^(2 sigma) U + ((2 l1 + l2) . grad U)|U|^2 + (l1 . grad conj U) U^2."""
    U = basis.to_grid(modes)
    Ux, Uy = basis.grad_to_grid(modes)
    l1, l2 = p.lambda1, p.lambda2
    absU2 = np.abs(U) ** 2
    grid = (-(1 - 1j * p.beta) * absU2 ** p.sigma * U
            + ((2 * l1[0] + l2[0]) * Ux + (2 * l1[1] + l2[1]) * Uy) * absU2
            + (l1[0] * np.conj(Ux) + l1[1] * np.conj(Uy)) * U ** 2)
    return basis.to_modes(grid)


LAMBDAS = {"no F": ((0, 0), (0, 0)),
           "F": ((0.3 + 0.1j, -0.2), (0.1, 0.4j)),
           "lambda2 only": ((0, 0), (0.1 - 0.2j, 0.3))}


def nonlin_params(sigma, lambdas):
    l1, l2 = LAMBDAS[lambdas]
    return Parameters(alpha=0.5, beta=0.5, gamma=1.0, sigma=sigma, L1=np.pi,
                      L2=2.0, lambda1=l1, lambda2=l2)


def random_modes(shape, seed):
    rng = np.random.default_rng(seed)
    return 0.4 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("S", [1, 3])
@pytest.mark.parametrize("sigma", [3.0, 2.5])
@pytest.mark.parametrize("lambdas", list(LAMBDAS))
def test_make_nonlin_matches_transform_formula(S, sigma, lambdas):
    p = nonlin_params(sigma, lambdas)
    b = make_basis(6, 5, p, pad_factor=4)
    modes = random_modes((S, 6, 5), seed=S)
    got = make_nonlin(p, b)(modes)
    assert got.shape == modes.shape
    for s in range(S):
        assert rel_err(got[s], nonlin_by_transforms(modes[s], b, p)) < 1e-13


@pytest.mark.parametrize("lambdas", list(LAMBDAS))
def test_make_nonlin_batch_rows_equal_single_calls(lambdas):
    # the kernel keeps grid buffers between calls: a single call, then a
    # larger batch, then smaller ones reuse and regrow them
    p = nonlin_params(3.0, lambdas)
    b = make_basis(6, 5, p, pad_factor=4)
    nonlin = make_nonlin(p, b)
    modes = random_modes((5, 6, 5), seed=9)
    first = nonlin(modes[0])
    got = nonlin(modes)
    kept = got.copy()
    for s in range(5):
        one = nonlin(modes[s])
        assert one.shape == (6, 5)
        assert rel_err(got[s], one) < 1e-14
        assert rel_err(nonlin(modes[s:s + 1])[0], one) < 1e-14
    assert np.array_equal(got, kept)         # a result is not a buffer
    assert np.array_equal(nonlin(modes[0]), first)


def test_make_nonlin_accepts_non_contiguous_input():
    p = nonlin_params(3.0, "F")
    b = make_basis(6, 5, p, pad_factor=4)
    nonlin = make_nonlin(p, b)
    big = random_modes((4, 12, 10), seed=4)
    views = [big[:, ::2, ::2],                         # strided last axis
             big[1:3, 3:9, 2:7],                       # strided rows
             big[:, :5, :6].transpose(0, 2, 1),        # transposed batch
             big[0, :5, :6].T]                         # transposed single
    for v in views:
        assert not v.flags.c_contiguous
        want = nonlin(np.ascontiguousarray(v))
        assert np.array_equal(nonlin(v), want)
        assert np.array_equal(b.to_grid(v), b.to_grid(np.ascontiguousarray(v)))


# ---------------------------------------------------------------------------
# norms

def test_norms_single_mode(basis1, params_pi):
    u = mode_field(basis1, 1, 1)
    r = compute_norms(u, [2])
    assert r.l2 == pytest.approx(1.0, rel=1e-13)
    assert r.grad_l2 == pytest.approx(np.sqrt(2.0), rel=1e-13)
    # quadrature L2 agrees with the Parseval value
    assert r.lp[2] == pytest.approx(r.l2, rel=1e-12)


def test_norms_L4_quadrature_oracle(basis1, params_pi):
    u = mode_field(basis1, 1, 1)
    r = compute_norms(u, [4])
    # adaptive quadrature of the explicit integrand (2/pi)^4 sin^4 x sin^4 y
    ix, _ = quad(lambda x: np.sin(x) ** 4, 0, np.pi)
    want = ((2.0 / np.pi) ** 4 * ix * ix) ** 0.25
    assert r.lp[4] == pytest.approx(want, rel=1e-12)


def test_parseval_random_fields(basis8):
    rng = np.random.default_rng(3)
    for _ in range(20):
        modes = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        u = StateField(modes, basis8)
        r = compute_norms(u)
        ssq = float(np.sum(np.abs(modes) ** 2))
        assert abs(r.l2 ** 2 - ssq) <= 1e-12 * ssq


def test_sobolev_interpolation(params_pi):
    # ||u||_(4s+2) <= ||grad u||^(s/(2s+1)) ||u||_(2s+2)^((s+1)/(2s+1)), s=3
    b = make_basis(8, 8, params_pi, pad_factor=6)
    rng = np.random.default_rng(11)
    s = 3.0
    a = s / (2 * s + 1)
    k = np.arange(1, 9)
    decay = 1.0 / (k[:, None] ** 2 + k[None, :] ** 2)
    for _ in range(200):
        modes = (rng.standard_normal((8, 8))
                 + 1j * rng.standard_normal((8, 8))) * decay
        u = StateField(modes, b)
        r = compute_norms(u, [8, 14])
        lhs = r.lp[14]
        rhs = r.grad_l2 ** a * r.lp[8] ** (1 - a)
        assert lhs <= rhs * (1 + 1e-9)


def test_norms_nonnegative_random(basis8):
    rng = np.random.default_rng(5)
    modes = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    r = compute_norms(StateField(modes, basis8), [2, 4, 8])
    assert r.l2 >= 0 and r.grad_l2 >= 0
    assert all(v >= 0 for v in r.lp.values())
