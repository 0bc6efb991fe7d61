"""Concrete model constructors and their analytic oracles: dephasing pointer
model, quantum Brownian motion, Gaussian localization, and the disc-measure
averaging semigroup with its coherent-state family."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from qsieve import (
    ValidationError,
    davies_jump_tensor,
    davies_model,
    disc_quadrature,
    evolve,
    grw_model,
    lambda_gradient,
    lambda_pure,
    minimize_lambda,
    nearest_su11_coherent,
    pointer_model,
    position_operator,
    projector,
    qbm_model,
    squeezed_vacuum,
    su11_coherent_state,
    toy_model,
)
from qsieve.models import coherent_moment

from conftest import basis_state, random_pure


# ---------------------------------------------------------------------------
# constructor validation

def test_model_constructors_reject_bad_parameters():
    with pytest.raises(ValidationError):
        qbm_model(1, 0.5)
    with pytest.raises(ValidationError):
        qbm_model(10, -0.5)
    with pytest.raises(ValidationError):
        grw_model([0.0, 1.0, 0.5], 1.0, 1.0)  # not strictly increasing
    with pytest.raises(ValidationError):
        grw_model(np.linspace(0, 1, 8), 1.0, -2.0)
    with pytest.raises(ValidationError):
        davies_model(10, 0.0)
    with pytest.raises(ValidationError):
        toy_model(np.array([[0.0, 1.0], [0.0, 0.0]]))  # non-Hermitian H


# ---------------------------------------------------------------------------
# quantum Brownian motion

def test_qbm_lambda_is_position_variance(rng):
    N, D = 16, 0.35
    gen = qbm_model(N, D)
    x = position_operator(N)
    for _ in range(10):
        low = np.zeros(N, dtype=complex)
        low[: N // 2] = random_pure(N // 2, rng)
        mean = np.vdot(low, x @ low).real
        var = np.vdot(low, x @ x @ low).real - mean**2
        assert lambda_pure(gen, low) == pytest.approx(2.0 * D * var,
                                                      rel=1e-10)


def test_qbm_ground_state_lambda_is_D():
    N, D = 12, 0.7
    gen = qbm_model(N, D)
    assert lambda_pure(gen, basis_state(N, 0)) == pytest.approx(D, rel=1e-12)


def test_qbm_truncation_hygiene(rng):
    # states supported well below the cutoff keep negligible population on
    # the top quarter of the ladder over the probe horizon
    N = 32
    gen = qbm_model(N, 0.2)
    low = np.zeros(N, dtype=complex)
    low[: N // 4] = random_pure(N // 4, rng)
    rho = evolve(gen, projector(low), 0.25)
    assert np.abs(np.diag(rho)[3 * N // 4:]).sum() <= 1e-10


def test_squeezed_vacuum_family():
    N = 24
    assert np.allclose(squeezed_vacuum(N, 0.0), basis_state(N, 0), atol=1e-12)
    for s in (-0.8, 0.3, 1.0):
        psi = squeezed_vacuum(N, s)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)
        assert np.abs(psi[1::2]).max() <= 1e-12  # even levels only


# ---------------------------------------------------------------------------
# Gaussian localization model

def test_grw_kernel_is_positive_semidefinite():
    grid = np.linspace(-4, 4, 32)
    K = np.exp(-1.7 * (grid[:, None] - grid[None, :]) ** 2 / 2.0)
    assert np.linalg.eigvalsh(K).min() >= -1e-12


def test_grw_lambda_point_mass_and_two_point():
    grid = np.linspace(-3, 3, 16)
    kappa, alpha = 1.3, 0.9
    gen = grw_model(grid, kappa, alpha)
    assert lambda_pure(gen, basis_state(16, 4)) == pytest.approx(0.0,
                                                                 abs=1e-12)
    j, k = 3, 11
    s = grid[k] - grid[j]
    psi = (basis_state(16, j) + basis_state(16, k)) / np.sqrt(2.0)
    expected = 0.5 * kappa * (1.0 - np.exp(-alpha * s**2 / 2.0))
    assert lambda_pure(gen, psi) == pytest.approx(expected, rel=1e-12)


def test_grw_lambda_double_sum_formula(rng):
    grid = np.linspace(-3, 3, 20)
    kappa, alpha = 0.8, 1.4
    gen = grw_model(grid, kappa, alpha)
    K = np.exp(-alpha * (grid[:, None] - grid[None, :]) ** 2 / 2.0)
    for _ in range(10):
        psi = random_pure(20, rng)
        p = np.abs(psi) ** 2
        expected = kappa * (1.0 - p @ K @ p)
        lam = lambda_pure(gen, psi)
        assert lam == pytest.approx(expected, rel=1e-10)
        assert 0.0 <= lam < kappa


# ---------------------------------------------------------------------------
# disc quadrature and coherent states

def test_disc_quadrature_nodes_and_weights():
    quad = disc_quadrature()
    assert np.abs(quad.nodes).max() <= quad.r_max < 1.0
    assert quad.weights.min() > 0.0


def test_disc_quadrature_moments():
    quad = disc_quadrature()
    expected = [1 / 3, 2 / 15, 3 / 35, 4 / 63, 5 / 99, 6 / 143]
    for n, target in enumerate(expected):
        assert coherent_moment(n) == pytest.approx(target, abs=1e-15)
        err = quad.moment_errors(ns=(n,))[n]
        assert err <= 1e-6


def test_coherent_state_amplitudes():
    N = 400
    assert np.allclose(su11_coherent_state(N, 0.0), basis_state(N, 0),
                       atol=1e-12)
    for zeta in (0.4, 0.35 - 0.2j, 0.9):
        psi = su11_coherent_state(N, zeta)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)
        r2 = abs(zeta) ** 2
        for n in range(6):
            expected = (1 - r2) ** 2 * (n + 1) * r2**n
            assert abs(psi[n]) ** 2 == pytest.approx(expected, abs=1e-8)


def test_coherent_state_insufficient_cutoff():
    with pytest.raises(ValidationError):
        su11_coherent_state(6, 0.9)
    with pytest.raises(ValidationError):
        su11_coherent_state(40, 1.0)


def test_nearest_coherent_recovers_exact_input():
    psi = su11_coherent_state(60, 0.45 + 0.3j)
    zeta, fid = nearest_su11_coherent(psi)
    assert fid >= 1.0 - 1e-6
    assert abs(zeta - (0.45 + 0.3j)) <= 1e-3


# ---------------------------------------------------------------------------
# disc-measure averaging semigroup

def test_davies_jump_tensor_structure():
    N, kappa = 8, 1.0
    T = davies_jump_tensor(N, kappa)
    # adjoint symmetry of the CP map: T[m,n,p,q] = conj(T[n,m,q,p])
    assert np.abs(T - T.transpose(1, 0, 3, 2).conj()).max() <= 1e-14
    # rotational selection rule: nonzero only when m + q = n + p
    m, n, p, q = np.indices(T.shape)
    assert np.abs(T[m + q != n + p]).max() == 0.0


# N=100 is out of reach of a dense map (a 1.6 GB superoperator); the
# coherent-measure form evaluates lambda without one

@pytest.mark.parametrize("N", [20, 100])
def test_davies_lambda_on_fock_states(N):
    kappa = 1.0
    gen = davies_model(N, kappa)
    for n in (0, 1, 2, 5, 12):
        expected = kappa * (1.0 - (n + 1) / ((2 * n + 1) * (2 * n + 3)))
        assert lambda_pure(gen, basis_state(N, n)) == pytest.approx(
            expected, abs=1e-12)


@pytest.mark.parametrize("N", [24, 100])
def test_davies_lambda_constant_on_coherent_orbit(N):
    kappa = 1.0
    gen = davies_model(N, kappa)
    for zeta in (0.0, 0.3, 0.45j, -0.35 + 0.25j):
        psi = su11_coherent_state(N, zeta)
        assert lambda_pure(gen, psi) == pytest.approx(2.0 * kappa / 3.0,
                                                      abs=1e-6)


def test_davies_lambda_band_on_random_states(rng):
    N, kappa = 20, 1.0
    gen = davies_model(N, kappa)
    for _ in range(30):
        lam = lambda_pure(gen, random_pure(N, rng))
        assert 2.0 * kappa / 3.0 - 1e-3 <= lam < kappa


def test_davies_lambda_path_builds_no_dense_map(rng):
    gen = davies_model(12, 1.0)
    minimize_lambda(gen, n_starts=2, seed=3)
    lambda_gradient(gen, random_pure(12, rng))
    assert gen.cp_superop is None
    assert gen._phi._S is None  # the dense map is built only on demand
    # at N=60 the N^4 jump tensor alone would take 104 MB
    tracemalloc.start()
    try:
        big = davies_model(60, 1.0)
        for _ in range(3):
            psi = random_pure(60, rng)
            lambda_pure(big, psi)
            lambda_gradient(big, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 40e6


def test_davies_consistency_validation_runs():
    # constructor itself cross-checks the quadrature consistency relation;
    # a sick quadrature must be rejected
    from qsieve import DiscQuadrature

    bad = DiscQuadrature(nodes=np.array([0.1 + 0.0j]),
                         weights=np.array([1.0]),
                         r_max=0.1, n_r=1, n_theta=1)
    with pytest.raises(ValidationError):
        davies_model(10, 1.0, quadrature=bad)
