"""Concrete model constructors and their analytic oracles: dephasing pointer
model, quantum Brownian motion, Gaussian localization, and the disc-measure
averaging semigroup with its coherent-state family."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from qsieve import (
    ValidationError,
    davies_model,
    disc_quadrature,
    evolve,
    grw_model,
    lambda_gradient,
    lambda_pure,
    minimize_lambda,
    nearest_su11_coherent,
    position_operator,
    projector,
    qbm_model,
    squeezed_vacuum,
    su11_coherent_state,
    toy_model,
)
import qsieve.models as models
from qsieve.models import coherent_moment

from conftest import (
    basis_state,
    davies_jump_tensor,
    davies_map_from_tensor,
    loop_gram,
    random_pure,
)


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


BAD_SIZES = [{"n_r": 0}, {"n_theta": 0}, {"n_theta": -3}, {"n_r": 2.5},
             {"n_theta": 8.0}, {"n_r": True}, {"n_theta": "8"}]


@pytest.mark.parametrize("kwargs", BAD_SIZES,
                         ids=[repr(k) for k in BAD_SIZES])
def test_disc_quadrature_rejects_bad_sizes(kwargs):
    # n_theta=0 once built an empty rule with a divide-by-zero warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            disc_quadrature(**kwargs)


def test_disc_quadrature_is_shared_and_read_only():
    quad = disc_quadrature()
    assert disc_quadrature() is quad
    assert disc_quadrature(1.0 - 1e-9, np.int64(64), 180) is quad
    other = disc_quadrature(n_theta=90)
    assert other is not quad and other.n_theta == 90
    assert len({quad, other, disc_quadrature()}) == 2  # hashed by identity
    for arr in (quad.radii, quad.radial_weights, quad.angles, quad.nodes,
                quad.weights, quad.gram(6)):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # a rule built by hand keeps its own copies
    radii = np.array([0.5])
    hand = models.DiscQuadrature(radii, np.array([1.0]), np.array([0.0]), 0.5)
    radii[0] = 0.0
    assert hand.radii[0] == 0.5 and not hand.radii.flags.writeable
    assert hand.nodes[0] == 0.5 and not hand.nodes.flags.writeable
    assert (hand.n_r, hand.n_theta) == (1, 1)


def test_disc_quadrature_nodes_and_weights_come_from_the_factors():
    # zeta = r_i e^{i theta_t} and w = a_i / n_theta, row-major in (i, t)
    quad = disc_quadrature(n_r=5, n_theta=7)
    assert quad.nodes.shape == quad.weights.shape == (35,)
    zeta = quad.nodes.reshape(5, 7)
    assert np.allclose(np.abs(zeta), quad.radii[:, None], rtol=1e-15)
    assert np.allclose(np.angle(zeta[1]) % (2 * np.pi), quad.angles,
                       atol=1e-14)
    assert np.array_equal(quad.weights.reshape(5, 7),
                          np.repeat(quad.radial_weights[:, None] / 7, 7, 1))
    for radii, radial_weights, angles in (([0.1, 0.2], [1.0], [0.0]),
                                          ([[0.1]], [1.0], [0.0]),
                                          ([0.1], [1.0], [])):
        with pytest.raises(ValidationError):
            models.DiscQuadrature(radii, radial_weights, angles, 0.5)


def test_davies_builds_compute_the_gram_matrix_once(monkeypatch):
    # the Gram matrix and its compatibility figure are kept per N
    calls, spectra = [], []
    build, eigvalsh = models._coherent_gram, scipy.linalg.eigvalsh

    def counting(quad, N):
        calls.append(N)
        return build(quad, N)

    def counting_eigvalsh(*args, **kwargs):
        spectra.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(models, "_coherent_gram", counting)
    monkeypatch.setattr(scipy.linalg, "eigvalsh", counting_eigvalsh)
    models._disc_quadrature.cache_clear()
    for _ in range(4):
        davies_model(6, 1.0)
    davies_model(8, 1.0)
    assert calls == [6, 8]
    assert len(spectra) == 2


def _negated(quad):
    return models.DiscQuadrature(quad.radii, -quad.radial_weights,
                                 quad.angles, quad.r_max)


#: product rules on which the factored Gram matrix must be the node sum
_RULES = {
    "default": disc_quadrature,
    "four_angles": lambda: disc_quadrature(n_theta=4),
    "three_radii": lambda: disc_quadrature(n_r=3),
    "negated": lambda: _negated(disc_quadrature()),
    "one_node": lambda: models.DiscQuadrature([0.1], [1.0], [0.0], 0.1),
}
_GRAM_CASES = [("default", N) for N in (6, 24, 40, 60)] + [
    ("four_angles", 10), ("three_radii", 24), ("negated", 24),
    ("one_node", 10)]


@pytest.mark.parametrize(
    "rule, N", _GRAM_CASES,
    ids=[str(N) if rule == "default" else f"{rule}-{N}"
         for rule, N in _GRAM_CASES])
def test_compatibility_gram_form_matches_the_node_sum(rule, N):
    # the worst relative error over every unit psi of psi^dag G psi = 1 is
    # max |eig(G) - 1|; no sampled state exceeds it
    quad = _RULES[rule]()
    G, reference = quad.gram(N), loop_gram(quad, N)
    assert np.abs(G - reference).max() <= 1e-12
    assert np.array_equal(G, G.conj().T)
    worst = np.abs(np.linalg.eigvalsh(reference) - 1.0).max()
    assert quad.compatibility_error(N) == pytest.approx(worst, abs=1e-12)
    if rule == "default":
        assert quad.compatibility_error(N) <= 1e-6
    rng = np.random.default_rng(0)
    for _ in range(10):
        psi = random_pure(N, rng)
        assert abs(np.vdot(psi, reference @ psi).real - 1.0) \
            <= quad.compatibility_error(N) + 1e-12


def test_davies_build_forms_no_coherent_state_matrix():
    # the node-by-node Gram matrix took two N x 11,520 complex arrays, a
    # 15.3 MB peak at N=40
    models._disc_quadrature.cache_clear()
    tracemalloc.start()
    try:
        davies_model(40, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_disc_quadrature_moments():
    quad = disc_quadrature()
    expected = [1 / 3, 2 / 15, 3 / 35, 4 / 63, 5 / 99, 6 / 143]
    for n, target in enumerate(expected):
        assert coherent_moment(n) == pytest.approx(target, abs=1e-15)
        err = quad.moment_errors(ns=(n,))[n]
        assert err <= 1e-6


def test_disc_quadrature_integrates_the_real_part_of_complex_values():
    # Re sum_j w_j v_j, as for real values and with no ComplexWarning
    quad = disc_quadrature()
    r2 = np.abs(quad.nodes) ** 2
    values = (1.0 - r2) ** 2 * (1.0 + 1j * quad.nodes.real)
    assert quad.integrate(values) == quad.integrate(values.real)
    assert quad.integrate(values) == pytest.approx(
        np.real(np.dot(quad.weights, values)), rel=1e-13)


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
    # the map scattered from the allowed entries is the tensor's, bit for bit
    for N in (2, 6, 12, 24):
        for kappa in (1.0, 1.3):
            gen = davies_model(N, kappa)
            _, plan = gen.coherent_measure
            assert np.array_equal(gen._phi.matrix(),
                                  davies_map_from_tensor(N, kappa, plan))


def test_davies_map_scatter_stays_near_the_map_size():
    # the N^4 tensor route peaked at 43.5 MB at N=40; the map is 20.5 MB
    gen = davies_model(40, 1.0)
    tracemalloc.start()
    try:
        S = gen._phi.matrix()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert S.nbytes == 1600 * 1600 * 8
    assert peak <= 25e6


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
    assert gen._M is None  # the dense map is built only on demand
    assert not hasattr(gen._phi, "_S")  # and never kept on the form
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

    bad = DiscQuadrature(radii=np.array([0.1]),
                         radial_weights=np.array([1.0]),
                         angles=np.array([0.0]), r_max=0.1)
    for _ in range(2):
        with pytest.raises(ValidationError, match="coherent-moment"):
            davies_model(10, 1.0, quadrature=bad)
    # weights of either sign enter the check as they are
    quad = disc_quadrature()
    flipped = _negated(quad)
    assert np.array_equal(flipped.weights, -quad.weights)
    with pytest.raises(ValidationError, match="compatibility"):
        davies_model(6, 1.0, quadrature=flipped, moment_tol=10.0)
    # four angles integrate the moments exactly but not the compatibility
    # relation at N=10 (off by 1.72); no cached figure may let it pass,
    # also after the default rule passed at the same N
    few = disc_quadrature(n_theta=4)
    assert max(few.moment_errors().values()) <= 1e-12
    # the angular modes k = +-4, +-8 alias onto k = 0: G is not diagonal
    assert np.abs(np.triu(few.gram(10), 1)).max() > 0.1
    davies_model(10, 1.0)
    for _ in range(2):
        with pytest.raises(ValidationError, match="compatibility") as exc:
            davies_model(10, 1.0, quadrature=few)
        assert "1.723e+00" in str(exc.value)
