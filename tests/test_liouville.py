"""Generators, superoperators, semigroup propagation, adjoints, and the
environment-induced-semigroup checks."""

from __future__ import annotations

import numpy as np
import pytest

from qsieve import (
    LindbladGenerator,
    adjoint_semigroup,
    apply_generator,
    apply_generator_adjoint,
    build_superoperator,
    davies_jump_tensor,
    davies_model,
    eis_check,
    lambda_gradient,
    lambda_pure,
    evolve,
    grw_model,
    hs_inner,
    linear_entropy,
    pointer_model,
    projector,
    propagator,
    qbm_model,
    toy_model,
)
from qsieve.liouville import unvec, vec

from conftest import random_density, random_hermitian, random_pure


def _models():
    return [
        toy_model(),
        pointer_model([0.0, 0.7, -1.3]),
        qbm_model(10, 0.4),
        grw_model(np.linspace(-2, 2, 12), 1.0, 2.0),
        davies_model(10, 1.0),
    ]


# ---------------------------------------------------------------------------
# vectorization

def test_vec_unvec_roundtrip(rng):
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert np.allclose(unvec(vec(A)), A, atol=1e-14)


def test_vec_is_hs_isometric(rng):
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.vdot(vec(A), vec(B)) == pytest.approx(hs_inner(A, B))


# ---------------------------------------------------------------------------
# generator action

def test_apply_generator_preserves_hermiticity(rng):
    for gen in _models():
        rho = random_hermitian(gen.dim, rng)
        out = apply_generator(gen, rho)
        assert np.abs(out - out.conj().T).max() <= 1e-10


def test_superoperator_matches_direct_action(rng):
    for gen in _models():
        M = build_superoperator(gen)
        rho = random_density(gen.dim, rng)
        assert np.allclose(unvec(M @ vec(rho)), apply_generator(gen, rho),
                           atol=1e-11)


def test_superoperator_eigenvalues_closed_system():
    gen = LindbladGenerator(2, np.diag([0.5, -0.5]))
    eigs = np.sort_complex(np.linalg.eigvals(build_superoperator(gen)))
    expected = np.sort_complex(np.array([0.0, 0.0, 1j, -1j]))
    assert np.allclose(eigs, expected, atol=1e-12)


def test_superoperator_eigenvalues_pointer_qubit():
    E = [0.3, -0.9]
    delta = E[0] - E[1]
    gen = pointer_model(E)
    eigs = np.linalg.eigvals(build_superoperator(gen))
    expected = np.array([0.0, 0.0, -1.0 + 1j * delta, -1.0 - 1j * delta])
    key = lambda z: (np.round(z.real, 9), np.round(z.imag, 9))
    assert np.allclose(sorted(eigs, key=key), sorted(expected, key=key),
                       atol=1e-10)


def _explicit_map_pairs():
    """Each generator paired with the same generator whose map Phi is given
    as an explicit d^2 x d^2 matrix."""
    H = np.diag([0.0, 0.7, -1.3]).astype(complex)
    V = (np.diag([1.0, 1.0], 1) + 0.5j * np.diag([1.0, -1.0, 0.3])
         + 0.2 * np.ones((3, 3)))
    W = np.diag([0.4, 0.0], -1).astype(complex)
    jumps = LindbladGenerator(3, H, jump_ops=(V, W))
    S = np.kron(V.conj(), V) + np.kron(W.conj(), W)
    grw = grw_model(np.linspace(-2, 2, 6), 1.0, 2.0)
    return [(jumps, LindbladGenerator(3, H, cp_superop=S)),
            (grw, LindbladGenerator(grw.dim, grw.hamiltonian,
                                    cp_superop=np.diag(vec(grw.kernel)))),
            _davies_with_explicit_map(8, 1.3)]


def _davies_with_explicit_map(N, kappa):
    """The matrix-free Davies generator and its map written out densely:
    the jump tensor contracted with each matrix unit, plus the diagonal
    compensator diag(plan^T diag X)."""
    davies = davies_model(N, kappa)
    _, plan = davies.coherent_measure
    T = davies_jump_tensor(N, kappa)
    units = [unvec(x) for x in np.eye(N * N)]
    S = np.stack([vec(np.einsum("mnpq,pq->mn", T, X)
                      + np.diag(plan.T @ np.diag(X))) for X in units],
                 axis=1)
    return davies, LindbladGenerator(N, davies.hamiltonian, cp_superop=S)


def test_anticommutator_is_adjoint_map_on_identity():
    for gen, explicit in _explicit_map_pairs():
        if gen.jump_ops:
            G = sum(V.conj().T @ V for V in gen.jump_ops)
        elif gen.coherent_measure is not None:
            kappa, _ = gen.coherent_measure
            G = kappa * np.eye(gen.dim)  # Davies: trace preserving, unital
        else:
            G = np.zeros((gen.dim, gen.dim))
        assert np.abs(gen._G - G).max() <= 1e-12
        assert np.abs(explicit._G - G).max() <= 1e-12
    closed = LindbladGenerator(2, np.diag([0.5, -0.5]))
    assert not np.any(closed._G)


def test_forms_agree_with_explicit_map(rng):
    for gen, explicit in _explicit_map_pairs():
        assert np.abs(build_superoperator(gen)
                      - build_superoperator(explicit)).max() <= 1e-12
        A = random_hermitian(gen.dim, rng)
        for apply in (apply_generator, apply_generator_adjoint):
            assert np.abs(apply(gen, A) - apply(explicit, A)).max() <= 1e-12
        for _ in range(5):
            psi = random_pure(gen.dim, rng)
            assert lambda_pure(gen, psi) == pytest.approx(
                lambda_pure(explicit, psi), abs=1e-12)
            assert np.abs(lambda_gradient(gen, psi)
                          - lambda_gradient(explicit, psi)).max() <= 1e-12


# ---------------------------------------------------------------------------
# propagation

def test_depolarizing_closed_form(rng):
    gen = toy_model()
    rho = random_density(2, rng)
    mix = np.eye(2) / 2.0
    for t in (0.0, 0.1, 0.7, 3.0):
        expected = np.exp(-2.0 * t) * rho + (1.0 - np.exp(-2.0 * t)) * mix
        assert np.allclose(evolve(gen, rho, t), expected, atol=1e-10)


def test_semigroup_property():
    for gen in [pointer_model([0.0, 1.0, 2.5]), qbm_model(8, 0.3)]:
        M = build_superoperator(gen)
        for t in (0.1, 1.0, 5.0):
            for s in (0.1, 1.0, 5.0):
                lhs = propagator(gen, t, M) @ propagator(gen, s, M)
                rhs = propagator(gen, t + s, M)
                assert np.abs(lhs - rhs).max() <= 1e-8


def test_trace_preserved_under_evolution(rng):
    for gen in _models():
        rho = random_density(gen.dim, rng)
        for t in (0.2, 1.0, 4.0):
            assert evolve(gen, rho, t).trace().real == pytest.approx(
                1.0, abs=1e-10)


def test_linear_entropy_nondecreasing(rng):
    for gen in _models():
        rho = projector(random_pure(gen.dim, rng))
        prev = linear_entropy(rho)
        for t in (0.1, 0.5, 1.0, 3.0):
            cur = linear_entropy(evolve(gen, rho, t))
            assert cur >= prev - 1e-9
            prev = cur


def test_evolution_preserves_hermiticity(rng):
    for gen in _models():
        rho = random_density(gen.dim, rng)
        out = evolve(gen, rho, 1.3)
        assert np.abs(out - out.conj().T).max() <= 1e-10


# ---------------------------------------------------------------------------
# adjoint semigroup

def test_adjoint_is_hs_adjoint(rng):
    for gen in _models():
        M = build_superoperator(gen)
        assert np.allclose(adjoint_semigroup(gen), M.conj().T, atol=1e-12)
        A = random_hermitian(gen.dim, rng)
        B = random_hermitian(gen.dim, rng)
        lhs = hs_inner(A, apply_generator(gen, B))
        rhs = hs_inner(apply_generator_adjoint(gen, A), B)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_adjoint_is_unital(rng):
    # T_t^* fixes the identity for every model here (all are unital).
    for gen in _models():
        out = apply_generator_adjoint(gen, np.eye(gen.dim))
        assert np.abs(out).max() <= 1e-9


# ---------------------------------------------------------------------------
# EIS verification

def test_eis_check_passes_on_all_models():
    for gen in _models():
        report = eis_check(gen)
        assert report.min_choi_eigenvalue >= -1e-8
        assert report.max_trace_deviation <= 1e-10
        assert report.max_trace_norm_growth <= 1e-9
        assert report.max_operator_norm_growth <= 1e-9
        assert report.passed
