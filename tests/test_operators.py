"""Operator-space primitives: entropies, norms, inner products, projector
algebra, and superpositions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsieve import (
    DegenerateInputError,
    ValidationError,
    fidelity,
    hs_inner,
    hs_norm,
    join_projectors,
    linear_entropy,
    normalize_state,
    projector,
    state_from_projector,
    superposition,
    trace_norm,
    validate_density_matrix,
)
from qsieve.operators import fix_phase, random_pure_state

from conftest import basis_state, random_density, random_pure


# ---------------------------------------------------------------------------
# linear entropy

def test_linear_entropy_examples():
    assert linear_entropy(np.diag([0.75, 0.25])) == pytest.approx(0.375)
    assert linear_entropy(np.eye(4) / 4.0) == pytest.approx(0.75)


def test_linear_entropy_zero_on_pure_states(rng):
    for d in (2, 3, 7):
        e = projector(random_pure(d, rng))
        assert abs(linear_entropy(e)) <= 1e-12


def test_linear_entropy_is_trace_minus_purity(rng):
    # S_lin(rho) = tr rho - tr rho^2; for unit trace this is 1 - purity,
    # checked in both directions.
    for d in (2, 5, 9):
        rho = random_density(d, rng)
        purity = float(np.real(np.trace(rho @ rho)))
        assert linear_entropy(rho) == pytest.approx(1.0 - purity, abs=1e-12)
        assert 1.0 - linear_entropy(rho) == pytest.approx(purity, abs=1e-12)


def test_linear_entropy_range(rng):
    for d in (2, 4, 8):
        rho = random_density(d, rng)
        s = linear_entropy(rho)
        assert -1e-12 <= s <= 1.0 - 1.0 / d + 1e-12


# ---------------------------------------------------------------------------
# Hilbert-Schmidt inner product and norms

def test_hs_inner_is_trace_of_adjoint_product(rng):
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert hs_inner(A, B) == pytest.approx(np.trace(A.conj().T @ B))
    assert hs_inner(B, A) == pytest.approx(np.conj(hs_inner(A, B)))
    assert hs_norm(A) == pytest.approx(np.sqrt(hs_inner(A, A).real))


def test_trace_norm_examples():
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)
    assert trace_norm(projector(basis_state(3, 1))) == pytest.approx(1.0)


def test_hs_norm_bounded_by_trace_norm_bulk():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        d = int(rng.integers(1, 17))
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert hs_norm(A) <= trace_norm(A) + 1e-10


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 16))
def test_hs_norm_bounded_by_trace_norm_property(seed, d):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    assert hs_norm(A) <= trace_norm(A) + 1e-10


# ---------------------------------------------------------------------------
# projectors and joins

def test_projector_roundtrip(rng):
    psi = random_pure(5, rng)
    e = projector(psi)
    assert np.allclose(e, e.conj().T)
    assert np.allclose(e @ e, e, atol=1e-12)
    phi = state_from_projector(e)
    assert fidelity(psi, phi) == pytest.approx(1.0, abs=1e-12)


def test_join_projectors_spans_both(rng):
    e = projector(random_pure(4, rng))
    f = projector(random_pure(4, rng))
    j = join_projectors(e, f)
    assert np.allclose(j, j.conj().T)
    assert np.allclose(j @ j, j, atol=1e-10)
    assert np.trace(j).real == pytest.approx(2.0, abs=1e-10)
    # j acts as identity on both ranges
    assert np.allclose(j @ e, e, atol=1e-10)
    assert np.allclose(j @ f, f, atol=1e-10)


def test_join_projectors_rejects_equal_inputs(rng):
    e = projector(random_pure(3, rng))
    with pytest.raises(DegenerateInputError):
        join_projectors(e, e)


# ---------------------------------------------------------------------------
# superpositions

def test_superposition_equal_weights():
    e = projector(basis_state(2, 0))
    f = projector(basis_state(2, 1))
    psi = superposition(e, f, 1.0, 1.0)
    assert np.allclose(psi, np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-12)


def test_superposition_rescaling_invariance(rng):
    e = projector(random_pure(4, rng))
    f = projector(random_pure(4, rng))
    z1, z2 = 0.3 + 0.4j, -1.1 + 0.2j
    base = superposition(e, f, z1, z2)
    for c in (2.0, -0.5j, 0.7 * np.exp(1.9j)):
        assert np.linalg.norm(superposition(e, f, c * z1, c * z2)
                              - base) <= 1e-10


def test_superposition_degenerate_inputs(rng):
    e = projector(random_pure(3, rng))
    with pytest.raises(DegenerateInputError):
        superposition(e, e, 1.0, 1.0)
    f = projector(random_pure(3, rng))
    with pytest.raises(DegenerateInputError):
        superposition(e, f, 0.0, 0.0)


# ---------------------------------------------------------------------------
# validation

def test_validate_density_matrix_accepts_and_rejects(rng):
    rho = random_density(3, rng)
    out = validate_density_matrix(rho)
    assert np.allclose(out, rho, atol=1e-10)
    with pytest.raises(ValidationError):
        validate_density_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(ValidationError):
        validate_density_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_normalize_state_rejects_zero():
    with pytest.raises(ValidationError):
        normalize_state(np.zeros(3))
    stack = np.ones((3, 4), dtype=complex)
    stack[1] = 0.0
    with pytest.raises(ValidationError):
        normalize_state(stack)


def test_a_stack_normalizes_to_the_bits_of_its_rows(rng):
    # one implementation for a state and a stack: each row of a stack gets
    # the bits the row gets alone, zero leading amplitudes included
    stack = rng.standard_normal((40, 7)) + 1j * rng.standard_normal((40, 7))
    stack[::5, :2] = 0.0
    stack *= 10.0 ** rng.integers(-6, 6, size=(40, 1))
    for fn in (normalize_state, fix_phase):
        out = fn(stack)
        assert out.shape == stack.shape
        for row, psi in zip(out, stack):
            assert np.array_equal(row, fn(psi))
    assert np.allclose(np.linalg.norm(normalize_state(stack), axis=1), 1.0)


def test_random_states_draw_as_a_stack_or_one_at_a_time():
    stack = random_pure_state(5, np.random.default_rng(3), count=9)
    rng = np.random.default_rng(3)
    assert stack.shape == (9, 5)
    for psi in stack:
        assert np.array_equal(psi, random_pure_state(5, rng))
