"""Isometric/sweeping spectral split, membership tests, the split-property
verification report, and enumeration of the pointer ("classical") states."""

from __future__ import annotations

import numpy as np
import pytest

from qsieve import (
    DefectivePeripheralSpectrumError,
    LindbladGenerator,
    build_superoperator,
    classical_states,
    evolve,
    fidelity,
    grw_model,
    iso_membership,
    pointer_model,
    projector,
    robustness_probe,
    spectral_split,
    state_from_projector,
    superposition,
    superposition_grid,
    toy_model,
    trace_norm,
    verify_split_properties,
)

import qsieve.decomposition as decomposition
from qsieve.decomposition import _fixed_point_candidates

from conftest import basis_state, random_pure


def hamiltonian_only(d: int = 3) -> LindbladGenerator:
    return LindbladGenerator(d, np.diag(np.arange(1.0, d + 1.0)))


# ---------------------------------------------------------------------------
# spectral split dimensions

def test_split_dims_hamiltonian_only():
    gen = hamiltonian_only(3)
    split = spectral_split(build_superoperator(gen))
    assert len(split.iso_basis) == 9
    assert len(split.sweep_basis) == 0


def test_split_dims_pointer():
    gen = pointer_model([0.0, 1.0, 2.5])
    split = spectral_split(build_superoperator(gen))
    assert len(split.iso_basis) == 3
    assert len(split.sweep_basis) == 6


def test_split_dims_depolarizing():
    split = spectral_split(build_superoperator(toy_model()))
    assert len(split.iso_basis) == 1
    assert len(split.sweep_basis) == 3


def test_split_projection_is_idempotent_and_commutes():
    for gen in [pointer_model([0.0, 0.4, -1.0]), toy_model()]:
        M = build_superoperator(gen)
        split = spectral_split(M)
        P = split.iso_projection
        assert np.abs(P @ P - P).max() <= 1e-9
        assert np.abs(P @ M - M @ P).max() <= 1e-9


def test_peripheral_eigenvalues_conjugate_pairs():
    gen = pointer_model([0.0, 1.0, 2.5])
    split = spectral_split(build_superoperator(gen))
    peri = np.array(split.peripheral_eigenvalues)
    assert len(peri) == len(split.iso_basis)
    assert np.abs(peri.real).max() <= 1e-9
    # closed under conjugation
    for lam in peri:
        assert np.min(np.abs(peri - np.conj(lam))) <= 1e-9


def test_iso_and_sweep_bases_are_trace_orthogonal():
    gen = pointer_model([0.0, 1.0, 2.5])
    split = spectral_split(build_superoperator(gen))
    for phi1 in split.iso_basis:
        for phi2 in split.sweep_basis:
            assert abs(np.trace(phi1 @ phi2)) <= 1e-8


def test_defective_peripheral_spectrum_raises():
    # A Jordan block at eigenvalue 0 padded with decaying modes: a peripheral
    # eigenvalue that is not semisimple must be rejected.
    M = np.diag([-1.0, -1.0, 0.0, 0.0]).astype(complex)
    M[2, 3] = 1.0
    with pytest.raises(DefectivePeripheralSpectrumError):
        spectral_split(M)


# ---------------------------------------------------------------------------
# membership

def test_iso_membership_pointer_states():
    gen = pointer_model([0.0, 1.0, 2.5])
    split = spectral_split(build_superoperator(gen))
    for k in range(3):
        assert iso_membership(split, projector(basis_state(3, k))) <= 1e-10


def test_iso_membership_superposition_is_half_sqrt2():
    gen = pointer_model([0.0, 1.0])
    split = spectral_split(build_superoperator(gen))
    plus = projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert iso_membership(split, plus) == pytest.approx(np.sqrt(2.0) / 2.0,
                                                        abs=1e-9)


def test_iso_membership_unitary_case(rng):
    gen = hamiltonian_only(4)
    split = spectral_split(build_superoperator(gen))
    for _ in range(5):
        e = projector(random_pure(4, rng))
        assert iso_membership(split, e) <= 1e-9


# ---------------------------------------------------------------------------
# property verification report

def test_verify_split_pointer_all_residuals_small():
    gen = pointer_model([0.0, 1.0, 2.5])
    M = build_superoperator(gen)
    report = verify_split_properties(M, spectral_split(M), times=(1.0, 5.0, 20.0))
    assert report.residuals["c_basis_conditioning"] >= 1e-3
    for key, val in report.residuals.items():
        if val is not None and key != "c_basis_conditioning":
            assert val <= 1e-7, f"{key} = {val}"


def test_verify_split_max_residual_skips_health_figures():
    # the basis conditioning is ~1 on a healthy split; it is not a residual
    gen = pointer_model([0.0, 1.0, 2.5])
    M = build_superoperator(gen)
    report = verify_split_properties(M, spectral_split(M))
    assert report.residuals["c_basis_conditioning"] >= 1e-3
    assert report.max_residual <= 1e-7


def test_verify_split_depolarizing_sweep_decay():
    gen = toy_model()
    M = build_superoperator(gen)
    report = verify_split_properties(M, spectral_split(M), times=(1.0, 5.0, 20.0))
    assert report.residuals["e_sweep_decay"] <= np.exp(-2.0 * 20.0) + 1e-9


def test_verify_split_unitary_sweep_vacuous():
    gen = hamiltonian_only(3)
    M = build_superoperator(gen)
    report = verify_split_properties(M, spectral_split(M))
    assert report.residuals["e_sweep_decay"] is None


# ---------------------------------------------------------------------------
# classical-state enumeration

def test_classical_states_pointer_is_standard_basis():
    gen = pointer_model([0.0, 1.0, 2.5])
    result = classical_states(gen)
    assert len(result.projectors) == 3
    found = [state_from_projector(e) for e in result.projectors]
    for k in range(3):
        assert max(fidelity(basis_state(3, k), psi) for psi in found) \
            >= 1.0 - 1e-8
    off = result.pairwise_overlaps - np.diag(np.diag(result.pairwise_overlaps))
    assert np.abs(off).max() <= 1e-8
    assert max(result.fixed_point_residuals) <= 1e-8


def test_classical_states_stable_across_kernel_draws():
    gen = pointer_model([0.0, 1.0, 2.5])
    base = [state_from_projector(e) for e in classical_states(gen, seed=0).projectors]
    for seed in range(1, 5):
        redo = [state_from_projector(e)
                for e in classical_states(gen, seed=seed).projectors]
        assert len(redo) == len(base)
        for psi in base:
            assert max(fidelity(psi, phi) for phi in redo) >= 1.0 - 1e-8


def test_classical_states_are_semigroup_fixed_points():
    gen = pointer_model([0.0, 1.0, 2.5])
    for e in classical_states(gen).projectors:
        for t in (0.5, 1.0, 5.0, 20.0):
            assert trace_norm(evolve(gen, e, t) - e) <= 1e-7


def test_classical_states_empty_for_unitary_and_depolarizing():
    assert len(classical_states(hamiltonian_only(3)).projectors) == 0
    assert len(classical_states(toy_model()).projectors) == 0


def block_model() -> LindbladGenerator:
    """Coherences inside span{|0>, |1>} persist, those with |2> decay: iso
    has dimension 5 and only |2> is classical."""
    return LindbladGenerator(3, np.diag([0.0, 0.0, 1.0]),
                             jump_ops=(np.diag([1.0, 1.0, 0.0]),
                                       np.diag([0.0, 0.0, 1.0])))


def grid_excluded_projectors(gen, split, residual_tol=1e-8,
                             grid=(24, 16)) -> list:
    """Reference: the candidates of classical_states kept by sampling every
    ordered pair's superpositions on a modulus-ratio x phase grid."""
    M = build_superoperator(gen)
    candidates = [projector(u) for u in
                  _fixed_point_candidates(gen, M, split, 0, residual_tol, 5)]
    kept = []
    for i, e in enumerate(candidates):
        excluded = False
        for j, f in enumerate(candidates):
            if i == j:
                continue
            for psi in superposition_grid(e, f, *grid):
                if iso_membership(split, projector(psi)) <= residual_tol:
                    excluded = True
                    break
            if excluded:
                break
        if not excluded:
            kept.append(e)
    return kept


@pytest.mark.parametrize("gen", [
    pointer_model([0.0, 1.0, 2.5, 4.0]),
    grw_model(np.linspace(-3.0, 3.0, 8), 1.0, 1.0),
    hamiltonian_only(3),
    block_model(),
], ids=["pointer4", "grw8", "hamiltonian3", "block"])
def test_classical_states_exclusion_matches_grid_reference(gen):
    split = spectral_split(build_superoperator(gen))
    kept = classical_states(gen, split).projectors
    reference = grid_excluded_projectors(gen, split)
    assert len(kept) == len(reference)
    for e, f in zip(kept, reference):
        assert np.array_equal(e, f)


def test_classical_states_block_model_keeps_only_level_two():
    gen = block_model()
    split = spectral_split(build_superoperator(gen))
    assert split.iso_dim == 5
    (e,) = classical_states(gen, split).projectors
    assert fidelity(state_from_projector(e), basis_state(3, 2)) \
        >= 1.0 - 1e-12


def test_classical_states_membership_calls_per_candidate_and_pair(
        monkeypatch):
    calls = []
    real = decomposition.iso_membership

    def counting(split, e):
        calls.append(1)
        return real(split, e)

    monkeypatch.setattr(decomposition, "iso_membership", counting)
    m = len(classical_states(pointer_model([0.0, 1.0, 2.0, 3.0, 4.0])))
    assert m == 5
    assert len(calls) <= m + m * (m - 1) // 2


# ---------------------------------------------------------------------------
# robustness probe

def test_robustness_probe_pointer_fixed_point():
    gen = pointer_model([0.0, 1.0])
    report = robustness_probe(gen, projector(basis_state(2, 0)),
                              times=(0.5, 1.0, 2.0, 5.0, 10.0))
    assert report.max_forward_entropy <= 1e-10
    assert report.max_adjoint_entropy <= 1e-10
    assert report.iso_residual <= 1e-10


def test_robustness_probe_superposition_decoheres():
    gen = pointer_model([0.0, 1.0])
    plus = projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    report = robustness_probe(gen, plus, times=(0.5, 1.0, 2.0, 5.0, 10.0))
    # off-diagonal decays at rate 1: S_lin -> 1/2
    assert report.max_forward_entropy == pytest.approx(
        0.5 * (1.0 - np.exp(-2.0 * 10.0)), abs=1e-8)
    assert report.iso_residual == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-9)


def test_robustness_matches_membership_on_superpositions(rng):
    gen = pointer_model([0.0, 1.0, 2.5])
    split = spectral_split(build_superoperator(gen))
    e0 = projector(basis_state(3, 0))
    e1 = projector(basis_state(3, 1))
    mixed = projector(superposition(e0, e1, 1.0, 0.8j))
    for e in [e0, mixed]:
        report = robustness_probe(gen, e, times=(0.5, 1.0, 2.0, 5.0, 10.0),
                                  split=split)
        robust = max(report.max_forward_entropy,
                     report.max_adjoint_entropy) <= 1e-8
        assert robust == (report.iso_residual <= 1e-6)
