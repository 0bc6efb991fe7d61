"""Isometric/sweeping spectral split, membership tests, the split-property
verification report, and enumeration of the pointer ("classical") states."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from qsieve import (
    DefectivePeripheralSpectrumError,
    LindbladGenerator,
    SpectralSplit,
    build_superoperator,
    classical_states,
    evolve,
    fidelity,
    grw_model,
    iso_membership,
    join_projectors,
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
from qsieve.decomposition import _fixed_point_candidates, _null_space
from qsieve.liouville import superoperator_blocks, unvec, vec

from conftest import basis_state, block_models, blocks_of, random_pure


def hamiltonian_only(d: int = 3) -> LindbladGenerator:
    return LindbladGenerator(d, np.diag(np.arange(1.0, d + 1.0)))


def block_model() -> LindbladGenerator:
    """Coherences inside span{|0>, |1>} persist, those with |2> decay: iso
    has dimension 5 and only |2> is classical."""
    return LindbladGenerator(3, np.diag([0.0, 0.0, 1.0]),
                             jump_ops=(np.diag([1.0, 1.0, 0.0]),
                                       np.diag([0.0, 0.0, 1.0])))


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
# block-by-block split against the dense one

def dense_spectral_split(M, tol=None) -> SpectralSplit:
    """Reference: the split computed on the whole of M, one dense eigvals,
    Schur form, Sylvester solve and QR."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    evs = np.linalg.eigvals(M)
    if tol is None:
        scale = max(np.abs(evs.real).max(), 1e-30)
        tol = 1e-9 * scale

    is_peripheral = lambda z: abs(z.real) <= tol
    T, Q, k = scipy.linalg.schur(M, output="complex", sort=is_peripheral)
    k = int(k)

    periph = np.diag(T)[:k]
    decomposition._check_semisimple(T[:k, :k], periph, tol,
                                    max(np.abs(periph).max(initial=0.0), 1.0))

    if 0 < k < n:
        R = scipy.linalg.solve_sylvester(T[:k, :k], -T[k:, k:], T[:k, k:])
        top = np.hstack([np.eye(k), R])
        P = Q[:, :k] @ top @ Q.conj().T
        sweep_raw = Q[:, :k] @ (-R) + Q[:, k:]
        sweep_q, _ = np.linalg.qr(sweep_raw)
    elif k == n:
        P = np.eye(n, dtype=complex)
        sweep_q = np.zeros((n, 0), dtype=complex)
    else:
        P = np.zeros((n, n), dtype=complex)
        sweep_q = np.eye(n, dtype=complex)

    d = int(round(np.sqrt(n)))
    iso_basis = np.array([unvec(Q[:, i]) for i in range(k)]).reshape(k, d, d)
    sweep_basis = np.array([unvec(sweep_q[:, i])
                            for i in range(n - k)]).reshape(n - k, d, d)
    swept_res = np.abs(evs.real)[np.abs(evs.real) > tol]
    gap = float(swept_res.min()) if swept_res.size else np.inf
    return SpectralSplit(iso_basis, sweep_basis, P, periph.copy(), gap, tol)


def assert_same_multiset(a, b, tol):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    rows, cols = linear_sum_assignment(np.abs(a[:, None] - b[None, :]))
    assert np.abs(a[rows] - b[cols]).max(initial=0.0) <= tol


@pytest.mark.parametrize("name", list(block_models()))
def test_block_split_matches_dense_split(name):
    gen, _ = block_models()[name]
    M = build_superoperator(gen)
    split = spectral_split(M)
    dense = dense_spectral_split(M)
    blocks = blocks_of(M)
    assert_same_multiset(
        np.concatenate([np.linalg.eigvals(M[np.ix_(idx, idx)])
                        for idx in blocks]),
        np.linalg.eigvals(M), 1e-10)
    assert split.iso_dim == dense.iso_dim
    assert split.sweep_dim == dense.sweep_dim
    assert_same_multiset(split.peripheral_eigenvalues,
                         dense.peripheral_eigenvalues, 1e-10)
    assert np.abs(split.iso_projection - dense.iso_projection).max() <= 1e-10
    assert split.spectral_gap == pytest.approx(dense.spectral_gap, rel=1e-9)
    report = verify_split_properties(M, split)
    assert report.max_residual <= 1e-7
    # the one-block split gives the same residuals; the health figures
    # depend on the choice of sweep basis, which differs
    reference = verify_split_properties(M, dense).residuals
    assert report.residuals.keys() == reference.keys()
    for key, value in report.residuals.items():
        if key in decomposition.HEALTH_FIGURES:
            continue
        if value is None:
            assert reference[key] is None
        else:
            assert abs(value - reference[key]) <= 1e-7, key


def loop_verify_split_properties(M, split, times=(1.0, 5.0, 20.0),
                                 n_samples=10, seed=0) -> dict:
    """Reference: the split residuals with one dense exp(tM) per time and
    one matvec of the dense projection per basis element."""
    rng = np.random.default_rng(seed)
    n = M.shape[0]
    P = split.iso_projection
    iso = split.iso_basis
    sweep = split.sweep_basis
    res = {}

    star = 0.0
    for B in iso:
        x = vec(B.conj().T)
        star = max(star, float(np.linalg.norm(x - P @ x)))
    for B in sweep:
        x = vec(B.conj().T)
        star = max(star, float(np.linalg.norm(P @ x)))
    res["a_star_invariance"] = star

    ortho = 0.0
    for B1 in iso:
        for B2 in sweep:
            ortho = max(ortho, abs((B1 @ B2).trace()))
    res["b_trace_orthogonality"] = float(ortho)

    res["c_completeness"] = float(split.iso_dim + split.sweep_dim != n)
    if split.iso_dim and split.sweep_dim:
        stacked = np.hstack([np.stack([vec(B) for B in iso], axis=1),
                             np.stack([vec(B) for B in sweep], axis=1)])
        res["c_basis_conditioning"] = float(1.0 / np.linalg.cond(stacked))
    else:
        res["c_basis_conditioning"] = 1.0

    iso_norm = 0.0
    iso_mult = 0.0
    sweep_decay = 0.0
    expms = {t: scipy.linalg.expm(t * M) for t in times}
    for t in times:
        E = expms[t]
        apply_t = lambda A: unvec(E @ vec(A))
        for _ in range(n_samples):
            if split.iso_dim:
                c = rng.standard_normal(split.iso_dim) \
                    + 1j * rng.standard_normal(split.iso_dim)
                phi1 = np.tensordot(c, iso, axes=1)
                phi1 /= np.linalg.norm(phi1)
                c = rng.standard_normal(split.iso_dim) \
                    + 1j * rng.standard_normal(split.iso_dim)
                phi2 = np.tensordot(c, iso, axes=1)
                phi2 /= np.linalg.norm(phi2)
                iso_norm = max(iso_norm, abs(np.linalg.norm(apply_t(phi1))
                                             - np.linalg.norm(phi1)))
                iso_mult = max(iso_mult, np.linalg.norm(
                    apply_t(phi1 @ phi2) - apply_t(phi1) @ apply_t(phi2)))
    res["d_iso_isometry"] = iso_norm
    res["d_iso_multiplicativity"] = iso_mult

    if split.sweep_dim:
        E = expms[max(times)]
        for B in sweep:
            sweep_decay = max(sweep_decay,
                              float(np.abs(unvec(E @ vec(B))).max()))
        res["e_sweep_decay"] = sweep_decay
    else:
        res["e_sweep_decay"] = None

    prod = 0.0
    for B1 in iso:
        for B2 in iso:
            x = vec(B1 @ B2)
            prod = max(prod, float(np.linalg.norm(x - P @ x)))
    res["i_product_closure"] = prod

    projs = decomposition._rank1_projectors_in(iso)
    join = 0.0
    for a in range(len(projs)):
        for b in range(a + 1, len(projs)):
            x = vec(join_projectors(projs[a], projs[b]))
            join = max(join, float(np.linalg.norm(x - P @ x)))
    res["ii_join_closure"] = join if len(projs) >= 2 else None
    return res


@pytest.mark.parametrize("gen", [
    *(gen for gen, _ in block_models().values()),
    hamiltonian_only(3),
    block_model(),
], ids=[*block_models(), "hamiltonian3", "block"])
def test_block_verification_matches_loop_reference(gen):
    M = build_superoperator(gen)
    split = spectral_split(M)
    report = verify_split_properties(M, split).residuals
    reference = loop_verify_split_properties(M, split)
    assert report.keys() == reference.keys()
    for key, value in report.items():
        if value is None:
            assert reference[key] is None, key
        else:
            assert abs(value - reference[key]) <= 1e-12, key


@pytest.mark.parametrize("split_from, checked_on, mismatch", [
    ("unstructured4", "pointer4", 0.0), ("pointer4", "unstructured4", 1e-3)])
def test_verification_reports_a_split_of_another_matrix(split_from,
                                                        checked_on, mismatch):
    # the blocks come from the M passed in, not from the split, so a split
    # whose structure does not match M shows the same residuals as the
    # dense loop does; the identity, the one iso element of the unital
    # unstructured model, is a fixed point of the pointer model as well
    split = spectral_split(build_superoperator(block_models()[split_from][0]))
    M = build_superoperator(block_models()[checked_on][0])
    report = verify_split_properties(M, split)
    reference = loop_verify_split_properties(M, split)
    assert report.residuals.keys() == reference.keys()
    for key, value in report.residuals.items():
        if value is None:
            assert reference[key] is None, key
        else:
            assert abs(value - reference[key]) <= 1e-12, key
    assert report.max_residual >= mismatch


@pytest.mark.parametrize("name", list(block_models()))
def test_block_kernel_spans_the_null_space(name):
    gen, _ = block_models()[name]
    M = build_superoperator(gen)
    kernel = _null_space(M, superoperator_blocks(M))
    reference = scipy.linalg.null_space(M)
    assert kernel.shape == reference.shape
    assert np.abs(kernel.conj().T @ kernel
                  - np.eye(kernel.shape[1])).max() <= 1e-12
    assert np.abs(kernel @ kernel.conj().T
                  - reference @ reference.conj().T).max() <= 1e-10


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


def test_robustness_probe_matches_dense_semigroups(rng):
    # one propagator per time: the adjoint flow is its conjugate transpose;
    # amplitude damping is not unital, so the two flows differ
    H = np.diag([0.0, 0.9, 2.1]).astype(complex)
    H[0, 2], H[2, 0] = 0.4j, -0.4j
    gen = LindbladGenerator(3, H, jump_ops=(np.diag([1.0, 0.6], 1),))
    M = build_superoperator(gen)
    e = projector(random_pure(3, rng))
    times = (0.5, 1.0, 5.0)
    report = robustness_probe(gen, e, times)
    entropy = lambda x: decomposition._entropy_loose(unvec(x))
    fwd = max(entropy(scipy.linalg.expm(t * M) @ vec(e)) for t in times)
    adj = max(entropy(scipy.linalg.expm(t * M.conj().T) @ vec(e))
              for t in times)
    assert report.max_forward_entropy == pytest.approx(fwd, abs=1e-12)
    assert report.max_adjoint_entropy == pytest.approx(adj, abs=1e-12)


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
