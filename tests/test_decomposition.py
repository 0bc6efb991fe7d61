"""Isometric/sweeping spectral split, membership tests, the split-property
verification report, and enumeration of the pointer ("classical") states."""

from __future__ import annotations

import gc
import pickle
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from qsieve import (
    DefectivePeripheralSpectrumError,
    DimensionMismatchError,
    LindbladGenerator,
    SpectralSplit,
    ValidationError,
    apply_generator,
    build_superoperator,
    classical_states,
    davies_model,
    evolve,
    fidelity,
    grw_model,
    hs_norm,
    iso_membership,
    join_projectors,
    lambda_pure,
    pointer_model,
    projector,
    qbm_model,
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
import qsieve.liouville as liouville
import qsieve.operators as operators
from qsieve.cli import _cmd_classify, _cmd_decompose
from qsieve.decomposition import _fixed_point_candidates, _fixed_point_kernel
from qsieve.liouville import (
    _block_structure,
    _stack,
    channel_applier,
    eis_check,
    propagator,
    steady_state,
    superoperator_blocks,
    unvec,
    vec,
)

from conftest import (
    basis_state,
    block_models,
    blocks_of,
    dense_projection,
    every_product_threaded,
    random_grw,
    random_hermitian,
    random_jump_list,
    random_pure,
    rotated_pointer,
)


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


def _rotated_hamiltonian(seed: int, d: int) -> LindbladGenerator:
    """A generator with no rates: random levels in a random basis."""
    rng = np.random.default_rng(seed)
    U = scipy.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))[0]
    H = U @ np.diag(rng.uniform(-1.0, 1.0, d)) @ U.conj().T
    return LindbladGenerator(d, 0.5 * (H + H.conj().T))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_default_tol_stays_above_the_rounding_of_a_unitary_generator(d):
    # with every rate 0, 1e-9 max |Re lambda| is itself rounding noise and
    # split iso at random; the floor 100 eps ||M||_F keeps the whole space
    generators = [_rotated_hamiltonian(seed, d) for seed in range(5)]
    if d == 3:
        generators.append(LindbladGenerator(3, np.array(
            [[0.0, 1 + 0.5j, 0.0], [1 - 0.5j, 0.3, 0.2], [0.0, 0.2, 1.0]])))
    for gen in generators:
        M = build_superoperator(gen)
        split = spectral_split(M)
        assert (split.iso_dim, split.sweep_dim) == (d * d, 0)
        assert verify_split_properties(split).max_residual <= 1e-7


def test_split_projection_is_idempotent_and_commutes():
    for gen in [pointer_model([0.0, 0.4, -1.0]), toy_model()]:
        M = build_superoperator(gen)
        split = spectral_split(M)
        P = dense_projection(split)
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


@pytest.mark.parametrize("shape", [(3, 3), (4, 3), (4,), (0, 0)])
def test_split_rejects_a_matrix_that_is_not_d2_square(shape):
    with pytest.raises(ValidationError):
        spectral_split(np.zeros(shape))


def test_split_holds_no_dense_projection():
    # the block projections and bases hold sum s^2 entries over the blocks,
    # a small part of M's d^4; the iso and sweep stacks are not held
    M = build_superoperator(davies_model(30, 1.0))
    split = spectral_split(M)
    held = 0
    for f in fields(split):
        value = getattr(split, f.name)
        for array in (value if isinstance(value, tuple) else (value,)):
            held += getattr(array, "nbytes", 0)
    assert held <= M.nbytes / 10


def test_split_peaks_well_below_the_superoperator():
    # the split forms no array of d^4 entries; M is the only one
    M = build_superoperator(davies_model(30, 1.0))
    tracemalloc.start()
    try:
        split = spectral_split(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert split.iso_dim + split.sweep_dim == M.shape[0]
    assert peak <= M.nbytes / 2


@pytest.mark.parametrize("name", list(block_models()))
def test_dense_bases_are_the_block_columns(name):
    # iso_basis and sweep_basis stack the iso and sweep columns of the block
    # bases, block by block in order, each in the whole space
    gen, _ = block_models()[name]
    M = build_superoperator(gen)
    split = spectral_split(M)
    iso, sweep = split.iso_basis, split.sweep_basis
    assert iso.shape == (split.iso_dim, split.dim, split.dim)
    assert sweep.shape == (split.sweep_dim, split.dim, split.dim)
    iso_cols, sweep_cols = [], []
    for group, P, W in zip(split.groups, split.projections,
                           split.block_bases):
        for idx, block, basis in zip(group, P, W):
            k = int(round(np.trace(block).real))
            for j in range(basis.shape[1]):
                col = np.zeros(M.shape[0], dtype=complex)
                col[idx] = basis[:, j]
                (iso_cols if j < k else sweep_cols).append(col)
    assert np.array_equal(np.array([vec(B) for B in iso]).reshape(
        split.iso_dim, -1), np.array(iso_cols).reshape(split.iso_dim, -1))
    assert np.array_equal(np.array([vec(B) for B in sweep]).reshape(
        split.sweep_dim, -1), np.array(sweep_cols).reshape(
            split.sweep_dim, -1))


# ---------------------------------------------------------------------------
# block-by-block split against the dense one

def dense_spectral_split(M, tol=None) -> SpectralSplit:
    """Reference: the split computed on the whole of M, one dense eigvals,
    Schur form, Sylvester solve and QR: the one-block split."""
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

    swept_res = np.abs(evs.real)[np.abs(evs.real) > tol]
    gap = float(swept_res.min()) if swept_res.size else np.inf
    return SpectralSplit(periph.copy(), gap, tol, (np.arange(n)[None],),
                         (P[None],), (np.hstack([Q[:, :k], sweep_q])[None],),
                         (M[None],), (((slice(None), None),),))


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
    assert np.abs(dense_projection(split)
                  - dense_projection(dense)).max() <= 1e-10
    assert split.spectral_gap == pytest.approx(dense.spectral_gap, rel=1e-9)
    report = verify_split_properties(split)
    assert report.max_residual <= 1e-7
    # the one-block split gives the same residuals; the health figures
    # depend on the choice of sweep basis, which differs
    reference = verify_split_properties(dense).residuals
    assert report.residuals.keys() == reference.keys()
    for key, value in report.residuals.items():
        if key in decomposition.HEALTH_FIGURES:
            continue
        if value is None:
            assert reference[key] is None
        else:
            assert abs(value - reference[key]) <= 1e-7, key


def loop_verify_split_properties(M, split, t=20.0) -> dict:
    """Reference: the split residuals with one dense exp(tM), one matvec
    of the dense projection per basis element, and check (d) on the dense
    M: C = W^H M W on the orthonormal vec'd iso basis W, and M(XY) - M(X) Y
    - X M(Y) on every pair of iso basis elements."""
    n = M.shape[0]
    P = dense_projection(split)
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

    if split.iso_dim and split.sweep_dim:
        stacked = np.hstack([np.stack([vec(B) for B in iso], axis=1),
                             np.stack([vec(B) for B in sweep], axis=1)])
        sv = np.linalg.svd(stacked, compute_uv=False)
        res["c_completeness"] = float(np.count_nonzero(
            sv <= n * np.finfo(float).eps * sv.max()))
        res["c_basis_conditioning"] = float(1.0 / np.linalg.cond(stacked))
    else:
        res["c_completeness"] = 0.0
        res["c_basis_conditioning"] = 1.0

    scale = np.linalg.norm(M) or 1.0
    apply = lambda A: unvec(M @ vec(A))
    if split.iso_dim:
        W = np.stack([vec(B) for B in iso], axis=1)
        C = W.conj().T @ M @ W
        res["d_iso_isometry"] = np.linalg.norm(C + C.conj().T, 2) / scale
        res["d_iso_multiplicativity"] = max(
            np.linalg.norm(apply(X @ Y) - apply(X) @ Y - X @ apply(Y))
            for X in iso for Y in iso) / scale
    else:
        res["d_iso_isometry"] = res["d_iso_multiplicativity"] = 0.0

    if split.sweep_dim:
        # the operator norm of exp(tM) on sweep, in an orthonormal basis of
        # sweep that is not the split's
        Q = scipy.linalg.orth(np.stack([vec(B) for B in sweep], axis=1))
        res["e_sweep_decay"] = float(np.linalg.norm(
            scipy.linalg.expm(t * M) @ Q, 2))
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
    qbm_model(12, 0.5),  # blocks of 72 rows: checks in real arithmetic
], ids=[*block_models(), "hamiltonian3", "block", "qbm12"])
def test_block_verification_matches_loop_reference(gen):
    M = build_superoperator(gen)
    split = spectral_split(M)
    report = verify_split_properties(split).residuals
    reference = loop_verify_split_properties(M, split)
    assert report.keys() == reference.keys()
    for key, value in report.items():
        if value is None:
            assert reference[key] is None, key
        else:
            assert abs(value - reference[key]) <= 1e-12, key


def test_verification_rejects_an_m_that_does_not_preserve_hermiticity():
    # M[1, 0] joins the entries (0, 0) and (1, 0) into one block, which
    # X -> X^T carries onto the entries (0, 0) and (0, 1): no block of M.
    # The split stands, but its properties assume a Hermiticity preserving
    # M, and the verification says so
    M = np.diag([0.0, -1.0, -2.0, 0.0]).astype(complex)
    M[1, 0] = 1.0
    split = spectral_split(M)
    assert (split.iso_dim, split.sweep_dim) == (2, 2)
    with pytest.raises(ValidationError, match="Hermiticity"):
        verify_split_properties(split)


def _counting_searches(monkeypatch) -> list:
    calls = []
    real = liouville.superoperator_blocks

    def counting(M):
        calls.append(1)
        return real(M)

    monkeypatch.setattr(liouville, "superoperator_blocks", counting)
    return calls


def test_the_blocks_of_a_superoperator_are_searched_once(monkeypatch):
    # the split, its verification, the kernel and every propagator of one
    # generator share the block structure of its read-only M
    calls = _counting_searches(monkeypatch)
    gen = davies_model(24, 1.0)
    M = build_superoperator(gen)
    split = spectral_split(M)
    verify_split_properties(split)
    classical_states(gen, split)
    propagator(gen, 0.3)
    propagator(gen, 2.0)
    assert len(calls) == 1


def test_join_closure_recovers_each_projector_once(monkeypatch):
    # the joins of k rank-1 projectors need their k vectors; recovering
    # both vectors of every pair took k (k - 1) eigh calls, 30 on GRW 6
    split = spectral_split(build_superoperator(
        grw_model(np.linspace(-3.0, 3.0, 6), 1.0, 1.0)))
    calls = []
    real = operators.state_from_projector

    def counting(e, *args, **kwargs):
        calls.append(1)
        return real(e, *args, **kwargs)

    monkeypatch.setattr(operators, "state_from_projector", counting)
    monkeypatch.setattr(decomposition, "state_from_projector", counting,
                        raising=False)
    join = verify_split_properties(split).residuals["ii_join_closure"]
    assert len(calls) == 6
    monkeypatch.undo()

    # the bits of joining the pairs' projectors one pair at a time
    projs = decomposition._rank1_projectors_in(split.iso_basis)
    X = decomposition._vec_columns(np.array(
        [join_projectors(projs[a], projs[b])
         for a in range(6) for b in range(a + 1, 6)]))
    assert join == float(np.linalg.norm(X - split.project(X), axis=0).max())


def test_verification_and_classical_states_gather_no_block_of_m(
        monkeypatch):
    # the split holds the blocks of M: neither consumer gathers them again
    gen = davies_model(8, 1.0)
    split = spectral_split(build_superoperator(gen))
    calls = []
    real = decomposition._stack

    def counting(M, group):
        calls.append(1)
        return real(M, group)

    monkeypatch.setattr(decomposition, "_stack", counting)
    verify_split_properties(split)
    classical_states(gen, split)
    assert calls == []


def test_verification_takes_no_exponential_without_a_sweeping_part(
        monkeypatch):
    # check (e) is vacuous when the whole space is iso: a Hamiltonian alone
    rng = np.random.default_rng(3)
    gen = LindbladGenerator(12, random_hermitian(12, rng))
    split = spectral_split(build_superoperator(gen))
    assert split.sweep_dim == 0
    calls = []
    real = liouville._expm

    def counting(*args):
        calls.append(1)
        return real(*args)

    # check (e) takes its exponentials through liouville's block form
    monkeypatch.setattr(liouville, "_expm", counting)
    report = verify_split_properties(split)
    assert report.residuals["e_sweep_decay"] is None
    assert calls == []


@pytest.mark.parametrize("command", ["decompose", "classify"])
def test_decompose_and_classify_search_the_blocks_once(command, monkeypatch):
    calls = _counting_searches(monkeypatch)
    run = {"decompose": _cmd_decompose, "classify": _cmd_classify}[command]
    run(block_models()["davies8"][0], {"tol": None, "seed": 0,
                                      "residual_tol": 1e-8})
    assert len(calls) == 1


@pytest.mark.parametrize("name", [*block_models(), "qbm16", "davies24"])
def test_reordered_schur_forms_are_sorted_schur(name):
    # ztrsen is the reordering zgees runs when schur is asked to sort, so
    # an unsorted Schur form reordered afterwards is the sorted one
    gen = {"qbm16": lambda: qbm_model(16, 0.5),
           "davies24": lambda: davies_model(24, 1.0)}.get(
        name, lambda: block_models()[name][0])()
    M = build_superoperator(gen)
    tol = spectral_split(M).tol
    reordered = 0
    for group in superoperator_blocks(M):
        for B in _stack(M, group):
            T0, Q0 = scipy.linalg.schur(B, output="complex")
            select = np.abs(np.diag(T0).real) <= tol
            reordered += not select[:np.count_nonzero(select)].all()
            T, Q, k = decomposition._reorder(T0, Q0, select)
            T1, Q1, k1 = scipy.linalg.schur(
                B, output="complex", sort=lambda z: abs(z.real) <= tol)
            assert np.array_equal(T, T1) and np.array_equal(Q, Q1)
            assert k == k1
    if name in ("qbm8", "qbm16", "unstructured4"):
        assert reordered  # ztrsen ran, not only the in-order shortcut


def test_split_verification_and_propagator_call_no_numpy_lapack(monkeypatch):
    # numpy's LAPACK runs on numpy's own BLAS library; these run on scipy's
    gen = qbm_model(16, 0.5)
    M = build_superoperator(gen)
    rho = np.diag(np.linspace(1.0, 2.0, 16)) / np.linspace(1.0, 2.0, 16).sum()

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in ("eigvals", "qr", "svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    split = spectral_split(M)
    assert verify_split_properties(split).max_residual <= 1e-7
    propagator(gen, 1.0)
    channel_applier(gen, 0.5)(rho)
    steady_state(gen, rho, 10.0)
    assert eis_check(gen).passed


@pytest.mark.parametrize("name", [*block_models(), "qbm16"])
def test_split_solves_sylvester_on_the_schur_blocks(name, monkeypatch):
    # ztrsyl on the triangular Schur blocks, not solve_sylvester, which
    # forms two more Schur forms and multiplies on numpy's BLAS; reference:
    # each block's projection from solve_sylvester on its reordered form
    gen = qbm_model(16, 0.5) if name == "qbm16" else block_models()[name][0]
    M = build_superoperator(gen)
    tol = spectral_split(M).tol
    reference = []
    for group in superoperator_blocks(M):
        for B in _stack(M, group):
            T, Q = scipy.linalg.schur(B, output="complex")
            T, Q, k = decomposition._reorder(
                T, Q, np.abs(np.diag(T).real) <= tol)
            R = scipy.linalg.solve_sylvester(T[:k, :k], -T[k:, k:],
                                             T[:k, k:])
            reference.append(Q[:, :k] @ np.hstack([np.eye(k), R])
                             @ Q.conj().T)

    def refuse(*args, **kwargs):
        raise AssertionError("solve_sylvester called")

    monkeypatch.setattr(scipy.linalg, "solve_sylvester", refuse)
    split = spectral_split(M)
    projections = [P for stack in split.projections for P in stack]
    assert len(projections) == len(reference)
    for P, ref in zip(projections, reference):
        assert np.abs(P - ref).max() <= 1e-12


def test_verification_peaks_well_below_the_superoperator():
    # checks (a), (b) and (e) run on one group of blocks at a time; on the
    # whole space they formed d^4-entry temporaries, three times M here
    M = build_superoperator(davies_model(30, 1.0))
    split = spectral_split(M)
    tracemalloc.start()
    try:
        report = verify_split_properties(split)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.max_residual <= 1e-7
    assert peak <= M.nbytes / 2


@pytest.mark.parametrize("name", list(block_models()))
def test_block_kernel_spans_the_null_space(name):
    gen, _ = block_models()[name]
    M = build_superoperator(gen)
    kernel = _fixed_point_kernel(spectral_split(M))
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


@pytest.mark.parametrize("e", [np.eye(4) / 4, np.eye(2) / 2, np.ones(9)],
                         ids=["d4", "d2", "flat"])
def test_iso_membership_rejects_an_operator_of_another_dim(e):
    split = spectral_split(build_superoperator(pointer_model([0.0, 1.0, 2.5])))
    with pytest.raises(DimensionMismatchError):
        iso_membership(split, e)


@pytest.mark.parametrize("name", list(block_models()))
def test_iso_membership_block_split_matches_one_block_split(name):
    gen, _ = block_models()[name]
    M = build_superoperator(gen)
    split = spectral_split(M)
    dense = dense_spectral_split(M)
    d = gen.dim
    states = [basis_state(d, k) for k in range(d)]
    states += [(states[j] + states[k]) / np.sqrt(2.0)
               for j in range(d) for k in range(j + 1, d)]
    for psi in states:
        e = projector(psi)
        assert abs(iso_membership(split, e)
                   - iso_membership(dense, e)) <= 1e-12


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
    report = verify_split_properties(spectral_split(M), t=20.0)
    assert report.residuals["c_basis_conditioning"] >= 1e-3
    for key, val in report.residuals.items():
        if val is not None and key != "c_basis_conditioning":
            assert val <= 1e-7, f"{key} = {val}"


def test_verify_split_max_residual_skips_health_figures():
    # the basis conditioning is ~1 on a healthy split; it is not a residual
    gen = pointer_model([0.0, 1.0, 2.5])
    M = build_superoperator(gen)
    report = verify_split_properties(spectral_split(M))
    assert report.residuals["c_basis_conditioning"] >= 1e-3
    assert report.max_residual <= 1e-7


def test_verify_split_counts_directions_iso_and_sweep_share():
    # a sweep column that repeats an iso column leaves the split basis one
    # direction short: check (c) counts it, and it fails the verification
    M = build_superoperator(block_models()["qbm8"][0])
    split = spectral_split(M)
    assert verify_split_properties(split).residuals["c_completeness"] \
        == 0.0
    # the first block holds the one iso column, then 31 sweep columns
    assert np.trace(split.projections[0][0]).real == pytest.approx(1.0)
    bases = [W.copy() for W in split.block_bases]
    bases[0][0, :, -1] = bases[0][0, :, 0]
    broken = replace(split, block_bases=tuple(bases))
    report = verify_split_properties(broken)
    assert report.residuals["c_completeness"] > 0
    assert report.max_residual > 0


def test_verify_split_depolarizing_sweep_decay():
    gen = toy_model()
    M = build_superoperator(gen)
    report = verify_split_properties(spectral_split(M), t=20.0)
    assert report.residuals["e_sweep_decay"] <= np.exp(-2.0 * 20.0) + 1e-9


def test_sweep_decay_does_not_depend_on_the_sweep_basis():
    # check (e) is the norm of exp(tM) on sweep, so a unitary change of the
    # sweep columns inside each block leaves it as it is; the largest entry
    # of exp(tM) on those columns, reported before, moves.  QBM N = 12 has
    # blocks of 72 rows with a Hermitian basis, where the check runs in real
    # arithmetic on the split's own columns and not on the rotated ones
    for gen in (block_models()["qbm8"][0], qbm_model(12, 0.5)):
        _assert_sweep_decay_does_not_depend_on_the_sweep_basis(gen)


def _assert_sweep_decay_does_not_depend_on_the_sweep_basis(gen):
    M = build_superoperator(gen)
    split = spectral_split(M)
    rng = np.random.default_rng(5)
    bases = [W.copy() for W in split.block_bases]
    for P, W in zip(split.projections, bases):
        for b, sweep in enumerate(~decomposition._iso_columns(P)):
            k = int(sweep.sum())
            U = scipy.linalg.qr(rng.standard_normal((k, k))
                                + 1j * rng.standard_normal((k, k)))[0]
            W[b][:, sweep] = W[b][:, sweep] @ U
    rotated = replace(split, block_bases=tuple(bases))
    decay = verify_split_properties(split).residuals["e_sweep_decay"]
    assert verify_split_properties(rotated).residuals["e_sweep_decay"] \
        == pytest.approx(decay, rel=1e-12)
    E = scipy.linalg.expm(20.0 * M)

    def largest_entry(stacks):
        return max(np.abs(E[np.ix_(idx, idx)] @ W[:, ~iso]).max()
                   for group, P, stack in zip(split.groups, split.projections,
                                              stacks)
                   for idx, W, iso in zip(group, stack,
                                          decomposition._iso_columns(P)))

    assert abs(largest_entry(split.block_bases) - largest_entry(bases)) \
        > 1e-3 * decay


@pytest.mark.parametrize("t", [-5.0, np.nan], ids=["negative", "nan"])
def test_verify_split_rejects_bad_times(t):
    # the semigroup is defined for t >= 0 only
    M = build_superoperator(pointer_model([0.0, 1.0, 2.5]))
    with pytest.raises(ValidationError):
        verify_split_properties(spectral_split(M), t=t)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4),
       diagonal_h=st.booleans(),
       jumps=st.lists(st.sampled_from(["hermitian", "diagonal"]), max_size=2))
def test_split_residuals_vanish_on_unital_draws(seed, d, diagonal_h, jumps):
    # normal jumps give L(I) = sum_k [V_k, V_k^dag] = 0; a diagonal H, with
    # no jump or diagonal ones, leaves iso more than one dimension
    rng = np.random.default_rng(seed)
    H = random_hermitian(d, rng)
    if diagonal_h:
        H = np.diag(np.diag(H))
    V = tuple(random_hermitian(d, rng) if kind == "hermitian"
              else np.diag(rng.standard_normal(d)
                           + 1j * rng.standard_normal(d)) for kind in jumps)
    gen = LindbladGenerator(d, H, jump_ops=V)
    assert hs_norm(apply_generator(gen, np.eye(d))) <= 1e-12
    M = build_superoperator(gen)
    residuals = {key: value for key, value in verify_split_properties(
        spectral_split(M)).residuals.items()
        if value is not None and key not in decomposition.HEALTH_FIGURES}
    assert max(residuals.values()) <= 1e-9, residuals


def test_verify_split_unitary_sweep_vacuous():
    gen = hamiltonian_only(3)
    M = build_superoperator(gen)
    report = verify_split_properties(spectral_split(M))
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


def test_classical_states_of_a_split_whose_iso_misses_the_kernel():
    # a tol below the rounding of the stationary eigenvalue leaves iso
    # empty: no candidate, where ker M itself is not empty
    gen = toy_model()
    M = build_superoperator(gen)
    split = spectral_split(M, tol=1e-300)
    assert split.iso_dim == 0 and scipy.linalg.null_space(M).shape[1] == 1
    assert _fixed_point_kernel(split).shape == (4, 0)
    assert len(classical_states(gen, split)) == 0


def test_the_kernel_takes_no_svd_beyond_the_iso_count(monkeypatch):
    # ker M lies in iso, so it is read off the split's iso columns: no SVD
    # of a QBM N=16 parity block of 128 rows, only of its iso part
    gen = qbm_model(16, 0.5)
    split = spectral_split(build_superoperator(gen))
    iso_count = max(int(decomposition._iso_columns(P).sum(axis=1).max())
                    for P in split.projections)
    shapes = []

    def recording(real):
        def call(A, *args, **kwargs):
            shapes.append(np.shape(A))
            return real(A, *args, **kwargs)
        return call

    for module, name in ((scipy.linalg, "svd"), (scipy.linalg, "null_space"),
                         (scipy.linalg.lapack, "zgesdd"),
                         (scipy.linalg.lapack, "dgesdd"), (np.linalg, "svd")):
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    classical_states(gen, split)
    assert shapes
    assert max(max(shape) for shape in shapes) <= iso_count


def grid_excluded_projectors(gen, split, residual_tol=1e-8,
                             grid=(24, 16)) -> list:
    """Reference: the candidates of classical_states kept by sampling every
    ordered pair's superpositions on a modulus-ratio x phase grid."""
    candidates = [projector(u) for u in
                  _fixed_point_candidates(gen, split, 0, residual_tol)]
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


def _ket_bra(d: int, i: int, j: int) -> np.ndarray:
    return np.outer(np.eye(d)[i], np.eye(d)[j])


def _two_enclosures(dephased: bool) -> LindbladGenerator:
    """|0>,|1> and |2>,|3>, each decaying onto its lower level; with the
    dephasing diag(1, 1, -1, -1) between the two if dephased."""
    jumps = (_ket_bra(4, 0, 1), _ket_bra(4, 2, 3))
    if dephased:
        jumps += (np.diag([1.0, 1.0, -1.0, -1.0]),)
    return LindbladGenerator(4, np.diag([0.0, 1.0, 2.0, 3.0]), jump_ops=jumps)


def _unital_with_a_noisy_pair() -> LindbladGenerator:
    """A dephased level |0> beside span{|1>, |2>}, where sigma_x and sigma_z
    leave only I as a fixed point: unital, and each eigenvalue of a kernel
    element on the pair is doubled."""
    sx = np.zeros((3, 3))
    sx[1, 2] = sx[2, 1] = 1.0
    return LindbladGenerator(3, np.diag([0.0, 1.0, 1.0]),
                             jump_ops=(_ket_bra(3, 0, 0), sx,
                                       np.diag([0.0, 1.0, -1.0])))


# each model with the basis levels of its classical states
_NON_GENERIC_KERNELS = {
    "two_enclosures": (lambda: _two_enclosures(False), []),
    "two_enclosures_dephased": (lambda: _two_enclosures(True), [0, 2]),
    "unital_noisy_pair": (_unital_with_a_noisy_pair, [0]),
    "amplitude_damping": (lambda: LindbladGenerator(
        2, np.zeros((2, 2)), jump_ops=(_ket_bra(2, 0, 1),)), [0]),
    "v_system": (lambda: LindbladGenerator(
        3, np.diag([0.0, 1.0, 2.0]),
        jump_ops=(_ket_bra(3, 0, 2), _ket_bra(3, 1, 2))), []),
    "dephasing_plus_decay": (lambda: LindbladGenerator(
        3, np.diag([0.0, 1.0, 2.0]),
        jump_ops=(_ket_bra(3, 0, 2), np.diag([1.0, -1.0, 0.0]))), [0, 1]),
}


@pytest.mark.parametrize("name", sorted(_NON_GENERIC_KERNELS))
def test_classical_states_where_kernel_elements_repeat_an_eigenvalue(name):
    # the first three raised "kernel element degenerate after retries":
    # every kernel element vanishes on a decaying subspace of 2 levels, or
    # is a multiple of I on the noisy pair; a repeated eigenvalue is
    # skipped, as its eigenspace holds no pure fixed point
    build, levels = _NON_GENERIC_KERNELS[name]
    gen = build()
    result = classical_states(gen)
    found = [int(np.argmax(np.diag(e).real)) for e in result.projectors]
    assert sorted(found) == levels
    for e, k in zip(result.projectors, found):
        assert hs_norm(e - projector(basis_state(gen.dim, k))) <= 1e-8


def test_classical_states_diagonalise_one_kernel_element(monkeypatch):
    # QBM's kernel is span{I}: no redraw of a degenerate element
    gen = qbm_model(6, 0.5)
    split = spectral_split(build_superoperator(gen))
    calls = []
    real = decomposition._eigh

    def counting(A):
        calls.append(1)
        return real(A)

    monkeypatch.setattr(decomposition, "_eigh", counting)
    assert len(classical_states(gen, split)) == 0
    assert len(calls) == 1


@st.composite
def _enclosed_jump_lists(draw):
    """A jump list on d <= 5 levels: decaying levels, each jumping into a
    recurrent one, and the recurrent levels in enclosures of 1-3 levels,
    each under Hermitian noise (irreducible on 2 or 3 levels) or dephased,
    with optional dephasing between enclosures.  Returns the generator and
    its decaying levels."""
    d = draw(st.integers(2, 5))
    n_decaying = draw(st.integers(1, d - 1))
    sizes = []
    while sum(sizes) < d - n_decaying:
        sizes.append(draw(st.integers(1, min(3, d - n_decaying - sum(sizes)))))
    noisy = draw(st.lists(st.booleans(), min_size=len(sizes),
                          max_size=len(sizes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = np.zeros((d, d), dtype=complex)
    jumps = []
    start = n_decaying
    for size, noise in zip(sizes, noisy):
        enclosure = slice(start, start + size)
        if noise:
            H[enclosure, enclosure] = random_hermitian(size, rng)
            V = np.zeros((d, d), dtype=complex)
            V[enclosure, enclosure] = random_hermitian(size, rng)
        else:
            H[enclosure, enclosure] = np.diag(rng.uniform(0.0, 3.0, size))
            V = np.zeros((d, d))
            V[enclosure, enclosure] = np.diag(rng.uniform(0.5, 2.0, size))
        jumps.append(V)
        start += size
    H[:n_decaying, :n_decaying] = random_hermitian(n_decaying, rng)
    for j in range(n_decaying):
        jumps.append(rng.uniform(0.5, 2.0)
                     * _ket_bra(d, int(rng.integers(n_decaying, d)), j))
    if draw(st.booleans()):  # dephasing between enclosures
        labels = np.repeat(rng.standard_normal(len(sizes)), sizes)
        jumps.append(np.diag(np.concatenate([np.zeros(n_decaying), labels])))
    return LindbladGenerator(d, H, jump_ops=tuple(jumps)), n_decaying


@settings(max_examples=60, deadline=None)
@given(draw=_enclosed_jump_lists())
def test_classical_states_of_generators_with_a_decaying_subspace(draw):
    # classify returns; its states are fixed, in iso, off the decaying
    # levels and pairwise orthogonal
    gen, n_decaying = draw
    split = spectral_split(build_superoperator(gen))
    result = classical_states(gen, split)
    for e in result.projectors:
        assert hs_norm(apply_generator(gen, e)) <= 1e-8
        assert iso_membership(split, e) <= 1e-8
        assert np.trace(e[:n_decaying, :n_decaying]).real <= 1e-8
    overlaps = result.pairwise_overlaps
    assert np.abs(overlaps - np.diag(np.diag(overlaps))).max(
        initial=0.0) <= 1e-8


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


def _qubit_beside_dephased_levels(seed: int, d: int) -> LindbladGenerator:
    """A decoherence-free qubit span{|0>, |1>} under a random H beside d - 2
    levels dephased at rates at least 1/2 apart: its classical states are
    those levels."""
    rng = np.random.default_rng(seed)
    H = np.zeros((d, d), dtype=complex)
    H[:2, :2] = random_hermitian(2, rng)
    H[2:, 2:] = np.diag(rng.uniform(0.0, 3.0, d - 2))
    rates = 0.5 + np.arange(d - 2) + rng.uniform(0.0, 0.5, d - 2)
    return LindbladGenerator(
        d, H, jump_ops=(np.diag(np.concatenate([[0.0, 0.0], rates])),))


_CLASSICAL_DRAWS = {"rotated_pointer": rotated_pointer,
                    "qubit_beside_dephased": _qubit_beside_dephased_levels,
                    "grw": random_grw, "jump_list": random_jump_list}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(_CLASSICAL_DRAWS)),
       seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5))
def test_classical_states_of_random_generators(kind, seed, d):
    # every classical state is a fixed point in iso with lambda = 0, they
    # are pairwise orthogonal, and the kernel read off the split is ker M
    gen = _CLASSICAL_DRAWS[kind](seed, d)
    M = build_superoperator(gen)
    split = spectral_split(M)
    result = classical_states(gen, split)
    if kind == "qubit_beside_dephased":
        assert len(result) == d - 2
    for e in result.projectors:
        assert hs_norm(apply_generator(gen, e)) <= 1e-8
        assert iso_membership(split, e) <= 1e-8
        assert lambda_pure(gen, state_from_projector(e)) <= 1e-8
    overlaps = result.pairwise_overlaps
    assert np.abs(overlaps - np.diag(np.diag(overlaps))).max(
        initial=0.0) <= 1e-8
    kernel = _fixed_point_kernel(split)
    reference = scipy.linalg.null_space(M)
    assert kernel.shape == reference.shape
    assert np.abs(kernel.conj().T @ kernel
                  - np.eye(kernel.shape[1])).max() <= 1e-12
    assert np.abs(kernel @ kernel.conj().T
                  - reference @ reference.conj().T).max() <= 1e-10


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


def test_robustness_probe_rejects_an_operator_of_another_dim():
    gen = pointer_model([0.0, 1.0, 2.5])
    with pytest.raises(DimensionMismatchError):
        robustness_probe(gen, np.eye(2) / 2, times=(1.0,))


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


# ---------------------------------------------------------------------------
# self-conjugate blocks factorised in real arithmetic, their bases found once

def _hermitian_bases(M: np.ndarray) -> list:
    """Per group of M, the Hermitian basis of its real part, or None."""
    return [next((basis for _, basis in parts if basis is not None), None)
            for _, parts in _block_structure(M)]


def _counting_bases(monkeypatch) -> list:
    built = []

    class Counting(liouville._HermitianBasis):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(liouville, "_HermitianBasis", Counting)
    return built


def test_hermitian_bases_are_found_once_per_superoperator(monkeypatch):
    # QBM N=16 is one group of two self-conjugate blocks of 128: the split
    # finds their bases, and its verification, the kernel and every
    # propagator of the same read-only M reuse them
    built = _counting_bases(monkeypatch)
    searches = _counting_searches(monkeypatch)
    gen = qbm_model(16, 0.5)
    M = build_superoperator(gen)
    split = spectral_split(M)
    verify_split_properties(split)
    classical_states(gen, split)
    propagator(gen, 0.3)
    propagator(gen, 2.0)
    assert len(built) == 1 and len(searches) == 1


def test_a_writable_superoperator_has_its_bases_found_again(monkeypatch):
    # a writable M may change after the split, so nothing is kept for it:
    # its verification reads the bases the split holds, and a second split
    # of the same M finds them again
    built = _counting_bases(monkeypatch)
    M = build_superoperator(qbm_model(16, 0.5)).copy()
    split = spectral_split(M)
    assert id(M) not in liouville._STRUCTURES
    report = verify_split_properties(split)
    assert len(built) == 1 and report.max_residual <= 1e-7
    spectral_split(M)
    assert len(built) == 2


def test_the_kept_block_structures_die_with_their_superoperators():
    # a generator, its M and the structure found for M go together: none
    # stays behind in the memo
    gc.collect()
    before = len(liouville._STRUCTURES)
    for k in range(50):
        gen = pointer_model(np.linspace(0.0, 1.0 + k, 3))
        M = build_superoperator(gen)
        spectral_split(M)
        assert liouville._STRUCTURES[id(M)][0]() is M
        del gen, M
    gc.collect()
    assert len(liouville._STRUCTURES) == before


def test_a_split_pickles_and_verifies():
    M = build_superoperator(qbm_model(16, 0.5))
    split = spectral_split(M)
    restored = pickle.loads(pickle.dumps(split))
    assert np.array_equal(restored.peripheral_eigenvalues,
                          split.peripheral_eigenvalues)
    for name in ("groups", "projections", "block_bases", "stacks"):
        assert all(map(np.array_equal, getattr(split, name),
                       getattr(restored, name)))
    assert verify_split_properties(restored).max_residual <= 1e-7


def test_split_and_verification_take_their_parts_without_copies():
    # a part that is its whole group is the group's stack, not a copy, and
    # each change of basis writes its second rotation over the first: the
    # QBM N=16 split and its verification held 6.75 M.nbytes at their peak
    # when every rotation copied the stack
    M = build_superoperator(qbm_model(16, 0.5))
    tracemalloc.start()
    try:
        verify_split_properties(spectral_split(M))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6.7 * M.nbytes


def test_blocks_of_at_most_32_rows_stay_complex(monkeypatch):
    # Davies N=24: 47 coherence-order blocks of at most 24 rows, each
    # factorised in complex arithmetic
    forms = []
    real_schur = scipy.linalg.schur

    def recording(A, *args, **kwargs):
        forms.append(kwargs.get("output"))
        return real_schur(A, *args, **kwargs)

    M = build_superoperator(davies_model(24, 1.0))
    assert all(basis is None for basis in _hermitian_bases(M))
    monkeypatch.setattr(scipy.linalg, "schur", recording)
    assert spectral_split(M).iso_dim == 1
    assert forms == ["complex"] * 47


def test_qbm_split_and_verification_run_in_real_arithmetic(monkeypatch):
    # both parity blocks of QBM are their own images under X -> X^T, so no
    # complex array reaches a Schur form or an exponential; the verification
    # takes one exponential per block, at its one time
    handed = []

    def recording(real, name):
        def call(A, *args, **kwargs):
            handed.append((name, np.asarray(A).dtype))
            return real(A, *args, **kwargs)
        return call

    monkeypatch.setattr(scipy.linalg, "schur",
                        recording(scipy.linalg.schur, "schur"))
    monkeypatch.setattr(scipy.linalg, "expm",
                        recording(scipy.linalg.expm, "expm"))
    monkeypatch.setattr(liouville, "pick_pade_structure", recording(
        liouville.pick_pade_structure, "pade"))
    M = build_superoperator(qbm_model(16, 0.5))
    report = verify_split_properties(spectral_split(M))
    assert report.max_residual <= 1e-7
    names = [name for name, _ in handed]
    assert names.count("schur") == 2 and names.count("pade") == 2
    assert all(dtype == np.float64 for _, dtype in handed)


def _not_hermiticity_preserving(seed: int, d: int) -> LindbladGenerator:
    """A generator whose map is a random complex matrix that annihilates
    the trace: one block that X -> X^T does not carry onto its conjugate,
    so it takes the complex path."""
    rng = np.random.default_rng(seed)
    n = d * d
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    one = vec(np.eye(d))[:, None] / np.sqrt(d)
    S = 0.3 * (X - one @ (one.conj().T @ X)) / np.linalg.norm(X, 2)
    H = np.diag(rng.uniform(0.0, 1.0, d))
    return LindbladGenerator(d, H, cp_superop=S)


_DRAWS = {"jump_list": random_jump_list,
          "rotated_pointer": rotated_pointer,
          "not_hermiticity_preserving": _not_hermiticity_preserving}


def assert_matches_the_dense_complex_reference(gen):
    # the split's projection, peripheral spectrum and kernel, and exp(tM),
    # against one dense complex factorisation of the whole M
    M = build_superoperator(gen)
    split = spectral_split(M)
    dense = dense_spectral_split(M)
    assert split.iso_dim == dense.iso_dim
    assert_same_multiset(split.peripheral_eigenvalues,
                         dense.peripheral_eigenvalues, 1e-10)
    assert np.abs(dense_projection(split)
                  - dense_projection(dense)).max() <= 1e-10
    kernel = _fixed_point_kernel(split)
    reference = scipy.linalg.null_space(M)
    assert kernel.shape == reference.shape
    assert np.abs(kernel @ kernel.conj().T
                  - reference @ reference.conj().T).max() <= 1e-10
    for t in (0.3, 2.0):
        E = scipy.linalg.expm(t * M)
        assert np.abs(propagator(gen, t) - E).max() <= 1e-10 * max(
            1.0, np.abs(E).max())


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(_DRAWS)), seed=st.integers(0, 2**32 - 1),
       d=st.integers(2, 4))
def test_block_rules_match_the_dense_complex_reference(kind, seed, d):
    # the real path on every block, small ones included; the generator is
    # built under the patch, so that no structure found without it is read
    with every_product_threaded():
        gen = _DRAWS[kind](seed, d)
        M = build_superoperator(gen)
        (basis,) = [basis for group, basis in zip(superoperator_blocks(M),
                                                  _hermitian_bases(M))
                    if group.shape[1] > 1]
        assert (basis is not None) == (kind != "not_hermiticity_preserving")
        assert_matches_the_dense_complex_reference(gen)


def _sparse_jump(d: int, entries: dict, energies: list) -> LindbladGenerator:
    V = np.zeros((d, d))
    for (i, j), value in entries.items():
        V[i, j] = value
    return LindbladGenerator(d, np.diag(energies), jump_ops=(V,))


def test_block_rules_on_mixed_involutions():
    # one group of self-conjugate blocks whose entries the transpose swaps
    # in two different patterns
    with every_product_threaded():
        gen = _sparse_jump(3, {(0, 1): 0.5, (1, 0): -0.7}, [1.0, 0.0, 1.0])
        M = build_superoperator(gen)
        assert any(basis is not None and len(basis.frames) > 1
                   for basis in _hermitian_bases(M))
        assert_matches_the_dense_complex_reference(gen)


def test_kernel_survives_the_rounding_of_a_small_generator():
    # d = 2: the zero singular value of C = W^H B W on the iso block read
    # d^2 eps ||M||_F to rounding, as large as a cutoff set there, and the
    # kernel of a trace-preserving generator came out empty
    assert_matches_the_dense_complex_reference(
        _not_hermiticity_preserving(2856981, 2))


def _frame_unitary(frame: tuple, s: int) -> np.ndarray:
    """The unitary U of one frame of a _HermitianBasis, formed densely: its
    columns are the Hermitian basis [F, C, E] in the block's entries."""
    _, F, P, Q = frame
    U = np.zeros((s, s), dtype=complex)
    U[F, np.arange(len(F))] = 1.0
    c = len(F) + np.arange(len(P))
    U[P, c] = U[Q, c] = np.sqrt(0.5)
    U[P, c + len(P)] = 1j * np.sqrt(0.5)
    U[Q, c + len(P)] = -1j * np.sqrt(0.5)
    return U


@pytest.mark.parametrize("make", [
    lambda: qbm_model(8, 0.5),
    lambda: _sparse_jump(3, {(0, 1): 0.5, (1, 0): -0.7}, [1.0, 0.0, 1.0]),
], ids=["qbm8", "mixed_involutions"])
def test_change_of_basis_is_the_unitary_of_each_frame(make):
    # the row operation that stands for U, against U formed densely
    rng = np.random.default_rng(0)
    with every_product_threaded():
        M = build_superoperator(make())
        structure = _block_structure(M)
    checked = 0
    for group, parts in structure:
        for rows, basis in parts:
            if basis is None:
                continue
            S = _stack(M, group)[rows]
            R = liouville._to_real(S, basis)
            assert R.dtype == np.float64
            assert np.abs(liouville._from_real(R, basis) - S).max() <= 1e-14
            X = rng.standard_normal(R.shape)
            UX = liouville._from_real(X, basis, both=False)
            for frame in basis.frames:
                blocks = frame[0]
                U = _frame_unitary(frame, group.shape[1])
                B = S[blocks]
                assert np.abs(R[blocks] - (U.conj().T @ B @ U).real).max() \
                    <= 1e-14 * max(1.0, np.abs(B).max())
                assert np.abs(UX[blocks] - U @ X[blocks]).max() <= 1e-14
                checked += len(B)
    assert checked
