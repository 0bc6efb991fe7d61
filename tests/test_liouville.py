"""Generators, superoperators, semigroup propagation, adjoints, and the
environment-induced-semigroup checks."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from qsieve import (
    LindbladGenerator,
    apply_generator,
    apply_generator_adjoint,
    build_superoperator,
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
import qsieve.liouville as liouville
from qsieve.liouville import (
    EisReport,
    _block_structure,
    _expm,
    _stack,
    channel_applier,
    choi_matrix,
    superoperator_blocks,
    unvec,
    vec,
)
from qsieve.operators import (
    operator_norm,
    random_density_matrix,
    trace_norm,
)
from qsieve.operators import random_hermitian as random_hermitian_operator

from conftest import (
    block_models,
    blocks_of,
    davies_jump_tensor,
    random_density,
    random_hermitian,
    random_jump_list,
    random_pure,
    rotated_pointer,
    unstructured_model,
)


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


def test_superoperator_is_built_once_and_read_only():
    gen = qbm_model(6, 0.5)
    M = build_superoperator(gen)
    assert build_superoperator(gen) is M
    assert not M.flags.writeable
    with pytest.raises(ValueError):
        M[0, 0] = 1.0


# ---------------------------------------------------------------------------
# block structure

@pytest.mark.parametrize("name", list(block_models()))
def test_superoperator_blocks_are_exact(name):
    gen, count = block_models()[name]
    M = build_superoperator(gen)
    groups = superoperator_blocks(M)
    sizes = [group.shape[1] for group in groups]
    assert sizes == sorted(set(sizes))
    blocks = blocks_of(M)
    assert len(blocks) == count
    assert all(np.all(np.diff(idx) > 0) for idx in blocks)
    assert np.array_equal(np.sort(np.concatenate(blocks)),
                          np.arange(M.shape[0]))
    inside = np.zeros(M.shape, dtype=bool)
    for idx in blocks:
        inside[np.ix_(idx, idx)] = True
    assert not np.any(M[~inside])


def test_block_counts_follow_the_symmetry_sectors():
    # Davies: one block per coherence order k = m - n, |k| < N; QBM: the x
    # jump moves k by 0 or +-2, so the parity of k splits M in two.  A
    # stray non-structural entry would merge blocks and fail this.
    N = 10
    assert len(blocks_of(
        build_superoperator(davies_model(N, 1.0)))) == 2 * N - 1
    for n_levels in (6, 9, 16):
        assert len(blocks_of(
            build_superoperator(qbm_model(n_levels, 0.4)))) == 2


def _csgraph_blocks(M: np.ndarray) -> tuple:
    """superoperator_blocks by scipy's graph search: the reference for the
    package's numpy labelling."""
    import scipy.sparse
    import scipy.sparse.csgraph

    _, labels = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_array(np.asarray(M) != 0), directed=False)
    sizes = np.bincount(labels)
    order = np.lexsort((labels, sizes[labels]))
    groups, start = [], 0
    for size in np.unique(sizes):
        count = np.count_nonzero(sizes == size)
        groups.append(order[start:start + count * size].reshape(count, size))
        start += count * size
    return tuple(groups)


def _block_search_cases() -> dict:
    """The superoperators of every model in this file, and synthetic
    sparsity patterns."""
    cases = {f"model{i}": build_superoperator(gen)
             for i, gen in enumerate(_models())}
    cases.update({name: build_superoperator(gen)
                  for name, (gen, _) in block_models().items()})
    one_way = np.zeros((9, 9))  # M[i, j] != 0 while M[j, i] == 0
    one_way[0, 5] = one_way[5, 7] = one_way[8, 2] = one_way[3, 4] = 1.0
    isolated = np.zeros((8, 8), dtype=complex)  # zero rows and columns
    isolated[np.ix_([1, 4, 6], [1, 4, 6])] = 1.0 + 1.0j
    isolated[2, 7] = -0.5
    # a chain through a random permutation is labelled over several hook
    # rounds; a second chain and a few isolated indices ride along
    perm = np.random.default_rng(11).permutation(2400)
    chain = np.zeros((2400, 2400), dtype=bool)
    chain[perm[:1999], perm[1:2000]] = True
    chain[perm[2000:2396], perm[2001:2397]] = True
    cases.update({"one_way": one_way, "isolated": isolated,
                  "zero": np.zeros((6, 6)), "dense": np.ones((7, 7)),
                  "chain": chain})
    return cases


@pytest.mark.parametrize("name", list(_block_search_cases()))
def test_superoperator_blocks_match_the_graph_search(name):
    M = _block_search_cases()[name]
    groups = superoperator_blocks(M)
    reference = _csgraph_blocks(M)
    assert len(groups) == len(reference)
    for group, ref in zip(groups, reference):
        assert np.array_equal(group, ref)


def _random_grw(seed: int, d: int) -> LindbladGenerator:
    rng = np.random.default_rng(seed)
    return grw_model(np.sort(rng.uniform(-3.0, 3.0, d)),
                     rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))


def _random_hadamard(seed: int, d: int) -> LindbladGenerator:
    """A random Hermitian kernel with a zero diagonal beside a random
    Hermitian H on a random symmetric pattern of entries."""
    rng = np.random.default_rng(seed)
    C = random_hermitian(d, rng)
    np.fill_diagonal(C, 0.0)
    pattern = rng.random((d, d)) < 0.4
    H = random_hermitian(d, rng) * (pattern | pattern.T)
    return LindbladGenerator(d, H, kernel=C)


_STRUCTURE_DRAWS = {"jump_list": random_jump_list,
                    "rotated_pointer": rotated_pointer,
                    "grw": _random_grw, "hadamard": _random_hadamard}


def _plain(structure: tuple) -> list:
    """The groups and Hermitian bases of a _block_structure as lists, which
    compare by value: per group its indices, and the basis's blocks and
    involutions."""
    return [(group.tolist(), None if basis is None else (
        basis.general.tolist(), basis.blocks.tolist(),
        [(blocks.tolist(), rows, F.tolist(), P.tolist(), Q.tolist())
         for blocks, rows, F, P, Q in basis.frames]))
        for group, basis in structure]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(_STRUCTURE_DRAWS)),
       seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4))
def test_block_structure_of_random_generators(kind, seed, d):
    # the groups are the graph's connected components; the structure of a
    # read-only M that owns its data is found once, that of a writable copy
    # or of a view afresh.  The generator is built under the patch, which
    # gives every block of more than one row a Hermitian basis to find, so
    # that no structure found without it is read
    with mock.patch.object(liouville, "_UNTHREADED_MACS", 0):
        M = build_superoperator(_STRUCTURE_DRAWS[kind](seed, d))
        groups = superoperator_blocks(M)
        reference = _csgraph_blocks(M)
        assert len(groups) == len(reference)
        assert all(map(np.array_equal, groups, reference))
        assert not any(group.flags.writeable for group in groups)
        structure = _block_structure(M)
        assert _block_structure(M) is structure
        assert all(map(np.array_equal, groups, [g for g, _ in structure]))
        for other in (M.copy(), M[:, :]):
            again = _block_structure(other)
            assert again is not structure
            assert _block_structure(other) is not again
            assert _plain(again) == _plain(structure)


@pytest.mark.parametrize("name", list(block_models()))
def test_propagator_matches_dense_expm(name):
    gen, _ = block_models()[name]
    M = build_superoperator(gen)
    for t in (0.1, 1.0, 5.0):
        assert np.abs(propagator(gen, t)
                      - scipy.linalg.expm(t * M)).max() <= 1e-12


def _scaled_expm_model(name: str):
    extra = {"qbm16": lambda: qbm_model(16, 0.5),
             "qbm20": lambda: qbm_model(20, 0.5),
             "davies24": lambda: davies_model(24, 1.0)}
    return extra[name]() if name in extra else block_models()[name][0]


@pytest.mark.parametrize("name", [*block_models(), "qbm16", "qbm20",
                                  "davies24"])
def test_scaled_expm_is_scipy_expm_bit_for_bit(name, monkeypatch):
    # every slice takes the pre-scaled path, small ones included
    monkeypatch.setattr(liouville, "_UNTHREADED_MACS", 0)
    M = build_superoperator(_scaled_expm_model(name))
    for group in superoperator_blocks(M):
        S = _stack(M, group)
        for t in (0.0, 0.1, 0.25, 0.5, 1.0, 5.0, 10.0, 20.0):
            assert np.array_equal(_expm(t * S), scipy.linalg.expm(t * S)), t


def test_expm_squares_general_slices_on_scipy_blas(monkeypatch):
    # scipy.linalg.expm squares its Pade approximant with numpy's matmul;
    # _expm hands it only small or triangular slices and runs, through
    # _gemm, the squarings scipy's kernels pick for every other slice
    handed, picked, products = [], [], []
    real_expm = scipy.linalg.expm
    real_pick = liouville.pick_pade_structure
    real_gemm = liouville._gemm

    def recording_expm(A):
        handed.extend(np.reshape(A, (-1,) + A.shape[-2:]))
        return real_expm(A)

    def recording_pick(Am):
        degree, squarings = real_pick(Am)
        picked.append(squarings)
        return degree, squarings

    def counting_gemm(A, B):
        products.append(1)
        return real_gemm(A, B)

    monkeypatch.setattr(scipy.linalg, "expm", recording_expm)
    monkeypatch.setattr(liouville, "pick_pade_structure", recording_pick)
    monkeypatch.setattr(liouville, "_gemm", counting_gemm)
    M = build_superoperator(qbm_model(20, 0.5))
    (group,) = superoperator_blocks(M)
    S = 10.0 * _stack(M, group)
    _expm(S)
    for A in handed:
        assert (A.shape[-1] ** 3 <= liouville._UNTHREADED_MACS
                or 0 in scipy.linalg.bandwidth(A))
    assert len(picked) == len(S) and min(picked) > 0
    assert len(products) == sum(picked)


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
        for t in (0.1, 1.0, 5.0):
            for s in (0.1, 1.0, 5.0):
                lhs = propagator(gen, t) @ propagator(gen, s)
                rhs = propagator(gen, t + s)
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
        A = random_hermitian(gen.dim, rng)
        B = random_hermitian(gen.dim, rng)
        # the adjoint generator is M^H on vectorised operators, checked on
        # an operator that is not Hermitian
        X = A + 1j * B
        assert np.allclose(apply_generator_adjoint(gen, X),
                           unvec(M.conj().T @ vec(X)), atol=1e-12)
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


# The matrix-unit Choi loop and the per-sample check that eis_check
# replaced, kept as references.

def loop_choi_matrix(apply_map, dim: int) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) Map(|i><j|), normalized by 1/dim."""
    C = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            E = np.zeros((dim, dim), dtype=complex)
            E[i, j] = 1.0
            C[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] = apply_map(E)
    return C / dim


def loop_eis_check(gen, n_samples: int = 10, times=(0.1, 1.0, 5.0),
                   seed: int = 0) -> EisReport:
    rng = np.random.default_rng(seed)
    d = gen.dim
    rhos = [random_density_matrix(d, rng) for _ in range(n_samples)]
    # the identity too: a map that is not unital grows its operator norm
    herms = [random_hermitian_operator(d, rng) for _ in range(n_samples)] \
        + [np.eye(d)]

    min_choi = np.inf
    max_trace_dev = 0.0
    max_tn_growth = -np.inf
    max_on_growth = -np.inf
    for t in times:
        T = channel_applier(gen, t)
        choi = loop_choi_matrix(T, d)
        min_choi = min(min_choi, float(np.linalg.eigvalsh(choi).min()))
        for rho in rhos:
            out = T(rho)
            max_trace_dev = max(max_trace_dev, abs(out.trace().real - 1.0))
        for A in herms:
            out = T(A)
            max_tn_growth = max(max_tn_growth, trace_norm(out) - trace_norm(A))
            max_on_growth = max(max_on_growth,
                                operator_norm(out) - operator_norm(A))
    return EisReport(min_choi, max_trace_dev, max_tn_growth, max_on_growth,
                     tuple(times))


def _transpose_semigroup(d: int) -> LindbladGenerator:
    """Phi = the transpose map: positive and trace preserving, not CP, so
    exp(tL) = e^-t (cosh t id + sinh t transpose) fails the Choi test."""
    S = np.zeros((d * d, d * d))
    i, j = np.indices((d, d)).reshape(2, -1)
    S[j * d + i, i * d + j] = 1.0
    return LindbladGenerator(d, np.zeros((d, d)), cp_superop=S)


def _eis_models():
    return _models() + [unstructured_model(),
                        grw_model(np.linspace(-3.0, 3.0, 16), 1.0, 1.0),
                        davies_model(12, 1.0), _transpose_semigroup(3)]


def test_choi_matrix_is_the_matrix_unit_loop():
    for gen in _eis_models():
        for t in (0.1, 1.0, 5.0):
            assert np.array_equal(
                choi_matrix(propagator(gen, t)),
                loop_choi_matrix(channel_applier(gen, t), gen.dim))


def test_eis_check_matches_the_per_sample_loop():
    figures = ("min_choi_eigenvalue", "max_trace_deviation",
               "max_trace_norm_growth", "max_operator_norm_growth")
    for gen in _eis_models():
        report, reference = eis_check(gen), loop_eis_check(gen)
        for name in figures:
            assert getattr(report, name) == pytest.approx(
                getattr(reference, name), abs=1e-12), name
        assert report.passed == reference.passed


def test_eis_check_rejects_a_map_that_is_not_completely_positive():
    report = eis_check(_transpose_semigroup(3))
    assert report.min_choi_eigenvalue < -1e-3
    assert not report.completely_positive
    assert report.trace_preserving
    assert not report.passed


def _amplitude_damping() -> LindbladGenerator:
    """A qubit decaying from |1> to |0>: trace preserving, not unital."""
    return LindbladGenerator(2, np.zeros((2, 2)),
                             jump_ops=(np.array([[0.0, 1.0], [0.0, 0.0]]),))


def _random_jump_lists(count: int, seed: int) -> list:
    """Jump-list generators with one or two random jumps and a random
    Hermitian H, d = 2 to 5; none of them is unital."""
    rng = np.random.default_rng(seed)
    gens = []
    for _ in range(count):
        d = int(rng.integers(2, 6))
        jumps = tuple(rng.standard_normal((d, d))
                      + 1j * rng.standard_normal((d, d))
                      for _ in range(int(rng.integers(1, 3))))
        gens.append(LindbladGenerator(d, random_hermitian(d, rng),
                                      jump_ops=jumps))
    return gens


def test_eis_check_rejects_a_map_that_is_not_unital():
    # T_t(I) = diag(2 - e^-t, e^-t), whose norm grows by 1 - e^-t; random
    # Hermitian samples alone reported this map as contractive
    report = eis_check(_amplitude_damping())
    assert report.completely_positive and report.trace_preserving
    assert report.max_operator_norm_growth == pytest.approx(
        1.0 - np.exp(-5.0), rel=1e-9)
    assert not report.operator_norm_contractive
    assert not report.passed


def test_eis_check_rejects_every_random_non_unital_jump_list():
    for gen in _random_jump_lists(20, seed=0):
        assert np.abs(apply_generator(gen, np.eye(gen.dim))).max() > 1e-3
        report = eis_check(gen)
        assert report.completely_positive and report.trace_preserving
        assert not report.operator_norm_contractive


def test_eis_check_passes_on_unital_custom_models():
    # the unital jump lists of the custom configs in the tests and the
    # benchmark: T_t(I) = I, so the identity adds no norm growth
    dephase = LindbladGenerator(2, np.diag([0.0, 1.0]),
                                jump_ops=(np.diag([1.0, -1.0]),))
    for gen in (dephase, unstructured_model()):
        report = eis_check(gen)
        assert report.passed
        assert abs(report.max_operator_norm_growth) <= 1e-12
