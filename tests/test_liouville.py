"""Generators, superoperators, semigroup propagation, adjoints, and the
environment-induced-semigroup checks."""

from __future__ import annotations

import tracemalloc

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
import qsieve.operators as operators
from qsieve.liouville import (
    EisReport,
    _block_structure,
    _expm,
    _stack,
    channel_applier,
    choi_matrix,
    steady_state,
    superoperator_blocks,
    unvec,
    vec,
)
from qsieve.cli import _cmd_evolve
from qsieve.operators import operator_norm, trace_norm

from conftest import (
    block_models,
    blocks_of,
    davies_jump_tensor,
    every_product_threaded,
    random_density,
    random_grw,
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


def _every_form() -> dict:
    rng = np.random.default_rng(21)
    d = 4
    H = random_hermitian(d, rng)
    C = random_hermitian(d, rng)
    np.fill_diagonal(C, 0.0)
    jumps = tuple(rng.standard_normal((d, d)) + 1j * rng.standard_normal(
        (d, d)) for _ in range(2))
    return {
        "empty jump list": LindbladGenerator(d, H),
        "real jump list": qbm_model(6, 0.5),
        "complex jump list": LindbladGenerator(d, H, jump_ops=jumps),
        "hadamard kernel with an H": LindbladGenerator(d, H, kernel=C),
        "coherent measure": davies_model(12, 1.0),
        "explicit map": LindbladGenerator(
            d, H, cp_superop=build_superoperator(
                LindbladGenerator(d, np.zeros((d, d)), jump_ops=jumps))),
    }


@pytest.mark.parametrize("name", sorted(_every_form()))
def test_superoperator_built_in_place_is_the_kron_sum_bit_for_bit(name):
    # M was kron(I, K) + kron(conj K, I) + mat(Phi), with two d^2 x d^2
    # temporaries; the in-place build keeps every bit, signed zeros too
    gen = _every_form()[name]
    d, K = gen.dim, gen._K
    ref = np.kron(np.eye(d), K) + np.kron(K.conj(), np.eye(d))
    ref = ref + gen._phi.matrix()
    M = build_superoperator(gen)
    assert np.array_equal(M, ref)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(M, part)),
                              np.signbit(getattr(ref, part)))


def test_superoperator_build_makes_no_second_superoperator():
    gen = davies_model(24, 1.0)
    tracemalloc.start()
    try:
        M = build_superoperator(gen)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * M.nbytes


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
                    "grw": random_grw, "hadamard": _random_hadamard}


def _part_rows(group: np.ndarray, parts: tuple) -> list:
    """The blocks of each part of a group, as index arrays."""
    return [np.arange(len(group))[rows] for rows, _ in parts]


def _plain(structure: tuple) -> list:
    """The groups and parts of a _block_structure as lists, which compare
    by value: per group its indices, and per part its blocks and its
    basis's involutions."""
    return [(group.tolist(), [(rows.tolist(), None if basis is None else [
        (frame, F.tolist(), P.tolist(), Q.tolist())
        for frame, F, P, Q in basis.frames])
        for rows, (_, basis) in zip(_part_rows(group, parts), parts)])
        for group, parts in structure]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(_STRUCTURE_DRAWS)),
       seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4))
def test_block_structure_of_random_generators(kind, seed, d):
    # the groups are the graph's connected components; the structure of a
    # read-only M that owns its data is found once, that of a writable copy
    # or of a view afresh.  Each group's parts partition its blocks, and
    # the one with a basis holds the blocks _HermitianBasis accepts.  The
    # generator is built under the patch, which gives every block a
    # Hermitian basis to find, so that no structure found without it is read
    with every_product_threaded():
        M = build_superoperator(_STRUCTURE_DRAWS[kind](seed, d))
        groups = superoperator_blocks(M)
        reference = _csgraph_blocks(M)
        assert len(groups) == len(reference)
        assert all(map(np.array_equal, groups, reference))
        assert not any(group.flags.writeable for group in groups)
        structure = _block_structure(M)
        assert _block_structure(M) is structure
        assert all(map(np.array_equal, groups, [g for g, _ in structure]))
        for group, parts in structure:
            rows = _part_rows(group, parts)
            assert sorted(np.concatenate(rows).tolist()) \
                == list(range(len(group)))
            accepted = liouville._HermitianBasis(_stack(M, group), group, d)
            assert [r.tolist() for r, (_, basis) in zip(rows, parts)
                    if basis is not None] \
                == [accepted.blocks.tolist()] * bool(accepted.blocks.size)
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
    monkeypatch.setattr(operators, "_UNTHREADED_MACS", 0)
    monkeypatch.setattr(operators, "_THREADED_GEMV", 0)
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
        s = A.shape[-1]
        assert (not operators._threaded(s, s, s)
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


# ---------------------------------------------------------------------------
# the block-form semigroup

def _large_blocks(M: np.ndarray) -> int:
    """How many blocks of M _expm runs scipy's kernels on itself."""
    return sum(len(group) for group, _ in _block_structure(M)
               if operators._threaded(*group.shape[1:] * 3))


def test_evolve_takes_one_exponential_per_block_and_no_propagator(
        monkeypatch):
    # exp(10 M) for the steady state was a second Pade approximant per
    # block, and the step and the limit each held a dense 400 x 400
    # propagator: the steady state is the step exponential squared
    gen = qbm_model(20, 0.5)
    M = build_superoperator(gen)
    calls = []
    real = liouville.pade_UV_calc

    def counting(work, degree):
        calls.append(degree)
        return real(work, degree)

    monkeypatch.setattr(liouville, "pade_UV_calc", counting)
    monkeypatch.setattr(liouville._Semigroup, "dense", None)
    config = {"state": "random", "seed": 113,
              "times": [0.25 * k for k in range(41)]}
    tracemalloc.start()
    try:
        _cmd_evolve(gen, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(calls) == _large_blocks(M) == 2
    # the dense route peaked at 3.6 M.nbytes; the block form's peak is the
    # change of basis of one group's stack of blocks, about 2 M.nbytes
    assert peak < 2.5 * M.nbytes


def test_semigroup_build_holds_few_copies_of_the_blocks():
    # each real part is rotated out of its own stack of M, the second
    # rotation written over the first and scaled in place, and the complex
    # stack is let go before the Pade step: QBM N=20, two blocks of 200
    # rows, held about 2 M.nbytes at once when each step made a new stack
    M = build_superoperator(qbm_model(20, 0.5))
    liouville._block_structure(M)
    tracemalloc.start()
    try:
        liouville._Semigroup(M, 0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.7 * M.nbytes


def _limit_by_eigendecomposition(gen, rho) -> np.ndarray:
    """P_0 rho: the projection onto the kernel of M along its range, from
    the kernels of M and M^dag."""
    M = build_superoperator(gen)
    R = scipy.linalg.null_space(M, rcond=1e-10)
    L = scipy.linalg.null_space(M.conj().T, rcond=1e-10)
    x = R @ np.linalg.solve(L.conj().T @ R, L.conj().T @ vec(rho))
    return unvec(x)


def _limit_models() -> dict:
    return {"qbm8": qbm_model(8, 0.5), "davies12": davies_model(12, 1.0),
            "jumps5": random_jump_list(5, 5)}


@pytest.mark.parametrize("name", sorted(_limit_models()))
@pytest.mark.parametrize("first_step", [0.25, 1e-4])
def test_the_limit_read_off_a_step_is_the_eigendecomposition_limit(
        name, first_step, rng):
    gen = _limit_models()[name]
    rho = random_density(gen.dim, rng)
    P0 = _limit_by_eigendecomposition(gen, rho)
    step = channel_applier(gen, first_step)
    assert np.abs(liouville._steady_state_after(gen, rho, step, 10.0)
                  - P0).max() <= 1e-12
    assert np.abs(steady_state(gen, rho, 10.0) - P0).max() <= 1e-12
    # and so the dist column of an evolve run that starts with that step
    psi = random_pure(gen.dim, rng)
    rho = projector(psi)
    P0 = _limit_by_eigendecomposition(gen, rho)
    times = [0.0, first_step, 5.0, 10.0]
    (_, _, dists), = _cmd_evolve(gen, {
        "state": [[c.real, c.imag] for c in psi], "seed": 0,
        "times": times})["chunks"]
    for t, dist in zip(times, dists):
        assert dist == pytest.approx(
            0.5 * trace_norm(evolve(gen, rho, t) - P0), abs=1e-12)


@pytest.mark.parametrize("n_levels", [16, 20])
@pytest.mark.parametrize("dt", [0.05, 0.1, 0.25, 0.5])
def test_doubled_steps_are_the_scaled_exponentials_bit_for_bit(n_levels, dt):
    # a degree-13 approximant that expm scaled (s >= 1) squared k times is
    # expm at 2^k dt: the same scaled matrix, k more squarings.  At dt =
    # 0.05 the QBM blocks take degree 13 unscaled (s = 0), where expm at
    # 2^k dt may scale by less than 2^-k, so they are exponentiated afresh
    M = build_superoperator(qbm_model(n_levels, 0.5))
    step = liouville._Semigroup(M, dt)
    k = 5
    doubled = step.doubled(k)
    for (at, basis, _, pade), (_, _, E, _) in zip(step.parts, doubled.parts):
        B = _stack(M, at)
        if basis is not None:
            B = liouville._to_real(B, basis)
        assert (pade[:, 0] == 13).all()
        assert (pade[:, 1] == 0).all() == (dt == 0.05)
        assert np.array_equal(E, _expm(dt * 2 ** k * B))


def test_steady_state_names_both_causes_when_it_stops(rng):
    # QBM N=8 at D = 0.001 has gap 4e-4 and no oscillating part: 10,000
    # steps of exp(2L) do not reach a step of 1e-13
    gen = qbm_model(8, 0.001)
    with pytest.raises(RuntimeError) as failure:
        steady_state(gen, random_density(8, rng), 2.0)
    message = str(failure.value)
    assert "10000 steps" in message and "tau = 2" in message
    assert "oscillating peripheral part" in message
    assert "spectral gap too small" in message


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


# The matrix-unit Choi loop and the sampled check that eis_check replaced,
# kept as references.

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
    """The figures of T_t at the given times: the least Choi eigenvalue,
    the trace error on random states and the norm growth of random
    Hermitian operators and of I."""
    rng = np.random.default_rng(seed)
    d = gen.dim
    rhos = [random_density(d, rng) for _ in range(n_samples)]
    # the identity too: a map that is not unital grows its operator norm
    herms = [random_hermitian(d, rng) for _ in range(n_samples)] + [np.eye(d)]

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
    # the sampled figures keep the absolute tolerances alone
    return EisReport(min_choi, max_trace_dev, max_tn_growth, max_on_growth,
                     0.0)


def _transpose_semigroup(d: int) -> LindbladGenerator:
    """Phi = the transpose map: positive and trace preserving, not CP, so
    exp(tL) = e^-t (cosh t id + sinh t transpose) fails the Choi test."""
    S = np.zeros((d * d, d * d))
    i, j = np.indices((d, d)).reshape(2, -1)
    S[j * d + i, i * d + j] = 1.0
    return LindbladGenerator(d, np.zeros((d, d)), cp_superop=S)


def _non_schoenberg_kernel() -> LindbladGenerator:
    """The Hadamard kernel C = |x_i - x_j| on four points: x^dag C x < 0
    for some x with sum(x) = 0, so C fails Schoenberg's test and exp(tL),
    the entrywise exp(tC), is not CP."""
    x = np.linspace(0.0, 1.0, 4)
    return LindbladGenerator(4, np.zeros((4, 4)),
                             kernel=np.abs(x[:, None] - x[None, :]))


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


_VERDICTS = ("completely_positive", "trace_preserving",
             "trace_norm_contractive", "operator_norm_contractive", "passed")


def test_eis_check_matches_the_per_sample_loop():
    for gen in _eis_models() + _random_jump_lists(20, seed=0):
        report, reference = eis_check(gen), loop_eis_check(gen)
        for name in _VERDICTS:
            assert getattr(report, name) == getattr(reference, name), name


@pytest.mark.parametrize("gen", [_transpose_semigroup(3),
                                 _non_schoenberg_kernel()],
                         ids=["transpose", "non_schoenberg_kernel"])
def test_eis_check_rejects_a_map_that_is_not_completely_positive(gen):
    report = eis_check(gen)
    assert report.min_choi_eigenvalue < -1e-3
    assert not report.completely_positive
    assert report.trace_preserving
    assert not report.passed


def _time_scaled(gen: LindbladGenerator, c: float) -> LindbladGenerator:
    """The generator c L: the same semigroup in a c times shorter unit of
    time."""
    if gen.cp_superop is not None:
        return LindbladGenerator(gen.dim, c * gen.hamiltonian,
                                 cp_superop=c * gen.cp_superop)
    return LindbladGenerator(gen.dim, c * gen.hamiltonian, jump_ops=tuple(
        np.sqrt(c) * V for V in gen.jump_ops))


def test_eis_verdicts_do_not_depend_on_the_unit_of_time():
    # QBM N=12 is CP by construction, but at D = 1e8 its least Choi
    # eigenvalue rounds to -2.6e-7, below the absolute CHOI_TOL; the figures
    # are compared with the rounding scale d^2 eps ||M||_F (6.6e-4) as well
    gen = qbm_model(12, 1e8)
    report = eis_check(gen)
    assert report.min_choi_eigenvalue < -liouville.CHOI_TOL
    M = build_superoperator(gen)
    assert report.rounding_scale == pytest.approx(
        144 * np.finfo(float).eps * np.linalg.norm(M), rel=1e-12)
    assert report.completely_positive and report.passed
    # the same semigroups in a unit of time 1e8 times shorter keep their
    # verdicts; the transpose semigroup is CP in no unit
    for gen in (qbm_model(12, 0.5), pointer_model([0.0, 1.0, 2.5]),
                unstructured_model(), _transpose_semigroup(3)):
        expected = eis_check(gen).as_dict()
        for c in (1e4, 1e8):
            report = eis_check(_time_scaled(gen, c))
            for name in _VERDICTS:
                assert getattr(report, name) == expected[name], (name, c)
    assert not eis_check(_time_scaled(_transpose_semigroup(3), 1e8)) \
        .completely_positive


def test_eis_check_choi_figure_is_the_least_eigenvalue_off_vec_identity():
    # against an orthonormal basis of the complement of vec(I) from an SVD
    for gen in _eis_models() + [_non_schoenberg_kernel()]:
        d = gen.dim
        V = scipy.linalg.null_space(vec(np.eye(d))[None, :])
        C = choi_matrix(build_superoperator(gen))
        least = np.linalg.eigvalsh(V.conj().T @ C @ V)[0]
        assert eis_check(gen).min_choi_eigenvalue == pytest.approx(
            least, abs=1e-12)


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
    # L(I) = diag(1, -1): T_t(I) = diag(2 - e^-t, e^-t) grows in norm at
    # rate 1 at t = 0; random Hermitian samples alone reported this map as
    # contractive
    report = eis_check(_amplitude_damping())
    assert report.completely_positive and report.trace_preserving
    assert report.max_operator_norm_growth == 1.0
    assert not report.operator_norm_contractive
    assert not report.passed


def test_eis_check_rejects_every_random_non_unital_jump_list():
    for gen in _random_jump_lists(20, seed=0):
        assert np.abs(apply_generator(gen, np.eye(gen.dim))).max() > 1e-3
        report = eis_check(gen)
        assert report.completely_positive and report.trace_preserving
        assert not report.operator_norm_contractive


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(_STRUCTURE_DRAWS)),
       seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5))
def test_eis_check_of_random_generators(kind, seed, d):
    # the exact verdicts are the sampled ones.  A map that is not CP may
    # grow every norm while L(I) = L*(I) = 0: the two norm figures decide
    # contraction only for a positive semigroup, so they are compared on CP
    # draws alone.  Only the jump lists are not unital.
    gen = _STRUCTURE_DRAWS[kind](seed, d)
    report, reference = eis_check(gen), loop_eis_check(gen)
    compared = _VERDICTS if report.completely_positive else (
        "completely_positive", "trace_preserving", "passed")
    for name in compared:
        assert getattr(report, name) == getattr(reference, name), name
    if kind == "jump_list":
        assert report.max_operator_norm_growth > 0.0
    else:
        assert report.max_operator_norm_growth <= liouville.CONTRACTION_TOL


def test_eis_check_passes_on_unital_custom_models():
    # the unital jump lists of the custom configs in the tests and the
    # benchmark: T_t(I) = I, so the identity adds no norm growth; and a
    # one-level model, which a custom config can give, where L = 0 and the
    # Choi matrix has no complement of vec(I)
    dephase = LindbladGenerator(2, np.diag([0.0, 1.0]),
                                jump_ops=(np.diag([1.0, -1.0]),))
    one_level = LindbladGenerator(1, np.ones((1, 1)), jump_ops=(np.eye(1),))
    for gen in (dephase, unstructured_model(), one_level):
        report = eis_check(gen)
        assert report.passed
        assert abs(report.max_operator_norm_growth) <= 1e-12
