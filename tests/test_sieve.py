"""Predictability sieve: the quadratic decay-rate form, its gradient, the
multi-start minimizer, level-set probes, and the superposition exclusion
test."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from qsieve import (
    LindbladGenerator,
    davies_model,
    evolve,
    grw_model,
    lambda_gradient,
    lambda_pure,
    level_set_probe,
    linear_entropy,
    minimize_lambda,
    pointer_model,
    projector,
    qbm_model,
    quasi_classical_test,
    superposition,
    superposition_grid,
    toy_model,
)
from qsieve.liouville import unvec, vec
from qsieve.operators import random_pure_state, superposition_basis
from qsieve.sieve import (
    STOP_REASONS,
    _BAND_RATIOS,
    _PAULI,
    _band_minimum,
    _descend,
    _excludes,
    _lambda_and_grad,
    _pair_form,
)

from conftest import (
    basis_state,
    lambda_form,
    loop_lambda,
    random_pure,
    unstructured_model,
)


def _sample_models():
    return [
        pointer_model([0.0, 1.0, 2.5]),
        qbm_model(10, 0.4),
        grw_model(np.linspace(-2, 2, 12), 1.0, 2.0),
        davies_model(10, 1.0),
    ]


# ---------------------------------------------------------------------------
# the form itself

def _stack_models():
    """One generator per form of Phi and per model type, with a
    pure-Hamiltonian one (an empty jump list) and an explicit CP map."""
    rng = np.random.default_rng(7)
    V = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = np.diag([0.0, 0.7, -1.3]).astype(complex)
    H[0, 2] = H[2, 0] = 0.4
    return {
        "toy": toy_model(),
        "pointer": pointer_model([0.0, 1.0, 2.5, 3.7]),
        "qbm": qbm_model(12, 0.4),
        "grw": grw_model(np.linspace(-3, 3, 16), 1.0, 2.0),
        "davies6": davies_model(6, 1.0),
        "davies40": davies_model(40, 1.0),
        "custom": unstructured_model(),
        "hamiltonian": LindbladGenerator(3, H),
        "explicit_cp": LindbladGenerator(3, H,
                                         cp_superop=np.kron(V.conj(), V)),
    }


@pytest.mark.parametrize("name", sorted(_stack_models()))
def test_lambda_on_a_stack_matches_the_per_state_formula(name):
    gen = _stack_models()[name]
    rng = np.random.default_rng(11)
    states = np.array([random_pure(gen.dim, rng) for _ in range(25)])
    ref = np.array([loop_lambda(gen, psi) for psi in states])
    lams = lambda_pure(gen, states)
    assert lams.shape == (25,)
    assert np.all(np.abs(lams - ref) <= 1e-12 * np.maximum(1.0, abs(ref)))
    # a single state goes through the same code and gives a float
    single = lambda_pure(gen, states[3])
    assert type(single) is float
    assert abs(single - ref[3]) <= 1e-12 * max(1.0, abs(ref[3]))
    if name == "hamiltonian":
        assert np.all(np.abs(lams) <= 1e-12)


@pytest.mark.parametrize("name", sorted(_stack_models()))
def test_sym_action_on_a_stack_matches_the_dense_form(name):
    # (Phi + Phi*)(|psi><psi|) psi through the dense mat(Phi), for every
    # form of Phi, the empty jump list and the explicit map included
    gen = _stack_models()[name]
    phi = gen._phi
    S = phi.matrix()
    rng = np.random.default_rng(12)
    states = np.array([random_pure(gen.dim, rng) for _ in range(9)])
    stacked = phi.rank1_sym_action(states)
    assert stacked.shape == states.shape
    for psi, row in zip(states, stacked):
        e = np.outer(psi, psi.conj())
        ref = unvec((S + S.conj().T) @ vec(e)) @ psi
        assert np.abs(row - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        # a row of a stack, a one-row stack and a single state: same bits
        assert np.array_equal(row, phi.rank1_sym_action(psi))
        assert np.array_equal(row, phi.rank1_sym_action(psi[None])[0])


@pytest.mark.parametrize("name", sorted(_stack_models()))
def test_rank1_element_on_a_stack_matches_apply(name):
    gen = _stack_models()[name]
    rng = np.random.default_rng(13)
    x, y, u, v = (np.array([random_pure(gen.dim, rng) for _ in range(6)])
                  for _ in range(4))
    stacked = gen._phi.rank1_element(x, y, u, v)
    assert stacked.shape == (6,)
    for k in range(6):
        ref = np.vdot(u[k], gen._phi.apply(np.outer(x[k], y[k].conj()))
                      @ v[k])
        assert abs(stacked[k] - ref) <= 1e-12 * max(1.0, abs(ref))


def test_lambda_flat_on_depolarizing(rng):
    gen = toy_model()
    for _ in range(20):
        assert lambda_pure(gen, random_pure(2, rng)) == pytest.approx(
            1.0, abs=1e-10)


def test_lambda_pointer_values():
    gen = pointer_model([0.0, 1.0])
    assert lambda_form(gen, projector(basis_state(2, 0))) == pytest.approx(
        0.0, abs=1e-12)
    plus = projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert lambda_form(gen, plus) == pytest.approx(0.5, abs=1e-12)


def test_lambda_nonnegative(rng):
    for gen in _sample_models():
        for _ in range(10):
            assert lambda_pure(gen, random_pure(gen.dim, rng)) >= -1e-9


def test_lambda_is_half_entropy_rate(rng):
    # lambda(e) = (1/2) d/dt S_lin(T_t e) at t = 0; forward difference
    # (S_lin(e) = 0 for pure e) with h small enough that the O(h) truncation
    # term stays below the relative tolerance.
    h = 1e-6
    for gen in _sample_models():
        for _ in range(5):
            e = projector(random_pure(gen.dim, rng))
            lam = lambda_form(gen, e)
            fd = 0.5 * linear_entropy(evolve(gen, e, h)) / h
            assert fd == pytest.approx(lam, rel=1e-3, abs=1e-6)


def test_lambda_phase_invariance(rng):
    gen = pointer_model([0.0, 1.0, 2.5])
    e = projector(random_pure(3, rng))
    f = projector(random_pure(3, rng))
    z1, z2 = 0.6, 0.8j
    base = lambda_pure(gen, superposition(e, f, z1, z2))
    for alpha in (0.3, 1.7, 4.0):
        c = np.exp(1j * alpha)
        assert abs(lambda_pure(gen, superposition(e, f, c * z1, c * z2))
                   - base) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_lambda_depolarizing_flat_property(seed):
    gen = toy_model()
    psi = random_pure(2, np.random.default_rng(seed))
    assert abs(lambda_pure(gen, psi) - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# gradient

def test_gradient_zero_on_flat_landscape(rng):
    gen = toy_model()
    assert np.abs(lambda_gradient(gen, random_pure(2, rng))).max() <= 1e-10


def test_gradient_zero_at_pointer_minimum():
    gen = pointer_model([0.0, 1.0, 2.5])
    assert np.abs(lambda_gradient(gen, basis_state(3, 1))).max() <= 1e-10


def test_gradient_tangent_and_matches_finite_differences(rng):
    h = 1e-5
    for gen in _sample_models():
        psi = random_pure(gen.dim, rng)
        g = lambda_gradient(gen, psi)
        assert abs(np.vdot(psi, g)) <= 1e-10
        if np.linalg.norm(g) < 1e-8:
            continue
        for _ in range(5):
            v = random_pure(gen.dim, rng)
            v = v - np.vdot(psi, v) * psi
            v /= np.linalg.norm(v)
            plus = (psi + h * v) / np.linalg.norm(psi + h * v)
            minus = (psi - h * v) / np.linalg.norm(psi - h * v)
            fd = (lambda_pure(gen, plus) - lambda_pure(gen, minus)) / (2 * h)
            exact = np.real(np.vdot(g, v))
            assert fd == pytest.approx(exact, rel=1e-5, abs=1e-8)


# ---------------------------------------------------------------------------
# minimization

def test_minimize_depolarizing_flat():
    gen = toy_model()
    report = minimize_lambda(gen, n_starts=8, seed=3)
    assert report.a0 == pytest.approx(1.0, abs=1e-9)
    assert report.flat_landscape
    assert not any(report.quasi_classical_flags)


def test_minimize_pointer_finds_basis_states():
    gen = pointer_model([0.0, 1.0, 2.5])
    report = minimize_lambda(gen, n_starts=12, seed=5)
    assert report.a0 == pytest.approx(0.0, abs=1e-8)
    for psi in report.minimizers:
        assert np.sort(np.abs(psi))[-1] >= 1.0 - 1e-4  # a basis state
    for lam in report.minimizer_lambdas:
        assert report.a0 - 1e-9 <= lam <= report.a0 + report.epsilon


def test_descent_keeps_every_pointer_state():
    # re-fixing the phase at each retraction turned the Barzilai-Borwein
    # difference psi - prev_psi into an O(1) phase jump near a basis state:
    # 4 of these 8 starts ran to max_iter and only 2 of the 5 states were
    # found
    d = 5
    report = minimize_lambda(pointer_model([0.0, 1.0, 2.5, 3.7, 5.2]),
                             n_starts=8, seed=0)
    assert report.failed_starts == 0
    found = {int(np.argmax(np.abs(psi))) for psi in report.minimizers
             if np.abs(psi).max() ** 2 >= 1.0 - 1e-6}
    assert found == set(range(d))


def test_minimize_is_deterministic():
    gen = pointer_model([0.0, 1.0, 2.5])
    r1 = minimize_lambda(gen, n_starts=6, seed=11)
    r2 = minimize_lambda(gen, n_starts=6, seed=11)
    assert r1.a0 == r2.a0
    assert len(r1.minimizers) == len(r2.minimizers)
    for a, b in zip(r1.minimizers, r2.minimizers):
        assert np.array_equal(a, b)
    assert np.array_equal(r1.histogram, r2.histogram)


# ---------------------------------------------------------------------------
# level sets

def test_level_set_empty_off_the_flat_value():
    gen = toy_model()
    assert level_set_probe(gen, 0.5, band=1e-6, n_samples=20) == []


def test_level_set_nonempty_for_localization_model(rng):
    # the kernel must decay fast relative to the grid spacing for high decay
    # rates to be attainable on the grid
    gen = grw_model(np.linspace(-6, 6, 32), 1.0, 30.0)
    for a in (0.2, 0.5, 0.9):
        states = level_set_probe(gen, a, band=1e-6, n_samples=30, seed=1)
        assert states
        for psi in states:
            assert abs(lambda_pure(gen, psi) - a) <= 1e-6


# ---------------------------------------------------------------------------
# superposition grid and exclusion

def test_superposition_grid_shape_and_norms(rng):
    e = projector(random_pure(3, rng))
    f = projector(random_pure(3, rng))
    grid = superposition_grid(e, f, n_ratio=6, n_phase=4)
    assert len(grid) == 24
    for psi in grid:
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        ee = projector(psi)
        assert np.abs(np.trace(ee @ e)).real < 1.0 - 1e-9
        assert np.abs(np.trace(ee @ f)).real < 1.0 - 1e-9
    thetas = np.pi / 2 * (np.arange(1, 7) / 7)
    phis = 2 * np.pi * np.arange(4) / 4
    points = [(th, ph) for th in thetas for ph in phis]
    for psi, (th, ph) in zip(grid, points):
        assert np.array_equal(psi, superposition(
            e, f, np.cos(th), np.sin(th) * np.exp(1j * ph)))


def test_superposition_grid_single_point_is_balanced():
    e = projector(basis_state(2, 0))
    f = projector(basis_state(2, 1))
    (psi,) = superposition_grid(e, f, n_ratio=1, n_phase=1)
    assert np.allclose(np.abs(psi), np.array([1.0, 1.0]) / np.sqrt(2.0),
                       atol=1e-12)


def test_quasi_classical_pointer_true_depolarizing_false():
    gen = pointer_model([0.0, 1.0])
    report = minimize_lambda(gen, n_starts=8, seed=2)
    e = projector(basis_state(2, 0))
    f = projector(basis_state(2, 1))
    assert quasi_classical_test(gen, report, e, f)

    flat = toy_model()
    flat_report = minimize_lambda(flat, n_starts=4, seed=2)
    g1 = projector(basis_state(2, 0))
    g2 = projector(basis_state(2, 1))
    assert not quasi_classical_test(flat, flat_report, g1, g2)


# ---------------------------------------------------------------------------
# exact exclusion: lambda on the span of a pair is a quadratic form in the
# Bloch vector, minimized in closed form over the band the grid samples

def _explicit_cp_model():
    H = np.diag([0.0, 0.7, -1.3]).astype(complex)
    V = (np.diag([1.0, 1.0], 1) + 0.5j * np.diag([1.0, -1.0, 0.3])
         + 0.2 * np.ones((3, 3)))
    W = np.diag([0.4, 0.0], -1).astype(complex)
    S = np.kron(V.conj(), V) + np.kron(W.conj(), W)
    return LindbladGenerator(3, H, cp_superop=S)


def _form_models():
    """One generator per form of Phi."""
    return [
        pointer_model([0.0, 1.0, 2.5, 3.7, 5.2]),          # jump list
        qbm_model(10, 0.4),                                # jump list
        grw_model(np.linspace(-2, 2, 12), 1.0, 2.0),       # Hadamard kernel
        davies_model(10, 1.0),                             # coherent measure
        _explicit_cp_model(),                              # explicit d^2 x d^2
    ]


def _pair_coordinates(e, f):
    """(u, w, c, s): f's representative is v = c u + s w, u and w
    orthonormal, as _excludes sees the pair."""
    u, v = superposition_basis(e, f)
    c = np.vdot(u, v)
    w = v - c * u
    s = np.linalg.norm(w)
    return u, w / s, c, s


def _exact_minimum(gen, e, f) -> float:
    u, w, c, s = _pair_coordinates(e, f)
    return _band_minimum(_pair_form(gen, u, w), c, s)


def _band_lambda(gen, e, f):
    """lambda at the normalized cos t u + sin t e^{i phi} v, as a function of
    (t, phi); the band is t in [pi/50, 12 pi/25]."""
    u, v = superposition_basis(e, f)

    def lam(x):
        psi = np.cos(x[0]) * u + np.sin(x[0]) * np.exp(1j * x[1]) * v
        return lambda_pure(gen, psi / np.linalg.norm(psi))
    return lam


def _grid_excludes(gen, e, f, threshold):
    return all(lambda_pure(gen, psi) > threshold
               for psi in superposition_grid(e, f))


def test_band_is_the_grid_theta_range():
    e = projector(basis_state(2, 0))
    f = projector(basis_state(2, 1))
    grid = superposition_grid(e, f)
    ratios = [abs(psi[1] / psi[0]) for psi in grid]
    assert min(ratios) == pytest.approx(_BAND_RATIOS[0], rel=1e-12)
    assert max(ratios) == pytest.approx(_BAND_RATIOS[1], rel=1e-12)
    assert _BAND_RATIOS[0] * _BAND_RATIOS[1] == pytest.approx(1.0, rel=1e-12)


def test_pair_form_reproduces_lambda_on_the_span(rng):
    for gen in _form_models():
        e = projector(random_pure(gen.dim, rng))
        f = projector(random_pure(gen.dim, rng))
        u, w, _, _ = _pair_coordinates(e, f)
        Q = _pair_form(gen, u, w)
        assert np.array_equal(Q, Q.T)
        for _ in range(10):
            x = random_pure(2, rng)
            nt = np.array([np.vdot(x, P @ x).real for P in _PAULI])
            assert abs(nt @ Q @ nt - lambda_pure(gen, x[0] * u + x[1] * w)) \
                <= 1e-12


def test_pair_forms_on_a_stack_match_each_pair(rng):
    for gen in _form_models():
        pairs = [_pair_coordinates(projector(random_pure(gen.dim, rng)),
                                   projector(random_pure(gen.dim, rng)))
                 for _ in range(4)]
        U, W = (np.array([p[k] for p in pairs]) for k in (0, 1))
        stacked = _pair_form(gen, U, W)
        assert stacked.shape == (4, 4, 4)
        for Q, (u, w, _, _) in zip(stacked, pairs):
            assert np.array_equal(Q, _pair_form(gen, u, w))
            # against the form built from Phi's images of the matrix units
            X = np.stack([u, w], axis=1)
            C = np.array([X.conj().T @ gen._phi.apply(
                np.outer(X[:, a], X[:, b].conj())) @ X
                for a in range(2) for b in range(2)]).reshape(2, 2, 2, 2)
            T = np.einsum("vab,mji,abij->mv", _PAULI, _PAULI, C).real
            g = 0.25 * np.einsum("mji,ij->m", _PAULI,
                                 X.conj().T @ gen._G @ X).real
            ref = -0.125 * (T + T.T)
            ref[0] += g
            ref[:, 0] += g
            assert np.abs(Q - ref).max() <= 1e-12


def test_band_minimum_is_below_the_grid_and_fine_sampling(rng):
    lo, hi = np.arctan(_BAND_RATIOS)
    points = [(t, phi) for t in np.linspace(lo, hi, 49)
              for phi in np.linspace(0.0, 2 * np.pi, 48, endpoint=False)]
    for gen in _form_models():
        for _ in range(2):
            e = projector(random_pure(gen.dim, rng))
            f = projector(random_pure(gen.dim, rng))
            exact = _exact_minimum(gen, e, f)
            grid = min(lambda_pure(gen, psi)
                       for psi in superposition_grid(e, f))
            lam = _band_lambda(gen, e, f)
            fine = sorted((lam(x), x) for x in points)
            # rounding only: each sampled state lies in the band
            assert exact <= grid + 1e-12
            assert exact <= fine[0][0] + 1e-12
            # and the minimum is attained: refining the best samples
            # inside the band reaches it
            refined = min(
                minimize(lam, x, method="L-BFGS-B",
                         bounds=[(lo, hi), (None, None)],
                         options={"ftol": 1e-15, "gtol": 1e-12}).fun
                for _, x in fine[:3])
            assert exact <= refined + 1e-12
            assert refined - exact <= 1e-9


def test_band_minimum_on_a_degenerate_pair():
    # lambda = 2 |a|^2 |b|^2 on span(|0>, |1>) of the pointer model does not
    # depend on the relative phase; its band minimum sits on the edge
    # theta = pi/50, where it is sin^2(2 theta) / 2
    gen = pointer_model([0.0, 1.0, 2.5])
    e = projector(basis_state(3, 0))
    f = projector(basis_state(3, 1))
    exact = _exact_minimum(gen, e, f)
    assert exact == pytest.approx(0.5 * np.sin(np.pi / 25) ** 2, abs=1e-14)


def test_band_minimum_on_nearby_coherent_states():
    # the Davies minimizers are coherent states of one family; on their pairs
    # the multiplier linearisation meets eigenvalues of A where no unit
    # Bloch vector completes the particular solution, and such a point once
    # passed as a candidate with lambda far below zero
    gen = davies_model(40, 1.0)
    report = minimize_lambda(gen, n_starts=3, seed=0)
    lo, hi = np.arctan(_BAND_RATIOS)
    t, phi = (x.ravel() for x in np.meshgrid(
        np.linspace(lo, hi, 49), np.linspace(0.0, 2 * np.pi, 48,
                                             endpoint=False)))
    ms = report.minimizers
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            u, v = ms[i], ms[j]
            c = np.vdot(u, v)
            w = v - c * u
            s = np.linalg.norm(w)
            exact = _band_minimum(_pair_form(gen, u, w / s), c, s)
            psi = (np.cos(t)[:, None] * u
                   + (np.sin(t) * np.exp(1j * phi))[:, None] * v)
            grid = lambda_pure(gen, psi / np.linalg.norm(
                psi, axis=1)[:, None]).min()
            assert exact <= grid + 1e-12
            assert grid - exact <= 1e-6


def test_exact_test_rejects_a_dip_between_grid_points():
    # v = (|0> + |1>)/sqrt 2: the superposition u - sqrt2 v = -|1> has
    # |z2/z1| = sqrt 2, inside the band, and lambda = 0 there; tan(theta) =
    # sqrt 2 falls between the grid's theta = 15 pi/50 and 16 pi/50, so the
    # grid sees no lower value than about 1.5e-3
    gen = pointer_model([0.0, 1.0, 2.5, 3.7, 5.2])
    e = projector(basis_state(5, 0))
    f = projector((basis_state(5, 0) + basis_state(5, 1)) / np.sqrt(2.0))
    exact = _exact_minimum(gen, e, f)
    grid = min(lambda_pure(gen, psi) for psi in superposition_grid(e, f))
    assert abs(exact) <= 1e-12
    assert grid >= 1e-3
    threshold = 0.5 * (exact + grid)
    assert _grid_excludes(gen, e, f, threshold)
    assert not _excludes(gen, *superposition_basis(e, f), threshold)


def test_exact_test_is_symmetric(rng):
    for gen in _form_models():
        e = projector(random_pure(gen.dim, rng))
        f = projector(random_pure(gen.dim, rng))
        assert _exact_minimum(gen, e, f) == pytest.approx(
            _exact_minimum(gen, f, e), abs=1e-12)


@pytest.mark.parametrize("gen, n_starts", [
    (pointer_model([0.0, 1.0, 2.5, 3.7, 5.2]), 8),
    (grw_model(np.linspace(-3, 3, 16), 1.0, 1.0), 8),
    (qbm_model(16, 0.5), 4),
], ids=["pointer", "grw", "qbm"])
def test_sieve_flags_agree_with_the_grid(gen, n_starts):
    report = minimize_lambda(gen, n_starts=n_starts, seed=0)
    assert len(report.minimizers) >= 2
    threshold = report.a0 + report.epsilon
    projs = [projector(psi) for psi in report.minimizers]
    grid_flags = tuple(
        all(_grid_excludes(gen, e, f, threshold)
            for j, f in enumerate(projs) if j != i)
        for i, e in enumerate(projs))
    assert report.quasi_classical_flags == grid_flags


_SIEVE_RUNS = [
    (pointer_model([0.0, 1.0, 2.5, 3.7, 5.2]), 8),
    (grw_model(np.linspace(-3, 3, 16), 1.0, 1.0), 8),
    (qbm_model(16, 0.5), 4),
]
_SIEVE_IDS = ["pointer", "grw", "qbm"]


@pytest.mark.parametrize("gen, n_starts", _SIEVE_RUNS + [
    (davies_model(12, 1.0), 4)], ids=_SIEVE_IDS + ["davies12"])
def test_each_start_descends_as_it_would_alone(gen, n_starts):
    # minimize_lambda's promise that its result does not depend on the
    # order of execution: every start's minimiser, value and exit are those
    # of the start descending alone, bit for bit, and lambda and its
    # gradient give each row of a stack the bits that row gets alone
    report = minimize_lambda(gen, n_starts=n_starts, seed=0)
    starts = np.array([
        random_pure_state(gen.dim, np.random.default_rng(ss))
        for ss in np.random.SeedSequence(0).spawn(n_starts)])
    alone = [_descend(gen, psi0, 1e-8, 2000) for psi0 in starts]
    assert report.histogram == tuple(val for _, val, ok, _ in alone if ok)
    assert report.stop_reasons == {
        reason: sum(r == reason for *_, r in alone) for reason in STOP_REASONS}
    for psi, val in zip(report.minimizers, report.minimizer_lambdas):
        assert any(np.array_equal(psi, a[0]) and val == a[1] for a in alone)

    ends = np.array([a[0] for a in alone])
    for stack in (starts, ends):
        vals, grads = _lambda_and_grad(gen, stack)
        for k, psi in enumerate(stack):
            for single in (psi, psi[None]):
                val, grad = _lambda_and_grad(gen, single)
                assert vals[k] == val
                assert np.array_equal(grads[k], grad.reshape(-1))


@pytest.mark.parametrize("gen, n_starts", _SIEVE_RUNS + [
    (davies_model(40, 1.0), 3), (davies_model(12, 1.0), 6)],
    ids=_SIEVE_IDS + ["davies40", "davies12"])
def test_sieve_flags_are_the_per_pair_verdicts(gen, n_starts):
    # the one pass over all pairs flags what a loop over the pairs would;
    # on Davies N=12 three pairs of coherent states fail and the rest pass
    report = minimize_lambda(gen, n_starts=n_starts, seed=0)
    ms = report.minimizers
    threshold = report.a0 + report.epsilon
    flags = [len(ms) >= 2 and not report.flat_landscape] * len(ms)
    verdicts = []
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            verdicts.append(_excludes(gen, ms[i], ms[j], threshold))
            if not verdicts[-1]:
                flags[i] = flags[j] = False
    assert report.quasi_classical_flags == tuple(flags)
    i, j = np.triu_indices(len(ms), 1)
    stacked = _excludes(gen, np.array(ms)[i], np.array(ms)[j], threshold)
    assert stacked.tolist() == verdicts


def test_band_minimum_on_a_stack_matches_each_pair(rng):
    pairs = [(pointer_model([0.0, 1.0, 2.5]), basis_state(3, 0),
              basis_state(3, 1))]                     # the degenerate pair
    gen = davies_model(40, 1.0)
    ms = minimize_lambda(gen, n_starts=3, seed=0).minimizers
    pairs += [(gen, ms[i], ms[j])                      # nearby coherent states
              for i in range(len(ms)) for j in range(i + 1, len(ms))]
    for model in _form_models():
        pairs += [(model, random_pure(model.dim, rng),
                   random_pure(model.dim, rng)) for _ in range(3)]
    Qs, cs, ss, single = [], [], [], []
    for gen, u, v in pairs:
        c = np.vdot(u, v)
        w = v - c * u
        s = np.linalg.norm(w)
        Qs.append(_pair_form(gen, u, w / s))
        cs.append(c)
        ss.append(s)
        single.append(_band_minimum(Qs[-1], c, s))
    stacked = _band_minimum(np.array(Qs), np.array(cs), np.array(ss))
    assert stacked.shape == (len(pairs),)
    assert np.all(np.abs(stacked - single)
                  <= 1e-12 * np.maximum(1.0, np.abs(single)))


# ---------------------------------------------------------------------------
# stop reasons

def test_sieve_reports_starts_that_stop_by_stagnation():
    # every start stops through the stagnation test: the value stalls while
    # |grad| sits above tol, so none of them met the gradient test
    gen = davies_model(12, 1.0)
    report = minimize_lambda(gen, n_starts=4, seed=0)
    assert report.stop_reasons == {"gradient": 0, "stagnation": 4,
                                   "line_search": 0, "max_iter": 0}
    assert report.failed_starts == 0
    for psi in report.minimizers:
        assert np.linalg.norm(lambda_gradient(gen, psi)) > 1e-8
    assert report.as_dict()["stop_reasons"] == report.stop_reasons


def test_sieve_stop_reasons_count_every_start():
    gen = pointer_model([0.0, 1.0, 2.5, 3.7, 5.2])
    report = minimize_lambda(gen, n_starts=8, seed=0)
    assert tuple(report.stop_reasons) == STOP_REASONS
    assert report.stop_reasons == {"gradient": 2, "stagnation": 5,
                                   "line_search": 1, "max_iter": 0}
    # the iteration cap is the exit of the starts that fail
    capped = minimize_lambda(gen, n_starts=8, seed=0, max_iter=5)
    assert capped.stop_reasons["max_iter"] == capped.failed_starts == 6
    assert sum(capped.stop_reasons.values()) == 8
