"""End-to-end acceptance suite.

Each test encodes one headline claim about the library at its stated
tolerance and runtime budget: flatness of the depolarizing sieve, exact
pointer-basis recovery, the position-variance law for quantum Brownian
motion, the double-sum decay rate of the Gaussian localization model, the
disc-quadrature moment identities, coherence-selection by the disc-measure
averaging semigroup, the robustness/membership equivalence, and the global
property suite (complete positivity, contractivity, split residuals,
gradient consistency).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from qsieve import (
    build_superoperator,
    classical_states,
    davies_model,
    disc_quadrature,
    evolve,
    eis_check,
    fidelity,
    grw_model,
    iso_membership,
    lambda_gradient,
    lambda_pure,
    linear_entropy,
    minimize_lambda,
    nearest_su11_coherent,
    pointer_model,
    position_operator,
    projector,
    qbm_model,
    spectral_split,
    squeezed_vacuum,
    state_from_projector,
    su11_coherent_state,
    superposition_grid,
    toy_model,
    verify_split_properties,
)
from qsieve.liouville import channel_applier
from qsieve.models import coherent_moment

from conftest import basis_state, random_pure


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, \
            f"runtime {elapsed:.1f}s exceeded budget {self.seconds}s"


def test_criterion_1_depolarizing_flatness():
    budget = Budget(1.0)
    gen = toy_model()
    rng = np.random.default_rng(0)
    for _ in range(200):
        lam = lambda_pure(gen, random_pure(2, rng))
        assert abs(lam - 1.0) <= 1e-10
    report = minimize_lambda(gen, n_starts=8, seed=0)
    assert not any(report.quasi_classical_flags)  # S_qc is empty
    budget.check()


@pytest.mark.parametrize("d", [2, 3, 5])
def test_criterion_2_pointer_basis_recovery(d):
    budget = Budget(5.0)
    energies = [0.0] + [0.7 * k + 0.1 for k in range(1, d)]
    gen = pointer_model(energies)
    split = spectral_split(build_superoperator(gen))
    assert len(split.iso_basis) == d
    assert len(split.sweep_basis) == d * d - d

    result = classical_states(gen, split)
    assert len(result.projectors) == d
    found = [state_from_projector(e) for e in result.projectors]
    for k in range(d):
        assert max(fidelity(basis_state(d, k), psi) for psi in found) \
            >= 1.0 - 1e-8
    overlaps = result.pairwise_overlaps
    off = overlaps - np.diag(np.diag(overlaps))
    assert np.abs(off).max() <= 1e-8
    assert max(result.fixed_point_residuals) <= 1e-8
    budget.check()


def test_criterion_3_qbm_variance_law_and_squeezing_scan():
    budget = Budget(30.0)
    N, D, omega = 30, 0.5, 1.0
    gen = qbm_model(N, D, omega)
    x = position_operator(N)
    x2 = x @ x
    rng = np.random.default_rng(3)

    for _ in range(50):
        psi = np.zeros(N, dtype=complex)
        psi[: N // 2] = random_pure(N // 2, rng)
        mean = np.vdot(psi, x @ psi).real
        var = np.vdot(psi, x2 @ psi).real - mean**2
        lam = lambda_pure(gen, psi)
        assert abs(lam - 2.0 * D * var) / lam <= 1e-8

    # period-averaged purity loss over squeezed vacua is minimized at
    # squeezing 0 within the grid resolution 0.05; this symmetry holds in
    # the weak-coupling regime, so the scan uses a small rate
    weak = qbm_model(N, 0.02, omega)
    period = 2.0 * np.pi / omega
    n_steps = 64
    step = channel_applier(weak, period / n_steps)
    squeezings = np.round(np.arange(-1.0, 1.0 + 1e-9, 0.05), 10)
    averages = []
    for s in squeezings:
        e = projector(squeezed_vacuum(N, float(s)))
        rho = e.copy()
        vals = [linear_entropy(rho)]
        for _ in range(n_steps):
            rho = step(rho)
            vals.append(linear_entropy(rho))
        vals = np.array(vals)
        averages.append((0.5 * (vals[0] + vals[-1]) + vals[1:-1].sum())
                        / n_steps)
    best = squeezings[int(np.argmin(averages))]
    assert abs(best) <= 0.05 + 1e-12
    budget.check()


def test_criterion_4_grw_decay_rate():
    budget = Budget(30.0)
    d = 128
    grid = np.linspace(-6.0, 6.0, d)
    kappa, alpha = 1.0, 0.8
    gen = grw_model(grid, kappa, alpha)
    K = np.exp(-alpha * (grid[:, None] - grid[None, :]) ** 2 / 2.0)
    rng = np.random.default_rng(4)

    for _ in range(30):
        psi = random_pure(d, rng)
        p = np.abs(psi) ** 2
        expected = kappa * (1.0 - p @ K @ p)
        lam = lambda_pure(gen, psi)
        assert abs(lam - expected) <= 1e-10 * max(abs(expected), 1.0)
        assert lam < kappa

    # lambda increases monotonically with the width of a Gaussian packet
    widths = np.linspace(0.1, 3.0, 20)
    lams = []
    for w in widths:
        amp = np.exp(-(grid**2) / (4.0 * w**2))
        psi = amp / np.linalg.norm(amp)
        lam = lambda_pure(gen, psi.astype(complex))
        assert lam < kappa
        lams.append(lam)
    assert all(b > a for a, b in zip(lams, lams[1:]))
    budget.check()


def test_criterion_5_disc_quadrature_moments_and_consistency():
    budget = Budget(10.0)
    quad = disc_quadrature()
    expected = [1 / 3, 2 / 15, 3 / 35, 4 / 63, 5 / 99, 6 / 143]
    for n, target in enumerate(expected):
        assert coherent_moment(n) == pytest.approx(target, abs=1e-12)
        assert quad.moment_errors(ns=(n,))[n] <= 1e-6

    # normalization of the averaging channel: the disc average of
    # tr(e_zeta e_psi e_zeta) equals 1 for every pure state psi
    N = 60
    raw = np.zeros((len(quad.nodes), N), dtype=complex)
    for j, zeta in enumerate(quad.nodes):
        n = np.arange(N)
        raw[j] = (1.0 - abs(zeta) ** 2) * np.sqrt(n + 1.0) * zeta**n
    rng = np.random.default_rng(5)
    for _ in range(10):
        psi = np.zeros(N, dtype=complex)
        psi[:20] = random_pure(20, rng)
        total = quad.weights @ (np.abs(raw.conj() @ psi) ** 2)
        assert abs(total - 1.0) <= 1e-4
    budget.check()


def test_criterion_6_coherent_states_are_the_most_stable():
    budget = Budget(300.0)
    N, kappa = 40, 1.0
    gen = davies_model(N, kappa)
    a_flat = 2.0 * kappa / 3.0

    rng = np.random.default_rng(6)
    for _ in range(20):
        r = 0.6 * np.sqrt(rng.uniform())
        zeta = r * np.exp(2j * np.pi * rng.uniform())
        lam = lambda_pure(gen, su11_coherent_state(N, zeta))
        assert abs(lam - a_flat) <= 1e-3

    for _ in range(200):
        lam = lambda_pure(gen, random_pure(N, rng))
        assert a_flat - 1e-3 <= lam < kappa

    report = minimize_lambda(gen, n_starts=12, seed=0)
    assert abs(report.a0 - a_flat) <= 1e-3
    assert report.minimizers
    assert not report.failed_starts
    for psi in report.minimizers:
        _, fid = nearest_su11_coherent(psi)
        assert fid >= 0.999

    # superpositions of distinct coherent states leave the stability band;
    # the margin grows with the separation of the pair, so the fixed pairs
    # here are well separated on the disc
    threshold = report.a0 + report.epsilon
    pairs = [(0.5, -0.5), (0.55j, -0.55j), (0.6, -0.6)]
    for z1, z2 in pairs:
        e = projector(su11_coherent_state(N, z1))
        f = projector(su11_coherent_state(N, z2))
        for psi in superposition_grid(e, f, n_ratio=24, n_phase=16):
            assert lambda_pure(gen, psi) > threshold
    budget.check()


def test_criterion_7_robustness_equals_membership():
    gen = pointer_model([0.0, 0.9, 2.1])
    split = spectral_split(build_superoperator(gen))
    times = (0.5, 1.0, 2.0, 5.0, 10.0)
    rng = np.random.default_rng(7)

    states = [projector(basis_state(3, k)) for k in range(3)]
    while len(states) < 50:
        states.append(projector(random_pure(3, rng)))

    for e in states:
        max_s = max(linear_entropy(evolve(gen, e, t)) for t in times)
        robust = max_s <= 1e-8
        member = iso_membership(split, e) <= 1e-6
        assert robust == member


def test_criterion_8_property_suite():
    models = [
        pointer_model([0.0, 1.0, 2.5]),
        qbm_model(12, 0.4),
        grw_model(np.linspace(-3, 3, 16), 1.0, 1.2),
        davies_model(12, 1.0),
    ]

    for gen in models:
        report = eis_check(gen)
        assert report.min_choi_eigenvalue >= -1e-8
        assert report.max_trace_deviation <= 1e-10
        assert report.max_trace_norm_growth <= 1e-9
        assert report.max_operator_norm_growth <= 1e-9

        split = spectral_split(build_superoperator(gen))
        verification = verify_split_properties(split)
        assert verification.residuals["c_basis_conditioning"] >= 1e-3
        for key, val in verification.residuals.items():
            if val is not None and key not in ("e_sweep_decay",
                                               "c_basis_conditioning"):
                assert val <= 1e-7, f"{gen.label}: {key} = {val}"

    # Riemannian gradient vs central finite differences, 20 (model, state)
    # pairs, relative agreement 1e-5
    rng = np.random.default_rng(8)
    h = 1e-5
    for i in range(20):
        gen = models[i % len(models)]
        psi = random_pure(gen.dim, rng)
        g = lambda_gradient(gen, psi)
        gnorm = np.linalg.norm(g)
        if gnorm < 1e-10:
            continue
        v = random_pure(gen.dim, rng)
        v = v - np.vdot(psi, v) * psi
        v /= np.linalg.norm(v)
        plus = (psi + h * v) / np.linalg.norm(psi + h * v)
        minus = (psi - h * v) / np.linalg.norm(psi - h * v)
        fd = (lambda_pure(gen, plus) - lambda_pure(gen, minus)) / (2 * h)
        exact = np.real(np.vdot(g, v))
        assert abs(fd - exact) <= 1e-5 * max(abs(exact), gnorm)
