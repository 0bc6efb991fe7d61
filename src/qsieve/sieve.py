"""Predictability sieve: the entropy-production form on pure states, its
Riemannian minimization over the unit sphere, level sets, and the
superposition-exclusion test for quasi-classical states.

For a rank-1 projector e the form is lambda(e) = -Re tr(e L(e)), i.e. half the
initial rate of linear-entropy production.  Minimization runs multi-start
projected gradient descent with backtracking on the unit sphere modulo phase.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liouville import LindbladGenerator, apply_generator, channel_applier
from .operators import (
    ValidationError,
    combine_states,
    fidelity,
    is_hermitian,
    normalize_state,
    projector,
    random_pure_state,
    superposition_basis,
)

__all__ = [
    "SieveReport",
    "lambda_form",
    "lambda_pure",
    "lambda_gradient",
    "minimize_lambda",
    "level_set_probe",
    "superposition_grid",
    "quasi_classical_test",
    "time_averaged_linear_entropy",
]


def lambda_form(gen: LindbladGenerator, e) -> float:
    """Entropy-production form on a rank-1 projector: -tr(e L(e))."""
    e = np.asarray(e, dtype=complex)
    if not is_hermitian(e, tol=1e-10):
        raise ValidationError("lambda is defined on Hermitian projectors")
    val = -np.trace(e @ apply_generator(gen, e))
    if abs(val.imag) > 1e-10 * max(abs(val.real), 1.0):
        raise ValidationError(
            f"lambda acquired an imaginary part {val.imag:.3e}")
    return float(val.real)


def lambda_pure(gen: LindbladGenerator, psi) -> float:
    """lambda on the projector e of a unit vector: <G> - <psi|Phi(e)|psi>
    with G = Phi*(I); the Hamiltonian drops out."""
    psi = np.asarray(psi, dtype=complex)
    g_mean = np.vdot(psi, gen._G @ psi).real
    return float(g_mean - gen._phi.rank1_expectation(psi))


def _lambda_and_grad(gen: LindbladGenerator, psi: np.ndarray):
    """Value and Riemannian gradient of psi -> lambda(|psi><psi|).

    With A = L(e) + L*(e) = (Phi + Phi*)(e) - {G, e}, the gradient is
    -2 (A psi - <A> psi), tangent to the sphere and phase-gauge free.
    """
    gpsi = gen._G @ psi
    g_mean = float(np.real(np.vdot(psi, gpsi)))
    sym_psi = gen._phi.rank1_sym_action(psi)
    val = g_mean - 0.5 * float(np.real(np.vdot(psi, sym_psi)))
    apsi = sym_psi - gpsi - g_mean * psi
    mean = np.vdot(psi, apsi)
    grad = -2.0 * (apsi - mean * psi)
    return val, grad


def lambda_gradient(gen: LindbladGenerator, psi) -> np.ndarray:
    """Riemannian gradient of lambda on the unit sphere modulo phase."""
    psi = np.asarray(psi, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-12:
        raise ValidationError("state vector is not normalized")
    _, grad = _lambda_and_grad(gen, psi)
    return grad


@dataclass(frozen=True)
class SieveReport:
    a0: float
    epsilon: float
    minimizers: tuple            # unit vectors
    minimizer_lambdas: tuple
    histogram: tuple             # lambda values of the random starts
    quasi_classical_flags: tuple
    flat_landscape: bool
    failed_starts: int
    seed: int
    n_starts: int
    #: the exclusion tests sample S(e, f) on a finite grid
    sampled_universality: bool = True

    def as_dict(self) -> dict:
        return {
            "a0": self.a0,
            "epsilon": self.epsilon,
            "minimizers": [[[c.real, c.imag] for c in psi]
                           for psi in self.minimizers],
            "minimizer_lambdas": list(self.minimizer_lambdas),
            "histogram": list(self.histogram),
            "quasi_classical_flags": list(self.quasi_classical_flags),
            "flat_landscape": self.flat_landscape,
            "failed_starts": self.failed_starts,
            "seed": self.seed,
            "n_starts": self.n_starts,
            "sampled_universality": self.sampled_universality,
        }


def _descend(gen: LindbladGenerator, psi0: np.ndarray, tol: float,
             max_iter: int):
    """Projected gradient descent with Armijo backtracking; returns
    (psi, lambda, converged)."""
    psi = normalize_state(psi0)
    val, grad = _lambda_and_grad(gen, psi)
    step = 1.0
    prev_psi = prev_grad = None
    for _ in range(max_iter):
        gnorm = np.linalg.norm(grad)
        scale = max(abs(val), 1.0)
        if gnorm <= tol * scale:
            return psi, val, True
        if prev_grad is not None:
            # Barzilai-Borwein step, essential on nearly flat valleys
            s = psi - prev_psi
            y = grad - prev_grad
            yy = float(np.real(np.vdot(y, y)))
            if yy > 0.0:
                bb = float(np.real(np.vdot(s, y))) / yy
                if bb > 0.0:
                    step = min(bb, 1e3)
        accepted = False
        for _ in range(40):
            trial = normalize_state(psi - step * grad)
            tval, tgrad = _lambda_and_grad(gen, trial)
            if tval <= val - 1e-4 * step * gnorm ** 2:
                prev_psi, prev_grad = psi, grad
                improvement = val - tval
                psi, val, grad = trial, tval, tgrad
                accepted = True
                break
            step *= 0.5
        if accepted and improvement <= 1e-3 * tol * scale:
            # value has stagnated well below tolerance; in a flat valley the
            # gradient norm alone can take thousands of iterations to settle
            if np.linalg.norm(grad) <= tol ** 0.75 * scale:
                return psi, val, True
        if not accepted:
            # line search stalled at machine precision: treat as converged
            return psi, val, gnorm <= np.sqrt(tol) * scale
    return psi, val, False


def minimize_lambda(gen: LindbladGenerator, n_starts: int = 16, seed: int = 0,
                    tol: float = 1e-8, max_iter: int = 2000,
                    epsilon: float | None = None,
                    dedup_fidelity: float = 0.999) -> SieveReport:
    """Multi-start minimization of lambda over pure states.

    Deterministic for a fixed seed: each start draws from its own spawned
    bit generator, so the result is independent of execution order.
    """
    if n_starts < 1:
        raise ValidationError("n_starts must be >= 1")
    seeds = np.random.SeedSequence(seed).spawn(n_starts)
    results = []
    failed = 0
    for ss in seeds:
        rng = np.random.default_rng(ss)
        psi0 = random_pure_state(gen.dim, rng)
        psi, val, ok = _descend(gen, psi0, tol, max_iter)
        if ok:
            results.append((psi, val))
        else:
            failed += 1
    if not results:
        raise RuntimeError("no optimizer start converged")

    lambdas = np.array([v for _, v in results])
    a0 = float(lambdas.min())
    if a0 < -1e-9:
        raise ValidationError(
            f"lambda infimum {a0} is negative; generator is not dissipative")
    eps = max(1e-6, 1e-3 * abs(a0)) if epsilon is None else epsilon

    # flat landscape: every start ends (and starts) at the same value
    start_vals = [lambda_pure(gen, random_pure_state(
        gen.dim, np.random.default_rng(ss))) for ss in seeds]
    spread = max(lambdas.max() - a0, max(start_vals) - min(start_vals))
    flat = spread <= max(1e-9, 1e-6 * max(abs(a0), 1.0))

    in_band = [(psi, v) for psi, v in results if v <= a0 + eps]
    if flat:
        minimizers = [psi for psi, _ in results]
        min_lams = [v for _, v in results]
    else:
        minimizers = []
        min_lams = []
        for psi, v in sorted(in_band, key=lambda r: r[1]):
            if all(fidelity(psi, q) < dedup_fidelity for q in minimizers):
                minimizers.append(psi)
                min_lams.append(v)

    flags = []
    if flat or len(minimizers) < 2:
        flags = [False] * len(minimizers)
    else:
        for i, psi in enumerate(minimizers):
            e = projector(psi)
            ok = True
            for j, phi in enumerate(minimizers):
                if i == j:
                    continue
                if not _excludes(gen, e, projector(phi), a0 + eps):
                    ok = False
                    break
            flags.append(ok)

    return SieveReport(a0, eps, tuple(minimizers), tuple(min_lams),
                       tuple(float(v) for v in lambdas), tuple(flags), flat,
                       failed, seed, n_starts)


def superposition_grid(e, f, n_ratio: int = 24, n_phase: int = 16) -> list:
    """Non-trivial superpositions of two distinct rank-1 projectors on a
    modulus-ratio x phase grid: z2/z1 = tan(theta_k) e^{i phi_m} with theta_k
    interior to (0, pi/2).  Each state equals superposition(e, f, ...) at
    its grid point; the representatives of e and f are recovered once."""
    u, v = superposition_basis(e, f)
    states = []
    thetas = np.pi / 2 * (np.arange(1, n_ratio + 1) / (n_ratio + 1))
    phis = 2 * np.pi * np.arange(n_phase) / n_phase
    for th in thetas:
        for ph in phis:
            states.append(combine_states(u, v, np.cos(th),
                                         np.sin(th) * np.exp(1j * ph)))
    return states


def _excludes(gen: LindbladGenerator, e, f, threshold: float,
              n_ratio: int = 24, n_phase: int = 16) -> bool:
    """True iff every sampled superposition of e and f has lambda above the
    threshold."""
    for psi in superposition_grid(e, f, n_ratio, n_phase):
        if lambda_pure(gen, psi) <= threshold:
            return False
    return True


def quasi_classical_test(gen: LindbladGenerator, report: SieveReport,
                         e, f) -> bool:
    """Do all grid superpositions of two most-stable states leave the stability
    band?  (Sampled universality; see SieveReport.sampled_universality.)"""
    u, v = superposition_basis(e, f)
    return _excludes(gen, projector(u), projector(v),
                     report.a0 + report.epsilon)


def level_set_probe(gen: LindbladGenerator, a: float, band: float,
                    n_samples: int = 50, seed: int = 0,
                    max_iter: int = 500) -> list:
    """Sample random pure states and gradient-refine toward lambda = a;
    an empty result is legitimate (the level set may be empty)."""
    if a < 0:
        raise ValidationError("level value must be nonnegative")
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(n_samples):
        psi = random_pure_state(gen.dim, rng)
        psi = _refine_to_level(gen, psi, a, band, max_iter)
        if abs(lambda_pure(gen, psi) - a) <= band:
            found.append(psi)
    return found


def _refine_to_level(gen: LindbladGenerator, psi: np.ndarray, a: float,
                     band: float, max_iter: int) -> np.ndarray:
    """Descend on (lambda - a)^2."""
    val, grad = _lambda_and_grad(gen, psi)
    step = 1.0
    for _ in range(max_iter):
        err = val - a
        if abs(err) <= 0.25 * band:
            break
        g = 2.0 * err * grad
        gnorm = np.linalg.norm(g)
        if gnorm < 1e-14:
            break
        accepted = False
        for _ in range(40):
            trial = normalize_state(psi - step * g)
            tval, tgrad = _lambda_and_grad(gen, trial)
            if (tval - a) ** 2 <= err ** 2 - 1e-4 * step * gnorm ** 2:
                psi, val, grad = trial, tval, tgrad
                step = min(step * 2.0, 1e3)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return psi


def time_averaged_linear_entropy(gen: LindbladGenerator, e, horizon: float,
                                 n_steps: int = 64, step=None) -> float:
    """Trapezoid average of S_lin(T_t e) over [0, horizon].

    Optional sieve criterion for families where the instantaneous form is
    degenerate (e.g. squeezing under quantum Brownian motion).  Pass a
    precomputed `step = channel_applier(gen, horizon / n_steps)` when scanning
    a family of initial states with one generator.
    """
    if horizon <= 0:
        raise ValidationError("horizon must be positive")
    e = np.asarray(e, dtype=complex)
    dt = horizon / n_steps
    if step is None:
        step = channel_applier(gen, dt)
    rho = e.copy()
    vals = [_slin(rho)]
    for _ in range(n_steps):
        rho = step(rho)
        vals.append(_slin(rho))
    vals = np.array(vals)
    return float((0.5 * (vals[0] + vals[-1]) + vals[1:-1].sum()) * dt
                 / horizon)


def _slin(rho: np.ndarray) -> float:
    rho = 0.5 * (rho + rho.conj().T)
    return float((rho.trace() - (rho @ rho).trace()).real)
