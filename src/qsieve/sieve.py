"""Predictability sieve: the entropy-production form on pure states, its
Riemannian minimization over the unit sphere, level sets, and the
superposition-exclusion test for quasi-classical states.

For a rank-1 projector e the form is lambda(e) = -Re tr(e L(e)), i.e. half the
initial rate of linear-entropy production.  Minimization runs multi-start
Riemannian gradient descent with Barzilai-Borwein steps and backtracking on
the unit sphere; lambda and its gradient are blind to the global phase, so
the iterates carry whatever phase the steps give them and only the returned
minimizer is phase-fixed.  lambda and its gradient take a state (d,) or a
stack (m, d) and never form e: each form of Phi acts on the state itself,
and gives each row of a stack the bits that row gets alone.  The starts
descend one after another.  Superposition exclusion is decided exactly: on
the span of two states lambda is a quadratic form in the Bloch vector,
minimized in closed form over the band of superpositions the grid would
sample, for all pairs of minimizers in one batched pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .liouville import LindbladGenerator, channel_applier
from .operators import (
    ValidationError,
    _matmul,
    _matvecs,
    combine_states,
    fidelity,
    fix_phase,
    normalize_state,
    random_pure_state,
    superposition_basis,
)

__all__ = [
    "SieveReport",
    "lambda_pure",
    "lambda_gradient",
    "minimize_lambda",
    "level_set_probe",
    "superposition_grid",
    "quasi_classical_test",
    "time_averaged_linear_entropy",
]


def lambda_pure(gen: LindbladGenerator, psi):
    """lambda on the projector e of a unit vector: <G> - <psi|Phi(e)|psi>
    with G = Phi*(I); the Hamiltonian drops out.

    psi is one state (d,), giving a float, or a stack (m, d), giving an (m,)
    array of the rows' values."""
    psi = np.asarray(psi, dtype=complex)
    g_mean = np.vecdot(psi, _matmul(psi, gen._G.T)).real
    lam = g_mean - gen._phi.rank1_expectation(psi)
    return float(lam) if lam.ndim == 0 else lam


def _lambda_and_grad(gen: LindbladGenerator, psi: np.ndarray):
    """Value and Riemannian gradient of psi -> lambda(|psi><psi|) for a state
    (d,), or for each row of a stack (m, d) as for that state alone.

    With A = L(e) + L*(e) = (Phi + Phi*)(e) - {G, e}, the gradient is
    -2 (A psi - <A> psi), tangent to the sphere and phase-gauge free.  On a
    unit psi, A psi = b - <G> psi with b = (Phi + Phi*)(e) psi - G psi, and
    the part along psi drops out: the gradient is -2 (b - <psi|b> psi).
    """
    gpsi = _matvecs(gen._G, psi)
    sym_psi = gen._phi.rank1_sym_action(psi)
    g_mean = np.vecdot(psi, gpsi)
    sym_mean = np.vecdot(psi, sym_psi)
    val = g_mean.real - 0.5 * sym_mean.real
    grad = -2.0 * (sym_psi - gpsi - (sym_mean - g_mean)[..., None] * psi)
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
    #: how many starts left the descent by each exit, STOP_REASONS in order
    stop_reasons: dict = field(default_factory=dict)

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
            "stop_reasons": dict(self.stop_reasons),
        }


#: the exits of _descend: the gradient test, the stagnation test (the value
#: stalls and |grad| <= tol^0.75), a line search that finds no decrease,
#: and the iteration cap
STOP_REASONS = ("gradient", "stagnation", "line_search", "max_iter")

#: the fidelity below which a band minimizer counts as a new minimizer, not
#: as one already kept
DEDUP_FIDELITY = 0.999


def _norm(x: np.ndarray) -> float:
    return math.sqrt(np.vdot(x, x).real)


def _descend(gen: LindbladGenerator, psi0: np.ndarray, tol: float,
             max_iter: int):
    """Riemannian gradient descent with Armijo backtracking; returns
    (psi, lambda, converged, reason) with psi phase-fixed and reason the
    exit taken, one of STOP_REASONS.

    Steps retract by renormalization alone: re-fixing the phase of each
    iterate would make psi - prev_psi an O(1) phase jump wherever the
    anchoring amplitude is small, and spoil the Barzilai-Borwein step."""
    psi = psi0 / _norm(psi0)
    val, grad = _lambda_and_grad(gen, psi)
    step = 1.0
    prev_psi = prev_grad = None
    for it in range(max_iter):
        gnorm = _norm(grad)
        scale = max(abs(val), 1.0)
        if gnorm <= tol * scale:
            return fix_phase(psi), float(val), True, "gradient"
        if prev_grad is not None:
            # Barzilai-Borwein steps, essential on nearly flat valleys: the
            # long (s.s / s.y) and short (s.y / y.y) ones in turn; where the
            # curvature along s is not positive neither exists, and the step
            # grows instead of keeping a stale short one
            s = psi - prev_psi
            y = grad - prev_grad
            sy = float(np.real(np.vdot(s, y)))
            if sy > 0.0:
                bb = (float(np.real(np.vdot(s, s))) / sy if it % 2 else
                      sy / float(np.real(np.vdot(y, y))))
                step = min(bb, 1e3)
            else:
                step = min(2.0 * step, 1e3)
        accepted = False
        for _ in range(40):
            trial = psi - step * grad
            trial = trial / _norm(trial)
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
            if _norm(grad) <= tol ** 0.75 * scale:
                return fix_phase(psi), float(val), True, "stagnation"
        if not accepted:
            # line search stalled at machine precision: treat as converged
            return (fix_phase(psi), float(val), gnorm <= np.sqrt(tol) * scale,
                    "line_search")
    return fix_phase(psi), float(val), False, "max_iter"


def minimize_lambda(gen: LindbladGenerator, n_starts: int = 16, seed: int = 0,
                    tol: float = 1e-8, max_iter: int = 2000,
                    epsilon: float | None = None) -> SieveReport:
    """Multi-start minimization of lambda over pure states.

    Deterministic for a fixed seed: each start draws from its own spawned
    bit generator, so the result is independent of execution order.  Every
    unordered pair of distinct minimizers is tested exactly, all in one pass
    (see _excludes), and a minimizer is flagged iff it passes with every
    other.
    """
    if n_starts < 1:
        raise ValidationError("n_starts must be >= 1")
    starts = [random_pure_state(gen.dim, np.random.default_rng(ss))
              for ss in np.random.SeedSequence(seed).spawn(n_starts)]
    results = []
    failed = 0
    stops = dict.fromkeys(STOP_REASONS, 0)
    for psi0 in starts:
        psi, val, ok, reason = _descend(gen, psi0, tol, max_iter)
        stops[reason] += 1
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
    start_vals = lambda_pure(gen, np.array(starts))
    spread = max(lambdas.max() - a0, start_vals.max() - start_vals.min())
    flat = spread <= max(1e-9, 1e-6 * max(abs(a0), 1.0))

    in_band = [(psi, v) for psi, v in results if v <= a0 + eps]
    if flat:
        minimizers = [psi for psi, _ in results]
        min_lams = [v for _, v in results]
    else:
        minimizers = []
        min_lams = []
        for psi, v in sorted(in_band, key=lambda r: r[1]):
            if all(fidelity(psi, q) < DEDUP_FIDELITY for q in minimizers):
                minimizers.append(psi)
                min_lams.append(v)

    # each flag is the AND of the verdicts on the pairs its minimizer is in
    m = len(minimizers)
    flags = np.full(m, not flat and m >= 2)
    if flags.any():
        i, j = np.triu_indices(m, 1)
        stack = np.array(minimizers)
        excluded = _excludes(gen, stack[i], stack[j], a0 + eps)
        flags[i[~excluded]] = flags[j[~excluded]] = False

    return SieveReport(a0, eps, tuple(minimizers), tuple(min_lams),
                       tuple(float(v) for v in lambdas),
                       tuple(flags.tolist()), flat, failed, seed, n_starts,
                       stop_reasons=stops)


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


#: Pauli basis (I, sigma_x, sigma_y, sigma_z) of the 2x2 Hermitian matrices
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

#: the modulus ratios |z2/z1| = tan(theta) at the ends of the default
#: superposition_grid's theta range [pi/50, 12 pi/25]: the exclusion band
_BAND_RATIOS = np.tan(np.pi / 2 * np.array([1.0, 24.0]) / 25)


def _pair_form(gen: LindbladGenerator, u: np.ndarray,
               w: np.ndarray) -> np.ndarray:
    """Real symmetric 4x4 Q with lambda(psi) = n~^T Q n~ for every unit psi
    in the span of orthonormal u, w, where n~ = (1, n) and n is the Bloch
    vector of psi's coordinates x in (u, w), |x><x| = (I + n.sigma) / 2.
    For (P, d) stacks u and w, the (P, 4, 4) forms of the P pairs of rows.

    With S_mu = W sigma_mu W^dag, W = [u w], the projector is
    e = sum_mu n~_mu S_mu / 2 and lambda(e) = tr(G e) - tr(e Phi(e)); Phi
    enters through the sixteen elements <w_i|Phi(w_a w_b^dag)|w_j>, all
    pairs' in one rank1_element call.
    """
    W = np.stack([u, w], axis=-2)                          # (..., 2, d)
    a, b, i, j = np.indices((2, 2, 2, 2)).reshape(4, -1)
    C = gen._phi.rank1_element(W[..., a, :], W[..., b, :], W[..., i, :],
                               W[..., j, :]).reshape(W.shape[:-2]
                                                     + (2, 2, 2, 2))
    # T[mu, nu] = tr(S_mu Phi(S_nu)) = sum_ab sigma_nu[a, b] tr(sigma_mu C_ab)
    T = np.einsum("vab,mji,...abij->...mv", _PAULI, _PAULI, C).real
    G = np.vecdot(W[..., :, None, :], _matvecs(gen._G, W)[..., None, :, :])
    g = 0.25 * np.einsum("mji,...ij->...m", _PAULI, G).real
    Q = -0.125 * (T + T.swapaxes(-1, -2))
    Q[..., 0, :] += g
    Q[..., :, 0] += g
    return Q


def _band_minimum(Q: np.ndarray, c, s):
    """Minimum of n~^T Q n~ over the Bloch vectors of the states
    z1 u + z2 v, v = c u + s w, with |z2/z1| in the closed exclusion band:
    a float for one (4, 4) Q with scalar (c, s), a (P,) array for a
    (P, 4, 4) stack of pairs with (P,) arrays c and s.

    In (u, w) coordinates x = (x1, x2), z2 = x2 / s and z1 = x1 - c z2, so
    |z2/z1| = t is the circle |x2|^2 = t^2 |s x1 - c x2|^2: a plane section
    of the Bloch sphere, and the band lies between the two circles of
    _BAND_RATIOS.  The minimum is attained at a stationary point of the
    quadratic on the sphere inside the band, or at one on a boundary circle.
    Every pair's candidates come from one batched call per factorisation;
    a candidate that does not exist for a pair is masked out.
    """
    if Q.ndim == 2:
        return float(_band_minimum(Q[None], np.array([c]), np.array([s]))[0])
    n_pairs = len(Q)
    ell = np.stack([s, -c], axis=-1).astype(complex)
    # planes[:, k] . n~ >= 0 iff |z2/z1| >= t_k
    X = (np.diag([0.0, 1.0])
         - (_BAND_RATIOS ** 2)[:, None, None, None]
         * ell.conj()[:, :, None] * ell[:, None, :]).swapaxes(0, 1)
    planes = np.einsum("mji,pkij->pkm", _PAULI, X).real
    A, q = Q[:, 1:, 1:], Q[:, 0, 1:]
    tol = 1e-6 * np.maximum(np.abs(Q).max(axis=(1, 2)), 1.0)

    # interior: A n + q = mu n on |n| = 1.  With y = (A - mu)^{-2} q the
    # multipliers are the real eigenvalues of (A - mu)^2 y = q q^T y,
    # linearised to 6x6, and n = -(A - mu) y.  Where mu meets an eigenvalue
    # of A, n is completed along that eigenvector to unit length if |n| <= 1.
    lin = np.zeros((n_pairs, 6, 6))
    lin[:, :3, 3:] = np.eye(3)
    lin[:, 3:, :3] = q[:, :, None] * q[:, None, :] - A @ A
    lin[:, 3:, 3:] = 2.0 * A
    mus = np.linalg.eigvals(lin)
    evals, evecs = np.linalg.eigh(A)
    qe = (evecs.swapaxes(1, 2) @ q[..., None])[..., 0]
    real = np.abs(mus.imag) <= tol[:, None]                    # (P, 6)
    gap = evals[:, None, :] - mus.real[..., None]              # (P, 6, 3)
    near = np.abs(gap) <= tol[:, None, None]
    n0 = (evecs[:, None] @ np.where(near, 0.0, -qe[:, None, :]
                                    / np.where(near, 1.0, gap))[..., None]
          )[..., 0]
    norm0 = np.sqrt(np.vecdot(n0, n0))
    unit = n0 / np.where(norm0 > 0.0, norm0, 1.0)[..., None]
    rest = np.sqrt(np.maximum(1.0 - norm0 ** 2, 0.0))
    # n0 +- rest e_k for each eigenvector e_k: (P, 6, 3, 2, 3)
    completed = (n0[:, :, None, None, :] + np.array([1.0, -1.0])[:, None]
                 * rest[:, :, None, None, None]
                 * evecs.swapaxes(1, 2)[:, None, :, None, :])
    points = np.concatenate([unit, completed.reshape(n_pairs, -1, 3)], 1)
    exists = np.concatenate([
        real & (norm0 > 0.0),
        np.repeat((real[..., None] & near
                   & (norm0 <= 1.0)[..., None]).reshape(n_pairs, -1), 2, 1),
    ], axis=1)
    nt = np.concatenate([np.ones(points.shape[:-1] + (1,)), points], -1)
    side = np.einsum("pkm,pjm->pkj", planes, nt)
    inside = exists & (side[:, 0] >= 0.0) & (side[:, 1] <= 0.0)
    interior = np.where(inside, np.einsum("pki,pij,pkj->pk", nt, Q, nt),
                        np.inf).min(axis=1)

    # boundary circles n = p + r (cos tau e1 + sin tau e2): there lambda is
    # a0 + a1 cos tau + b1 sin tau + a2 cos 2 tau + b2 sin 2 tau, stationary
    # at the unit roots z = e^{i tau} of a quartic
    h = planes[..., 1:]                                         # (P, 2, 3)
    p = -planes[..., :1] * h / np.vecdot(h, h)[..., None]
    r = np.sqrt(np.maximum(1.0 - np.vecdot(p, p), 0.0))[..., None]
    e12 = np.linalg.svd(h[..., None, :])[2][..., 1:, :]         # (P, 2, 2, 3)
    zero = np.zeros(p.shape[:-1] + (1,))
    P0 = np.concatenate([zero + 1.0, p], -1)
    P1 = np.concatenate([zero, r * e12[..., 0, :]], -1)
    P2 = np.concatenate([zero, r * e12[..., 1, :]], -1)
    Qb = Q[:, None]

    def form(x, y):
        return np.einsum("...i,...ij,...j->...", x, Qb, y)
    a1, b1 = 2.0 * form(P0, P1), 2.0 * form(P0, P2)
    a2 = 0.5 * (form(P1, P1) - form(P2, P2))
    b2 = form(P1, P2)
    coeffs = np.stack([b2 + 1j * a2, 0.5 * (b1 + 1j * a1), 0.0 * b2,
                       0.5 * (b1 - 1j * a1), b2 - 1j * a2], axis=-1)
    # roots as np.roots finds them, the companion matrix's eigenvalues;
    # a quartic with a vanishing leading coefficient keeps np.roots, and
    # the roots it lacks repeat tau = 0
    full = coeffs[..., 0] != 0.0
    companion = np.zeros(coeffs.shape[:-1] + (4, 4), dtype=complex)
    companion[..., 0, :] = -coeffs[..., 1:] / np.where(full, coeffs[..., 0],
                                                       1.0)[..., None]
    companion[..., [1, 2, 3], [0, 1, 2]] = 1.0
    roots = np.ones(coeffs.shape[:-1] + (4,), dtype=complex)
    if full.any():
        roots[full] = np.linalg.eigvals(companion[full])
    for idx in zip(*np.nonzero(~full)):
        found = np.roots(coeffs[idx])
        roots[idx][:len(found)] = found
    taus = np.concatenate([np.zeros(roots.shape[:-1] + (1,)),
                           np.angle(roots)], -1)[..., None]
    ring = (P0[..., None, :] + np.cos(taus) * P1[..., None, :]
            + np.sin(taus) * P2[..., None, :])                # (P, 2, 5, 4)
    boundary = np.einsum("pcki,pij,pckj->pck", ring, Q, ring).min(axis=(1, 2))
    return np.minimum(interior, boundary)


def _excludes(gen: LindbladGenerator, u, v, threshold: float):
    """True iff every superposition z1 u + z2 v of the unit vectors u and v
    in the band the default superposition_grid samples (|z2/z1| = tan
    theta, theta in [pi/50, 12 pi/25], any relative phase) has lambda above
    the threshold.  Decided exactly, and symmetric in u and v.

    u and v are two states (d,), giving a bool, or two (P, d) stacks of
    pairs, giving a (P,) bool array: all pairs go through _band_minimum at
    once."""
    U, V = np.atleast_2d(u, v)
    c = np.vecdot(U, V)
    W = V - c[:, None] * U
    s = np.sqrt(np.vecdot(W.real, W.real) + np.vecdot(W.imag, W.imag))
    Q = _pair_form(gen, U, W / s[:, None])
    excluded = ~(_band_minimum(Q, c, s) <= threshold)
    return bool(excluded[0]) if np.ndim(u) == 1 else excluded


def quasi_classical_test(gen: LindbladGenerator, report: SieveReport,
                         e, f) -> bool:
    """Do all superpositions of two most-stable states (rank-1 projectors) in
    the exclusion band leave the stability band [a0, a0 + epsilon]?"""
    return _excludes(gen, *superposition_basis(e, f),
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
    return float((rho.trace() - _matmul(rho, rho).trace()).real)
