"""Predictability sieve: the entropy-production form on pure states, its
Riemannian minimization over the unit sphere, level sets, and the
superposition-exclusion test for quasi-classical states.

For a rank-1 projector e the form is lambda(e) = -Re tr(e L(e)), i.e. half the
initial rate of linear-entropy production.  Minimization runs multi-start
Riemannian gradient descent with Barzilai-Borwein steps and backtracking on
the unit sphere; lambda and its gradient are blind to the global phase, so
the iterates carry whatever phase the steps give them and only the returned
minimizer is phase-fixed.  Superposition exclusion is decided exactly: on the
span of two states lambda is a quadratic form in the Bloch vector, minimized
in closed form over the band of superpositions the grid would sample.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .liouville import LindbladGenerator, channel_applier
from .operators import (
    ValidationError,
    _matmul,
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
    """Value and Riemannian gradient of psi -> lambda(|psi><psi|).

    With A = L(e) + L*(e) = (Phi + Phi*)(e) - {G, e}, the gradient is
    -2 (A psi - <A> psi), tangent to the sphere and phase-gauge free.
    """
    gpsi = _matmul(gen._G, psi)
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


def _descend(gen: LindbladGenerator, psi0: np.ndarray, tol: float,
             max_iter: int):
    """Riemannian gradient descent with Armijo backtracking; returns
    (psi, lambda, converged, reason) with psi phase-fixed and reason the
    exit taken, one of STOP_REASONS.

    Steps retract by renormalization alone: re-fixing the phase of each
    iterate would make psi - prev_psi an O(1) phase jump wherever the
    anchoring amplitude is small, and spoil the Barzilai-Borwein step."""
    psi = psi0 / np.linalg.norm(psi0)
    val, grad = _lambda_and_grad(gen, psi)
    step = 1.0
    prev_psi = prev_grad = None
    for it in range(max_iter):
        gnorm = np.linalg.norm(grad)
        scale = max(abs(val), 1.0)
        if gnorm <= tol * scale:
            return fix_phase(psi), val, True, "gradient"
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
            trial = trial / np.linalg.norm(trial)
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
                return fix_phase(psi), val, True, "stagnation"
        if not accepted:
            # line search stalled at machine precision: treat as converged
            return (fix_phase(psi), val, gnorm <= np.sqrt(tol) * scale,
                    "line_search")
    return fix_phase(psi), val, False, "max_iter"


def minimize_lambda(gen: LindbladGenerator, n_starts: int = 16, seed: int = 0,
                    tol: float = 1e-8, max_iter: int = 2000,
                    epsilon: float | None = None) -> SieveReport:
    """Multi-start minimization of lambda over pure states.

    Deterministic for a fixed seed: each start draws from its own spawned
    bit generator, so the result is independent of execution order.  Each
    unordered pair of distinct minimizers is tested once, exactly (see
    _excludes), and a pair whose members are both already rejected is
    skipped.
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

    m = len(minimizers)
    flags = [not flat and m >= 2] * m
    for i in range(m):
        for j in range(i + 1, m):
            if (flags[i] or flags[j]) and not _excludes(
                    gen, minimizers[i], minimizers[j], a0 + eps):
                flags[i] = flags[j] = False

    return SieveReport(a0, eps, tuple(minimizers), tuple(min_lams),
                       tuple(float(v) for v in lambdas), tuple(flags), flat,
                       failed, seed, n_starts, stop_reasons=stops)


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


def _pauli_coords(X: np.ndarray) -> np.ndarray:
    """tr(sigma_mu X) for mu = 0..3, real for Hermitian X."""
    return np.einsum("mji,ij->m", _PAULI, X).real


def _pair_form(gen: LindbladGenerator, u: np.ndarray,
               w: np.ndarray) -> np.ndarray:
    """Real symmetric 4x4 Q with lambda(psi) = n~^T Q n~ for every unit psi
    in the span of orthonormal u, w, where n~ = (1, n) and n is the Bloch
    vector of psi's coordinates x in (u, w), |x><x| = (I + n.sigma) / 2.

    With S_mu = W sigma_mu W^dag, W = [u w], the projector is
    e = sum_mu n~_mu S_mu / 2 and lambda(e) = tr(G e) - tr(e Phi(e)); Phi
    enters through its images of the four matrix units w_a w_b^dag.
    """
    W = np.stack([u, w], axis=1)
    Wh = W.conj().T
    C = np.array([Wh @ gen._phi.apply(np.outer(W[:, a], Wh[b])) @ W
                  for a in range(2) for b in range(2)]).reshape(2, 2, 2, 2)
    # T[mu, nu] = tr(S_mu Phi(S_nu)) = sum_ab sigma_nu[a, b] tr(sigma_mu C_ab)
    T = np.einsum("vab,mji,abij->mv", _PAULI, _PAULI, C).real
    g = 0.25 * _pauli_coords(Wh @ gen._G @ W)
    Q = -0.125 * (T + T.T)
    Q[0] += g
    Q[:, 0] += g
    return Q


def _band_minimum(Q: np.ndarray, c: complex, s: float) -> float:
    """Minimum of n~^T Q n~ over the Bloch vectors of the states
    z1 u + z2 v, v = c u + s w, with |z2/z1| in the closed exclusion band.

    In (u, w) coordinates x = (x1, x2), z2 = x2 / s and z1 = x1 - c z2, so
    |z2/z1| = t is the circle |x2|^2 = t^2 |s x1 - c x2|^2: a plane section
    of the Bloch sphere, and the band lies between the two circles of
    _BAND_RATIOS.  The minimum is attained at a stationary point of the
    quadratic on the sphere inside the band, or at one on a boundary circle.
    """
    ell = np.array([s, -c])
    # plane[k] . n~ >= 0 iff |z2/z1| >= t_k
    planes = [_pauli_coords(np.diag([0.0, 1.0])
                            - t * t * np.outer(ell.conj(), ell))
              for t in _BAND_RATIOS]
    A, q = Q[1:, 1:], Q[0, 1:]
    scale = max(np.abs(Q).max(), 1.0)
    tol = 1e-6 * scale

    # interior: A n + q = mu n on |n| = 1.  With y = (A - mu)^{-2} q the
    # multipliers are the real eigenvalues of (A - mu)^2 y = q q^T y,
    # linearised to 6x6, and n = -(A - mu) y.  Where mu meets an eigenvalue
    # of A, n is completed along that eigenvector to unit length if |n| <= 1.
    lin = np.block([[np.zeros((3, 3)), np.eye(3)],
                    [np.outer(q, q) - A @ A, 2.0 * A]])
    mus = np.linalg.eigvals(lin)
    evals, evecs = np.linalg.eigh(A)
    qe = evecs.T @ q
    points = []
    for mu in mus[np.abs(mus.imag) <= tol].real:
        gap = evals - mu
        near = np.abs(gap) <= tol
        n0 = evecs @ np.where(near, 0.0, -qe / np.where(near, 1.0, gap))
        norm0 = np.linalg.norm(n0)
        if norm0 > 0.0:
            points.append(n0 / norm0)
        rest = np.sqrt(max(1.0 - norm0 ** 2, 0.0))
        for k in np.flatnonzero(near & (norm0 <= 1.0)):
            points += [n0 + rest * evecs[:, k], n0 - rest * evecs[:, k]]
    candidates = []
    for n in points:
        nt = np.concatenate([[1.0], n])
        if planes[0] @ nt >= 0.0 >= planes[1] @ nt:
            candidates.append(nt)

    # boundary circles n = p + r (cos tau e1 + sin tau e2): there lambda is
    # a0 + a1 cos tau + b1 sin tau + a2 cos 2 tau + b2 sin 2 tau, stationary
    # at the unit roots z = e^{i tau} of a quartic
    for plane in planes:
        h = plane[1:]
        p = -plane[0] * h / (h @ h)
        r = np.sqrt(max(1.0 - p @ p, 0.0))
        e1, e2 = np.linalg.svd(h[None, :])[2][1:]
        P0 = np.concatenate([[1.0], p])
        P1 = np.concatenate([[0.0], r * e1])
        P2 = np.concatenate([[0.0], r * e2])
        a1, b1 = 2.0 * P0 @ Q @ P1, 2.0 * P0 @ Q @ P2
        a2 = 0.5 * (P1 @ Q @ P1 - P2 @ Q @ P2)
        b2 = P1 @ Q @ P2
        roots = np.roots([b2 + 1j * a2, 0.5 * (b1 + 1j * a1), 0.0,
                          0.5 * (b1 - 1j * a1), b2 - 1j * a2])
        taus = np.concatenate([[0.0], np.angle(roots)])
        candidates += list(P0 + np.cos(taus)[:, None] * P1
                           + np.sin(taus)[:, None] * P2)
    nt = np.array(candidates)
    return float(np.einsum("ki,ij,kj->k", nt, Q, nt).min())


def _excludes(gen: LindbladGenerator, u, v, threshold: float) -> bool:
    """True iff every superposition z1 u + z2 v of the unit vectors u and v
    in the band the default superposition_grid samples (|z2/z1| = tan
    theta, theta in [pi/50, 12 pi/25], any relative phase) has lambda above
    the threshold.  Decided exactly, and symmetric in u and v."""
    c = np.vdot(u, v)
    w = v - c * u
    s = np.linalg.norm(w)
    return not _band_minimum(_pair_form(gen, u, w / s), c, s) <= threshold


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
