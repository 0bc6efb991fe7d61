"""Concrete generator families and their analytic ingredients.

Five builders: a flat toy generator on 2x2 matrices, the pointer-state
generator, quantum Brownian motion on a truncated Fock ladder, GRW spontaneous
localization on a position grid (Gaussian Hadamard kernel), and the Davies
process driven by SU(1,1) coherent states on the Poincare disc.

Units: hbar = m = 1 throughout; the QBM oscillator defaults to omega = 1 so
that coherent states have position variance 1/2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .liouville import LindbladGenerator
from .operators import ValidationError, normalize_state

__all__ = [
    "DiscQuadrature",
    "disc_quadrature",
    "su11_coherent_state",
    "su11_min_cutoff",
    "nearest_su11_coherent",
    "toy_model",
    "pointer_model",
    "qbm_model",
    "grw_model",
    "davies_model",
    "ladder_operator",
    "position_operator",
    "squeezed_vacuum",
]

#: exact disc-measure moments int dmu (tr e_n e_zeta)^2 = (n+1)/((2n+1)(2n+3))
def coherent_moment(n: int) -> float:
    return (n + 1) / ((2 * n + 1) * (2 * n + 3))


@dataclass(frozen=True)
class DiscQuadrature:
    """Nodes and weights for the SU(1,1)-invariant measure on the unit disc.

    The measure dmu = (1/pi) dA / (1 - |zeta|^2)^2 is infinite; the weights
    carry the singular factor, so sums are finite exactly when the integrand
    decays like (1 - |zeta|^2)^2, which every trace polynomial in e_zeta does.
    """

    nodes: np.ndarray        # complex, |zeta_j| < 1
    weights: np.ndarray      # positive
    r_max: float
    n_r: int
    n_theta: int

    def integrate(self, values: np.ndarray) -> float:
        return float(np.real(np.dot(self.weights, values)))

    def moment_errors(self, ns=(0, 1, 2)) -> dict[int, float]:
        """Deviation of the quadrature from the exact coherent moments."""
        u = np.abs(self.nodes) ** 2
        errs = {}
        for n in ns:
            integrand = (1 - u) ** 4 * (n + 1) ** 2 * u ** (2 * n)
            errs[n] = abs(self.integrate(integrand) - coherent_moment(n))
        return errs


def disc_quadrature(r_max: float = 1.0 - 1e-9, n_r: int = 64,
                    n_theta: int = 180) -> DiscQuadrature:
    """Product rule: Gauss-Legendre in u = r^2 on [0, r_max^2], trapezoid in
    angle; the 1/(1-u)^2 weight is folded into the radial weights so the rule
    is exact for integrands of the form (1-u)^2 * polynomial(u) restricted to
    angular modes below n_theta."""
    if not 0.0 < r_max < 1.0:
        raise ValidationError("r_max must lie in (0, 1)")
    x, w = np.polynomial.legendre.leggauss(n_r)
    u_max = r_max ** 2
    u = 0.5 * u_max * (x + 1.0)
    wu = 0.5 * u_max * w / (1.0 - u) ** 2
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    nodes = (np.sqrt(u)[:, None] * np.exp(1j * theta)[None, :]).ravel()
    weights = np.repeat(wu / n_theta, n_theta)
    return DiscQuadrature(nodes, weights, r_max, n_r, n_theta)


def su11_min_cutoff(zeta: complex, tail_tol: float = 1e-10) -> int:
    """Smallest N with truncation tail (1-r^2)^2 sum_{n>=N} (n+1) r^{2n} <= tol."""
    r2 = abs(zeta) ** 2
    if r2 == 0.0:
        return 1
    # tail = (1-r2)^2 r2^N (N(1-r2) + 1) / (1-r2)^2 = r2^N (N(1-r2) + 1)
    N = 1
    while r2 ** N * (N * (1 - r2) + 1) > tail_tol:
        N += 1
        if N > 10_000_000:
            raise ValidationError("|zeta| too close to 1 for a finite cutoff")
    return N


def su11_coherent_state(N: int, zeta: complex,
                        tail_tol: float = 1e-10) -> np.ndarray:
    """Truncated SU(1,1) coherent state (1-|z|^2) sum sqrt(n+1) z^n |n>."""
    if abs(zeta) >= 1.0:
        raise ValidationError("coherent-state label must satisfy |zeta| < 1")
    if N < su11_min_cutoff(zeta, tail_tol):
        raise ValidationError(
            f"Fock cutoff N={N} leaves a truncation tail above {tail_tol} "
            f"for |zeta|={abs(zeta)}")
    n = np.arange(N)
    amps = (1 - abs(zeta) ** 2) * np.sqrt(n + 1.0) * zeta ** n
    return normalize_state(amps)


def nearest_su11_coherent(psi: np.ndarray) -> tuple[complex, float]:
    """Best-fidelity coherent label for a state: coarse grid + local refine."""
    psi = np.asarray(psi, dtype=complex)
    N = psi.size

    def neg_fid(p):
        z = complex(p[0], p[1])
        if abs(z) >= 0.995:
            return 1.0
        n = np.arange(N)
        amps = np.sqrt(n + 1.0) * z ** n
        amps /= np.linalg.norm(amps)
        return -abs(np.vdot(amps, psi)) ** 2

    best = None
    # the fidelity landscape oscillates in angle like z^N, so the coarse
    # grid must be dense enough not to hand the refiner a wrong basin
    for r in np.linspace(0.0, 0.98, 50):
        for th in np.linspace(0.0, 2 * np.pi, 64, endpoint=False):
            p0 = [r * np.cos(th), r * np.sin(th)]
            f = neg_fid(p0)
            if best is None or f < best[1]:
                best = (p0, f)
    res = scipy.optimize.minimize(neg_fid, best[0], method="Nelder-Mead",
                                  options={"xatol": 1e-10, "fatol": 1e-12,
                                           "maxiter": 2000})
    return complex(res.x[0], res.x[1]), float(-res.fun)


def toy_model(H: np.ndarray | None = None) -> LindbladGenerator:
    """2x2 generator L(rho) = -i[H, rho] + (tr rho) I - 2 rho.

    Realized by the jump list of all four matrix units, which reproduces the
    formula exactly; lambda is identically 1 on pure states.
    """
    if H is None:
        H = np.zeros((2, 2))
    jumps = []
    for i in range(2):
        for j in range(2):
            E = np.zeros((2, 2), dtype=complex)
            E[i, j] = 1.0
            jumps.append(E)
    return LindbladGenerator(2, H, jump_ops=tuple(jumps), label="toy")


def pointer_model(energies) -> LindbladGenerator:
    """Pointer generator: H = diag(E), jumps P_i = |i><i|."""
    E = np.asarray(energies, dtype=float)
    d = E.size
    if d < 2:
        raise ValidationError("pointer model needs at least two levels")
    jumps = tuple(np.diag(np.eye(d)[i]).astype(complex) for i in range(d))
    return LindbladGenerator(d, np.diag(E), jump_ops=jumps, label="pointer")


def ladder_operator(N: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, N)), 1).astype(complex)


def position_operator(N: int) -> np.ndarray:
    a = ladder_operator(N)
    return (a + a.conj().T) / np.sqrt(2.0)


def squeezed_vacuum(N: int, s: float) -> np.ndarray:
    """exp(s (a^2 - a^dag^2) / 2) |0>, truncated to N levels."""
    a = ladder_operator(N)
    S = scipy.linalg.expm(0.5 * s * (a @ a - a.conj().T @ a.conj().T))
    return normalize_state(S[:, 0])


def qbm_model(N: int, D: float, omega: float = 1.0) -> LindbladGenerator:
    """Quantum Brownian motion: H = omega (a^dag a + 1/2), dissipator
    -D[x, [x, rho]] realized by the single Hermitian jump sqrt(2D) x."""
    if N < 2:
        raise ValidationError("Fock cutoff must be >= 2")
    if D <= 0 or omega <= 0:
        raise ValidationError("rates must be positive")
    a = ladder_operator(N)
    H = omega * (a.conj().T @ a + 0.5 * np.eye(N))
    x = position_operator(N)
    return LindbladGenerator(N, H, jump_ops=(np.sqrt(2.0 * D) * x,),
                             label="qbm")


def grw_model(grid, kappa: float, alpha: float) -> LindbladGenerator:
    """GRW localization on a position grid.

    The Gaussian-collapse integral over centers is done analytically, leaving
    the Hadamard kernel C(x, y) = kappa (exp(-alpha (x-y)^2 / 2) - 1); the
    kernel exp term is positive semidefinite on any grid, so the map is CP.
    """
    x = np.asarray(grid, dtype=float)
    if x.size < 2 or np.any(np.diff(x) <= 0):
        raise ValidationError("grid must be strictly increasing with >= 2 points")
    if kappa <= 0 or alpha <= 0:
        raise ValidationError("rates must be positive")
    K = np.exp(-0.5 * alpha * (x[:, None] - x[None, :]) ** 2)
    C = kappa * (K - 1.0)
    return LindbladGenerator(x.size, np.zeros((x.size, x.size)),
                             kernel=C, label="grw")


def _davies_jump_diagonal(N: int, kappa: float) -> np.ndarray:
    """The population block T[m, m, p, p] of the jump integral's Fock
    coefficients (see the coherent-measure form in liouville)."""
    idx = np.arange(N, dtype=float)
    m = idx[:, None]
    p = idx[None, :]
    s = m + p
    return kappa * ((m + 1) * (p + 1) * 2.0 / ((s + 1) * (s + 2) * (s + 3)))


def _trace_deficit_plan(deficit: np.ndarray) -> np.ndarray:
    """Redistribute per-level trace deficits away from their own level.

    Returns a nonnegative plan matrix whose row p sums to deficit[p] and
    whose column m sums to deficit[m]:  low levels (small deficit) send their
    mass to high levels and vice versa, so states supported on low levels are
    essentially untouched by the compensator built from the plan.
    """
    N = deficit.size
    plan = np.zeros((N, N))
    caps = deficit.copy()
    for p in range(N):
        need = deficit[p]
        for m in range(N - 1, -1, -1):
            if need <= 0.0:
                break
            if m == p:
                continue
            take = min(need, caps[m])
            if take > 0.0:
                plan[p, m] += take
                caps[m] -= take
                need -= take
        if need > 0.0:
            plan[p, p] += need
            caps[p] -= need
    return plan


def davies_model(N: int, kappa: float, energies=None,
                 quadrature: DiscQuadrature | None = None,
                 moment_tol: float = 1e-6,
                 consistency_tol: float = 1e-3,
                 seed: int = 0) -> LindbladGenerator:
    """Davies process: L(rho) = -i[H, rho]
    + kappa int dmu(zeta) e_zeta rho e_zeta - 1/2 {kappa int dmu e_zeta, rho}.

    The jump integral over the disc is evaluated in closed form in the Fock
    basis (Beta integrals under the selection rule m + q = n + p, see the
    coherent-measure form in liouville), so lambda is exact on the truncated
    space.  Compressing the jump output to N levels loses the trace
    that leaks above the cutoff; a completely positive compensator channel
    restores it, routing each level's deficit to levels far from it so that
    low-lying states -- in particular every coherent state resolvable at this
    cutoff -- are unaffected.  The result is exactly trace preserving and
    unital, hence contractive in both norms.

    The generator carries the map matrix free: the per-level deficits come
    from the O(N^2) population block of the jump integral, lambda and its
    gradient are O(N^2) self-convolutions, and the dense N^2 x N^2 map is
    scattered from its O(N^3) nonzero entries only when a superoperator is
    asked for (evolve, decompose, classify).

    Construction validates the disc-quadrature moments and the process
    compatibility relation tr[J(D, e_psi)] = kappa on random states.
    """
    if kappa <= 0:
        raise ValidationError("kappa must be positive")
    if N < 2:
        raise ValidationError("Fock cutoff must be >= 2")
    quad = disc_quadrature() if quadrature is None else quadrature
    errs = quad.moment_errors((0, 1, 2))
    bad = {n: e for n, e in errs.items() if e > moment_tol}
    if bad:
        raise ValidationError(
            f"disc quadrature fails coherent-moment check: {bad}")

    deficit = kappa - _davies_jump_diagonal(N, kappa).sum(axis=0)
    plan = _trace_deficit_plan(deficit)

    if energies is None:
        energies = np.arange(N, dtype=float)
    H = np.diag(np.asarray(energies, dtype=float))
    gen = LindbladGenerator(N, H, coherent_measure=(kappa, plan),
                            label="davies")

    # compatibility check through the quadrature itself, independent of the
    # closed form: tr[J(D, e_psi)] = kappa sum_j w_j |<zeta_j|psi>|^2
    n = np.arange(N)
    V = ((1 - np.abs(quad.nodes) ** 2)[None, :]
         * np.sqrt(n + 1.0)[:, None] * quad.nodes[None, :] ** n[:, None])
    Vh = V.conj().T
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        psi = normalize_state(rng.standard_normal(N)
                              + 1j * rng.standard_normal(N))
        overlaps = np.abs(Vh @ psi) ** 2
        jd = kappa * float(np.dot(quad.weights, overlaps))
        worst = max(worst, abs(jd - kappa) / kappa)
    if worst > consistency_tol:
        raise ValidationError(
            f"Davies compatibility tr[J(D, e_psi)] = kappa violated by "
            f"{worst:.3e} (relative); refine the disc quadrature")
    return gen
