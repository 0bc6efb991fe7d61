"""Isometric-sweeping split of the semigroup and the classical-state search.

The split is read off the Liouvillian spectrum: the isometric subspace is
spanned by eigenvectors whose eigenvalues sit on the imaginary axis (within a
tolerance), the sweeping subspace by the remaining generalized eigenvectors.
Both are extracted from an ordered Schur form, which stays stable when the
Liouvillian is non-normal.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .liouville import (
    LindbladGenerator,
    adjoint_semigroup,
    apply_generator,
    build_superoperator,
    channel_applier,
    unvec,
    vec,
)
from .operators import (
    ValidationError,
    fidelity,
    hs_norm,
    join_projectors,
    linear_entropy,
    projector,
    state_from_projector,
    validate_density_matrix,
)
from .sieve import superposition_grid

__all__ = [
    "SpectralSplit",
    "DefectivePeripheralSpectrumError",
    "spectral_split",
    "iso_membership",
    "verify_split_properties",
    "SplitVerification",
    "ClassicalSet",
    "classical_states",
    "robustness_probe",
    "RobustnessReport",
]


class DefectivePeripheralSpectrumError(RuntimeError):
    """Peripheral eigenvalue with a nontrivial Jordan block.

    A trace-norm contraction semigroup has semisimple peripheral spectrum, so
    this signals a misconfigured tolerance or a non-contractive generator.
    """


@dataclass(frozen=True)
class SpectralSplit:
    iso_basis: np.ndarray        # (k, d, d), HS-orthonormal
    sweep_basis: np.ndarray      # (d^2 - k, d, d), HS-orthonormal
    iso_projection: np.ndarray   # d^2 x d^2, projects onto iso along sweep
    peripheral_eigenvalues: np.ndarray
    spectral_gap: float          # min |Re lambda| over the swept spectrum
    tol: float

    @property
    def dim(self) -> int:
        return self.iso_basis.shape[1] if self.iso_basis.size else \
            self.sweep_basis.shape[1]

    @property
    def iso_dim(self) -> int:
        return self.iso_basis.shape[0]

    @property
    def sweep_dim(self) -> int:
        return self.sweep_basis.shape[0]


def spectral_split(M: np.ndarray, tol: float | None = None) -> SpectralSplit:
    """Split vectorized operator space into peripheral (isometric) and decaying
    (sweeping) invariant subspaces of the Liouvillian matrix M."""
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
    _check_semisimple(T[:k, :k], periph, tol)

    if 0 < k < n:
        # spectral projector from the 2x2 block Schur form
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


def _check_semisimple(T11: np.ndarray, periph: np.ndarray, tol: float) -> None:
    k = periph.size
    if k == 0:
        return
    scale = max(np.abs(periph).max(), 1.0)
    remaining = list(periph)
    while remaining:
        lam = remaining[0]
        cluster = [z for z in remaining if abs(z - lam) <= 10 * tol * scale]
        remaining = [z for z in remaining if abs(z - lam) > 10 * tol * scale]
        sv = np.linalg.svd(T11 - lam * np.eye(k), compute_uv=False)
        geo = int(np.sum(sv <= max(10 * tol, 1e-10) * scale))
        if geo < len(cluster):
            raise DefectivePeripheralSpectrumError(
                f"peripheral eigenvalue {lam} has geometric multiplicity "
                f"below its algebraic multiplicity {len(cluster)}")


def iso_membership(split: SpectralSplit, e) -> float:
    """HS norm of the swept component of a rank-1 projector; ~0 certifies
    membership of the robust set."""
    e = np.asarray(e, dtype=complex)
    x = vec(e)
    return float(np.linalg.norm(x - split.iso_projection @ x))


#: entries of SplitVerification.residuals that are health figures, not
#: residuals: the split basis conditioning (1 is best) and the sweep decay
#: at the final time (exp(-gap t), small only for a large enough gap)
HEALTH_FIGURES = ("c_basis_conditioning", "e_sweep_decay")


@dataclass(frozen=True)
class SplitVerification:
    residuals: dict = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        """Largest true residual; the health figures are left out."""
        vals = [v for k, v in self.residuals.items()
                if v is not None and k not in HEALTH_FIGURES]
        return max(vals) if vals else 0.0

    def as_dict(self) -> dict:
        return dict(self.residuals)


def verify_split_properties(M: np.ndarray, split: SpectralSplit,
                            times=(1.0, 5.0, 20.0), n_samples: int = 10,
                            seed: int = 0) -> SplitVerification:
    """Numeric residuals for the structural properties of the split:
    *-invariance, trace orthogonality, completeness, isometry and
    multiplicativity of the peripheral flow, sweep decay at the final time,
    product closure, and join closure for rank-1 projectors in iso."""
    rng = np.random.default_rng(seed)
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    P = split.iso_projection
    iso = split.iso_basis
    sweep = split.sweep_basis
    res: dict[str, float | None] = {}

    # (a) *-invariance of iso (and of sweep, which is equivalent here)
    star = 0.0
    for B in iso:
        x = vec(B.conj().T)
        star = max(star, float(np.linalg.norm(x - P @ x)))
    for B in sweep:
        x = vec(B.conj().T)
        star = max(star, float(np.linalg.norm(P @ x)))
    res["a_star_invariance"] = star

    # (b) trace orthogonality tr(phi1 phi2) = 0
    ortho = 0.0
    for B1 in iso:
        for B2 in sweep:
            ortho = max(ortho, abs((B1 @ B2).trace()))
    res["b_trace_orthogonality"] = float(ortho)

    # (c) completeness of the direct sum
    res["c_completeness"] = float(split.iso_dim + split.sweep_dim != n)
    if split.iso_dim and split.sweep_dim:
        stacked = np.hstack([np.stack([vec(B) for B in iso], axis=1),
                             np.stack([vec(B) for B in sweep], axis=1)])
        res["c_basis_conditioning"] = float(
            1.0 / np.linalg.cond(stacked))
    else:
        res["c_basis_conditioning"] = 1.0

    # (d) HS isometry + multiplicativity of the flow on iso
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
                phi1 /= hs_norm(phi1)
                c = rng.standard_normal(split.iso_dim) \
                    + 1j * rng.standard_normal(split.iso_dim)
                phi2 = np.tensordot(c, iso, axes=1)
                phi2 /= hs_norm(phi2)
                iso_norm = max(iso_norm,
                               abs(hs_norm(apply_t(phi1)) - hs_norm(phi1)))
                iso_mult = max(iso_mult, hs_norm(
                    apply_t(phi1 @ phi2) - apply_t(phi1) @ apply_t(phi2)))
    res["d_iso_isometry"] = iso_norm
    res["d_iso_multiplicativity"] = iso_mult

    # (e) sweeping decay at the largest time
    if split.sweep_dim:
        E = expms[max(times)]
        for B in sweep:
            sweep_decay = max(sweep_decay,
                              float(np.abs(unvec(E @ vec(B))).max()))
        res["e_sweep_decay"] = sweep_decay
    else:
        res["e_sweep_decay"] = None  # vacuous: no sweeping part

    # (i) product closure of iso
    prod = 0.0
    for B1 in iso:
        for B2 in iso:
            x = vec(B1 @ B2)
            prod = max(prod, float(np.linalg.norm(x - P @ x)))
    res["i_product_closure"] = prod

    # (ii) join closure for rank-1 projectors found among iso elements
    projs = _rank1_projectors_in(iso)
    join = 0.0
    for a in range(len(projs)):
        for b in range(a + 1, len(projs)):
            j = join_projectors(projs[a], projs[b])
            x = vec(j)
            join = max(join, float(np.linalg.norm(x - P @ x)))
    res["ii_join_closure"] = join if len(projs) >= 2 else None
    return SplitVerification(res)


def _rank1_projectors_in(basis: np.ndarray, tol: float = 1e-8) -> list:
    """Basis elements that are scalar multiples of rank-1 projectors."""
    out = []
    for B in basis:
        tr = B.trace()
        if abs(tr) < tol:
            continue
        cand = B / tr
        if hs_norm(cand - cand.conj().T) > tol:
            continue
        if hs_norm(cand @ cand - cand) > tol:
            continue
        if abs(cand.trace().real - 1.0) > tol:
            continue
        out.append(cand)
    return out


@dataclass(frozen=True)
class ClassicalSet:
    projectors: tuple
    pairwise_overlaps: np.ndarray
    fixed_point_residuals: np.ndarray

    def __len__(self) -> int:
        return len(self.projectors)


def classical_states(gen: LindbladGenerator,
                     split: SpectralSplit | None = None,
                     seed: int = 0,
                     residual_tol: float = 1e-8,
                     grid: tuple[int, int] = (24, 16),
                     max_retries: int = 5) -> ClassicalSet:
    """Enumerate the pairwise-orthogonal family of pure semigroup fixed points
    whose superpositions with every other fixed point leave the robust set.

    Candidates come from diagonalizing a generic Hermitian element of ker L;
    the superposition-exclusion test is grid-sampled (universality is sampled,
    not proven).
    """
    M = build_superoperator(gen)
    if split is None:
        split = spectral_split(M)
    rng = np.random.default_rng(seed)

    kernel = scipy.linalg.null_space(M)
    if kernel.size == 0:
        raise ValidationError("trace-preserving generator must have a kernel")

    herm_basis = _hermitian_kernel_basis(kernel)
    if not herm_basis:
        return ClassicalSet((), np.zeros((0, 0)), np.zeros(0))

    candidates = None
    degenerate = True
    last_vectors = None
    for _ in range(max_retries):
        c = rng.standard_normal(len(herm_basis))
        K = np.tensordot(c, np.array(herm_basis), axes=1)
        w, V = np.linalg.eigh(K)
        scale = max(np.abs(w).max(), 1.0)
        gaps = np.diff(np.sort(w))
        last_vectors = V
        if gaps.size == 0 or gaps.min() > 1e-10 * scale:
            degenerate = False
            break
    V = last_vectors

    candidates = []
    for i in range(V.shape[1]):
        e = projector(V[:, i] / np.linalg.norm(V[:, i]))
        if hs_norm(apply_generator(gen, e)) > residual_tol:
            continue
        if iso_membership(split, e) > residual_tol:
            continue
        candidates.append(e)

    if degenerate and candidates:
        # with a degenerate kernel element the eigenbasis is ambiguous, so
        # surviving candidates cannot be trusted
        raise ValidationError(
            "kernel element degenerate after retries while fixed-point "
            "candidates survive; cannot resolve the classical set")

    kept = []
    n_ratio, n_phase = grid
    for i, e in enumerate(candidates):
        excluded = False
        for j, f in enumerate(candidates):
            if i == j:
                continue
            for psi in superposition_grid(e, f, n_ratio, n_phase):
                if iso_membership(split, projector(psi)) <= residual_tol:
                    excluded = True
                    break
            if excluded:
                break
        if not excluded:
            kept.append(e)

    m = len(kept)
    overlaps = np.zeros((m, m))
    residuals = np.zeros(m)
    for i in range(m):
        residuals[i] = hs_norm(apply_generator(gen, kept[i]))
        for j in range(m):
            overlaps[i, j] = abs((kept[i] @ kept[j]).trace())
    off = overlaps - np.diag(np.diag(overlaps))
    if m and off.max() > residual_tol:
        raise ValidationError(
            f"classical candidates are not pairwise orthogonal "
            f"(max overlap {off.max():.3e})")
    return ClassicalSet(tuple(kept), overlaps, residuals)


def _hermitian_kernel_basis(kernel: np.ndarray, tol: float = 1e-10) -> list:
    """Independent Hermitian matrices spanning the Hermitian part of ker L."""
    mats = []
    for i in range(kernel.shape[1]):
        B = unvec(kernel[:, i])
        mats.append(0.5 * (B + B.conj().T))
        mats.append(0.5j * (B - B.conj().T))
    basis = []
    stacked = []
    for B in mats:
        if hs_norm(B) < tol:
            continue
        x = vec(B)
        if stacked:
            Q = np.stack(stacked, axis=1)
            x_perp = x - Q @ (Q.conj().T @ x)
        else:
            x_perp = x
        if np.linalg.norm(x_perp) > tol:
            stacked.append(x_perp / np.linalg.norm(x_perp))
            basis.append(B)
    return basis


@dataclass(frozen=True)
class RobustnessReport:
    max_forward_entropy: float
    max_adjoint_entropy: float
    iso_residual: float

    @property
    def robust(self) -> bool:
        return (self.max_forward_entropy <= 1e-8
                and self.max_adjoint_entropy <= 1e-8)


def robustness_probe(gen: LindbladGenerator, e, times,
                     split: SpectralSplit | None = None) -> RobustnessReport:
    """Max linear entropy of T_t e and T*_t e over sampled times, cross-checked
    against the spectral membership residual."""
    e = np.asarray(e, dtype=complex)
    M = build_superoperator(gen)
    Ms = M.conj().T
    if split is None:
        split = spectral_split(M)
    fwd = 0.0
    adj = 0.0
    for t in times:
        if t < 0:
            raise ValidationError("probe times must be nonnegative")
        rho = unvec(scipy.linalg.expm(t * M) @ vec(e))
        fwd = max(fwd, _entropy_loose(rho))
        sigma = unvec(scipy.linalg.expm(t * Ms) @ vec(e))
        adj = max(adj, _entropy_loose(sigma))
    return RobustnessReport(fwd, adj, iso_membership(split, e))


def _entropy_loose(rho: np.ndarray) -> float:
    """tr(rho - rho^2) without density validation (the adjoint semigroup need
    not preserve trace)."""
    rho = 0.5 * (rho + rho.conj().T)
    return abs(float((rho.trace() - (rho @ rho).trace()).real))
