"""Isometric-sweeping split of the semigroup and the classical-state search.

The split is read off the Liouvillian spectrum: the isometric subspace is
spanned by eigenvectors whose eigenvalues sit on the imaginary axis (within a
tolerance), the sweeping subspace by the remaining generalized eigenvectors.
Both are extracted from an ordered Schur form, which stays stable when the
Liouvillian is non-normal.  Every dense factorisation runs on one diagonal
block of M, or one stack of equal-size blocks, at a time (see
liouville.superoperator_blocks); the entries between blocks are structural
zeros, so this is exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .liouville import (
    LindbladGenerator,
    _stack,
    apply_generator,
    build_superoperator,
    propagator,
    superoperator_blocks,
    unvec,
    vec,
)
from .operators import ValidationError, hs_norm, join_projectors, projector

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


def _vec_columns(ops: np.ndarray) -> np.ndarray:
    """vec of each operator in a (m, d, d) stack, as the columns of a
    d^2 x m matrix."""
    m, d, _ = ops.shape
    return ops.transpose(0, 2, 1).reshape(m, d * d).T


def _unvec_columns(X: np.ndarray, d: int) -> np.ndarray:
    """The columns of a d^2 x m matrix as a (m, d, d) stack of operators."""
    return np.ascontiguousarray(X.T.reshape(-1, d, d).transpose(0, 2, 1))


def _embed(n: int, idx: np.ndarray, part: np.ndarray) -> np.ndarray:
    """n-row matrix holding the rows of part at the rows idx, zero
    elsewhere: block vectors written in the whole space."""
    out = np.zeros((n, part.shape[1]), dtype=complex)
    out[idx] = part
    return out


def _block_apply(groups: tuple, stacks: list, X: np.ndarray) -> np.ndarray:
    """Apply the block-diagonal matrix with the given stacks of diagonal
    blocks (one per group of superoperator_blocks) to the columns of X."""
    out = np.zeros(X.shape, dtype=complex)
    for group, A in zip(groups, stacks):
        out[group] = A @ X[group]
    return out


def spectral_split(M: np.ndarray, tol: float | None = None) -> SpectralSplit:
    """Split vectorized operator space into peripheral (isometric) and decaying
    (sweeping) invariant subspaces of the Liouvillian matrix M."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    groups = superoperator_blocks(M)
    stacks = [_stack(M, group) for group in groups]
    evs = np.concatenate([np.linalg.eigvals(S).ravel() for S in stacks])
    if tol is None:
        scale = max(np.abs(evs.real).max(), 1e-30)
        tol = 1e-9 * scale

    is_peripheral = lambda z: abs(z.real) <= tol
    blocks = [idx for group in groups for idx in group]
    schurs = []
    for B in (B for S in stacks for B in S):
        T, Q, k = scipy.linalg.schur(B, output="complex", sort=is_peripheral)
        schurs.append((T, Q, int(k)))
    periph = np.concatenate([np.diag(T)[:k] for T, _, k in schurs])
    periph_scale = max(np.abs(periph).max(initial=0.0), 1.0)

    P = np.zeros((n, n), dtype=complex)
    iso_cols, sweep_cols = [], []
    for idx, (T, Q, k) in zip(blocks, schurs):
        s = idx.size
        _check_semisimple(T[:k, :k], np.diag(T)[:k], tol, periph_scale)
        if 0 < k < s:
            # spectral projector from the 2x2 block Schur form
            R = scipy.linalg.solve_sylvester(T[:k, :k], -T[k:, k:], T[:k, k:])
            top = np.hstack([np.eye(k), R])
            P[np.ix_(idx, idx)] = Q[:, :k] @ top @ Q.conj().T
            sweep_q, _ = np.linalg.qr(Q[:, :k] @ (-R) + Q[:, k:])
        elif k == s:
            P[idx, idx] = 1.0
            sweep_q = np.zeros((s, 0), dtype=complex)
        else:
            sweep_q = np.eye(s, dtype=complex)
        iso_cols.append(_embed(n, idx, Q[:, :k]))
        sweep_cols.append(_embed(n, idx, sweep_q))

    d = int(round(np.sqrt(n)))
    iso_basis = _unvec_columns(np.hstack(iso_cols), d)
    sweep_basis = _unvec_columns(np.hstack(sweep_cols), d)
    swept_res = np.abs(evs.real)[np.abs(evs.real) > tol]
    gap = float(swept_res.min()) if swept_res.size else np.inf
    return SpectralSplit(iso_basis, sweep_basis, P, periph, gap, tol)


def _check_semisimple(T11: np.ndarray, periph: np.ndarray, tol: float,
                      scale: float) -> None:
    """Raise unless every peripheral eigenvalue of one block is semisimple;
    scale is that of the whole peripheral spectrum.  A Jordan chain cannot
    cross an invariant block, so the blocks are checked one by one."""
    k = periph.size
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
    product closure, and join closure for rank-1 projectors in iso.

    exp(tM), one stack of equal-size blocks of M at a time, and the
    projection, restricted to its nonzero rows and columns, act on whole
    stacks of vectors; the blocks are those of M, whatever split is given."""
    rng = np.random.default_rng(seed)
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    groups = superoperator_blocks(M)
    P = split.iso_projection
    rows = np.flatnonzero(P.any(axis=1))
    cols = np.flatnonzero(P.any(axis=0))
    P_nonzero = P[np.ix_(rows, cols)]

    def project(X: np.ndarray) -> np.ndarray:
        out = np.zeros(X.shape, dtype=complex)
        out[rows] = P_nonzero @ X[cols]
        return out

    swept_norm = lambda X: float(np.linalg.norm(X - project(X), axis=0)
                                 .max(initial=0.0))
    iso = split.iso_basis
    sweep = split.sweep_basis
    sweep_vecs = _vec_columns(sweep)
    res: dict[str, float | None] = {}

    # (a) *-invariance of iso (and of sweep, which is equivalent here)
    adj = lambda ops: _vec_columns(ops.conj().transpose(0, 2, 1))
    res["a_star_invariance"] = max(
        swept_norm(adj(iso)),
        float(np.linalg.norm(project(adj(sweep)), axis=0).max(initial=0.0)))

    # (b) trace orthogonality tr(phi1 phi2) = 0; the rows of the reshaped
    # iso stack are vec(phi1^T), and tr(phi1 phi2) = vec(phi1^T) . vec(phi2)
    res["b_trace_orthogonality"] = float(
        np.abs(iso.reshape(split.iso_dim, n) @ sweep_vecs).max(initial=0.0))

    # (c) completeness of the direct sum
    res["c_completeness"] = float(split.iso_dim + split.sweep_dim != n)
    if split.iso_dim and split.sweep_dim:
        sv = _singular_values(np.hstack([_vec_columns(iso), sweep_vecs]))
        res["c_basis_conditioning"] = float(sv.min() / sv.max())
    else:
        res["c_basis_conditioning"] = 1.0

    # (d) HS isometry + multiplicativity of the flow on iso
    expms = {t: [scipy.linalg.expm(t * _stack(M, group)) for group in groups]
             for t in times}
    iso_norm = 0.0
    iso_mult = 0.0
    for t in (times if split.iso_dim else ()):
        phis = []
        for _ in range(2 * n_samples):
            c = rng.standard_normal(split.iso_dim) \
                + 1j * rng.standard_normal(split.iso_dim)
            phi = np.tensordot(c, iso, axes=1)
            phis.append(phi / hs_norm(phi))
        phi1, phi2 = np.array(phis[0::2]), np.array(phis[1::2])
        moved = _block_apply(groups, expms[t], np.hstack(
            [_vec_columns(phi1), _vec_columns(phi2),
             _vec_columns(phi1 @ phi2)]))
        T1, T2, T12 = np.split(_unvec_columns(moved, split.dim), 3)
        iso_norm = max(iso_norm, float(np.abs(
            np.linalg.norm(T1, axis=(1, 2))
            - np.linalg.norm(phi1, axis=(1, 2))).max()))
        iso_mult = max(iso_mult, float(
            np.linalg.norm(T12 - T1 @ T2, axis=(1, 2)).max()))
    res["d_iso_isometry"] = iso_norm
    res["d_iso_multiplicativity"] = iso_mult

    # (e) sweeping decay at the largest time
    if split.sweep_dim:
        res["e_sweep_decay"] = float(np.abs(
            _block_apply(groups, expms[max(times)], sweep_vecs)).max())
    else:
        res["e_sweep_decay"] = None  # vacuous: no sweeping part

    # (i) product closure of iso, one stack of products B1 B2 per B1
    res["i_product_closure"] = max(
        (swept_norm(_vec_columns(B1 @ iso)) for B1 in iso), default=0.0)

    # (ii) join closure for rank-1 projectors found among iso elements
    projs = _rank1_projectors_in(iso)
    joins = [join_projectors(projs[a], projs[b])
             for a in range(len(projs)) for b in range(a + 1, len(projs))]
    res["ii_join_closure"] = swept_norm(_vec_columns(np.array(joins))) \
        if joins else None
    return SplitVerification(res)


def _singular_values(B: np.ndarray) -> np.ndarray:
    """Singular values of B, one SVD per connected component of its sparsity
    pattern (row i and column j joined wherever B[i, j] is nonzero), stacked
    over components of one shape.  Exact for any B; a basis whose vectors
    each lie in one block of M splits into one small SVD per block."""
    r, c = B.shape
    nz = B != 0
    pattern = np.block([[np.zeros((r, r), dtype=bool), nz],
                        [nz.T, np.zeros((c, c), dtype=bool)]])
    sv = [np.zeros(0)]
    for group in superoperator_blocks(pattern):
        # each component lists its rows (indices < r) before its columns
        n_rows = np.count_nonzero(group < r, axis=1)
        for k in np.unique(n_rows):
            comps = group[n_rows == k]
            rows, cols = comps[:, :k], comps[:, k:] - r
            # a component with more columns than rows adds zero singular
            # values
            sv.append(np.zeros(comps.shape[0]
                               * max(cols.shape[1] - k, 0)))
            if k and cols.shape[1]:
                sv.append(np.linalg.svd(B[rows[:, :, None], cols[:, None, :]],
                                        compute_uv=False).ravel())
    return np.concatenate(sv)


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
    """Pairwise-orthogonal pure fixed points in iso none of whose pairwise
    superpositions stays in iso; both conditions hold to residual_tol."""
    projectors: tuple
    pairwise_overlaps: np.ndarray
    fixed_point_residuals: np.ndarray

    def __len__(self) -> int:
        return len(self.projectors)


def classical_states(gen: LindbladGenerator,
                     split: SpectralSplit | None = None,
                     seed: int = 0,
                     residual_tol: float = 1e-8,
                     max_retries: int = 5) -> ClassicalSet:
    """Enumerate the pairwise-orthogonal family of pure semigroup fixed points
    whose superpositions with every other fixed point leave the robust set.

    Candidates come from diagonalizing a generic Hermitian element of ker L;
    the superposition exclusion is exact to residual_tol, one closed-form test
    per candidate pair.
    """
    M = build_superoperator(gen)
    if split is None:
        split = spectral_split(M)
    vectors = _fixed_point_candidates(gen, M, split, seed, residual_tol,
                                      max_retries)

    excluded = [False] * len(vectors)
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            if _pair_stays_in_iso(split, vectors[i], vectors[j], residual_tol):
                excluded[i] = excluded[j] = True
    kept = [projector(u) for u, out in zip(vectors, excluded) if not out]

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


def _fixed_point_candidates(gen: LindbladGenerator, M: np.ndarray,
                            split: SpectralSplit, seed: int,
                            residual_tol: float, max_retries: int) -> list:
    """Unit eigenvectors of a generic Hermitian kernel element whose
    projectors are semigroup fixed points lying in iso."""
    rng = np.random.default_rng(seed)
    kernel = _null_space(M, superoperator_blocks(M))
    if kernel.size == 0:
        raise ValidationError("trace-preserving generator must have a kernel")

    herm_basis = _hermitian_kernel_basis(kernel)
    if not herm_basis:
        return []

    degenerate = True
    for _ in range(max_retries):
        c = rng.standard_normal(len(herm_basis))
        K = np.tensordot(c, np.array(herm_basis), axes=1)
        w, V = np.linalg.eigh(K)
        scale = max(np.abs(w).max(), 1.0)
        gaps = np.diff(np.sort(w))
        if gaps.size == 0 or gaps.min() > 1e-10 * scale:
            degenerate = False
            break

    vectors = []
    for i in range(V.shape[1]):
        u = V[:, i] / np.linalg.norm(V[:, i])
        e = projector(u)
        if (hs_norm(apply_generator(gen, e)) <= residual_tol
                and iso_membership(split, e) <= residual_tol):
            vectors.append(u)

    if degenerate and vectors:
        # with a degenerate kernel element the eigenbasis is ambiguous, so
        # surviving candidates cannot be trusted
        raise ValidationError(
            "kernel element degenerate after retries while fixed-point "
            "candidates survive; cannot resolve the classical set")
    return vectors


def _null_space(M: np.ndarray, groups: tuple) -> np.ndarray:
    """Orthonormal basis of ker M from one stacked SVD per group of equal
    diagonal blocks.  The rank is decided for M as a whole, as
    scipy.linalg.null_space(M) decides it: singular values above d^2 eps
    times the largest one count."""
    n = M.shape[0]
    svds = [np.linalg.svd(_stack(M, group)) for group in groups]
    cutoff = n * np.finfo(float).eps * max(s.max() for _, s, _ in svds)
    cols = []
    for group, (_, s, vh) in zip(groups, svds):
        for idx, s_b, vh_b in zip(group, s, vh):
            null = vh_b[np.count_nonzero(s_b > cutoff):].conj().T
            cols.append(_embed(n, idx, null))
    return np.hstack(cols)


def _pair_stays_in_iso(split: SpectralSplit, u: np.ndarray, v: np.ndarray,
                       tol: float) -> bool:
    """Does a superposition of orthonormal u, v (uu^dag, vv^dag in iso) stay
    in iso?  That of cos t u + sin t e^{i phi} v has the swept part cos t
    sin t (e^{-i phi} r_uv + e^{i phi} r_vu), r_uv = (I - P) vec(uv^dag), least
    over phi at e^{2i phi} = -conj(z)/|z|, z = <r_uv, r_vu> (any phi if z = 0);
    the balanced state at that phase is tested against tol."""
    X = np.stack([vec(np.outer(u, v.conj())), vec(np.outer(v, u.conj()))],
                 axis=1)
    R = X - split.iso_projection @ X
    z = np.vdot(R[:, 0], R[:, 1])
    phase = np.sqrt(-np.conj(z) / abs(z)) if abs(z) > 0 else 1.0
    psi = (u + phase * v) / np.sqrt(2.0)
    return iso_membership(split, projector(psi)) <= tol


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
    if split is None:
        split = spectral_split(build_superoperator(gen))
    x = vec(e)
    fwd = 0.0
    adj = 0.0
    for t in times:
        if t < 0:
            raise ValidationError("probe times must be nonnegative")
        # exp(tM^dag) = exp(tM)^dag: one propagator serves both semigroups
        E = propagator(gen, t)
        fwd = max(fwd, _entropy_loose(unvec(E @ x)))
        adj = max(adj, _entropy_loose(unvec(E.conj().T @ x)))
    return RobustnessReport(fwd, adj, iso_membership(split, e))


def _entropy_loose(rho: np.ndarray) -> float:
    """tr(rho - rho^2) without density validation (the adjoint semigroup need
    not preserve trace)."""
    rho = 0.5 * (rho + rho.conj().T)
    return abs(float((rho.trace() - (rho @ rho).trace()).real))
