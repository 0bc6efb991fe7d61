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

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .liouville import (
    LindbladGenerator,
    _block_structure,
    _check_dim,
    _expm,
    _from_real,
    _gemm,
    _gemv,
    _hermitian_basis,
    _map_blocks,
    _stack,
    _stacked_gemm,
    _svdvals,
    _to_real,
    _transpose_map,
    apply_generator,
    build_superoperator,
    propagator,
    unvec,
    vec,
)
from .operators import (
    DimensionMismatchError,
    ValidationError,
    hs_norm,
    join_projectors,
    projector,
)

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
    """The split in block form.  The first k columns of a block's basis, k
    the rank of its projection, span its part of iso; the rest, of sweep."""
    peripheral_eigenvalues: np.ndarray
    spectral_gap: float          # min |Re lambda| over the swept spectrum
    tol: float
    groups: tuple        # superoperator_blocks of the M it was computed on
    projections: tuple   # per group, (m, s, s): onto iso along sweep
    block_bases: tuple   # per group, (m, s, s): [iso | sweep] columns

    @property
    def dim(self) -> int:
        return math.isqrt(sum(group.size for group in self.groups))

    @property
    def iso_dim(self) -> int:
        return len(self.peripheral_eigenvalues)

    @property
    def sweep_dim(self) -> int:
        return self.dim ** 2 - self.iso_dim

    @property
    def iso_basis(self) -> np.ndarray:  # (k, d, d), formed on each read
        return _operators(self, True)

    @property
    def sweep_basis(self) -> np.ndarray:  # (d^2 - k, d, d), as large as M
        return _operators(self, False)

    def project(self, X: np.ndarray) -> np.ndarray:
        """The projection onto iso along sweep of the columns of the
        d^2 x m matrix X, one stack of blocks at a time."""
        return _block_apply(self.groups, self.projections, X)


def _iso_columns(P: np.ndarray) -> np.ndarray:
    """(m, s) mask of the iso columns of a stack of blocks with projections
    P: the first k columns of a block's basis, k the rank, so the trace, of
    its projection."""
    m, s, _ = P.shape
    return np.arange(s) < np.rint(np.trace(P, axis1=1, axis2=2).real)[:, None]


def _vec_columns(ops: np.ndarray) -> np.ndarray:
    """vec of each operator in a (m, d, d) stack, as the columns of a
    d^2 x m matrix."""
    m, d, _ = ops.shape
    return ops.transpose(0, 2, 1).reshape(m, d * d).T


def _unvec_columns(X: np.ndarray, d: int) -> np.ndarray:
    """The columns of a d^2 x m matrix as a (m, d, d) stack of operators."""
    return np.ascontiguousarray(X.T.reshape(-1, d, d).transpose(0, 2, 1))


def _block_apply(groups: tuple, stacks: list, X: np.ndarray) -> np.ndarray:
    """Apply the block-diagonal matrix with the given stacks of diagonal
    blocks (one per group of superoperator_blocks) to the columns of X."""
    out = np.zeros(X.shape, dtype=complex)
    for group, A in zip(groups, stacks):
        out[group] = _stacked_gemm(A, X[group])
    return out


def spectral_split(M: np.ndarray, tol: float | None = None) -> SpectralSplit:
    """Split vectorized operator space into peripheral (isometric) and decaying
    (sweeping) invariant subspaces of the Liouvillian matrix M.

    Each diagonal block of M is factorised once.  A block of more than 32
    rows that X -> X^T carries onto its own conjugate is split in real
    arithmetic in its Hermitian basis (real Schur form, dtrsen, dtrsyl; see
    liouville._hermitian_basis) and mapped back; every other block runs
    zgees, ztrsen and ztrsyl.  The blocks and their bases come from
    liouville._block_structure, found once per read-only M."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0] if M.ndim == 2 else 0
    d = int(round(np.sqrt(n)))
    if n == 0 or M.shape != (d * d, d * d):
        raise ValidationError(f"M has shape {M.shape}, not d^2 x d^2")
    groups, hermitian = zip(*_block_structure(M))
    stacks = [_stack(M, group) for group in groups]
    # one Schur form per block; its (quasi-)diagonal holds the block's
    # eigenvalues
    schurs = [_schur_forms(S, basis) for S, basis in zip(stacks, hermitian)]
    evs = [[_schur_eigvals(T) for T, _ in blocks] for blocks in schurs]
    all_evs = np.concatenate([ev for group_evs in evs for ev in group_evs])
    if tol is None:
        tol = 1e-9 * max(np.abs(all_evs.real).max(), 1e-30)

    schurs = [[_reorder(T, Q, np.abs(ev.real) <= tol)
               for (T, Q), ev in zip(blocks, group_evs)]
              for blocks, group_evs in zip(schurs, evs)]  # (T, Q, k)
    periphs = [[_schur_eigvals(T)[:k] for T, _, k in blocks]
               for blocks in schurs]
    periph = np.concatenate([p for group_periph in periphs
                             for p in group_periph])
    periph_scale = max(np.abs(periph).max(initial=0.0), 1.0)

    projections, bases = [], []
    for blocks, group_periph, basis_of in zip(schurs, periphs, hermitian):
        m, s = len(blocks), blocks[0][0].shape[0]
        P = np.empty((m, s, s), dtype=complex)
        basis = np.empty_like(P)
        for b, ((T, Q, k), p) in enumerate(zip(blocks, group_periph)):
            _check_semisimple(T[:k, :k], p, tol, periph_scale)
            P[b], basis[b] = _block_split(T, Q, k)
        if basis_of is not None:
            real = basis_of.blocks
            P[real] = _from_real(P[real].real, basis_of)
            basis[real] = _from_real(basis[real].real, basis_of, both=False)
        projections.append(P)
        bases.append(basis)

    swept_res = np.abs(all_evs.real)[np.abs(all_evs.real) > tol]
    gap = float(swept_res.min()) if swept_res.size else np.inf
    return SpectralSplit(periph, gap, tol, groups, tuple(projections),
                         tuple(bases))


def _schur_forms(S: np.ndarray, basis) -> list:
    """The Schur form (T, Q) of each block of the stack S: real, of the block
    in its Hermitian basis, for a block of basis (the group's
    _hermitian_basis), complex for every other block."""
    if basis is None:
        return [scipy.linalg.schur(B, output="complex") for B in S]
    forms = [None] * len(S)
    for b in np.flatnonzero(basis.general):
        forms[b] = scipy.linalg.schur(S[b], output="complex")
    for b, R in zip(basis.blocks, _to_real(S, basis)):
        forms[b] = scipy.linalg.schur(R, output="real")
    return forms


def _schur_eigvals(T: np.ndarray) -> np.ndarray:
    """The eigenvalues on the diagonal of a Schur form, each 2 x 2 block of
    a real one giving a +- i sqrt(|b c|), as LAPACK's dlanv2 standardises
    it."""
    if np.iscomplexobj(T):
        return np.diag(T)
    w = np.diag(T).astype(complex)
    top = np.flatnonzero(np.diag(T, -1))
    im = np.sqrt(np.abs(T[top, top + 1])) * np.sqrt(np.abs(T[top + 1, top]))
    w[top] += 1j * im
    w[top + 1] -= 1j * im
    return w


def _block_split(T: np.ndarray, Q: np.ndarray, k: int) -> tuple:
    """The projection onto the span of the first k Schur vectors along the
    rest of a reordered Schur form (T, Q), and the block's [iso | sweep]
    basis; real for a real Schur form."""
    s = T.shape[0]
    real = not np.iscomplexobj(T)
    P = np.zeros((s, s), dtype=T.dtype)
    basis = np.empty_like(P)
    if 0 < k < s:
        # spectral projector from the 2x2 block Schur form, with R solving
        # T11 R - R T22 = T12 on the (quasi-)triangular blocks; info = 1
        # (close eigenvalues, perturbed to solve) is accepted
        trsyl = scipy.linalg.lapack.dtrsyl if real \
            else scipy.linalg.lapack.ztrsyl
        R, scale, info = trsyl(T[:k, :k], T[k:, k:], T[:k, k:], isgn=-1)
        if info < 0:
            raise np.linalg.LinAlgError(f"illegal trsyl argument {-info}")
        R /= scale
        P = _gemm(_gemm(Q[:, :k], np.hstack([np.eye(k), R])), Q.conj().T)
        basis[:, k:] = scipy.linalg.qr(_gemm(Q[:, :k], -R) + Q[:, k:],
                                       mode="economic")[0]
    elif k:
        P = np.eye(k, dtype=T.dtype)
    else:
        basis = np.eye(s, dtype=T.dtype)
    basis[:, :k] = Q[:, :k]
    return P, basis


def _operators(split: SpectralSplit, iso: bool) -> np.ndarray:
    """The iso (or sweep) columns of the split's block bases, block by block
    in order, as one (count, d, d) stack of operators."""
    d = split.dim
    masks = [_iso_columns(P) == iso for P in split.projections]
    ops = np.zeros((sum(int(mask.sum()) for mask in masks), d, d),
                   dtype=complex)
    start = 0
    for group, basis, mask in zip(split.groups, split.block_bases, masks):
        # the entries of each selected column sit at the indices of its block;
        # vec is column stacked, so index i holds the entry (i % d, i // d)
        idx = np.repeat(group, mask.sum(axis=1), axis=0)
        rows = np.arange(start, start + idx.shape[0])[:, None]
        ops[rows, idx % d, idx // d] = basis.transpose(0, 2, 1)[mask]
        start += idx.shape[0]
    return ops


def _reorder(T: np.ndarray, Q: np.ndarray, select: np.ndarray) -> tuple:
    """The Schur form (T, Q) reordered so that the selected eigenvalues lead,
    and their count: LAPACK ztrsen (dtrsen for a real form, which moves each
    2 x 2 block whole), the reordering schur(..., sort=...) applies inside
    zgees, so the result is sorted schur's, bit for bit."""
    k = int(np.count_nonzero(select))
    if select[:k].all():  # already in order: trsen would swap nothing
        return T, Q, k
    trsen = scipy.linalg.lapack.ztrsen if np.iscomplexobj(T) \
        else scipy.linalg.lapack.dtrsen
    out = trsen(select, T, Q, job="N", overwrite_t=True, overwrite_q=True)
    T, Q, k, info = out[0], out[1], out[-4], out[-1]
    if info:
        raise np.linalg.LinAlgError(
            "eigenvalues could not be separated for reordering")
    return T, Q, k


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
        sv = _svdvals(T11 - lam * np.eye(k))
        geo = int(np.sum(sv <= max(10 * tol, 1e-10) * scale))
        if geo < len(cluster):
            raise DefectivePeripheralSpectrumError(
                f"peripheral eigenvalue {lam} has geometric multiplicity "
                f"below its algebraic multiplicity {len(cluster)}")


def iso_membership(split: SpectralSplit, e) -> float:
    """HS norm of the swept component of a rank-1 projector; ~0 certifies
    membership of the robust set."""
    e = np.asarray(e, dtype=complex)
    if e.shape != (split.dim, split.dim):
        raise DimensionMismatchError(
            f"operator shape {e.shape} does not match split dim {split.dim}")
    x = vec(e)[:, None]
    return float(np.linalg.norm(x - split.project(x)))


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


def verify_split_properties(M: np.ndarray, split: SpectralSplit,
                            times=(1.0, 5.0, 20.0), n_samples: int = 10,
                            seed: int = 0) -> SplitVerification:
    """Numeric residuals for the structural properties of the split:
    *-invariance, trace orthogonality, completeness, isometry and
    multiplicativity of the peripheral flow, sweep decay at the final time,
    product closure, and join closure for rank-1 projectors in iso.

    exp(tM) and the projection act one stack of equal-size blocks at a
    time.  Checks (a), (b) and (e) stay inside the blocks, on the split's
    own block bases; a split whose blocks are not those of M, or are not
    carried onto one another by X -> X^T, is checked as one block."""
    rng = np.random.default_rng(seed)
    M = np.asarray(M, dtype=complex)
    n = split.dim ** 2
    if M.shape != (n, n):
        raise DimensionMismatchError(
            f"superoperator shape {M.shape} does not match split dim "
            f"{split.dim}")
    times = tuple(times)
    if not times or min(times) < 0:
        raise ValidationError(
            "verification needs at least one time, each t >= 0")
    swept_norm = lambda X: float(np.linalg.norm(X - split.project(X), axis=0)
                                 .max(initial=0.0))
    iso = split.iso_basis
    res: dict[str, float | None] = {}

    blocked = split
    groups, hermitian = zip(*_block_structure(M))
    same = len(groups) == len(split.groups) and all(
        map(np.array_equal, groups, split.groups))
    rows = _transpose_rows(groups, split.dim) if same else None
    if rows is None:
        blocked = _one_block(split)
        groups = blocked.groups
        rows = _transpose_rows(groups, split.dim)
        hermitian = [_hermitian_basis(M, groups[0])]
    stacks = [_stack(M, group) for group in groups]
    expms = {t: [_map_blocks(lambda A: _expm(t * A), S, basis)
                 for S, basis in zip(stacks, hermitian)] for t in times}
    star, ortho, decay = _blockwise_residuals(blocked, rows,
                                              expms[max(times)])
    # (a) *-invariance of iso (and of sweep, which is equivalent here)
    res["a_star_invariance"] = star
    # (b) trace orthogonality tr(phi1 phi2) = 0
    res["b_trace_orthogonality"] = ortho

    # (c) completeness: the block-basis singular values at the rounding
    # floor, one per direction iso and sweep share; none if either is empty
    sv = np.concatenate([_svdvals(B).ravel() for B in split.block_bases]) \
        if split.iso_dim and split.sweep_dim else np.ones(1)
    res["c_completeness"] = float(np.count_nonzero(
        sv <= n * np.finfo(float).eps * sv.max()))
    res["c_basis_conditioning"] = float(sv.min() / sv.max())

    # (d) HS isometry + multiplicativity of the flow on iso
    iso_norm = iso_mult = 0.0
    d = split.dim
    iso_rows = iso.reshape(split.iso_dim, d * d)
    for t in (times if split.iso_dim else ()):
        # the stream of one draw of real, then imaginary, parts per sample
        c = rng.standard_normal((2 * n_samples, 2, split.iso_dim))
        phis = _gemm(c[:, 0] + 1j * c[:, 1], iso_rows).reshape(-1, d, d)
        phis /= np.linalg.norm(phis, axis=(1, 2))[:, None, None]
        phi1, phi2 = phis[0::2], phis[1::2]
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

    # (e) sweeping decay at the largest time; vacuous with no sweeping part
    res["e_sweep_decay"] = decay if split.sweep_dim else None

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


def _blockwise_residuals(split: SpectralSplit, rows: list,
                         expms: list) -> tuple:
    """Checks (a), (b) and (e) of verify_split_properties, one group of the
    split's blocks at a time: the largest *-invariance residual, the largest
    trace overlap of iso with sweep and the operator norm of exp(tM) on
    sweep.  rows are _transpose_rows of the split's groups, and expms the
    stacks of exp(tM) on the same groups."""
    star = ortho = decay = 0.0
    for P, W, where, E in zip(split.projections, split.block_bases, rows,
                              expms):
        m, s, _ = W.shape
        iso_cols = _iso_columns(P)
        # Wt[c][:, j] is vec(w^T) for the column w = W[b][:, j] of the block
        # b that X -> X^T carries onto block c
        Wt = np.empty_like(W)
        Wt.reshape(m * s, s)[where.ravel()] = W.reshape(m * s, s)
        iso_t = np.empty_like(iso_cols)
        iso_t[where[:, 0] // s] = iso_cols

        # (a) X^dag = conj(X^T): that of iso must stay in iso, of sweep in
        # sweep
        Wd = Wt.conj()
        PWd = _stacked_gemm(P, Wd)
        star = max(star,
                   np.linalg.norm(PWd - Wd, axis=1)[iso_t].max(initial=0.0),
                   np.linalg.norm(PWd, axis=1)[~iso_t].max(initial=0.0))
        # (b) tr(phi1 phi2) = vec(phi1^T) . vec(phi2)
        overlaps = _stacked_gemm(Wt.transpose(0, 2, 1), W)
        ortho = max(ortho, np.abs(overlaps[
            iso_t[:, :, None] & ~iso_cols[:, None, :]]).max(initial=0.0))
        # (e) the norm of exp(tM) on the block's orthonormal sweep columns
        EW = _stacked_gemm(E, W * ~iso_cols[:, None, :])
        decay = max(decay, np.abs(EW).max() if s == 1
                    else _svdvals(EW)[:, 0].max())
    return float(star), float(ortho), float(decay)


def _transpose_rows(groups: tuple, d: int) -> list | None:
    """Per group of blocks (m, s): where X -> X^T carries each entry, as its
    row in the group's blocks stacked into m*s rows; None unless every
    block is carried onto one block of its group.  For a Hermiticity
    preserving L, M[pi i, pi j] = conj(M[i, j]) with pi the index of the
    transposed entry, so its blocks are."""
    rows = []
    for group in groups:
        s = group.shape[1]
        to = _transpose_map(group, d)
        if (to < 0).any() or (to // s != to[:, :1] // s).any():
            return None
        rows.append(to)
    return rows


def _one_block(split: SpectralSplit) -> SpectralSplit:
    """The split with its projection and bases as one block of all d^2
    indices."""
    n = split.dim ** 2
    P = np.zeros((n, n), dtype=complex)
    for group, stack in zip(split.groups, split.projections):
        P[group[:, :, None], group[:, None, :]] = stack
    basis = np.hstack([_vec_columns(split.iso_basis),
                       _vec_columns(split.sweep_basis)])
    return dataclasses.replace(split, groups=(np.arange(n)[None],),
                               projections=(P[None],),
                               block_bases=(basis[None],))


def _rank1_projectors_in(basis: np.ndarray, tol: float = 1e-8) -> list:
    """Basis elements that are scalar multiples of rank-1 projectors."""
    out = []
    for B in basis:
        tr = B.trace()
        if abs(tr) < tol:
            continue
        cand = B / tr
        if (hs_norm(cand - cand.conj().T) <= tol
                and hs_norm(cand @ cand - cand) <= tol
                and abs(cand.trace().real - 1.0) <= tol):
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
    kernel = _null_space(M)
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


def _null_space(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker M from one SVD per diagonal block, in real
    arithmetic for a block of its group's _hermitian_basis (both from
    liouville._block_structure).  The rank is decided for M as a whole, as
    scipy.linalg.null_space(M) decides it: singular values above d^2 eps
    times the largest one count."""
    n = M.shape[0]
    svds = []
    for group, basis in _block_structure(M):
        S = _stack(M, group)
        if group.shape[1] == 1:  # [a] has the singular value |a|, V = [1]
            svds += [(idx, np.abs(B[0]), np.ones((1, 1))) for idx, B
                     in zip(group, S)]
            continue
        # per block its singular values and right singular vectors
        sv = np.empty(S.shape[:2])
        V = np.empty(S.shape, dtype=complex)
        general = np.arange(len(S)) if basis is None \
            else np.flatnonzero(basis.general)
        for b in general:
            _, sv[b], vh = scipy.linalg.svd(S[b])
            V[b] = vh.conj().T
        if basis is not None:
            vhs = [scipy.linalg.svd(R)[1:] for R in _to_real(S, basis)]
            sv[basis.blocks] = [s for s, _ in vhs]
            V[basis.blocks] = _from_real(
                np.array([vh.T for _, vh in vhs]), basis, both=False)
        svds += list(zip(group, sv, V))
    cutoff = n * np.finfo(float).eps * max(s.max() for _, s, _ in svds)
    cols = []
    for idx, s_b, v_b in svds:
        null = v_b[:, np.count_nonzero(s_b > cutoff):]
        col = np.zeros((n, null.shape[1]), dtype=complex)
        col[idx] = null  # the block's null vectors in the whole space
        cols.append(col)
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
    R = X - split.project(X)
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
    basis, stacked = [], []
    for B in mats:
        if hs_norm(B) < tol:
            continue
        x = vec(B)
        if stacked:
            Q = np.stack(stacked, axis=1)
            x_perp = x - _gemv(Q, _gemv(Q.conj().T, x))
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
    e = _check_dim(gen, e)
    if split is None:
        split = spectral_split(build_superoperator(gen))
    x = vec(e)
    fwd = adj = 0.0
    for t in times:
        if t < 0:
            raise ValidationError("probe times must be nonnegative")
        # exp(tM^dag) = exp(tM)^dag: one propagator serves both semigroups
        E = propagator(gen, t)
        fwd = max(fwd, _entropy_loose(unvec(_gemv(E, x))))
        adj = max(adj, _entropy_loose(unvec(_gemv(E.conj().T, x))))
    return RobustnessReport(fwd, adj, iso_membership(split, e))


def _entropy_loose(rho: np.ndarray) -> float:
    """tr(rho - rho^2) without density validation (the adjoint semigroup need
    not preserve trace)."""
    rho = 0.5 * (rho + rho.conj().T)
    return abs(float((rho.trace() - (rho @ rho).trace()).real))
