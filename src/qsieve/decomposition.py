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
    _rotate,
    _stack,
    _stacked_gemm,
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
    _eigh,
    _matmul,
    _svdvals,
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
    liouville._block_structure, found once per read-only M.  An eigenvalue
    is peripheral when |Re lambda| <= tol, by default the larger of 1e-9
    max |Re lambda| and 100 eps ||M||_F."""
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
        # the floor: with every rate 0, Re lambda is rounding alone (at most
        # 3.5 eps ||M||_F on random unitary generators)
        tol = max(1e-9 * np.abs(all_evs.real).max(),
                  100 * np.finfo(float).eps * _frobenius(stacks))

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


def _frobenius(stacks: list) -> float:
    """||M||_F from the stacks of its diagonal blocks, which hold all its
    nonzero entries."""
    return math.hypot(*(scipy.linalg.norm(S.ravel()) for S in stacks))


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
#: residuals: the split basis conditioning (1 is best) and the sweep decay,
#: the operator norm of exp(tM) on the sweeping subspace at time t (at least
#: exp(-gap t), small only for a large enough gap)
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
                            t: float = 20.0) -> SplitVerification:
    """Numeric residuals for the structural properties of the split:
    *-invariance, trace orthogonality, completeness, isometry and
    multiplicativity of the peripheral flow for every t >= 0, decided from
    M (relative to ||M||_F), sweep decay at time t, product closure, and
    join closure for rank-1 projectors in iso.

    M, exp(tM) and the projection act one stack of equal-size blocks at a
    time.  Checks (a), (b) and (e) stay inside the blocks, on the split's
    own block bases; a split whose blocks are not those of M, or are not
    carried onto one another by X -> X^T, is checked as one block."""
    M = np.asarray(M, dtype=complex)
    d, n = split.dim, split.dim ** 2
    if M.shape != (n, n):
        raise DimensionMismatchError(
            f"superoperator shape {M.shape} does not match split dim {d}")
    if not t >= 0:
        raise ValidationError(f"verification time {t} is not >= 0")
    swept_norm = lambda X: float(np.linalg.norm(X - split.project(X), axis=0)
                                 .max(initial=0.0))
    iso = split.iso_basis
    res: dict[str, float | None] = {}

    blocked = split
    groups, hermitian = zip(*_block_structure(M))
    same = len(groups) == len(split.groups) and all(
        map(np.array_equal, groups, split.groups))
    rows = _transpose_rows(groups, d) if same else None
    if rows is None:
        blocked = _one_block(split)
        groups = blocked.groups
        rows = _transpose_rows(groups, d)
        hermitian = [_hermitian_basis(M, groups[0])]
    stacks = [_stack(M, group) for group in groups]
    expms = [_map_blocks(lambda A: _expm(t * A), S, basis)
             for S, basis in zip(stacks, hermitian)]
    star, ortho, decay = _blockwise_residuals(blocked, rows, hermitian, expms)
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

    # (d) exp(tM) is an isometry on iso iff C = W^H B W is skew-Hermitian on
    # each block's iso columns W, and multiplicative there iff M is a
    # derivation (Lindblad, CMP 48, 119 (1976)); (i) shares its products
    scale = _frobenius(stacks) or 1.0
    res["d_iso_isometry"] = max(
        (float(_svdvals(C + C.conj().transpose(0, 2, 1)).max()) / scale
         for _, _, C in map(_iso_compression, stacks, blocked.projections,
                            blocked.block_bases) if C.size), default=0.0)
    apply_M = lambda ops: _unvec_columns(
        _block_apply(groups, stacks, _vec_columns(ops)), d)
    left_mul = lambda A, ops: _stacked_gemm(np.broadcast_to(A, ops.shape), ops)
    M_iso, closure, derivation = apply_M(iso), 0.0, 0.0
    for B1, MB1 in zip(iso, M_iso):
        products = left_mul(B1, iso)
        closure = max(closure, swept_norm(_vec_columns(products)))
        gap = apply_M(products) - left_mul(MB1, iso) - left_mul(B1, M_iso)
        derivation = max(derivation, np.linalg.norm(gap, axis=(1, 2)).max())
    res["d_iso_multiplicativity"] = float(derivation) / scale

    # (e) sweeping decay at time t; vacuous with no sweeping part
    res["e_sweep_decay"] = decay if split.sweep_dim else None
    res["i_product_closure"] = closure  # (i), on the products of (d)

    # (ii) join closure for rank-1 projectors found among iso elements
    projs = _rank1_projectors_in(iso)
    joins = [join_projectors(projs[a], projs[b])
             for a in range(len(projs)) for b in range(a + 1, len(projs))]
    res["ii_join_closure"] = swept_norm(_vec_columns(np.array(joins))) \
        if joins else None
    return SplitVerification(res)


def _blockwise_residuals(split: SpectralSplit, rows: list, hermitian: list,
                         expms: list) -> tuple:
    """Checks (a), (b) and (e) of verify_split_properties, one group of the
    split's blocks at a time: the largest *-invariance residual, the largest
    trace overlap of iso with sweep and the operator norm of exp(tM) on
    sweep.  rows are _transpose_rows of the split's groups, hermitian their
    _hermitian_basis, and expms the stacks of exp(tM) on the same groups."""
    star = ortho = decay = 0.0
    for P, W, where, basis, E in zip(split.projections, split.block_bases,
                                     rows, hermitian, expms):
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
        decay = max(decay, _norm_on(E, W * ~iso_cols[:, None, :], basis))
    return float(star), float(ortho), float(decay)


def _norm_on(E: np.ndarray, X: np.ndarray, basis) -> float:
    """The largest singular value of E X over the slices of two stacks of a
    group of blocks.  On a block of basis (the group's _hermitian_basis)
    where U^H X is real, as it is for the columns spectral_split finds, it
    is that of the real U^H E U U^H X: dgesdd, not zgesdd.  Every other
    block takes E X as it is; other orthonormal columns of the same span
    make U^H X complex."""
    if X.shape[-1] == 1:
        return np.abs(E * X).max()
    tops, general = [], np.ones(len(X), dtype=bool)
    if basis is not None:
        UX = _rotate(X[basis.blocks], basis, adjoint=True)
        real = ~UX.imag.any(axis=(1, 2))
        if real.any():
            tops.append(_svdvals(_stacked_gemm(
                _to_real(E, basis)[real], UX.real[real]))[:, 0])
            general[basis.blocks[real]] = False
    if general.any():
        tops.append(_svdvals(_stacked_gemm(E[general], X[general]))[:, 0])
    return max(top.max() for top in tops)


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
                and hs_norm(_matmul(cand, cand) - cand) <= tol
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


#: draws of a kernel element before its spectrum counts as degenerate
KERNEL_DRAWS = 5


def classical_states(gen: LindbladGenerator,
                     split: SpectralSplit | None = None,
                     seed: int = 0,
                     residual_tol: float = 1e-8) -> ClassicalSet:
    """Enumerate the pairwise-orthogonal family of pure semigroup fixed points
    whose superpositions with every other fixed point leave the robust set.

    Candidates come from diagonalizing a generic Hermitian element of ker L,
    read off the split; the superposition exclusion is exact to
    residual_tol, one closed-form test per candidate pair.
    """
    M = build_superoperator(gen)
    if split is None:
        split = spectral_split(M)
    vectors = _fixed_point_candidates(gen, M, split, seed, residual_tol)

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
            overlaps[i, j] = abs(_matmul(kept[i], kept[j]).trace())
    off = overlaps - np.diag(np.diag(overlaps))
    if m and off.max() > residual_tol:
        raise ValidationError(
            f"classical candidates are not pairwise orthogonal "
            f"(max overlap {off.max():.3e})")
    return ClassicalSet(tuple(kept), overlaps, residuals)


def _fixed_point_candidates(gen: LindbladGenerator, M: np.ndarray,
                            split: SpectralSplit, seed: int,
                            residual_tol: float) -> list:
    """Unit eigenvectors of a generic Hermitian element of ker L whose
    projectors are semigroup fixed points lying in iso; none if iso holds
    no kernel vector."""
    rng = np.random.default_rng(seed)
    kernel = _fixed_point_kernel(M, split)
    if not kernel.size:
        return []

    degenerate = True
    for _ in range(KERNEL_DRAWS):
        # a Hermiticity preserving L has ker L closed under X -> X^dag, so
        # the Hermitian part of a generic element is a generic Hermitian one
        c = rng.standard_normal((2, kernel.shape[1]))
        B = unvec(_gemv(kernel, c[0] + 1j * c[1]))
        w, V = _eigh(0.5 * (B + B.conj().T))
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


def _fixed_point_kernel(M: np.ndarray, split: SpectralSplit) -> np.ndarray:
    """Orthonormal basis of ker M, read off the split.  The kernel of a
    block B lies in its iso part, whose columns W are orthonormal Schur
    vectors: B W = W C with C = W^H B W, so it is W null(C), one SVD of the
    block's iso count.  The rank is decided for M as a whole: singular
    values of C above max(d^2, 100) eps ||M||_F count.  The floor is the
    one spectral_split puts under |Re lambda|: for d = 2 the rounding of a
    zero eigenvalue in C reached d^2 eps ||M||_F itself, and hid the
    kernel."""
    n = split.dim ** 2
    stacks = [_stack(M, group) for group in split.groups]
    cutoff = max(n, 100) * np.finfo(float).eps * _frobenius(stacks)
    cols = [np.zeros((n, 0), dtype=complex)]
    for group, (k, W, C) in zip(split.groups, map(
            _iso_compression, stacks, split.projections, split.block_bases)):
        for b in np.flatnonzero(k):
            _, sv, vh = scipy.linalg.svd(C[b, :k[b], :k[b]])
            null = vh[np.count_nonzero(sv > cutoff):].conj().T
            if null.size:  # the block's kernel vectors in the whole space
                cols.append(np.zeros((n, null.shape[1]), dtype=complex))
                cols[-1][group[b]] = _gemm(W[b, :, :k[b]], null)
    return np.hstack(cols)


def _iso_compression(S: np.ndarray, P: np.ndarray, W: np.ndarray) -> tuple:
    """The iso count k of each block of a stack S with projections P and
    bases W, its iso columns W (those past k zeroed) and C = W^H B W: on a
    split of M, B W = W C (see _fixed_point_kernel)."""
    k = np.count_nonzero(_iso_columns(P), axis=1)
    W = W[:, :, :k.max()] * (np.arange(k.max()) < k[:, None])[:, None]
    return k, W, _stacked_gemm(W.conj().swapaxes(1, 2), _stacked_gemm(S, W))


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
    return abs(float((rho.trace() - _matmul(rho, rho).trace()).real))
