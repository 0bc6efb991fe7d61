"""Lindblad generators, superoperator matrices and the semigroup exp(tL).

Vectorization convention: vec stacks columns (Fortran order), so the map
rho -> X rho Y has the matrix Y^T (x) X.  The vec map is an isometry between
the Hilbert-Schmidt inner product and the Euclidean one, so the HS-adjoint of
a superoperator is its conjugate transpose.

Every generator has the GKS-Lindblad shape

    L(rho) = -i[H, rho] + Phi(rho) - 1/2 {Phi*(I), rho}
           = K rho + rho K^dag + Phi(rho),      K = -iH - 1/2 Phi*(I),

where the anticommutator operator G = Phi*(I) is the unique choice making L
trace preserving.  Then L*(A) = K^dag A + A K + Phi*(A), and the
superoperator is M = I (x) K + conj(K) (x) I + mat(Phi).  The map Phi is
given as a jump list, a Hadamard kernel, an explicit CP map or a coherent
measure (see dissipators).

The diagonal blocks of M are found once per M (_block_structure), each
group of equal-size blocks with its parts: the blocks that run in complex
arithmetic, and those that run in real arithmetic in their Hermitian basis.
The split (see decomposition) and the semigroup exp(tL) (_Semigroup) walk
these parts: channel_applier and steady_state act one block at a time, and
only propagator scatters the blocks into a d^2 x d^2 matrix.

A purely Hamiltonian generator is a jump list with no operators.  The
environment-induced-semigroup check (eis_check) decides each property of
exp(tL) for every t >= 0 from L alone: complete positivity from the Choi
matrix of L, a reshuffle of the entries of M, and trace preservation and
the two norm contractions from L*(I) and L(I).

Every product or factorisation that OpenBLAS would run on worker threads
goes to scipy's BLAS and LAPACK, so that a run wakes one BLAS thread pool,
not numpy's as well (see operators).  Factorisations of superoperator-sized
matrices (M, its blocks, exp(tL)) always do (operators._svdvals, _expm).
Products stay on numpy below OpenBLAS's thresholds, where one numpy call
costs less: 32^3 multiply-adds for a matrix product (_UNTHREADED_MACS), and
a matrix of 64 x 64 entries for a matrix-vector product, however short the
vector (_THREADED_GEMV); _matmul and _stacked_gemm choose.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
# scipy.linalg.expm's own kernels, loaded with scipy.linalg; a private module
# whose signatures test_scaled_expm_is_scipy_expm_bit_for_bit guards
from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure

from .dissipators import (
    _block_rows,
    _CoherentMeasure,
    _ExplicitCP,
    _HadamardKernel,
    _JumpList,
    _kron_rows,
    unvec,
    vec,
)
from .operators import (
    DimensionMismatchError,
    ValidationError,
    _gemm,
    _matmul,
    _threaded,
    is_hermitian,
    validate_density_matrix,
)

__all__ = [
    "LindbladGenerator",
    "vec",
    "unvec",
    "apply_generator",
    "apply_generator_adjoint",
    "build_superoperator",
    "superoperator_blocks",
    "propagator",
    "evolve",
    "channel_applier",
    "steady_state",
    "choi_matrix",
    "eis_check",
    "EisReport",
]


def _frozen_array(a, dtype=complex) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LindbladGenerator:
    """Hamiltonian plus at most one dissipator specification.

    At most one of jump_ops, kernel, cp_superop and coherent_measure (the
    pair (kappa, plan), see _CoherentMeasure) carries the map Phi; a purely
    Hamiltonian generator has none of them.  Construction derives
    the single internal representation every operation uses: ``_phi`` (the
    form of Phi), ``_G = Phi*(I)`` and ``_K = -iH - G/2``.  The superoperator
    M is built on first use and kept, read-only, in ``_M``; its blocks are
    found once for it (see _block_structure).
    """

    dim: int
    hamiltonian: np.ndarray
    jump_ops: tuple = ()
    kernel: np.ndarray | None = None
    cp_superop: np.ndarray | None = None
    coherent_measure: tuple | None = None
    label: str = field(default="custom", compare=False)

    def __post_init__(self):
        H = _frozen_array(self.hamiltonian)
        if H.shape != (self.dim, self.dim):
            raise ValidationError(
                f"hamiltonian shape {H.shape} does not match dim {self.dim}")
        if not is_hermitian(H, tol=1e-12):
            raise ValidationError("hamiltonian must be Hermitian")
        object.__setattr__(self, "hamiltonian", H)

        forms = sum([bool(len(self.jump_ops)), self.kernel is not None,
                     self.cp_superop is not None,
                     self.coherent_measure is not None])
        if forms > 1:
            raise ValidationError("at most one dissipator form may be given")

        if self.kernel is not None:
            C = _frozen_array(self.kernel)
            if C.shape != (self.dim, self.dim):
                raise ValidationError("kernel shape mismatch")
            if not is_hermitian(C, tol=1e-12):
                raise ValidationError("Hadamard kernel must be Hermitian")
            if np.abs(np.diag(C)).max() > 1e-12 * max(np.abs(C).max(), 1.0):
                raise ValidationError(
                    "Hadamard kernel must vanish on the diagonal "
                    "(trace preservation)")
            object.__setattr__(self, "kernel", C)
            phi = _HadamardKernel(C)
        elif self.cp_superop is not None:
            S = _frozen_array(self.cp_superop)
            if S.shape != (self.dim * self.dim, self.dim * self.dim):
                raise ValidationError("cp_superop must be d^2 x d^2")
            object.__setattr__(self, "cp_superop", S)
            phi = _ExplicitCP(S)
        elif self.coherent_measure is not None:
            kappa, plan = self.coherent_measure
            plan = _frozen_array(plan, dtype=float)
            if plan.shape != (self.dim, self.dim):
                raise ValidationError("compensator plan must be d x d")
            object.__setattr__(self, "coherent_measure", (kappa, plan))
            phi = _CoherentMeasure(self.dim, kappa, plan)
        else:
            ops = tuple(_frozen_array(V) for V in self.jump_ops)
            for V in ops:
                if V.shape != (self.dim, self.dim):
                    raise ValidationError("jump operator shape mismatch")
            object.__setattr__(self, "jump_ops", ops)
            phi = _JumpList(self.dim, ops)

        G = phi.apply_adjoint(np.eye(self.dim))
        if not is_hermitian(G, tol=1e-10):
            raise ValidationError(
                "dissipator must be Hermiticity preserving "
                "(its adjoint applied to the identity is not Hermitian)")
        object.__setattr__(self, "_phi", phi)
        object.__setattr__(self, "_G", G)
        object.__setattr__(self, "_K", -1j * H - 0.5 * G)
        object.__setattr__(self, "_M", None)


def _check_dim(gen: LindbladGenerator, A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.shape != (gen.dim, gen.dim):
        raise DimensionMismatchError(
            f"operator shape {A.shape} does not match generator dim {gen.dim}")
    return A


def apply_generator(gen: LindbladGenerator, rho) -> np.ndarray:
    """L(rho) = K rho + rho K^dag + Phi(rho)."""
    rho = _check_dim(gen, rho)
    K = gen._K
    return (_matmul(K, rho) + _matmul(rho, K.conj().T)
            + gen._phi.apply(rho))


def apply_generator_adjoint(gen: LindbladGenerator, A) -> np.ndarray:
    """HS-adjoint L*(A) = K^dag A + A K + Phi*(A)."""
    A = _check_dim(gen, A)
    K = gen._K
    return (_matmul(K.conj().T, A) + _matmul(A, K)
            + gen._phi.apply_adjoint(A))


def build_superoperator(gen: LindbladGenerator) -> np.ndarray:
    """Dense d^2 x d^2 matrix M with M vec(rho) = vec(L(rho)), built on first
    use and kept, read-only, on the generator; it owns its data, so
    _block_structure keeps the structure found for it.

    Built in place: the form of Phi writes mat(Phi) into M, and
    I (x) K + conj(K) (x) I is added a few rows of d x d blocks at a time
    through M's (d, d, d, d) view, so no d^2 x d^2 temporary is made.  The
    bits are those of (kron(I, K) + kron(conj K, I)) + mat(Phi), sign bits
    of zeros included: the two products are numpy's, and their sum is
    formed before it meets mat(Phi)."""
    if gen._M is None:
        d, I, K = gen.dim, np.eye(gen.dim), gen._K
        Kc = K.conj()
        M = np.zeros((d * d, d * d), dtype=complex)
        gen._phi.fill(M)
        M4 = M.reshape(d, d, d, d)
        for a in _block_rows(d):
            terms = _kron_rows(I, K, a)
            terms += _kron_rows(Kc, I, a)
            M4[a] += terms
        M.setflags(write=False)
        object.__setattr__(gen, "_M", M)
    return gen._M


def superoperator_blocks(M: np.ndarray) -> tuple:
    """The diagonal blocks of M grouped by size: one read-only (m, s) index
    array per block size s, whose rows are the m blocks of that size in
    order of their smallest index.  The blocks are the connected components
    of the graph with an edge i - j wherever M[i, j] or M[j, i] is nonzero.

    The entries between blocks are structural zeros, so every dense
    factorisation of M splits exactly into one per block, and blocks of one
    size stack into one call.  A matrix with no such structure is one block.
    """
    # labelled in numpy: across each edge joining two roots, the larger root
    # hooks onto the smallest it meets, and pointer jumping flattens the
    # trees; roots only move down, so each ends at its block's smallest index
    M = np.asarray(M)
    rows, cols = np.nonzero(M)
    root = np.arange(M.shape[0])
    while True:
        a, b = root[rows], root[cols]
        cross = a != b
        if not cross.any():
            break
        np.minimum.at(root, np.maximum(a, b)[cross], np.minimum(a, b)[cross])
        while not np.array_equal(root[root], root):
            root = root[root]
    _, labels = np.unique(root, return_inverse=True)
    # components are labelled in order of their smallest index; the sort by
    # block size, then block, is stable, so each block keeps its indices in
    # increasing order
    sizes = np.bincount(labels)
    order = np.lexsort((labels, sizes[labels]))
    order.setflags(write=False)  # the groups are views of it
    groups, start = [], 0
    for size in np.unique(sizes):
        count = np.count_nonzero(sizes == size)
        groups.append(order[start:start + count * size].reshape(count, size))
        start += count * size
    return tuple(groups)


def _stack(M: np.ndarray, group: np.ndarray) -> np.ndarray:
    """The diagonal blocks of M indexed by the rows of group, as one
    (m, s, s) stack."""
    return M[group[:, :, None], group[:, None, :]]


def _transpose_map(group: np.ndarray, d: int) -> np.ndarray:
    """Where X -> X^T carries each entry of a group (m, s) of blocks: its
    row in the group's blocks stacked into m*s rows, or -1 where the
    transposed entry lies outside the group."""
    where = np.full(d * d, -1)
    where[group.ravel()] = np.arange(group.size)
    # vec index i holds the entry (i % d, i // d)
    return where[(group % d) * d + group // d]


class _HermitianBasis:
    """The blocks of one group (m, s) of diagonal blocks of M, whose stack
    is S, that are real in their Hermitian basis.

    A Hermiticity preserving L has M[pi i, pi j] = conj(M[i, j]), pi the
    index of the transposed entry.  A block that X -> X^T carries onto
    itself, and that passes this test exactly, entry for entry, is real in
    the basis of Hermitian operators on its entries (see _to_real).  blocks
    holds these blocks of the group, grouped by involution, and frames, per
    involution, the rows of its blocks in blocks, its fixed entries F and
    its pairs (P, Q = perm(P)) with P < Q.
    """

    def __init__(self, S: np.ndarray, group: np.ndarray, d: int):
        m, s = group.shape
        to = _transpose_map(group, d)
        perm = to % s  # where each entry goes in its image block
        own = np.flatnonzero((to // s == np.arange(m)[:, None]).all(axis=1))
        p = perm[own]
        mirrored = S[own[:, None, None], p[:, :, None], p[:, None, :]]
        mirrored.imag *= -1
        by_perm = {}  # grouped by involution
        for block in own[(mirrored == S[own]).all(axis=(1, 2))]:
            by_perm.setdefault(perm[block].tobytes(), []).append(block)
        self.blocks = np.array(sum(by_perm.values(), []), dtype=int)
        self.frames, start, i = [], 0, np.arange(s)
        for blocks in by_perm.values():
            p = perm[blocks[0]]
            P = np.flatnonzero(p > i)
            self.frames.append((slice(start, start + len(blocks)),
                                np.flatnonzero(p == i), P, p[P]))
            start += len(blocks)


def _parts(M: np.ndarray, group: np.ndarray) -> tuple:
    """The parts (rows, basis) of a group of diagonal blocks of M: the
    blocks rows of the group that run in complex arithmetic, with basis
    None, and those that run in real arithmetic in their _HermitianBasis.
    A part that is the whole group has rows slice(None), so that its stack
    is the group's, not a copy.  Blocks whose products OpenBLAS keeps on
    the calling thread (see _threaded: s <= 32) stay complex, as _expm
    hands their stacks to scipy whole: there the change of basis costs more
    than it saves (one block of 16, custom d = 4: propagator 89 -> 269 us
    with it; two blocks of 128, QBM N = 16: 25 -> 12 ms; 2-core machine,
    one BLAS thread)."""
    m, s = group.shape
    whole = slice(None)
    if not _threaded(s, s, s):
        return ((whole, None),)
    basis = _HermitianBasis(_stack(M, group), group, math.isqrt(len(M)))
    if not basis.blocks.size:
        return ((whole, None),)
    if np.array_equal(basis.blocks, np.arange(m)):
        return ((whole, basis),)
    general = np.setdiff1d(np.arange(m), basis.blocks)
    return ((general, None),) * bool(general.size) + ((basis.blocks, basis),)


#: the _block_structure of each read-only M that owns its data, by id(M),
#: with a weak reference to M whose callback drops the entry when M dies
_STRUCTURES: dict = {}


def _block_structure(M: np.ndarray) -> tuple:
    """The (group, _parts) pair of each group of superoperator_blocks(M),
    for the split, its verification, the kernel and the semigroup of M: the
    one place that decides which blocks run in real arithmetic.  Kept for
    an M that owns its data and is read-only, as build_superoperator's is,
    which nothing changes without first making it writable; found afresh
    for every other M."""
    kept = _STRUCTURES.get(id(M))
    if kept is not None and kept[0]() is M:
        return kept[1]
    structure = tuple((group, _parts(M, group))
                      for group in superoperator_blocks(M))
    if M.flags.owndata and not M.flags.writeable:
        key = id(M)
        _STRUCTURES[key] = (weakref.ref(
            M, lambda _: _STRUCTURES.pop(key, None)), structure)
    return structure


# The Hermitian basis of a self-conjugate block, in the order [F, C, E]:
# E_aa at the fixed entries F, then (E_ab + E_ba)/sqrt2 (C) and i(E_ab -
# E_ba)/sqrt2 (E) for each pair (P, Q) of transposed entries.  In it the
# unitary U of that basis turns a block B with B[Q, Q] = conj B[P, P],
# B[Q, P] = conj B[P, Q], B[F, Q] = conj B[F, P] and B[Q, F] = conj B[P, F]
# into the real matrix U^H B U (a Hermiticity preserving map is real in a
# Hermitian basis; M. M. Wolf, Quantum Channels & Operations, 2012).

def _rotate(X: np.ndarray, basis: _HermitianBasis, adjoint: bool = False,
            out: np.ndarray | None = None) -> np.ndarray:
    """U X, or U^H X, of each slice of an (m, s, c) stack X of the part of
    basis, into out (which may be X itself for U^H X) or a new stack.  U X
    has the rows X_f at F and (X_c +- i X_e)/sqrt2 at P and Q, where X_f,
    X_c and X_e are the rows of the elements F, C and E; U^H takes them
    back."""
    Z = np.empty(X.shape, dtype=complex) if out is None else out
    r = math.sqrt(0.5)
    for rows, F, P, Q in basis.frames:
        Xw, Zw = X[rows], Z[rows]
        if adjoint:
            XF, XP, XQ = Xw[:, F], Xw[:, P], Xw[:, Q]  # copies, read first
            f, c, e = np.split(Zw, [len(F), len(F) + len(P)], axis=1)
            f[:] = XF
            np.add(XP, XQ, out=c)
            c *= r
            np.subtract(XP, XQ, out=e)
            e *= -1j * r
        else:
            f, c, e = np.split(Xw, [len(F), len(F) + len(P)], axis=1)
            Zw[:, F] = f
            Zw[:, P] = r * (c + 1j * e)
            Zw[:, Q] = r * (c - 1j * e)
    return Z


def _to_real(X: np.ndarray, basis: _HermitianBasis) -> np.ndarray:
    """U^H B U = (U^H (U^H B)^H)^H, real, of the blocks B of the stack X of
    basis's part.  The second rotation writes over the first."""
    R = _rotate(X, basis, adjoint=True)
    H = np.conjugate(R, out=R).swapaxes(1, 2)
    _rotate(H, basis, adjoint=True, out=H)
    return np.ascontiguousarray(R.real)


def _from_real(X: np.ndarray, basis: _HermitianBasis,
               both: bool = True) -> np.ndarray:
    """U X U^H = (U (U X)^H)^H (or U X alone) of each real slice of a stack
    of basis's part in the Hermitian bases of its blocks: back in the basis
    of M.  U X U^H is C-ordered, as the layout of an operand of _gemm picks
    its BLAS orientation: the second rotation writes into its transpose."""
    Z = _rotate(X, basis)
    if not both:
        return Z
    out = np.empty(X.shape, dtype=complex)
    _rotate(np.conjugate(Z, out=Z).swapaxes(1, 2), basis,
            out=out.swapaxes(1, 2))
    return np.conjugate(out, out=out)


def _stacked_gemm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for an (m, r, s) and an (m, s, c) stack: one numpy matmul for
    slices that OpenBLAS keeps on the calling thread, one _gemm per slice
    otherwise."""
    if not _threaded(A.shape[-2], A.shape[-1], B.shape[-1]):
        return A @ B
    return np.stack([_gemm(a, b) for a, b in zip(A, B)])


def _block_apply(blocks, X: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix with the diagonal blocks given as pairs
    (at, A), an (m, s, s) stack A of the blocks at the (m, s) indices at,
    applied to a vec column X or to each column of a d^2 x c matrix X."""
    out = np.zeros(X.shape, dtype=complex)
    for at, A in blocks:
        if X.ndim == 1:
            out[at] = _stacked_gemm(A, X[at][..., None])[..., 0]
        else:
            out[at] = _stacked_gemm(A, X[at])
    return out


def _expm(A: np.ndarray, pade: np.ndarray | None = None) -> np.ndarray:
    """exp of each slice of an (m, s, s) real or complex stack:
    scipy.linalg.expm (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970
    (2009)) bit for bit, with the squarings it does on numpy's matmul done
    on _gemm.
    Triangular slices, which scipy squares by a path of its own, and stacks
    of slices whose products OpenBLAS would not thread go to scipy whole.
    Where an (m, 2) int array pade is given, each slice's Pade degree and
    number of squarings go into its row, zeros for the slices scipy ran.
    """
    s = A.shape[-1]
    if pade is not None:
        pade[:] = 0
    if not _threaded(s, s, s):
        return scipy.linalg.expm(A)
    triangular = np.array([0 in scipy.linalg.bandwidth(a) for a in A], bool)
    E = np.empty_like(A)
    E[triangular] = scipy.linalg.expm(A[triangular])
    work = np.empty((5, s, s), dtype=A.dtype)
    for i in np.flatnonzero(~triangular):
        work[0] = A[i]
        degree, squarings = pick_pade_structure(work)
        info = pade_UV_calc(work, degree) if degree >= 0 else degree
        if info:
            raise np.linalg.LinAlgError(
                f"scipy's expm kernels failed (error code {info})")
        E[i] = work[0]
        for _ in range(squarings):
            E[i] = _gemm(E[i], E[i])
        if pade is not None:
            pade[i] = degree, squarings
    return E


def _part_exp(B: np.ndarray, basis: _HermitianBasis | None, t: float,
              rows=slice(None)) -> tuple:
    """(E, pade): exp(tB) of the blocks rows of a part's stack B, real in
    the part's Hermitian basis where it has one, and the Pade structure of
    each (see _expm)."""
    if basis is None:
        A = t * B[rows]
    else:
        B = _to_real(B, basis)  # the complex stack goes, if only B held it
        A = B[rows]
        A *= t
    pade = np.empty((len(A), 2), dtype=int)
    return _expm(A, pade), pade


class _Semigroup:
    """T_t = exp(tL) held in the blocks of the superoperator M of L, as one
    list of parts (at, basis, E, pade) over the _block_structure(M): the
    indices in M of the part's blocks, its Hermitian basis (or None), the
    exponentials of its blocks (real in that basis) and their Pade
    structure (see _expm), by which doubled squares them.  It applies to
    vec columns block by block, and as a map A -> T_t(A); no d^2 x d^2
    array is formed but the one dense() scatters for propagator."""

    def __init__(self, M: np.ndarray, t: float, parts=None):
        self.M, self.t = M, t
        self.parts = parts if parts is not None else [
            (group[rows], basis, *_part_exp(_stack(M, group[rows]), basis, t))
            for group, group_parts in _block_structure(M)
            for rows, basis in group_parts]

    @cached_property
    def stacks(self) -> list:
        """Per part, its indices in M and its complex exponentials in the
        basis of M."""
        return [(at, E if basis is None else _from_real(E, basis))
                for at, basis, E, _ in self.parts]

    def dense(self) -> np.ndarray:
        """The d^2 x d^2 matrix of T_t, zero between the blocks."""
        E = np.zeros(self.M.shape, dtype=complex)
        for at, A in self.stacks:
            E[at[:, :, None], at[:, None, :]] = A
        return E

    def apply(self, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """T_t x, or T_t^dag x, for a vec column x: each block's product,
        the adjoint's with the block's conjugate transpose."""
        return _block_apply([(at, A.conj().swapaxes(1, 2) if adjoint else A)
                             for at, A in self.stacks], x)

    def __call__(self, A) -> np.ndarray:
        return unvec(self.apply(vec(A)))

    def doubled(self, k: int) -> _Semigroup:
        """T at 2^k t, exp(2^k t B) of each block B.

        A slice that expm approximated with degree 13 and scaled by 2^-s,
        s >= 1, is squared k times: at 2^k t expm scales by 2^-(s+k), so it
        approximates the same matrix and squares it k more times, and this
        is _expm at 2^k t bit for bit (when s came from the norm bound, not
        from Al-Mohy & Higham's correction for a non-normal slice alone).
        Every other slice is exponentiated at 2^k t afresh."""
        if k == 0:
            return self
        tau, parts = self.t * 2 ** k, []
        for at, basis, E, pade in self.parts:
            E, pade = E.copy(), pade.copy()
            fresh = (pade[:, 0] != 13) | (pade[:, 1] == 0)
            for i in np.flatnonzero(~fresh):
                for _ in range(k):
                    E[i] = _gemm(E[i], E[i])
            pade[~fresh, 1] += k
            if fresh.any():
                E[fresh], pade[fresh] = _part_exp(_stack(self.M, at), basis,
                                                  tau, fresh)
            parts.append((at, basis, E, pade))
        return _Semigroup(self.M, tau, parts)


def propagator(gen: LindbladGenerator, t: float) -> np.ndarray:
    """Superoperator matrix of T_t = exp(tL), the dense d^2 x d^2 scatter of
    the block-form semigroup (_Semigroup): scaling-and-squaring Pade, one
    stack of blocks of M at a time, part by part of _block_structure(M).
    A block of more than 32 rows that X -> X^T carries onto its own
    conjugate is exponentiated in real arithmetic in its Hermitian basis
    (see _parts); every other block as it is.  The parts are found once
    per generator.  Nothing in qsieve needs the dense matrix;
    channel_applier and steady_state act in the blocks."""
    if t < 0:
        raise ValidationError("the semigroup is defined for t >= 0 only")
    return _Semigroup(build_superoperator(gen), t).dense()


def _entrywise_kernel(gen: LindbladGenerator) -> np.ndarray | None:
    """The kernel C of a Hamiltonian-free Hadamard-kernel generator, whose
    semigroup acts entrywise as exp(tC); None for every other generator."""
    if gen.kernel is not None and np.abs(gen.hamiltonian).max() == 0.0:
        return gen.kernel
    return None


def channel_applier(gen: LindbladGenerator, t: float):
    """Return a function A -> T_t(A).

    A Hamiltonian-free Hadamard-kernel generator acts entrywise, so its
    semigroup is an entrywise exponential and no d^2 x d^2 matrix is needed;
    every other form applies exp(tM) block by block, in the blocks of M
    (the exponentials as propagator computes them, one product per block).
    """
    if t < 0:
        raise ValidationError("the semigroup is defined for t >= 0 only")
    C = _entrywise_kernel(gen)
    if C is not None:
        E = np.exp(t * C)
        return lambda A: E * np.asarray(A, dtype=complex)
    return _Semigroup(build_superoperator(gen), t)


#: steps of exp(tau L) the steady-state power iteration takes at most
_POWER_STEPS = 10_000


def _power_limit(T: _Semigroup, rho: np.ndarray) -> np.ndarray:
    """lim T^n rho by power iteration, stopped at the first step that moves
    the iterate by at most 1e-13; RuntimeError after _POWER_STEPS steps.

    It walks the semigroup's parts: one held in a Hermitian basis in its
    real coordinates, where U^H vec(rho) splits into a real and an
    imaginary column, both real for a Hermitian rho, and every other part
    as it is.  U is unitary, so the step is measured in either basis."""
    x = vec(rho)
    v = []  # one entry per part
    for at, basis, _, _ in T.parts:
        w = x[at][..., None]
        v.append(w if basis is None else
                 _rotate(w, basis, adjoint=True).view(float))
    for _ in range(_POWER_STEPS):
        nxt = [_stacked_gemm(E, w) for (_, _, E, _), w in zip(T.parts, v)]
        step = math.hypot(*(np.linalg.norm(a - b) for a, b in zip(nxt, v)))
        v = nxt
        if step <= 1e-13:
            break
    else:
        raise RuntimeError(
            f"steady-state power iteration did not converge in "
            f"{_POWER_STEPS} steps of exp(tau L), tau = {T.t:g}: the "
            f"semigroup may have an oscillating peripheral part, or a "
            f"spectral gap too small for {_POWER_STEPS} steps of tau")
    out = np.empty(x.shape, dtype=complex)
    for (at, basis, _, _), w in zip(T.parts, v):
        if basis is not None:
            w = _rotate(np.ascontiguousarray(w).view(complex), basis)
        out[at] = w[..., 0]
    return unvec(out)


def steady_state(gen: LindbladGenerator, rho: np.ndarray,
                 t_ref: float) -> np.ndarray:
    """Long-time limit of T_t rho by power iteration of exp(t_ref L), held
    in the blocks of M (see _power_limit).

    A Hamiltonian-free Hadamard-kernel semigroup converges entrywise to the
    mask of kernel zeros, so the limit is available in closed form there.
    """
    C = _entrywise_kernel(gen)
    if C is not None:
        return rho * (C == 0.0)
    return _power_limit(_Semigroup(build_superoperator(gen), t_ref), rho)


def _steady_state_after(gen: LindbladGenerator, rho: np.ndarray, step,
                        t_ref: float) -> np.ndarray:
    """steady_state(gen, rho, .) read off step, the channel_applier of a
    run's first positive time step dt (None for a run with none): the power
    iteration of exp(tau L) at tau = dt 2^k, the least such time >= t_ref,
    whose blocks are mostly the step's squared k times (_Semigroup.doubled).
    With no step, or an entrywise one, it is steady_state at t_ref."""
    if not isinstance(step, _Semigroup):
        return steady_state(gen, rho, t_ref)
    k = 0
    while step.t * 2 ** k < t_ref:
        k += 1
    return _power_limit(step.doubled(k), rho)


def evolve(gen: LindbladGenerator, rho, t: float) -> np.ndarray:
    """T_t(rho) for a density matrix rho, dust-clamped on output."""
    rho = validate_density_matrix(rho)
    rho = _check_dim(gen, rho)
    out = channel_applier(gen, t)(rho)
    return validate_density_matrix(out)


def choi_matrix(P: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) Map(|i><j|) / d of the map with d^2 x d^2
    superoperator matrix P: as Map(|i><j|)[a, b] = P[b*d + a, j*d + i], a
    reshuffle of the entries of P (Choi, Linear Algebra Appl. 10, 285 (1975)).
    """
    d = int(round(np.sqrt(P.shape[0])))
    return P.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(
        d * d, d * d) / d


#: EisReport's bounds on -(least Choi eigenvalue), |L*(I)| and the growth
#: rates of the two norms, below its rounding scale (see EisReport)
CHOI_TOL = 1e-8
TRACE_TOL = 1e-10
CONTRACTION_TOL = 1e-9


@dataclass(frozen=True)
class EisReport:
    """Evidence that exp(tL) is an environment-induced semigroup: the rates
    at t = 0+ of the least Choi eigenvalue, the trace error and the growth
    of the trace and the operator norm of exp(tL), whose signs decide these
    properties for every t >= 0 (see eis_check).

    The figures scale with the rates of L, and so does their rounding:
    each verdict allows the larger of its absolute tolerance and
    rounding_scale, d^2 eps ||M||_F for the superoperator M of L, so that
    no verdict depends on the unit of time."""

    min_choi_eigenvalue: float
    max_trace_deviation: float
    max_trace_norm_growth: float
    max_operator_norm_growth: float
    rounding_scale: float

    def _bound(self, tol: float) -> float:
        return max(tol, self.rounding_scale)

    @property
    def completely_positive(self) -> bool:
        return self.min_choi_eigenvalue >= -self._bound(CHOI_TOL)

    @property
    def trace_preserving(self) -> bool:
        return self.max_trace_deviation <= self._bound(TRACE_TOL)

    @property
    def trace_norm_contractive(self) -> bool:
        return self.max_trace_norm_growth <= self._bound(CONTRACTION_TOL)

    @property
    def operator_norm_contractive(self) -> bool:
        return self.max_operator_norm_growth <= self._bound(CONTRACTION_TOL)

    @property
    def passed(self) -> bool:
        return (self.completely_positive and self.trace_preserving
                and self.trace_norm_contractive
                and self.operator_norm_contractive)

    def as_dict(self) -> dict:
        return {**vars(self), **{name: getattr(self, name) for name in (
            "completely_positive", "trace_preserving",
            "trace_norm_contractive", "operator_norm_contractive", "passed")}}


def eis_check(gen: LindbladGenerator) -> EisReport:
    """Decide CP, trace preservation and both norm contractions of exp(tL)
    for every t >= 0, exactly, from L.

    * CP for all t iff the Choi matrix of L is positive semidefinite on the
      complement of the maximally entangled vector vec(I)/sqrt(d) (Wolf &
      Cirac, CMP 279, 147 (2008)): the d^2 - 1 eigenvalues of h C h without
      its first row and column, h the Householder reflection taking
      vec(I)/sqrt(d) to -e_0, which moves only the entries of vec(I).
    * Trace preservation iff L*(I) = 0.
    * A positive map has trace norm ||T_t*(I)|| and operator norm ||T_t(I)||
      (Russo & Dye, Duke Math. J. 33, 413 (1966)), and d/dt T_t(I) =
      T_t(L(I)): T_t(I) <= I for all t iff L(I) <= 0, and a positive
      eigenvalue of L(I) gives ||T_t(I)|| > 1 at small t.  Likewise for
      T_t*(I) and L*(I).  So these two decide contraction for a CP L.
    """
    d = gen.dim
    M = build_superoperator(gen)
    C = choi_matrix(M)
    D = np.arange(d) * (d + 1)  # the entries of vec(I)
    s = 1.0 / math.sqrt(d)
    w = np.full(d, s)  # h = I - w w^T / (1 + s) on D, with w^T w = 2 + 2s
    w[0] += 1.0
    reflect = lambda X: X - np.outer(w, s * X.sum(axis=0) + X[0]) / (1.0 + s)
    C[D] = reflect(C[D])
    C[:, D] = reflect(C[:, D].T).T
    # zheevd, the LAPACK routine numpy's eigvalsh calls, on scipy's library
    choi, trace, unital = (
        scipy.linalg.eigh(A, eigvals_only=True, driver="evd") for A in (
            C[1:, 1:], apply_generator_adjoint(gen, np.eye(d)),
            apply_generator(gen, np.eye(d))))
    return EisReport(
        float(choi[0]) if d > 1 else 0.0,  # d = 1: L = 0, no complement
        float(np.abs(trace).max()), float(trace[-1]), float(unital[-1]),
        d * d * np.finfo(float).eps * float(scipy.linalg.norm(M.ravel())))
