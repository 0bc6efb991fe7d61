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
superoperator is M = I (x) K + conj(K) (x) I + mat(Phi).  The map Phi can be
given in four ways:

* jump list        Phi(rho) = sum_k V_k rho V_k^dag
* Hadamard kernel  Phi(rho)(x, y) = C(x, y) rho(x, y)  with C(x, x) = 0,
                   so G = diag(conj C) = 0 and L = Phi
* explicit CP map  Phi given by its d^2 x d^2 matrix S
* coherent measure Phi(rho) = kappa int dmu(zeta) e_zeta rho e_zeta over the
                   SU(1,1) coherent states, compressed to the lowest d Fock
                   levels, plus a diagonal trace compensator; held matrix
                   free through the selection rule m + q = n + p, so G and
                   lambda never touch a d^2 x d^2 array, and mat(Phi) is
                   scattered from its O(d^3) allowed entries

A purely Hamiltonian generator is a jump list with no operators.  The
environment-induced-semigroup check (eis_check) reads the Choi matrix of
exp(tL) off its superoperator matrix by a reshuffle of entries.

Products and factorisations of superoperator-sized matrices (M, its blocks,
exp(tL)) run on scipy's BLAS and LAPACK (_gemm, _gemv, _svdvals, _expm), so
that such a run wakes one BLAS thread pool, not numpy's as well.
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

from .operators import (
    DimensionMismatchError,
    ValidationError,
    is_hermitian,
    projector,
    random_density_matrix,
    random_hermitian,
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


def vec(A: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(A, dtype=complex).reshape(-1, order="F")


def unvec(x: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(x.size)))
    return np.asarray(x, dtype=complex).reshape((d, d), order="F")


def _frozen_array(a, dtype=complex) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


# Each form of Phi offers apply (Phi), apply_adjoint (Phi*) and matrix
# (mat Phi) on general operators.  The sieve only ever feeds Phi a projector
# e = |psi><psi|, so each form also answers its two questions about one:
# rank1_expectation (<psi|Phi(e)|psi>, for lambda) and rank1_sym_action
# ((Phi + Phi*)(e) psi, for its gradient).  rank1_expectation takes a state
# (d,) or a stack of states (m, d) and returns one value per state.

class _JumpList:
    """Phi(X) = sum_k V_k X V_k^dag."""

    def __init__(self, dim: int, ops: tuple):
        self.dim = dim
        self.ops = ops
        self.adjoints = tuple(V.conj().T for V in ops)

    def apply(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for V, Vh in zip(self.ops, self.adjoints):
            out += V @ X @ Vh
        return out

    def apply_adjoint(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for V, Vh in zip(self.ops, self.adjoints):
            out += Vh @ X @ V
        return out

    def rank1_expectation(self, psi: np.ndarray) -> np.ndarray:
        """sum_k |<psi|V_k|psi>|^2."""
        out = np.zeros(psi.shape[:-1])
        for V in self.ops:
            out += np.abs(np.vecdot(psi, psi @ V.T)) ** 2
        return out

    def rank1_sym_action(self, psi: np.ndarray) -> np.ndarray:
        e = projector(psi)
        return (self.apply(e) + self.apply_adjoint(e)) @ psi

    def matrix(self) -> np.ndarray:
        """sum_k kron(conj V_k, V_k) in real arithmetic: each real term is
        symmetric, and the imaginary part of each term antisymmetric, under
        the transpose of both factors, entry for entry, so M[pi i, pi j] =
        conj(M[i, j]) holds exactly (see _HermitianBasis); numpy's complex
        product does not keep it."""
        d = self.dim
        M = np.zeros((d * d, d * d), dtype=complex)
        for V in self.ops:
            Vr, Vi = V.real, V.imag
            M.real += np.kron(Vr, Vr)
            if Vi.any():
                M.real += np.kron(Vi, Vi)
                antisymmetric = np.kron(Vr, Vi)
                antisymmetric -= np.kron(Vi, Vr)
                M.imag += antisymmetric
        return M


class _HadamardKernel:
    """Phi(X) = C * X entrywise."""

    def __init__(self, C: np.ndarray):
        self.C = C
        self.C_conj = C.conj()
        self.C_sym = C + self.C_conj
        self.C_real = np.ascontiguousarray(C.real)

    def apply(self, X: np.ndarray) -> np.ndarray:
        return self.C * X

    def apply_adjoint(self, X: np.ndarray) -> np.ndarray:
        return self.C_conj * X

    def rank1_expectation(self, psi: np.ndarray) -> np.ndarray:
        """p^T Re(C) p with p = |psi|^2; Re(C) is symmetric."""
        p = np.abs(psi) ** 2
        return np.vecdot(p, p @ self.C_real)

    def rank1_sym_action(self, psi: np.ndarray) -> np.ndarray:
        return (self.C_sym * projector(psi)) @ psi

    def matrix(self) -> np.ndarray:
        return np.diag(vec(self.C))


class _ExplicitCP:
    """Phi given by its d^2 x d^2 matrix S: vec(Phi(X)) = S vec(X)."""

    def __init__(self, S: np.ndarray):
        self.S = S

    @cached_property
    def sym(self) -> np.ndarray:
        """S + S^dag, cached as a contiguous complex array so that each
        lambda+gradient evaluation in a descent costs one matvec."""
        S = self.S
        return np.ascontiguousarray(S + S.conj().T, dtype=complex)

    def apply(self, X: np.ndarray) -> np.ndarray:
        return unvec(self.S @ vec(X))

    def apply_adjoint(self, X: np.ndarray) -> np.ndarray:
        # S^dag x = conj(x^dag S); avoids a conjugated d^2 x d^2 copy of S
        return unvec((vec(X).conj() @ self.S).conj())

    def rank1_expectation(self, psi: np.ndarray) -> np.ndarray:
        """vec(e)^dag S vec(e), with vec(e)[n d + m] = psi_m conj(psi_n)."""
        d = psi.shape[-1]
        x = (psi.conj()[..., :, None] * psi[..., None, :]).reshape(
            psi.shape[:-1] + (d * d,))
        return np.vecdot(x, x @ self.S.T).real

    def rank1_sym_action(self, psi: np.ndarray) -> np.ndarray:
        return unvec(self.sym @ vec(projector(psi))) @ psi

    def matrix(self) -> np.ndarray:
        return self.S


class _CoherentMeasure:
    """Phi = Phi_J + Phi_C: the jump integral X -> kappa int dmu(zeta)
    e_zeta X e_zeta compressed to the lowest N levels, plus the trace
    compensator Phi_C(X) = diag(plan^T diag X).

    In the Fock basis Phi_J(X)[m, n] = sum_pq T[m, n, p, q] X[p, q].  The
    angular integral forces m + q = n + p and the radial one is the Beta
    integral int_0^1 (1-u)^2 u^s du = 2 / ((s+1)(s+2)(s+3)), s = m + q, so
    T = r_m r_n r_p r_q w_s on its O(N^3) allowed entries, with
    r_n = sqrt(n+1) and w_s = 2 kappa / ((s+1)(s+2)(s+3)) for s < 2N - 1.
    Hence Phi_J(X)[m, n] = r_m r_n sum_s w_s (rXr)[s-n, s-m]; Phi_J is real
    and self-adjoint.  On e = |psi><psi|, with a = r psi and its
    self-convolution c = a * a, <psi|Phi_J(e)|psi> = sum_s w_s |c_s|^2 and
    Phi_J(e) psi = r (w c correlated with a): O(N^2) per evaluation.
    """

    def __init__(self, dim: int, kappa: float, plan: np.ndarray):
        self.dim = dim
        self.kappa = kappa
        self.plan = plan
        self.plan_sym = plan + plan.T
        n = np.arange(dim)
        self.r = np.sqrt(n + 1.0)
        s = np.arange(2 * dim - 1, dtype=float)
        self.w = 2.0 * kappa / ((s + 1) * (s + 2) * (s + 3))
        # Phi_J(X)[m, n] = r_m r_n sum_j w_{m+j} B[j+k, j] with B = rXr and
        # k = m - n: a Hankel matrix against the diagonals of B
        self._hankel = self.w[n[:, None] + n[None, :]]
        rows = np.arange(1 - dim, dim)[:, None] + n[None, :]
        self._diag_in = (rows >= 0) & (rows < dim)
        self._diag_rows = np.clip(rows, 0, dim - 1)
        self._diag_offset = n[:, None] - n[None, :] + dim - 1

    def _jump(self, X: np.ndarray) -> np.ndarray:
        n = np.arange(self.dim)
        B = self.r[:, None] * X * self.r[None, :]
        diags = np.where(self._diag_in, B[self._diag_rows, n], 0.0)
        Z = self._hankel @ diags.T
        return (self.r[:, None] * Z[n[:, None], self._diag_offset]
                * self.r[None, :])

    def apply(self, X: np.ndarray) -> np.ndarray:
        return self._jump(X) + np.diag(self.plan.T @ np.diag(X))

    def apply_adjoint(self, X: np.ndarray) -> np.ndarray:
        return self._jump(X) + np.diag(self.plan @ np.diag(X))

    def rank1_expectation(self, psi: np.ndarray) -> np.ndarray:
        # the self-convolution c = a * a of every row: a cyclic one of
        # length 2N >= 2N - 1 is the linear one, one FFT pair for the stack
        N = self.dim
        c = np.fft.ifft(np.fft.fft(self.r * psi, 2 * N) ** 2)[..., :2 * N - 1]
        p = np.abs(psi) ** 2
        return np.abs(c) ** 2 @ self.w + np.vecdot(p, p @ self.plan.T)

    def rank1_sym_action(self, psi: np.ndarray) -> np.ndarray:
        a = self.r * psi
        c = np.convolve(a, a)
        p = np.abs(psi) ** 2
        return (2.0 * self.r * np.correlate(self.w * c, a, "valid")
                + (self.plan_sym @ p) * psi)

    def matrix(self) -> np.ndarray:
        """Dense mat(Phi), real: the allowed entries of T scattered into
        place, plus the compensator on the population block."""
        N = self.dim
        m, n, p = np.indices((N, N, N)).reshape(3, -1)
        q = n + p - m
        keep = (q >= 0) & (q < N)
        m, n, p, q = m[keep], n[keep], p[keep], q[keep]
        s = m + q
        S = np.zeros((N * N, N * N))
        # vec is column stacked: entry (m, n) sits at index n*N + m, so the
        # slot for output (m, n) from input (p, q) is [nN+m, qN+p]
        S[n * N + m, q * N + p] = self.kappa * (
            np.sqrt((m + 1) * (n + 1) * (p + 1) * (q + 1))
            * 2.0 / ((s + 1) * (s + 2) * (s + 3)))
        diag_idx = np.arange(N) * (N + 1)
        S[np.ix_(diag_idx, diag_idx)] += self.plan.T
        return S


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
    return K @ rho + rho @ K.conj().T + gen._phi.apply(rho)


def apply_generator_adjoint(gen: LindbladGenerator, A) -> np.ndarray:
    """HS-adjoint L*(A) = K^dag A + A K + Phi*(A)."""
    A = _check_dim(gen, A)
    K = gen._K
    return K.conj().T @ A + A @ K + gen._phi.apply_adjoint(A)


def build_superoperator(gen: LindbladGenerator) -> np.ndarray:
    """Dense d^2 x d^2 matrix M with M vec(rho) = vec(L(rho)), built on first
    use and kept, read-only, on the generator; it owns its data (np.kron
    returns a view), so _block_structure keeps the structure found for it."""
    if gen._M is None:
        d, I, K = gen.dim, np.eye(gen.dim), gen._K
        M = np.empty((d * d, d * d), dtype=complex)
        np.multiply(I[:, None, :, None], K[None, :, None, :],
                    out=M.reshape(d, d, d, d))
        M += np.kron(K.conj(), I)
        M += gen._phi.matrix()
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
    the basis of Hermitian operators on its entries (see _to_real); the
    other blocks of the group are general.
    """

    def __init__(self, S: np.ndarray, group: np.ndarray, d: int):
        m, s = group.shape
        to = _transpose_map(group, d)
        perm = to % s  # where each entry goes in its image block
        own = np.flatnonzero((to // s == np.arange(m)[:, None]).all(axis=1))
        p = perm[own]
        mirrored = S[own[:, None, None], p[:, :, None], p[:, None, :]]
        mirrored.imag *= -1
        real = own[(mirrored == S[own]).all(axis=(1, 2))]
        self.general = np.ones(m, dtype=bool)
        self.general[real] = False
        # grouped by involution; per involution the blocks, their rows in
        # the stack of all of them (blocks), its fixed entries F and its
        # pairs (P, Q = perm(P)) with P < Q
        by_perm = {}
        for block in real:
            by_perm.setdefault(perm[block].tobytes(), []).append(block)
        self.blocks = np.array(sum(by_perm.values(), []), dtype=int)
        self.frames, start, i = [], 0, np.arange(s)
        for blocks in map(np.array, by_perm.values()):
            p = perm[blocks[0]]
            P = np.flatnonzero(p > i)
            self.frames.append((blocks, slice(start, start + len(blocks)),
                                np.flatnonzero(p == i), P, p[P]))
            start += len(blocks)


def _hermitian_basis(M: np.ndarray,
                     group: np.ndarray) -> _HermitianBasis | None:
    """The blocks of a group that are factorised in real arithmetic, or None
    if there are none.  Blocks whose product takes at most _UNTHREADED_MACS
    multiply-adds (s <= 32) stay complex, as _expm hands their stacks to
    scipy whole: there the change of basis costs more than it saves (one
    block of 16, custom d = 4: propagator 89 -> 269 us with it; two blocks
    of 128, QBM N = 16: 25 -> 12 ms; 2-core machine, one BLAS thread)."""
    if group.shape[1] ** 3 <= _UNTHREADED_MACS:
        return None
    basis = _HermitianBasis(_stack(M, group), group, math.isqrt(len(M)))
    return basis if basis.blocks.size else None


#: the _block_structure of each read-only M that owns its data, by id(M),
#: with a weak reference to M whose callback drops the entry when M dies
_STRUCTURES: dict = {}


def _block_structure(M: np.ndarray) -> tuple:
    """The (group, _hermitian_basis) pair of each group of
    superoperator_blocks(M), for the split, its verification, the kernel
    and the propagator of M.  Kept for an M that owns its data and is
    read-only, as build_superoperator's is, which nothing changes without
    first making it writable; found afresh for every other M."""
    kept = _STRUCTURES.get(id(M))
    if kept is not None and kept[0]() is M:
        return kept[1]
    structure = tuple((group, _hermitian_basis(M, group))
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

def _to_real(S: np.ndarray, basis: _HermitianBasis) -> np.ndarray:
    """U^H B U of the blocks B of the group's stack S that basis holds, in
    the order basis.blocks, in real arithmetic from the entries of B."""
    R = np.empty((len(basis.blocks),) + S.shape[1:])
    r = np.sqrt(2.0)
    for blocks, rows, F, P, Q in basis.frames:
        if not P.size:  # only E_aa: U is the identity
            R[rows] = S[blocks].real
            continue
        B = lambda X, Y: S[blocks[:, None, None], X[:, None], Y]
        FP, PF, PP, PQ = B(F, P), B(P, F), B(P, P), B(P, Q)
        f, c, e = _frame_slices(F, P)
        Rw = R[rows]
        Rw[:, f, f] = B(F, F).real
        Rw[:, f, c] = r * FP.real
        Rw[:, f, e] = -r * FP.imag
        Rw[:, c, f] = r * PF.real
        Rw[:, e, f] = r * PF.imag
        Rw[:, c, c] = PP.real + PQ.real
        Rw[:, c, e] = PQ.imag - PP.imag
        Rw[:, e, c] = PP.imag + PQ.imag
        Rw[:, e, e] = PP.real - PQ.real
    return R


def _from_real(X: np.ndarray, basis: _HermitianBasis,
               both: bool = True) -> np.ndarray:
    """U X U^H (or U X alone) of each real slice of a stack in the Hermitian
    bases of the blocks basis.blocks: back in the basis of M."""
    Z = np.zeros(X.shape, dtype=complex)
    r = np.sqrt(0.5)
    for _, rows, F, P, Q in basis.frames:
        f, c, e = _frame_slices(F, P)
        Xw, Zr, Zi = X[rows], Z.real[rows], Z.imag[rows]
        if not P.size:  # only E_aa: U is the identity
            Zr[:] = Xw
            continue
        if not both:
            Zr[:, F] = Xw[:, f]
            Zr[:, P] = Zr[:, Q] = r * Xw[:, c]
            Zi[:, P] = r * Xw[:, e]
            Zi[:, Q] = -r * Xw[:, e]
            continue
        xcc, xce = Xw[:, c, c], Xw[:, c, e]
        xec, xee = Xw[:, e, c], Xw[:, e, e]
        for rows_, cols, re, im in (
                (F, F, Xw[:, f, f], 0.0),
                (F, P, r * Xw[:, f, c], -r * Xw[:, f, e]),
                (F, Q, r * Xw[:, f, c], r * Xw[:, f, e]),
                (P, F, r * Xw[:, c, f], r * Xw[:, e, f]),
                (Q, F, r * Xw[:, c, f], -r * Xw[:, e, f]),
                (P, P, 0.5 * (xcc + xee), 0.5 * (xec - xce)),
                (P, Q, 0.5 * (xcc - xee), 0.5 * (xec + xce)),
                (Q, P, 0.5 * (xcc - xee), -0.5 * (xec + xce)),
                (Q, Q, 0.5 * (xcc + xee), -0.5 * (xec - xce))):
            Zr[:, rows_[:, None], cols] = re
            Zi[:, rows_[:, None], cols] = im
    return Z


def _frame_slices(F: np.ndarray, P: np.ndarray) -> tuple:
    """The places of the E_aa, the symmetric and the antisymmetric
    elements in the Hermitian basis [F, C, E]."""
    nf, n = len(F), len(F) + len(P)
    return slice(0, nf), slice(nf, n), slice(n, n + len(P))


def _map_blocks(f, S: np.ndarray, basis: _HermitianBasis | None
                ) -> np.ndarray:
    """f of each block of the stack S of a group of blocks of M, for a stack
    function f that commutes with unitary similarity, as exp(tM) does: on
    the blocks of basis (the group's _hermitian_basis) in real arithmetic,
    on the others as they are."""
    if basis is None:
        return f(S)
    out = np.empty(S.shape, dtype=complex)
    if basis.general.any():
        out[basis.general] = f(S[basis.general])
    out[basis.blocks] = _from_real(f(_to_real(S, basis)), basis)
    return out


def _gemm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B on scipy's BLAS.  zgemm (dgemm for two real matrices) on the
    transposes is the column-major call that numpy's row-major matmul makes,
    so the bits are numpy's; like numpy, a B of one column takes a
    matrix-vector product."""
    if B.shape[1] == 1:
        return _gemv(A, B[:, 0])[:, None]
    blas = scipy.linalg.blas
    gemm = blas.dgemm if _real(A, B) else blas.zgemm
    return gemm(1.0, B.T, A.T).T


def _gemv(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x on scipy's BLAS, in the orientation numpy takes for A's memory
    layout (see _gemm)."""
    gemv = scipy.linalg.blas.dgemv if _real(A, x) \
        else scipy.linalg.blas.zgemv
    if A.flags.f_contiguous and not A.flags.c_contiguous:
        return gemv(1.0, A, x)
    return gemv(1.0, A.T, x, trans=1)


def _real(*arrays) -> bool:
    return all(a.dtype == np.float64 for a in arrays)


#: multiply-adds of a complex matrix product up to which OpenBLAS stays on
#: the calling thread: 32 x 32 x 32 products never woke a pool in
#: measurements on a 2-core machine (OpenBLAS 0.3.30 and 0.3.31), 40 x 40 x
#: 40 ones sometimes did.  Below it a product wakes no pool in either
#: library, and one stacked numpy matmul costs less than a BLAS call per
#: slice.
_UNTHREADED_MACS = 32 ** 3


def _stacked_gemm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for an (m, s, s) and an (m, s, c) stack: one zgemm per slice,
    or one numpy matmul for slices below _UNTHREADED_MACS."""
    if A.shape[-1] ** 2 * B.shape[-1] <= _UNTHREADED_MACS:
        return A @ B
    return np.stack([_gemm(a, b) for a, b in zip(A, B)])


def _svdvals(A: np.ndarray) -> np.ndarray:
    """Singular values of each slice of a (..., s, s) stack: LAPACK zgesdd,
    which np.linalg.svd calls, on scipy's library, with one workspace query
    for the stack."""
    s = A.shape[-1]
    work, _ = scipy.linalg.lapack.zgesdd_lwork(s, s, compute_uv=0)
    out = np.empty(A.shape[:-1])
    for B, sv in zip(A.reshape(-1, s, s), out.reshape(-1, s)):
        _, sv[:], _, info = scipy.linalg.lapack.zgesdd(
            B, compute_uv=0, lwork=int(work.real))
        if info:
            raise np.linalg.LinAlgError("SVD did not converge")
    return out


def _expm(A: np.ndarray) -> np.ndarray:
    """exp of each slice of an (m, s, s) real or complex stack:
    scipy.linalg.expm (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970
    (2009)) bit for bit, with the squarings it does on numpy's matmul done
    on _gemm.
    Triangular slices, which scipy squares by a path of its own, and stacks
    below _UNTHREADED_MACS go to scipy whole.
    """
    s = A.shape[-1]
    if s ** 3 <= _UNTHREADED_MACS:
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
    return E


def propagator(gen: LindbladGenerator, t: float) -> np.ndarray:
    """Superoperator matrix of T_t = exp(tL) (scaling-and-squaring Pade, one
    stack of equal-size blocks of M at a time).  A block of more than 32
    rows that X -> X^T carries onto its own conjugate is exponentiated in
    real arithmetic in its Hermitian basis (see _hermitian_basis); every
    other block as it is.  The blocks and their bases are found once per
    generator (see _block_structure)."""
    if t < 0:
        raise ValidationError("the semigroup is defined for t >= 0 only")
    M = build_superoperator(gen)
    E = np.zeros(M.shape, dtype=complex)
    for group, basis in _block_structure(M):
        E[group[:, :, None], group[:, None, :]] = _map_blocks(
            lambda A: _expm(t * A), _stack(M, group), basis)
    return E


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
    every other form goes through the dense propagator.
    """
    if t < 0:
        raise ValidationError("the semigroup is defined for t >= 0 only")
    C = _entrywise_kernel(gen)
    if C is not None:
        E = np.exp(t * C)
        return lambda A: E * np.asarray(A, dtype=complex)
    P = propagator(gen, t)
    return lambda A: unvec(_gemv(P, vec(A)))


def steady_state(gen: LindbladGenerator, rho: np.ndarray,
                 t_ref: float) -> np.ndarray:
    """Long-time limit of T_t rho by power iteration of a fixed-time channel.

    A Hamiltonian-free Hadamard-kernel semigroup converges entrywise to the
    mask of kernel zeros, so the limit is available in closed form there.
    """
    C = _entrywise_kernel(gen)
    if C is not None:
        return rho * (C == 0.0)
    P = propagator(gen, t_ref)
    v = vec(rho)
    for _ in range(10_000):
        nxt = _gemv(P, v)
        if np.linalg.norm(nxt - v) <= 1e-13:
            return unvec(nxt)
        v = nxt
    raise RuntimeError("steady-state power iteration did not converge; "
                       "the semigroup may have an oscillating peripheral part")


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


#: EisReport's bounds on -(least Choi eigenvalue), trace error, norm growth
CHOI_TOL = 1e-8
TRACE_TOL = 1e-10
CONTRACTION_TOL = 1e-9


@dataclass(frozen=True)
class EisReport:
    """Numeric evidence that exp(tL) is an environment-induced semigroup."""

    min_choi_eigenvalue: float
    max_trace_deviation: float
    max_trace_norm_growth: float
    max_operator_norm_growth: float
    times: tuple

    @property
    def completely_positive(self) -> bool:
        return self.min_choi_eigenvalue >= -CHOI_TOL

    @property
    def trace_preserving(self) -> bool:
        return self.max_trace_deviation <= TRACE_TOL

    @property
    def trace_norm_contractive(self) -> bool:
        return self.max_trace_norm_growth <= CONTRACTION_TOL

    @property
    def operator_norm_contractive(self) -> bool:
        return self.max_operator_norm_growth <= CONTRACTION_TOL

    @property
    def passed(self) -> bool:
        return (self.completely_positive and self.trace_preserving
                and self.trace_norm_contractive
                and self.operator_norm_contractive)

    def as_dict(self) -> dict:
        return {
            "min_choi_eigenvalue": self.min_choi_eigenvalue,
            "max_trace_deviation": self.max_trace_deviation,
            "max_trace_norm_growth": self.max_trace_norm_growth,
            "max_operator_norm_growth": self.max_operator_norm_growth,
            "times": list(self.times),
            "completely_positive": self.completely_positive,
            "trace_preserving": self.trace_preserving,
            "trace_norm_contractive": self.trace_norm_contractive,
            "operator_norm_contractive": self.operator_norm_contractive,
            "passed": self.passed,
        }


def eis_check(gen: LindbladGenerator, n_samples: int = 10,
              times=(0.1, 1.0, 5.0), seed: int = 0) -> EisReport:
    """Verify CP, trace preservation and both norm contractions numerically.

    Each time takes one propagator P: the Choi matrix is a reshuffle of P,
    and one product with P maps every sample state and Hermitian operator.
    The identity is among the Hermitian operators: a positive trace
    preserving map contracts the operator norm iff it maps I to I (Russo &
    Dye, Duke Math. J. 33, 413 (1966)), so ||T_t(I)|| - 1 shows a map that
    is not unital, which random samples miss.
    """
    rng = np.random.default_rng(seed)
    d, n = gen.dim, n_samples
    rhos = [random_density_matrix(d, rng) for _ in range(n)]
    herms = [random_hermitian(d, rng) for _ in range(n)] + [np.eye(d)]
    A = np.array(rhos + herms, dtype=complex).reshape(2 * n + 1, d, d)
    X = A.transpose(2, 1, 0).reshape(d * d, 2 * n + 1)  # column k: vec(A[k])

    min_choi = np.inf
    outs = np.empty((len(times), 2 * n + 1, d, d), dtype=complex)
    for i, t in enumerate(times):
        P = propagator(gen, t)
        # zheevd, the LAPACK routine numpy's eigvalsh calls
        min_choi = min(min_choi, float(scipy.linalg.eigh(
            choi_matrix(P), eigvals_only=True, driver="evd").min()))
        outs[i] = _gemm(P, X).reshape(d, d, 2 * n + 1).transpose(2, 1, 0)
    traces = np.trace(outs[:, :n], axis1=2, axis2=3).real
    # singular values of the Hermitian operators, then of their images
    sv = _svdvals(np.concatenate([A[None, n:], outs[:, n:]]))
    trace_norms, operator_norms = sv.sum(axis=-1), sv[..., 0]
    return EisReport(
        min_choi,
        float(np.abs(traces - 1.0).max(initial=0.0)),
        float((trace_norms[1:] - trace_norms[0]).max(initial=-np.inf)),
        float((operator_norms[1:] - operator_norms[0]).max(initial=-np.inf)),
        tuple(times))
