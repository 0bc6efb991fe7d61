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

from .operators import (
    DimensionMismatchError,
    ValidationError,
    _gemm,
    _gemv,
    _matmul,
    _matvecs,
    _real,
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
# (mat Phi) on general operators.  The sieve only ever feeds Phi rank-1
# operators, so each form also answers its three questions about them:
# rank1_expectation (<psi|Phi(e)|psi> with e = |psi><psi|, for lambda),
# rank1_sym_action ((Phi + Phi*)(e) psi, for its gradient) and rank1_element
# (<u|Phi(|x><y|)|v>, for lambda on the span of two states).  Each takes
# states (d,) or stacks of them (m, d) and answers for each row, without
# forming the operator.  rank1_sym_action computes each row of a stack as it
# would that state alone (products by operators._matvecs, convolutions row by
# row), so a row's bits do not depend on the rows around it.

class _JumpList:
    """Phi(X) = sum_k V_k X V_k^dag."""

    def __init__(self, dim: int, ops: tuple):
        self.dim = dim
        self.ops = ops
        self.adjoints = tuple(V.conj().T for V in ops)

    @cached_property
    def stacked(self) -> np.ndarray:
        """(V_1; ...; V_k; V_1^dag; ...; V_k^dag) as one (2 k d, d) matrix,
        built on first use: one product gives every V_k psi and V_k^dag
        psi."""
        return np.concatenate(self.ops + self.adjoints) if self.ops \
            else np.zeros((0, self.dim), dtype=complex)

    def apply(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for V, Vh in zip(self.ops, self.adjoints):
            out += _matmul(_matmul(V, X), Vh)
        return out

    def apply_adjoint(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for V, Vh in zip(self.ops, self.adjoints):
            out += _matmul(_matmul(Vh, X), V)
        return out

    def rank1_expectation(self, psi: np.ndarray) -> np.ndarray:
        """sum_k |<psi|V_k|psi>|^2."""
        out = np.zeros(psi.shape[:-1])
        for V in self.ops:
            out += np.abs(np.vecdot(psi, _matmul(psi, V.T))) ** 2
        return out

    def rank1_sym_action(self, psi: np.ndarray) -> np.ndarray:
        """sum_k conj(a_k) V_k psi + a_k V_k^dag psi with a_k = <psi|V_k psi>:
        O(k d^2) per state."""
        k = len(self.ops)
        y = _matvecs(self.stacked, psi).reshape(
            psi.shape[:-1] + (2 * k, self.dim))
        a = np.vecdot(psi[..., None, :], y[..., :k, :])
        coef = np.concatenate([a.conj(), a], axis=-1)
        return np.add.reduce(coef[..., None] * y, axis=-2)

    def rank1_element(self, x, y, u, v) -> np.ndarray:
        """sum_k <u|V_k x> conj(<v|V_k y>)."""
        k = len(self.ops)
        ops = self.stacked[:k * self.dim]

        def amplitudes(a, b):   # <a|V_k b> for every k
            vb = _matvecs(ops, b).reshape(b.shape[:-1] + (k, self.dim))
            return np.vecdot(a[..., None, :], vb)
        return np.vecdot(amplitudes(v, y), amplitudes(u, x))

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
        self.C_real = np.ascontiguousarray(C.real)
        # C + conj(C), real
        self.C_sym = 2.0 * self.C_real

    def apply(self, X: np.ndarray) -> np.ndarray:
        return self.C * X

    def apply_adjoint(self, X: np.ndarray) -> np.ndarray:
        return self.C_conj * X

    def rank1_expectation(self, psi: np.ndarray) -> np.ndarray:
        """p^T Re(C) p with p = |psi|^2; Re(C) is symmetric."""
        p = np.abs(psi) ** 2
        return np.vecdot(p, _matmul(p, self.C_real))

    def rank1_sym_action(self, psi: np.ndarray) -> np.ndarray:
        """psi * (C_sym p) with p = |psi|^2."""
        return psi * _matvecs(self.C_sym, np.abs(psi) ** 2)

    def rank1_element(self, x, y, u, v) -> np.ndarray:
        """sum_pq conj(u_p) x_p C_pq conj(y_q) v_q."""
        return np.vecdot(u * x.conj(), _matvecs(self.C, y.conj() * v))

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
        return unvec(_matmul(self.S, vec(X)))

    def apply_adjoint(self, X: np.ndarray) -> np.ndarray:
        # S^dag x = conj(x^dag S); avoids a conjugated d^2 x d^2 copy of S
        return unvec(_matmul(vec(X).conj(), self.S).conj())

    @staticmethod
    def _vec_outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """vec(|x><y|) of each row: vec(|x><y|)[n d + m] = x_m conj(y_n)."""
        d = x.shape[-1]
        return (y.conj()[..., :, None] * x[..., None, :]).reshape(
            x.shape[:-1] + (d * d,))

    def rank1_expectation(self, psi: np.ndarray) -> np.ndarray:
        """vec(e)^dag S vec(e)."""
        x = self._vec_outer(psi, psi)
        return np.vecdot(x, _matmul(x, self.S.T)).real

    def rank1_sym_action(self, psi: np.ndarray) -> np.ndarray:
        """Y psi with vec(Y) = sym vec(e); a row reshaped in C order is
        Y^T."""
        d = psi.shape[-1]
        Yt = _matvecs(self.sym, self._vec_outer(psi, psi)).reshape(
            psi.shape[:-1] + (d, d))
        return np.add.reduce(psi[..., :, None] * Yt, axis=-2)

    def rank1_element(self, x, y, u, v) -> np.ndarray:
        """vec(|u><v|)^dag S vec(|x><y|)."""
        return np.vecdot(self._vec_outer(u, v),
                         _matvecs(self.S, self._vec_outer(x, y)))

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
        Z = _matmul(self._hankel, diags.T)
        return (self.r[:, None] * Z[n[:, None], self._diag_offset]
                * self.r[None, :])

    def apply(self, X: np.ndarray) -> np.ndarray:
        return self._jump(X) + np.diag(_matmul(self.plan.T, np.diag(X)))

    def apply_adjoint(self, X: np.ndarray) -> np.ndarray:
        return self._jump(X) + np.diag(_matmul(self.plan, np.diag(X)))

    def rank1_expectation(self, psi: np.ndarray) -> np.ndarray:
        # the self-convolution c = a * a of every row: a cyclic one of
        # length 2N >= 2N - 1 is the linear one, one FFT pair for the stack
        N = self.dim
        c = np.fft.ifft(np.fft.fft(self.r * psi, 2 * N) ** 2)[..., :2 * N - 1]
        p = np.abs(psi) ** 2
        return (_matmul(np.abs(c) ** 2, self.w)
                + np.vecdot(p, _matmul(p, self.plan.T)))

    def rank1_sym_action(self, psi: np.ndarray) -> np.ndarray:
        """2 r (w c correlated with a) + (plan_sym p) psi.  Row by row: for
        one state np.convolve and np.correlate cost a third of the four FFTs
        that rank1_expectation's stacked route would take at N = 40."""
        a = self.r * psi
        corr = np.empty_like(a)
        for x, out in zip(a.reshape(-1, self.dim),
                          corr.reshape(-1, self.dim)):
            out[:] = np.correlate(self.w * np.convolve(x, x), x, "valid")
        return (2.0 * self.r * corr
                + _matvecs(self.plan_sym, np.abs(psi) ** 2) * psi)

    def rank1_element(self, x, y, u, v) -> np.ndarray:
        """sum_s w_s (rv * rx)_s conj((ru * ry)_s) for the jump part, the
        self-convolution's polarised form, plus the compensator's
        sum_m conj(u_m) v_m (plan^T (x conj(y)))_m; the convolutions are
        FFTs of length 2N for every row at once."""
        N = self.dim

        def conv(a, b):
            fa, fb = (np.fft.fft(self.r * c, 2 * N) for c in (a, b))
            return np.fft.ifft(fa * fb)[..., :2 * N - 1]
        return (np.vecdot(conv(u, y), self.w * conv(v, x))
                + np.vecdot(u * v.conj(), _matvecs(self.plan.T, x * y.conj())))

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
        # grouped by involution; per involution the rows of its blocks in
        # the stack of all of them (blocks), its fixed entries F and its
        # pairs (P, Q = perm(P)) with P < Q
        by_perm = {}
        for block in real:
            by_perm.setdefault(perm[block].tobytes(), []).append(block)
        self.blocks = np.array(sum(by_perm.values(), []), dtype=int)
        self.frames, start, i = [], 0, np.arange(s)
        for blocks in by_perm.values():
            p = perm[blocks[0]]
            P = np.flatnonzero(p > i)
            self.frames.append((slice(start, start + len(blocks)),
                                np.flatnonzero(p == i), P, p[P]))
            start += len(blocks)


def _hermitian_basis(M: np.ndarray,
                     group: np.ndarray) -> _HermitianBasis | None:
    """The blocks of a group that are factorised in real arithmetic, or None
    if there are none.  Blocks whose products OpenBLAS keeps on the calling
    thread (see _threaded: s <= 32) stay complex, as _expm hands their stacks to
    scipy whole: there the change of basis costs more than it saves (one
    block of 16, custom d = 4: propagator 89 -> 269 us with it; two blocks
    of 128, QBM N = 16: 25 -> 12 ms; 2-core machine, one BLAS thread)."""
    s = group.shape[1]
    if not _threaded(s, s, s):
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

def _rotate(X: np.ndarray, basis: _HermitianBasis,
            adjoint: bool = False) -> np.ndarray:
    """U X, or U^H X, of each slice of an (m, s, c) stack X of the blocks
    basis.blocks, in that order.  U X has the rows X_f at F and (X_c +- i
    X_e)/sqrt2 at P and Q, where X_f, X_c and X_e are the rows of the
    elements F, C and E; U^H takes them back."""
    Z = np.empty(X.shape, dtype=complex)
    r = math.sqrt(0.5)
    for rows, F, P, Q in basis.frames:
        Xw, Zw = X[rows], Z[rows]
        if adjoint:
            f, c, e = np.split(Zw, [len(F), len(F) + len(P)], axis=1)
            XP, XQ = Xw[:, P], Xw[:, Q]
            f[:] = Xw[:, F]
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


def _to_real(S: np.ndarray, basis: _HermitianBasis) -> np.ndarray:
    """U^H B U = (U^H (U^H B)^H)^H, real, of the blocks B of the group's
    stack S that basis holds, in the order basis.blocks."""
    R = _rotate(S[basis.blocks], basis, adjoint=True)
    R = _rotate(np.conjugate(R, out=R).swapaxes(1, 2), basis, adjoint=True)
    return np.ascontiguousarray(R.real.swapaxes(1, 2))


def _from_real(X: np.ndarray, basis: _HermitianBasis,
               both: bool = True) -> np.ndarray:
    """U X U^H = (U (U X)^H)^H (or U X alone) of each real slice of a stack
    in the Hermitian bases of the blocks basis.blocks: back in the basis of
    M."""
    Z = _rotate(X, basis)
    if both:
        Z = _rotate(np.conjugate(Z, out=Z).swapaxes(1, 2), basis)
        Z = np.conjugate(Z, out=Z).swapaxes(1, 2)
    return Z


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


def _stacked_gemm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for an (m, r, s) and an (m, s, c) stack: one numpy matmul for
    slices that OpenBLAS keeps on the calling thread, one _gemm per slice
    otherwise."""
    if not _threaded(A.shape[-2], A.shape[-1], B.shape[-1]):
        return A @ B
    return np.stack([_gemm(a, b) for a, b in zip(A, B)])


def _expm(A: np.ndarray) -> np.ndarray:
    """exp of each slice of an (m, s, s) real or complex stack:
    scipy.linalg.expm (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970
    (2009)) bit for bit, with the squarings it does on numpy's matmul done
    on _gemm.
    Triangular slices, which scipy squares by a path of its own, and stacks
    of slices whose products OpenBLAS would not thread go to scipy whole.
    """
    s = A.shape[-1]
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
