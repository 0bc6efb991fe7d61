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
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

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
    "adjoint_semigroup",
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
# ((Phi + Phi*)(e) psi, for its gradient).

class _Form:
    """rank1_expectation through apply, for forms with no cheaper route."""

    def rank1_expectation(self, psi: np.ndarray) -> float:
        return np.vdot(psi, self.apply(projector(psi)) @ psi).real


class _JumpList(_Form):
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

    def rank1_sym_action(self, psi: np.ndarray) -> np.ndarray:
        e = projector(psi)
        return (self.apply(e) + self.apply_adjoint(e)) @ psi

    def matrix(self) -> np.ndarray:
        d = self.dim
        M = np.zeros((d * d, d * d), dtype=complex)
        for V in self.ops:
            M += np.kron(V.conj(), V)
        return M


class _HadamardKernel(_Form):
    """Phi(X) = C * X entrywise."""

    def __init__(self, C: np.ndarray):
        self.C = C
        self.C_conj = C.conj()
        self.C_sym = C + self.C_conj

    def apply(self, X: np.ndarray) -> np.ndarray:
        return self.C * X

    def apply_adjoint(self, X: np.ndarray) -> np.ndarray:
        return self.C_conj * X

    def rank1_sym_action(self, psi: np.ndarray) -> np.ndarray:
        return (self.C_sym * projector(psi)) @ psi

    def matrix(self) -> np.ndarray:
        return np.diag(vec(self.C))


class _ExplicitCP(_Form):
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

    def rank1_expectation(self, psi: np.ndarray) -> float:
        a = self.r * psi
        c = np.convolve(a, a)
        p = np.abs(psi) ** 2
        return float(self.w @ np.abs(c) ** 2 + p @ self.plan @ p)

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
    M and its blocks are built on first use and kept, read-only, in ``_M``
    and ``_blocks``.
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
        object.__setattr__(self, "_blocks", None)


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
    use and kept, read-only, on the generator."""
    if gen._M is None:
        I = np.eye(gen.dim)
        K = gen._K
        M = np.kron(I, K)
        M += np.kron(K.conj(), I)
        M += gen._phi.matrix()
        M.setflags(write=False)
        object.__setattr__(gen, "_M", M)
    return gen._M


def superoperator_blocks(M: np.ndarray) -> tuple:
    """The diagonal blocks of M grouped by size: one (m, s) index array per
    block size s, whose rows are the m blocks of that size in order of their
    smallest index.  The blocks are the connected components of the graph
    with an edge i - j wherever M[i, j] or M[j, i] is nonzero.

    The entries between blocks are structural zeros, so every dense
    factorisation of M splits exactly into one per block, and blocks of one
    size stack into one call.  A matrix with no such structure is one block.
    """
    # imported on first use: the sieve and lambda paths never factorise M
    import scipy.sparse.csgraph

    # the CSR pattern of M, with float weights so that connected_components
    # takes it without a conversion
    M = np.asarray(M)
    rows, cols = np.nonzero(M)
    indptr = np.searchsorted(rows, np.arange(M.shape[0] + 1))
    graph = scipy.sparse.csr_array((np.ones(rows.size), cols.copy(), indptr),
                                   shape=M.shape)
    _, labels = scipy.sparse.csgraph.connected_components(graph,
                                                          directed=False)
    # components are labelled in order of their smallest index; the sort by
    # block size, then block, is stable, so each block keeps its indices in
    # increasing order
    sizes = np.bincount(labels)
    order = np.lexsort((labels, sizes[labels]))
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


def adjoint_semigroup(gen: LindbladGenerator) -> np.ndarray:
    """Superoperator of the HS-adjoint generator (conjugate transpose of M)."""
    return build_superoperator(gen).conj().T


def propagator(gen: LindbladGenerator, t: float) -> np.ndarray:
    """Superoperator matrix of T_t = exp(tL) (scaling-and-squaring Pade, one
    stack of equal-size blocks of M at a time)."""
    if t < 0:
        raise ValidationError("the semigroup is defined for t >= 0 only")
    M = build_superoperator(gen)
    if gen._blocks is None:
        object.__setattr__(gen, "_blocks", superoperator_blocks(M))
    E = np.zeros(M.shape, dtype=complex)
    for group in gen._blocks:
        E[group[:, :, None], group[:, None, :]] = \
            scipy.linalg.expm(t * _stack(M, group))
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
    return lambda A: unvec(P @ vec(A))


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
        nxt = P @ v
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


@dataclass(frozen=True)
class EisReport:
    """Numeric evidence that exp(tL) is an environment-induced semigroup."""

    min_choi_eigenvalue: float
    max_trace_deviation: float
    max_trace_norm_growth: float
    max_operator_norm_growth: float
    times: tuple

    choi_tol: float = 1e-8
    trace_tol: float = 1e-10
    contraction_tol: float = 1e-9

    @property
    def completely_positive(self) -> bool:
        return self.min_choi_eigenvalue >= -self.choi_tol

    @property
    def trace_preserving(self) -> bool:
        return self.max_trace_deviation <= self.trace_tol

    @property
    def trace_norm_contractive(self) -> bool:
        return self.max_trace_norm_growth <= self.contraction_tol

    @property
    def operator_norm_contractive(self) -> bool:
        return self.max_operator_norm_growth <= self.contraction_tol

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
    """
    rng = np.random.default_rng(seed)
    d, n = gen.dim, n_samples
    rhos = [random_density_matrix(d, rng) for _ in range(n)]
    herms = [random_hermitian(d, rng) for _ in range(n)]
    A = np.array(rhos + herms, dtype=complex).reshape(2 * n, d, d)
    X = A.transpose(2, 1, 0).reshape(d * d, 2 * n)  # column k is vec(A[k])

    min_choi = np.inf
    outs = np.empty((len(times), 2 * n, d, d), dtype=complex)
    for i, t in enumerate(times):
        P = propagator(gen, t)
        min_choi = min(min_choi,
                       float(np.linalg.eigvalsh(choi_matrix(P)).min()))
        outs[i] = (P @ X).reshape(d, d, 2 * n).transpose(2, 1, 0)
    traces = np.trace(outs[:, :n], axis1=2, axis2=3).real
    # singular values of the Hermitian operators, then of their images
    sv = np.linalg.svd(np.concatenate([A[None, n:], outs[:, n:]]),
                       compute_uv=False)
    trace_norms, operator_norms = sv.sum(axis=-1), sv[..., 0]
    return EisReport(
        min_choi,
        float(np.abs(traces - 1.0).max(initial=0.0)),
        float((trace_norms[1:] - trace_norms[0]).max(initial=-np.inf)),
        float((operator_norms[1:] - operator_norms[0]).max(initial=-np.inf)),
        tuple(times))
