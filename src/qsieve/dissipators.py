"""The map Phi of a GKS-Lindblad generator, in each of the forms it can be
given (see liouville):

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

and the column-stacking vec by which mat(Phi) acts: vec(Phi(X)) =
mat(Phi) vec(X), so the map rho -> X rho Y has the matrix Y^T (x) X.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .operators import _matmul, _matvecs


def vec(A: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(A, dtype=complex).reshape(-1, order="F")


def unvec(x: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(x.size)))
    return np.asarray(x, dtype=complex).reshape((d, d), order="F")


def _kron_rows(A: np.ndarray, B: np.ndarray, rows: slice) -> np.ndarray:
    """Rows of d x d blocks of np.kron(A, B), bit for bit, as the
    (a, i, b, j) array A[a, b] B[i, j]: the entries [a d + i, b d + j]."""
    return A[rows, None, :, None] * B[None, :, None, :]


def _block_rows(d: int) -> list:
    """Slices of the d rows of d x d blocks of a d^2 x d^2 matrix, each of
    at most 2^14 entries (one row from d = 26 on)."""
    step = max(1, 2 ** 14 // d ** 3)
    return [slice(a, a + step) for a in range(0, d, step)]


# Each form of Phi offers apply (Phi), apply_adjoint (Phi*), matrix
# (mat Phi) and fill (mat Phi written into a superoperator M, in place) on
# general operators.  The sieve only ever feeds Phi rank-1
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

    def fill(self, M: np.ndarray) -> None:
        """matrix() written into M, which holds zeros, a few rows of d x d
        blocks of each kron at a time (_block_rows): its bits, with no
        d^2 x d^2 temporary."""
        M4 = M.reshape((self.dim,) * 4)
        re, im = M4.real, M4.imag
        for V in self.ops:
            Vr, Vi = V.real, V.imag
            imaginary = Vi.any()
            for a in _block_rows(self.dim):
                re[a] += _kron_rows(Vr, Vr, a)
                if imaginary:
                    re[a] += _kron_rows(Vi, Vi, a)
                    antisymmetric = _kron_rows(Vr, Vi, a)
                    antisymmetric -= _kron_rows(Vi, Vr, a)
                    im[a] += antisymmetric


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

    def fill(self, M: np.ndarray) -> None:
        np.einsum("ii->i", M)[:] = vec(self.C)


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

    def fill(self, M: np.ndarray) -> None:
        M[:] = self.S


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
        """Dense mat(Phi), real."""
        S = np.zeros((self.dim ** 2, self.dim ** 2))
        self._scatter(S)
        return S

    def fill(self, M: np.ndarray) -> None:
        self._scatter(M.real)

    def _scatter(self, S: np.ndarray) -> None:
        """The allowed entries of T scattered into place in the real S,
        which holds zeros, plus the compensator on the population block."""
        N = self.dim
        m, n, p = np.indices((N, N, N)).reshape(3, -1)
        q = n + p - m
        keep = (q >= 0) & (q < N)
        m, n, p, q = m[keep], n[keep], p[keep], q[keep]
        s = m + q
        # vec is column stacked: entry (m, n) sits at index n*N + m, so the
        # slot for output (m, n) from input (p, q) is [nN+m, qN+p]
        S[n * N + m, q * N + p] = self.kappa * (
            np.sqrt((m + 1) * (n + 1) * (p + 1) * (q + 1))
            * 2.0 / ((s + 1) * (s + 2) * (s + 3)))
        diag_idx = np.arange(N) * (N + 1)
        S[np.ix_(diag_idx, diag_idx)] += self.plan.T
