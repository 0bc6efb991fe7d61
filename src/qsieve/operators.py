"""Dense finite-dimensional operator and pure-state primitives.

Everything here works on plain complex numpy arrays: square matrices for
operators, 1-d arrays for state vectors.  fix_phase, normalize_state and
random_pure_state also take or give (m, d) stacks of states, one per row.
All functions are pure; nothing mutates its inputs.

numpy and scipy each bundle an OpenBLAS with its own pool of worker threads,
which spin for about 0.13 s of CPU after each threaded call; two pools awake
at once contend for the cores.  So a product, an eigh or an SVD that
OpenBLAS would thread runs on scipy's library (_matmul, _gemm, _gemv, _eigh,
_svdvals), the same BLAS or LAPACK call that numpy makes, and numpy's pool
never wakes.  Smaller ones stay on numpy, which costs less per call.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "ValidationError",
    "DimensionMismatchError",
    "DegenerateInputError",
    "is_hermitian",
    "validate_density_matrix",
    "linear_entropy",
    "hs_inner",
    "hs_norm",
    "trace_norm",
    "operator_norm",
    "fix_phase",
    "normalize_state",
    "projector",
    "state_from_projector",
    "fidelity",
    "join_projectors",
    "superposition",
    "random_pure_state",
]

HERMITICITY_TOL = 1e-12
DENSITY_EIG_FLOOR = -1e-10
DENSITY_TRACE_TOL = 1e-10


class ValidationError(ValueError):
    """Input fails a structural precondition (shape, hermiticity, ...)."""


class DimensionMismatchError(ValidationError):
    """Operands live on Hilbert spaces of different dimension."""


class DegenerateInputError(ValidationError):
    """Degenerate input for which the operation is not defined (e.g. e == f)."""


def _as_square(A) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {A.shape}")
    return A


def _check_same_dim(A: np.ndarray, B: np.ndarray) -> None:
    if A.shape != B.shape:
        raise DimensionMismatchError(
            f"dimension mismatch: {A.shape} vs {B.shape}")


def is_hermitian(A, tol: float = HERMITICITY_TOL) -> bool:
    A = _as_square(A)
    scale = max(np.abs(A).max(), 1.0)
    return np.abs(A - A.conj().T).max() <= tol * scale


def validate_density_matrix(rho, eig_floor: float = DENSITY_EIG_FLOOR,
                            trace_tol: float = DENSITY_TRACE_TOL) -> np.ndarray:
    """Validate and return a cleaned copy of a density matrix.

    Eigenvalues in [eig_floor, 0) are clamped to 0 and the trace renormalized
    (matrix exponentials leave harmless negative dust); anything worse is a
    hard error.
    """
    rho = _as_square(rho)
    if not is_hermitian(rho, tol=1e-10):
        raise ValidationError("density matrix must be Hermitian")
    rho = 0.5 * (rho + rho.conj().T)
    tr = rho.trace().real
    if abs(tr - 1.0) > max(trace_tol, 1e3 * abs(eig_floor) * rho.shape[0]):
        raise ValidationError(f"density matrix trace {tr} is not 1")
    w, V = _eigh(rho)
    if w.min() < eig_floor:
        raise ValidationError(
            f"density matrix has negative eigenvalue {w.min()}")
    if w.min() < 0.0:
        w = np.clip(w, 0.0, None)
        rho = _matmul(V * w, V.conj().T)
        rho = rho / rho.trace().real
    return rho


def linear_entropy(rho) -> float:
    """tr(rho - rho^2); zero exactly on pure states, 1 - 1/d on I/d."""
    rho = validate_density_matrix(rho)
    return float((rho.trace() - _matmul(rho, rho).trace()).real)


def hs_inner(A, B) -> complex:
    """Hilbert-Schmidt inner product tr(A^dag B)."""
    A = _as_square(A)
    B = _as_square(B)
    _check_same_dim(A, B)
    return complex(np.vdot(A, B))


def hs_norm(A) -> float:
    return float(np.linalg.norm(_as_square(A)))


def trace_norm(A) -> float:
    """Sum of singular values (trace norm)."""
    return float(_singular_values(A).sum())


def operator_norm(A) -> float:
    return float(_singular_values(A).max())


def _singular_values(A) -> np.ndarray:
    """numpy's below _THREADED_SVD rows, _svdvals from there on."""
    A = _as_square(A)
    return _svdvals(A) if len(A) >= _THREADED_SVD \
        else np.linalg.svd(A, compute_uv=False)


def fix_phase(psi: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Gauge-fix the global phase: first nonzero amplitude made real-positive.

    Works along the last axis, so a (m, d) stack fixes each row alone."""
    psi = np.asarray(psi, dtype=complex)
    mag = np.abs(psi)
    nonzero = mag > tol * np.maximum(mag.max(axis=-1, keepdims=True), 1.0)
    if not nonzero.any(axis=-1).all():
        raise ValidationError("zero vector has no phase representative")
    a = np.take_along_axis(psi, nonzero.argmax(axis=-1)[..., None], axis=-1)
    # |a| by hypot, as abs() takes it of one complex number: np.abs of a
    # complex array can differ from it in the last bit
    return psi * (np.hypot(a.real, a.imag) / a)


def normalize_state(psi) -> np.ndarray:
    """Unit, phase-fixed copy of a state (d,) or of each row of a stack (m, d).

    The squared norm is the dot product of the real and imaginary parts with
    themselves, as np.linalg.norm computes it for one vector, so a state
    normalizes to the same bits alone and inside a stack."""
    psi = np.asarray(psi, dtype=complex)
    n = np.sqrt(np.vecdot(psi.real, psi.real) + np.vecdot(psi.imag, psi.imag))
    if not np.all((n > 0.0) & (n < np.inf)):
        raise ValidationError(
            "cannot normalize a vector of zero or non-finite norm")
    return fix_phase(psi / n[..., None])


def projector(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a unit vector."""
    psi = np.asarray(psi, dtype=complex).ravel()
    if abs(np.linalg.norm(psi) - 1.0) > 1e-12:
        raise ValidationError("state vector is not normalized")
    return np.outer(psi, psi.conj())


def state_from_projector(e, tol: float = 1e-8) -> np.ndarray:
    """Recover the (phase-fixed) unit vector of a rank-1 projector."""
    e = _as_square(e)
    w, V = _eigh(e)
    if abs(w[-1] - 1.0) > tol or np.abs(w[:-1]).max(initial=0.0) > tol:
        raise ValidationError("operator is not a rank-1 projector")
    return normalize_state(V[:, -1])


def fidelity(psi, phi) -> float:
    """|<psi|phi>|^2 for unit vectors; phase-invariant state equality metric."""
    psi = np.asarray(psi, dtype=complex).ravel()
    phi = np.asarray(phi, dtype=complex).ravel()
    if psi.shape != phi.shape:
        raise DimensionMismatchError("state dimensions differ")
    return float(abs(np.vdot(psi, phi)) ** 2)


def join_projectors(e, f, tol: float = 1e-10) -> np.ndarray:
    """Orthogonal projector onto span(range e, range f) for rank-1 e != f."""
    u = state_from_projector(e)
    v = state_from_projector(f)
    if fidelity(u, v) > 1.0 - tol:
        raise DegenerateInputError(
            "e and f coincide; the join of a projector with itself is itself")
    # Gram-Schmidt of v against u
    w = v - np.vdot(u, v) * u
    w = w / np.linalg.norm(w)
    return np.outer(u, u.conj()) + np.outer(w, w.conj())


def superposition(e, f, z1: complex, z2: complex) -> np.ndarray:
    """Normalized superposition z1|psi1> + z2|psi2> of two rank-1 projectors.

    Representatives are phase-fixed (first nonzero amplitude real-positive),
    so the result is deterministic; sweeping all (z1, z2) still covers every
    superposition ray.
    """
    if z1 == 0 and z2 == 0:
        raise DegenerateInputError("(z1, z2) = (0, 0)")
    u, v = superposition_basis(e, f)
    return combine_states(u, v, z1, z2)


def superposition_basis(e, f) -> tuple[np.ndarray, np.ndarray]:
    """Phase-fixed unit vectors (u, v) of two distinct rank-1 projectors,
    the representatives every superposition of e and f is built from."""
    u = state_from_projector(e)
    v = state_from_projector(f)
    if fidelity(u, v) > 1.0 - 1e-12:
        raise DegenerateInputError("e and f coincide")
    return u, v


def combine_states(u: np.ndarray, v: np.ndarray, z1: complex,
                   z2: complex) -> np.ndarray:
    """Normalized, phase-fixed z1 u + z2 v."""
    psi = z1 * u + z2 * v
    n = np.linalg.norm(psi)
    if n < 1e-12 * (abs(z1) + abs(z2)):
        raise DegenerateInputError("z1|psi1> + z2|psi2> vanishes")
    return normalize_state(psi)


def random_pure_state(dim: int, rng: np.random.Generator,
                      count: int | None = None) -> np.ndarray:
    """A random unit vector (dim,), or a (count, dim) stack of them drawn
    from the same stream as count calls without it."""
    shape = (2, dim) if count is None else (count, 2, dim)
    x = rng.standard_normal(shape)
    return normalize_state(x[..., 0, :] + 1j * x[..., 1, :])


#: multiply-adds of a matrix product up to which OpenBLAS stays on the
#: calling thread: 32 x 32 x 32 products never woke a pool in measurements
#: on a 2-core machine (OpenBLAS 0.3.30 and 0.3.31), 41 x 41 x 41 complex
#: ones did.  Below it one numpy matmul costs less than a call into scipy.
_UNTHREADED_MACS = 32 ** 3

#: entries of the matrix of a matrix-vector product from which OpenBLAS
#: threads it, at any vector length: 63 x 63 ones stayed on the calling
#: thread, 64 x 64 ones woke a pool (the same machine)
_THREADED_GEMV = 64 ** 2

#: rows from which numpy's eigh (LAPACK zheevd) woke numpy's pool on the
#: same machine: from 26 on, where zstedc switches from QR to divide and
#: conquer (LAPACK's SMLSIZ is 25)
_THREADED_EIGH = 26

#: rows from which numpy's svd (LAPACK zgesdd) woke numpy's pool on the same
#: machine: none at 64 rows, 0.13-0.15 s of worker CPU at 65 to 200
_THREADED_SVD = 65


def _threaded(m: int, k: int, n: int) -> bool:
    """Would OpenBLAS thread the product of an m x k and a k x n matrix?  A
    matrix-vector product (m or n is 1) from _THREADED_GEMV entries of the
    matrix on, any other above _UNTHREADED_MACS multiply-adds."""
    if m == 1 or n == 1:
        return m * k * n >= _THREADED_GEMV
    return m * k * n > _UNTHREADED_MACS


def _matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for a 1-D or 2-D A and B: numpy's matmul where OpenBLAS keeps
    the product on the calling thread, and the same call on scipy's BLAS
    where it would thread (_gemm, _gemv).  A dot product stays on numpy:
    OpenBLAS threads one only above 10,000 terms."""
    m = A.shape[0] if A.ndim == 2 else 1
    n = B.shape[1] if B.ndim == 2 else 1
    if A.ndim == 1 == B.ndim or not _threaded(m, B.shape[0], n):
        return A @ B
    if A.ndim == 1:
        return _gemv(B.T, A)
    if B.ndim == 1:
        return _gemv(A, B)
    return _gemm(A, B)


def _gemm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B on scipy's BLAS: the zgemm (dgemm for two real matrices) that
    numpy's row-major matmul makes.  That call computes (AB)^T = B^T A^T in
    column-major order on each operand's own memory, transposed by BLAS or
    not by its layout, so no operand is copied and the bits are numpy's (a
    threaded complex product can split its work differently in the two
    libraries, and differ in its last digits).  Like numpy, a product with
    one row or one column is a matrix-vector product."""
    if B.shape[1] == 1:
        return _gemv(A, B[:, 0])[:, None]
    if A.shape[0] == 1:
        return _gemv(B.T, A[0])[None, :]
    blas = scipy.linalg.blas
    gemm = blas.dgemm if _real(A, B) else blas.zgemm
    (b, trans_b), (a, trans_a) = _column_major(B), _column_major(A)
    return gemm(1.0, b, a, trans_a=trans_b, trans_b=trans_a).T


def _column_major(X: np.ndarray) -> tuple:
    """X^T as a column-major BLAS operand and its transpose flag: X.T as it
    is for a C-ordered X, and X, transposed by BLAS, for an F-ordered one."""
    if X.flags.f_contiguous and not X.flags.c_contiguous:
        return X, 1
    return X.T, 0


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


def _eigh(A: np.ndarray) -> tuple:
    """np.linalg.eigh of a Hermitian matrix; from _THREADED_EIGH rows on,
    zheevd, the routine numpy calls, on scipy's LAPACK."""
    if A.shape[-1] < _THREADED_EIGH:
        return np.linalg.eigh(A)
    return scipy.linalg.eigh(A, driver="evd")


def _svdvals(A: np.ndarray) -> np.ndarray:
    """Singular values of each slice of a (..., s, s) stack: LAPACK zgesdd
    (dgesdd for a real stack), which np.linalg.svd calls, on scipy's
    library, with one workspace query for the stack."""
    s = A.shape[-1]
    lapack = scipy.linalg.lapack
    gesdd, gesdd_lwork = (lapack.dgesdd, lapack.dgesdd_lwork) if _real(A) \
        else (lapack.zgesdd, lapack.zgesdd_lwork)
    work, _ = gesdd_lwork(s, s, compute_uv=0)
    out = np.empty(A.shape[:-1])
    for B, sv in zip(A.reshape(-1, s, s), out.reshape(-1, s)):
        _, sv[:], _, info = gesdd(B, compute_uv=0, lwork=int(work.real))
        if info:
            raise np.linalg.LinAlgError("SVD did not converge")
    return out
