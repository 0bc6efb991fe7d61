"""Shared helpers for the test suite."""

from __future__ import annotations

import tempfile
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from qsieve import (
    LindbladGenerator,
    apply_generator,
    davies_model,
    grw_model,
    pointer_model,
    qbm_model,
)
import qsieve.operators as operators
from qsieve.liouville import _CoherentMeasure, superoperator_blocks

# Tier-1 is deterministic: every @given test draws the same examples on
# every run and keeps no example database.  Hypothesis still caches the
# constants it reads from the source; that cache goes to a directory removed
# when the run ends, not to .hypothesis/.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="qsieve-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def every_product_threaded():
    """A patch under which every product counts as one that OpenBLAS would
    thread: products go to scipy's BLAS, every block of a Hermitian group
    is factorised in real arithmetic and _expm squares every slice itself."""
    return mock.patch.multiple(operators, _UNTHREADED_MACS=0,
                               _THREADED_GEMV=0)


def random_pure(d: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = A @ A.conj().T
    return rho / rho.trace().real


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (A + A.conj().T)


def basis_state(d: int, k: int) -> np.ndarray:
    psi = np.zeros(d, dtype=complex)
    psi[k] = 1.0
    return psi


def davies_jump_tensor(N: int, kappa: float) -> np.ndarray:
    """Exact Fock-basis tensor of the coherent-projector jump integral.

    T[m, n, p, q] is the matrix element of rho -> kappa int dmu(zeta)
    e_zeta rho e_zeta compressed to the lowest N levels.  The angular
    integral forces m + q = n + p and the radial one is a Beta integral:
    int_0^1 (1-u)^2 u^s du = 2 / ((s+1)(s+2)(s+3)) with s = m + q.
    The N^4 reference for the Davies map that the package scatters from
    the allowed entries alone.
    """
    idx = np.arange(N, dtype=float)
    m = idx[:, None, None, None]
    n = idx[None, :, None, None]
    p = idx[None, None, :, None]
    q = idx[None, None, None, :]
    s = m + q
    coef = (np.sqrt((m + 1) * (n + 1) * (p + 1) * (q + 1))
            * 2.0 / ((s + 1) * (s + 2) * (s + 3)))
    return kappa * np.where(m + q == n + p, coef, 0.0)


def davies_map_from_tensor(N: int, kappa: float,
                           plan: np.ndarray) -> np.ndarray:
    """Dense mat(Phi) of the Davies map built from the N^4 tensor: the
    jump integral plus the compensator diag(plan^T diag X)."""
    # vec is column stacked: entry (m, n) sits at index n*N + m, so the
    # slot for output (m, n) from input (p, q) is [nN+m, qN+p]
    S = davies_jump_tensor(N, kappa).transpose(1, 0, 3, 2).reshape(
        N * N, N * N)
    diag_idx = np.arange(N) * (N + 1)
    S[np.ix_(diag_idx, diag_idx)] += plan.T
    return S


def loop_gram(quad, N: int) -> np.ndarray:
    """G = sum_j w_j |zeta_j><zeta_j| node by node, each N-level coherent
    state (1-|zeta|^2) sum_n sqrt(n+1) zeta^n |n> built on its own: the
    reference for DiscQuadrature.gram."""
    n = np.arange(N)
    G = np.zeros((N, N), dtype=complex)
    for zeta, w in zip(quad.nodes, quad.weights):
        v = (1 - abs(zeta) ** 2) * np.sqrt(n + 1.0) * zeta ** n
        G += w * np.outer(v, v.conj())
    return G


def loop_lambda(gen: LindbladGenerator, psi: np.ndarray) -> float:
    """lambda of one unit vector as the per-state code computed it:
    <psi|G|psi> - <psi|Phi(e)|psi>, the second term by one np.convolve for
    the coherent measure and through Phi's apply otherwise.  The reference
    for lambda_pure on stacks."""
    phi = gen._phi
    g_mean = np.vdot(psi, gen._G @ psi).real
    if isinstance(phi, _CoherentMeasure):
        a = phi.r * psi
        p = np.abs(psi) ** 2
        expect = phi.w @ np.abs(np.convolve(a, a)) ** 2 + p @ phi.plan @ p
    else:
        expect = np.vdot(psi, phi.apply(np.outer(psi, psi.conj())) @ psi).real
    return float(g_mean - expect)


def lambda_form(gen: LindbladGenerator, e: np.ndarray) -> float:
    """lambda of a rank-1 projector as the paper writes it, -tr(e L(e)), by
    one full application of the generator.  The reference for lambda_pure,
    which never forms L(e)."""
    val = -np.trace(e @ apply_generator(gen, e))
    assert abs(val.imag) <= 1e-10 * max(abs(val.real), 1.0)
    return float(val.real)


def unstructured_model() -> LindbladGenerator:
    """A unital 4-level model (dephasing plus Hermitian hopping) whose
    superoperator has no block structure: one block."""
    H = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
    H[0, 1] = H[1, 0] = 0.5
    H[1, 2], H[2, 1] = 0.3j, -0.3j
    H[2, 3] = H[3, 2] = 0.2
    dephase = np.diag([1.0, 0.5, 0.0, -0.5])
    hop = 0.7 * (np.eye(4, k=1) + np.eye(4, k=-1))
    return LindbladGenerator(4, H, jump_ops=(dephase, hop))


def random_jump_list(seed: int, d: int) -> LindbladGenerator:
    """One or two random complex jumps beside a random Hermitian H."""
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    jumps = tuple(rng.standard_normal((d, d))
                  + 1j * rng.standard_normal((d, d))
                  for _ in range(int(rng.integers(1, 3))))
    return LindbladGenerator(d, 0.5 * (H + H.conj().T), jump_ops=jumps)


def rotated_pointer(seed: int, d: int) -> LindbladGenerator:
    """The pointer model in a random basis: one dense self-conjugate
    block."""
    rng = np.random.default_rng(seed)
    U = scipy.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))[0]
    gen = pointer_model(np.sort(rng.uniform(0.0, 3.0, d)))
    rotate = lambda A: U @ A @ U.conj().T
    return LindbladGenerator(d, rotate(gen.hamiltonian),
                             jump_ops=tuple(map(rotate, gen.jump_ops)))


def random_grw(seed: int, d: int) -> LindbladGenerator:
    """GRW on a random grid with random kappa and alpha."""
    rng = np.random.default_rng(seed)
    return grw_model(np.sort(rng.uniform(-3.0, 3.0, d)),
                     rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))


def blocks_of(M: np.ndarray) -> list:
    """The index arrays of the diagonal blocks of M, one per block."""
    return [idx for group in superoperator_blocks(M) for idx in group]


def dense_projection(split) -> np.ndarray:
    """The d^2 x d^2 projection onto iso along sweep, scattered from the
    split's block projections."""
    n = split.dim ** 2
    P = np.zeros((n, n), dtype=complex)
    for group, stack in zip(split.groups, split.projections):
        for idx, block in zip(group, stack):
            P[np.ix_(idx, idx)] = block
    return P


def block_models() -> dict:
    """Models whose superoperators split into blocks in different ways, with
    their block counts: coherence-order sectors (Davies), two parity blocks
    (QBM), all 1x1 (GRW, pointer) and one block (unstructured)."""
    return {
        "davies8": (davies_model(8, 1.0), 15),
        "qbm8": (qbm_model(8, 0.5), 2),
        "grw6": (grw_model(np.linspace(-3.0, 3.0, 6), 1.0, 1.0), 36),
        "pointer4": (pointer_model([0.0, 1.0, 2.5, 3.7]), 16),
        "unstructured4": (unstructured_model(), 1),
    }


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260826)
