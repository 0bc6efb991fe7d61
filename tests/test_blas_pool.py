"""One BLAS thread pool per process: numpy and scipy each bundle an
OpenBLAS with its own worker threads, which spin for about 0.13 s of CPU
after each threaded call.  Every product that OpenBLAS would thread runs on
scipy's library, so numpy's workers never wake on a qsieve run."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from qsieve.liouville import _stacked_gemm
from qsieve.operators import _eigh, _gemm, _matmul

#: CPU seconds numpy's workers may take over a whole run; one wake costs
#: 0.12-0.14 s
WAKE_CPU = 0.05


def _grid(n: int) -> list:
    return [-3.0 + 6.0 * i / (n - 1) for i in range(n)]


_CONFIGS = [
    {"command": "decompose",
     "model": {"type": "davies", "kappa": 1.0, "n_levels": 24}},
    {"command": "decompose", "model": {"type": "qbm", "n_levels": 16, "D": 0.5}},
    {"command": "classify", "model": {"type": "qbm", "n_levels": 16, "D": 0.5}},
    {"command": "lambda", "states": "random:4000",
     "model": {"type": "davies", "kappa": 1.0, "n_levels": 40}},
    {"command": "lambda", "states": "random:6000",
     "model": {"type": "grw", "grid": _grid(32), "kappa": 1.0, "alpha": 1.0}},
    {"command": "lambda", "states": "random:6000",
     "model": {"type": "qbm", "n_levels": 16, "D": 0.5}},
    {"command": "evolve", "times": [0.5, 1.0, 2.0],
     "model": {"type": "grw", "grid": _grid(40), "kappa": 1.0, "alpha": 1.0}},
    # its trace-norm distances take SVDs of 70 rows
    {"command": "evolve", "times": [0.5, 1.0, 2.0],
     "model": {"type": "grw", "grid": _grid(70), "kappa": 1.0, "alpha": 1.0}},
    {"command": "classify",
     "model": {"type": "davies", "kappa": 1.0, "n_levels": 40}},
]

# Numpy's workers are the threads that `import numpy` starts, before scipy
# (and its own pool) is imported.  Where scipy maps no BLAS library of its
# own, the two packages share one library and one pool, and there is no
# second pool to keep asleep.  The workers spin once as OpenBLAS starts
# them, so the count starts after a settling pause that outlasts the
# spinning.  Each config's figure is the CPU the workers took from its start
# until the next config starts, the last one's after another such pause.
_SCRIPT = textwrap.dedent("""
    import json, os, sys, time

    def threads():
        return set(os.listdir("/proc/self/task"))

    def blas_libraries():
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if ".so" in line}
        return {path for path in paths if any(
            name in os.path.basename(path).lower() for name in ("blas", "mkl"))}

    def cpu(tids):
        total = 0
        for tid in tids:
            with open(f"/proc/self/task/{tid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])  # utime, stime
        return total / os.sysconf("SC_CLK_TCK")

    before = threads()
    import numpy
    workers = threads() - before
    numpy_blas = blas_libraries()
    import scipy.linalg
    if not workers:
        print(json.dumps("numpy's BLAS starts no worker thread here"))
        sys.exit()
    if not blas_libraries() - numpy_blas:
        print(json.dumps("numpy and scipy share one BLAS library here"))
        sys.exit()
    from qsieve.cli import parse_config, run_config
    configs, out = json.loads(sys.argv[1]), sys.argv[2]
    time.sleep(0.5)
    taken, start = [], cpu(workers)
    for config in configs:
        run_config(parse_config(json.dumps(config)), out)
        now = cpu(workers)
        taken.append(now - start)
        start = now
    time.sleep(0.5)
    taken[-1] += cpu(workers) - start
    print(json.dumps(taken))
""")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread CPU times from /proc")
def test_numpy_blas_pool_never_wakes(tmp_path):
    configs = [{**config, "seed": 0} for config in _CONFIGS]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    run = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(configs), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    taken = json.loads(run.stdout)
    if isinstance(taken, str):
        pytest.skip(taken)
    per_config = {f"{i} {c['command']} {c['model']['type']}": t
                  for i, (c, t) in enumerate(zip(configs, taken))}
    assert sum(taken) < WAKE_CPU, per_config


def _operands(rng, shape, real, order):
    A = rng.standard_normal(shape)
    if not real:
        A = A + 1j * rng.standard_normal(shape)
    return np.asfortranarray(A) if order == "F" else np.ascontiguousarray(A)


# Bit for bit where OpenBLAS runs the product on one thread.  A threaded
# complex product can differ in its last digits between numpy's and scipy's
# OpenBLAS builds, which split the work differently, so there the test
# takes a tolerance.
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("orders", ["CC", "CF", "FC", "FF"])
@pytest.mark.parametrize("shape", [(30, 20, 40), (40, 40, 40), (3, 5, 1),
                                   (1, 6, 4), (70, 50, 90)])
def test_gemm_is_numpy_matmul(real, orders, shape):
    rng = np.random.default_rng(7)
    m, k, n = shape
    A = _operands(rng, (m, k), real, orders[0])
    B = _operands(rng, (k, n), real, orders[1])
    _assert_numpy_bits(_gemm(A, B), A @ B, threaded=m * k * n > 40 ** 3)


def _assert_numpy_bits(X, Y, threaded):
    if threaded:
        assert np.allclose(X, Y, rtol=1e-13, atol=0.0)
    else:
        assert np.array_equal(X, Y)


def test_gemm_takes_a_conjugate_transpose_without_a_copy():
    rng = np.random.default_rng(1)
    V = rng.standard_normal((40, 11_520)) + 1j * rng.standard_normal(
        (40, 11_520))
    W, Vh = V * rng.random(11_520), V.conj().T  # Vh is F-ordered
    tracemalloc.start()
    try:
        G = _gemm(W, Vh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < V.nbytes, peak
    assert np.allclose(G, W @ Vh, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("shapes, threaded", [
    (((409, 40), (40, 40)), True),    # a stack of states times an operator
    (((5, 40), (40, 40)), False),     # below the cutoff: numpy
    (((409, 79), (79,)), True),       # a matrix-vector product
    (((40,), (40, 40)), False),       # one state
    (((70,), (70, 70)), True),        # one state, as a vector-matrix product
    (((40, 40), (40, 40)), False),    # on scipy, below OpenBLAS's threshold
    (((79,), (79,)), False),          # a dot product
])
def test_matmul_is_numpy_matmul(real, shapes, threaded):
    rng = np.random.default_rng(3)
    A, B = (_operands(rng, shape, real, "C") for shape in shapes)
    for B in (B, np.asfortranarray(B)):
        _assert_numpy_bits(_matmul(A, B), A @ B, threaded)


@pytest.mark.parametrize("shape, threaded", [
    ((2, 63, 1), False), ((2, 64, 1), True), ((2, 128, 2), False),
    ((3, 100, 1), True), ((2, 40, 40), False)])
def test_stacked_gemm_is_numpy_matmul(shape, threaded):
    rng = np.random.default_rng(5)
    m, s, c = shape
    A = _operands(rng, (m, s, s), False, "C")
    B = _operands(rng, (m, s, c), False, "C")
    _assert_numpy_bits(_stacked_gemm(A, B), A @ B, threaded)


@pytest.mark.parametrize("d", [10, 25, 26, 40])
def test_eigh_is_numpys_eigh(d):
    # numpy's below 26 rows, scipy's zheevd from there on
    rng = np.random.default_rng(d)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    A = A + A.conj().T
    w, V = _eigh(A)
    w_np, _ = np.linalg.eigh(A)
    assert np.abs(w - w_np).max() <= 1e-12 * np.abs(w_np).max()
    assert np.abs(A @ V - V * w).max() <= 1e-12 * np.abs(w_np).max()
    assert np.abs(V.conj().T @ V - np.eye(d)).max() <= 1e-12
