"""One workload pass in its own process.

    python3 perfbench/worker.py CASES_JSON OUT_DIR RESULT_JSON TRACE

Set-up (``import qsieve`` with numpy, scipy and BLAS, then ``parse_config`` of
every config) is timed first.  The pass then runs every config through
``qsieve.cli.run_config`` in order, each into its own output directory, and
times the whole loop.  Hashing the outputs, reading peak RSS and, with TRACE
= 1, writing the spans happen after the timed region.  qsieve must be
importable (the caller puts ``src`` on PYTHONPATH).
"""
import json
import os
import sys
import time


def _blas_info() -> dict:
    """BLAS library from numpy.show_config and the thread count it runs
    with, read through the library's own get_num_threads entry point."""
    import ctypes

    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads": None}
    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "blas" in os.path.basename(path).lower() and ".so" in path:
                paths.add(path)
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                info["library"] = os.path.basename(path)
                return info
    return info


def main(cases_path: str, out_dir: str, result_path: str, trace: bool) -> int:
    with open(cases_path, encoding="utf-8") as fh:
        cases = json.load(fh)
    texts = [json.dumps(case["config"]) for case in cases]

    tracer = None
    started = time.perf_counter()
    import qsieve.cli as cli
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    configs = [cli.parse_config(text) for text in texts]
    setup_s = time.perf_counter() - started

    records = []
    pass_start = time.perf_counter()
    for i, config in enumerate(configs):
        target = os.path.join(out_dir, f"c{i:04d}")
        t0 = time.perf_counter()
        try:
            path = cli.run_config(config, target)
            error = None
        except Exception as exc:  # a failed config is a result, not a crash
            path, error = None, f"{type(exc).__name__}: {exc}"
        records.append({"path": path, "error": error,
                        "seconds": time.perf_counter() - t0})
    wall_s = time.perf_counter() - pass_start

    import hashlib
    import resource

    import numpy
    import scipy
    for rec in records:
        if rec["path"] is not None:
            with open(rec["path"], "rb") as fh:
                data = fh.read()
            rec["sha256"] = hashlib.sha256(data).hexdigest()
            rec["bytes"] = len(data)
    result = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "records": records,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "blas": _blas_info(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        metrics, absent, undefined = tracer.metrics()
        result["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}
        result["absent"] = absent
        result["undefined"] = undefined
        trace_path = os.path.join(out_dir, "trace.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
        result["trace_file"] = trace_path
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4] == "1"))
