"""qsieve benchmark: run one workload end to end and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's configs are made
from the seed (``workloads.py``) and run one pass at a time, each pass in a
fresh worker process (``worker.py``) that imports qsieve from ``src`` and
runs every config through ``qsieve.cli.run_config``: a closed loop with one
client, configs one after another, BLAS at its default thread count.  Passes
repeat while another one fits in S seconds; there are at least two.  With
``--trace 1`` the passes alternate untraced and traced (``tracer.py``).

Outside the timed region every output is checked against its reference
(``checks.py``) and across passes for identical bytes.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics, or with --trace 1 the per-layer ones).  A full record
with the machine, per-config outcomes and absent metrics goes to
``.perfbench/results/``; a summary goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
STATE_DIR = os.path.join(ROOT, ".perfbench")
#: a run must end well inside the 180 s a caller allows it
RUN_LIMIT_S = 170.0
MIN_PASSES = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "check_pass_frac": "ratio",
}
DERIVED_LAYER_UNITS = {
    "sieve.failed_start_frac": "ratio",
    "sieve.minimizer_recall": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _run_pass(work: str, index: int, traced: bool, env: dict,
              deadline: float) -> dict:
    out_dir = os.path.join(work, f"p{index}")
    os.makedirs(out_dir)
    result_path = os.path.join(work, f"p{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           os.path.join(work, "cases.json"), out_dir, result_path,
           "1" if traced else "0"]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.perf_counter(), 1))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {index} overran the run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {index} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["traced"] = traced
    result["process_s"] = time.perf_counter() - started
    return result


def run_passes(work: str, seconds: float, trace: bool, env: dict) -> list:
    """Closed loop: one pass after another while the next one fits."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    passes = []
    while True:
        elapsed = time.perf_counter() - start
        longest = max((p["process_s"] for p in passes), default=0.0)
        if len(passes) >= MIN_PASSES and (elapsed + longest > seconds or
                                          elapsed + longest > RUN_LIMIT_S):
            return passes
        traced = trace and len(passes) % 2 == 1
        passes.append(_run_pass(work, len(passes), traced, env, deadline))


def _ratio(num: float, den: float, name: str, undefined: list) -> float:
    if den:
        return num / den
    undefined.append(name)
    return 0.0


def evaluate(cases: list, passes: list) -> dict:
    """Reference checks, byte identity and output-derived figures."""
    n = len(cases)
    first = passes[0]["records"]
    errors = [i for i, rec in enumerate(first) if rec["error"] is not None]
    check_failures = {}
    sieve_results = {}
    for i, case in enumerate(cases):
        digests = {p["records"][i].get("sha256") for p in passes}
        if len(digests) > 1:
            check_failures[i] = ["output bytes differ across passes"]
        if first[i]["path"] is None:
            continue
        with open(first[i]["path"], encoding="utf-8") as fh:
            text = fh.read()
        found = checks.check_output(case, text)
        if found:
            check_failures.setdefault(i, []).extend(found)
        if case["config"]["command"] == "sieve":
            sieve_results[i] = checks.parse_output(text)[1]

    starts = failed_starts = known = recovered = 0
    for i, result in sieve_results.items():
        case = cases[i]
        starts += result["n_starts"]
        failed_starts += result["failed_starts"]
        if "pointer_states" in case["expect"]:
            known += case["expect"]["pointer_states"]
            recovered += checks.pointer_states_found(result)
    undefined = []
    return {
        "errors": errors,
        "check_failures": check_failures,
        "ok_frac": (n - len(errors)) / n,
        "check_pass_frac": (n - len(check_failures)) / n,
        "error_rate": len(errors) / n,
        "check_fail_rate": len(check_failures) / n,
        "failed_start_frac": _ratio(failed_starts, starts,
                                    "sieve.failed_start_frac", undefined),
        "minimizer_recall": _ratio(recovered, known, "sieve.minimizer_recall",
                                   undefined),
        "undefined": undefined,
    }


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(passes: list, quality: dict) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    values = {
        "wall_s": _median(p["wall_s"] for p in untraced),
        "setup_s": _median(p["setup_s"] for p in untraced),
        "peak_rss_mb": _median(p["peak_rss_mb"] for p in untraced),
        "ok_frac": quality["ok_frac"],
        "check_pass_frac": quality["check_pass_frac"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def per_layer(passes: list, quality: dict) -> tuple:
    """(metrics, absent, undefined) from the traced passes."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    names = traced[0]["per_layer"]
    metrics = {
        name: {"value": _median(p["per_layer"][name]["value"]
                                for p in traced),
               "unit": names[name]["unit"]}
        for name in names
    }
    extra = {
        "sieve.failed_start_frac": quality["failed_start_frac"],
        "sieve.minimizer_recall": quality["minimizer_recall"],
        "trace.overhead_s": _median(p["wall_s"] for p in traced)
        - _median(p["wall_s"] for p in untraced),
    }
    for name, value in extra.items():
        metrics[name] = {"value": value, "unit": DERIVED_LAYER_UNITS[name]}
    undefined = sorted(set(traced[0]["undefined"]) | set(quality["undefined"]))
    return metrics, traced[0]["absent"], undefined


def _summary(args, cases, passes, quality, metrics, absent, undefined) -> str:
    m = passes[0]["machine"]
    lines = [f"workload {args.workload} seed {args.seed}: {len(cases)} "
             f"configs x {len(passes)} passes "
             f"({sum(p['traced'] for p in passes)} traced)",
             f"machine: {m['nproc']} cores, {m['blas']['name']} "
             f"{m['blas']['version']} with {m['blas']['threads']} threads, "
             f"Python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}"]
    for name, m in metrics.items():
        lines.append(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    for name in undefined:
        lines.append(f"  {name}: no base in this workload, reported as 0")
    for name, reason in absent.items():
        lines.append(f"  ABSENT {name}: {reason}")
    errors = Counter((cases[i]["config"]["command"],
                      cases[i]["config"]["model"]["type"],
                      passes[0]["records"][i]["error"])
                     for i in quality["errors"])
    for (command, mtype, error), count in sorted(errors.items()):
        lines.append(f"  error  {command} {mtype} x{count}: {error}")
    for i, found in quality["check_failures"].items():
        cfg = cases[i]["config"]
        lines.append(f"  CHECK  #{i} {cfg['command']} {cfg['model']['type']}: "
                     f"{'; '.join(found)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qsieve", "cli.py")):
        print(f"perfbench: no qsieve sources under {src}", file=sys.stderr)
        return 2
    cases = workloads.generate(args.workload, args.seed)
    work = os.path.join(STATE_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    with open(os.path.join(work, "cases.json"), "w", encoding="utf-8") as fh:
        json.dump(cases, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    try:
        passes = run_passes(work, args.seconds, bool(args.trace), env)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    quality = evaluate(cases, passes)
    if args.trace:
        metrics, absent, undefined = per_layer(passes, quality)
    else:
        metrics, absent = end_to_end(passes, quality), {}
        undefined = []

    attempted = len(cases) * len(passes)
    failed = sum(rec["error"] is not None
                 for p in passes for rec in p["records"])
    record = {
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": passes[0]["machine"],
        "passes": [{k: p[k] for k in ("wall_s", "setup_s", "peak_rss_mb",
                                      "process_s", "traced")}
                   for p in passes],
        "configs": [{"config": c["config"], "expect": c["expect"],
                     "error": passes[0]["records"][i]["error"],
                     "seconds": [p["records"][i]["seconds"] for p in passes],
                     "check_failures":
                         quality["check_failures"].get(i, [])}
                    for i, c in enumerate(cases)],
        "quality": {k: quality[k] for k in (
            "error_rate", "check_fail_rate", "failed_start_frac",
            "minimizer_recall")},
        "metrics": metrics, "absent": absent, "undefined": undefined,
        "trace_files": [p["trace_file"] for p in passes if p["traced"]],
    }
    results = os.path.join(STATE_DIR, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(_summary(args, cases, passes, quality, metrics, absent, undefined),
          file=sys.stderr)
    print(json.dumps({"correct": not quality["check_failures"],
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
