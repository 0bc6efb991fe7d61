"""Reference checks on qsieve output files.

``check_output(case, text)`` returns the list of ways the output of one case
departs from its reference; an empty list means the output passes.  The
expectations come with the case from ``workloads.generate``.  Nothing here
imports qsieve, so a check cannot share a defect with the code it checks.
"""
from __future__ import annotations

import json

#: slack on "non-increasing" and on lambda lower bounds (float round-off)
ROUND_OFF = 1e-9
#: S_lin of the pure initial state
PURE_SLIN_MAX = 1e-12
#: pointer-state recovery: |<k|psi>|^2 above this counts state k as found
FOUND_FIDELITY = 0.999
#: verification entries that are health figures, not residuals: the basis
#: conditioning (1 is best) and the sweep decay exp(-gap * t_max)
HEALTH_FIGURES = ("c_basis_conditioning", "e_sweep_decay")


def parse_output(text: str):
    """(header, result) of a JSON document or a CSV table with a header
    line; a CSV result is {"columns": [...], "rows": [[float, ...], ...]}."""
    if text.startswith("# "):
        first, _, rest = text.partition("\n")
        header = json.loads(first[2:])
        lines = rest.rstrip("\n").split("\n")
        columns = lines[0].split(",")
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        return header, {"columns": columns, "rows": rows}
    doc = json.loads(text)
    return doc["header"], doc["result"]


def check_output(case: dict, text: str) -> list:
    config, expect = case["config"], case["expect"]
    try:
        header, result = parse_output(text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparsable output: {exc}"]
    failures = []
    if header.get("seed") != config["seed"]:
        failures.append(f"header seed {header.get('seed')} != "
                        f"{config['seed']}")
    if header.get("config", {}).get("command") != config["command"]:
        failures.append("header echoes another command")
    failures.extend(_CHECKS[config["command"]](config, expect, result))
    return failures


def _check_sieve(config, expect, r) -> list:
    out = []
    a0 = r["a0"]
    if "a0" in expect and abs(a0 - expect["a0"]) > expect["a0_tol"]:
        out.append(f"a0 {a0!r} differs from {expect['a0']!r} by more than "
                   f"{expect['a0_tol']}")
    if "a0_max" in expect and a0 > expect["a0_max"]:
        out.append(f"a0 {a0!r} above {expect['a0_max']}")
    if "flat" in expect and r["flat_landscape"] != expect["flat"]:
        out.append(f"flat_landscape is {r['flat_landscape']}")
    if r["failed_starts"] > r["n_starts"] or r["n_starts"] != \
            config["n_starts"]:
        out.append("start counts inconsistent")
    n = len(r["minimizers"])
    if n < 1 or len(r["minimizer_lambdas"]) != n \
            or len(r["quasi_classical_flags"]) != n:
        out.append("minimiser lists inconsistent")
    for lam in r["minimizer_lambdas"]:
        if not a0 - ROUND_OFF <= lam <= a0 + r["epsilon"] + ROUND_OFF:
            out.append(f"minimiser lambda {lam!r} outside [a0, a0 + eps]")
            break
    return out


def _check_lambda(config, expect, r) -> list:
    out = []
    if r["columns"] != ["state_index", "lambda"]:
        out.append(f"columns {r['columns']}")
        return out
    if len(r["rows"]) != expect["rows"]:
        out.append(f"{len(r['rows'])} rows, expected {expect['rows']}")
    low = min(row[1] for row in r["rows"])
    if low < expect["lambda_min"] - ROUND_OFF:
        out.append(f"lambda {low!r} below the model's infimum "
                   f"{expect['lambda_min']!r}")
    return out


def _check_evolve(config, expect, r) -> list:
    out = []
    if r["columns"] != ["t", "S_lin", "dist"]:
        out.append(f"columns {r['columns']}")
        return out
    rows = r["rows"]
    if len(rows) != expect["rows"]:
        out.append(f"{len(rows)} rows, expected {expect['rows']}")
        return out
    if [row[0] for row in rows] != [float(t) for t in config["times"]]:
        out.append("time column differs from the config")
    if abs(rows[0][1]) > PURE_SLIN_MAX:
        out.append(f"S_lin(0) = {rows[0][1]!r}, expected 0")
    for prev, cur in zip(rows, rows[1:]):
        if cur[2] > prev[2] + ROUND_OFF:
            out.append(f"dist rises from {prev[2]!r} to {cur[2]!r} at "
                       f"t = {cur[0]}")
            break
    return out


def _check_decompose(config, expect, r) -> list:
    out = []
    if r["iso_dim"] != expect["iso_dim"]:
        out.append(f"iso_dim {r['iso_dim']}, expected {expect['iso_dim']}")
    if r["iso_dim"] + r["sweep_dim"] != expect["dim"] ** 2:
        out.append("iso_dim + sweep_dim != d^2")
    for key, value in sorted(r["residuals"].items()):
        if key in HEALTH_FIGURES or value is None:
            continue
        if value > expect["residual_max"]:
            out.append(f"residual {key} = {value!r} above "
                       f"{expect['residual_max']}")
    return out


def _check_classify(config, expect, r) -> list:
    out = []
    n = r["n_classical"]
    if "n_classical" in expect and n != expect["n_classical"]:
        out.append(f"n_classical {n}, expected {expect['n_classical']}")
    if len(r["projectors"]) != n or len(r["fixed_point_residuals"]) != n:
        out.append("projector lists inconsistent with n_classical")
    if r["max_pairwise_overlap"] > expect["overlap_max"]:
        out.append(f"max_pairwise_overlap {r['max_pairwise_overlap']!r} "
                   f"above {expect['overlap_max']}")
    tol = config.get("residual_tol", 1e-8)
    if any(v > tol for v in r["fixed_point_residuals"]):
        out.append("a classical state is not a fixed point")
    return out


_CHECKS = {
    "sieve": _check_sieve,
    "lambda": _check_lambda,
    "evolve": _check_evolve,
    "decompose": _check_decompose,
    "classify": _check_classify,
}


def pointer_states_found(result: dict) -> int:
    """How many basis states |k> some sieve minimiser reproduces."""
    found = set()
    for psi in result["minimizers"]:
        weights = [re * re + im * im for re, im in psi]
        k = max(range(len(weights)), key=weights.__getitem__)
        if weights[k] >= FOUND_FIDELITY:
            found.add(k)
    return len(found)
