"""Tests of the benchmark itself: the workload generator, the reference
checks, the tracer's absent-metric handling and BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import copy
import hashlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _real_output(tmp_path, case):
    """Run one case through qsieve in a subprocess; return the output text."""
    script = ("import json, sys\n"
              "from qsieve.cli import parse_config, run_config\n"
              "print(run_config(parse_config(sys.argv[1]), sys.argv[2]))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script,
                           json.dumps(case["config"]), str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    with open(proc.stdout.strip(), encoding="utf-8") as fh:
        return fh.read()


def _case(workload, command, mtype):
    for case in workloads.generate(workload, 0):
        cfg = case["config"]
        if cfg["command"] == command and cfg["model"]["type"] == mtype:
            return case
    raise LookupError((workload, command, mtype))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    seeds = {c["config"]["seed"] for c in workloads.generate(name, 7)}
    others = {c["config"]["seed"] for c in workloads.generate(name, 8)}
    assert 7 in seeds and not seeds & others


def test_workloads_cover_every_command_and_model_type():
    commands, types = set(), set()
    for name in workloads.WORKLOADS:
        for case in workloads.generate(name, 0):
            commands.add(case["config"]["command"])
            types.add(case["config"]["model"]["type"])
    assert commands == {"evolve", "lambda", "sieve", "decompose", "classify"}
    assert types == {"toy", "pointer", "qbm", "grw", "davies", "custom"}


def test_small_configs_keep_the_failing_custom_csv_configs():
    custom_csv = [c for c in workloads.generate("small_configs", 0)
                  if c["config"]["model"]["type"] == "custom"
                  and c["config"]["command"] in ("evolve", "lambda")]
    assert len(custom_csv) == 2 * workloads.SMALL_ROUNDS


def test_sieve_check_rejects_a_shifted_a0(tmp_path):
    case = _case("small_configs", "sieve", "toy")
    text = _real_output(tmp_path, case)
    assert checks.check_output(case, text) == []

    davies = copy.deepcopy(case)
    davies["expect"] = workloads._expect(
        "sieve", {"type": "davies", "kappa": 1.0, "n_levels": 40}, {})
    doc = json.loads(text)
    for shift, ok in ((4e-8, True), (1e-3, False)):
        a0 = davies["expect"]["a0"] + shift
        doc["result"].update(a0=a0, minimizer_lambdas=[a0],
                             minimizers=doc["result"]["minimizers"][:1],
                             quasi_classical_flags=[False])
        assert (checks.check_output(davies, json.dumps(doc)) == []) is ok


def test_classify_check_rejects_a_dropped_classical_state(tmp_path):
    case = copy.deepcopy(_case("split_mix", "classify", "pointer"))
    case["config"]["model"]["energies"] = [0.0, 1.0]
    case["expect"]["n_classical"] = 2
    text = _real_output(tmp_path, case)
    assert checks.check_output(case, text) == []

    doc = json.loads(text)
    res = doc["result"]
    res["n_classical"] -= 1
    res["projectors"].pop()
    res["fixed_point_residuals"].pop()
    assert any("n_classical" in f
               for f in checks.check_output(case, json.dumps(doc)))


def test_evolve_and_decompose_checks_reject_corruption(tmp_path):
    case = _case("small_configs", "evolve", "qbm")
    text = _real_output(tmp_path / "e", case)
    assert checks.check_output(case, text) == []
    lines = text.split("\n")
    t, s, dist = lines[4].split(",")
    lines[4] = ",".join([t, s, repr(float(dist) + 0.5)])
    assert checks.check_output(case, "\n".join(lines))

    case = _case("small_configs", "decompose", "grw")
    text = _real_output(tmp_path / "d", case)
    assert checks.check_output(case, text) == []
    doc = json.loads(text)
    doc["result"]["residuals"]["a_star_invariance"] = 1e-3
    assert checks.check_output(case, json.dumps(doc))


def test_outputs_that_differ_between_passes_fail(tmp_path):
    case = _case("small_configs", "lambda", "toy")
    text = _real_output(tmp_path, case)
    path = tmp_path / "lambda.csv"
    record = {"path": str(path), "error": None,
              "sha256": hashlib.sha256(text.encode()).hexdigest()}
    same = [{"records": [record]}, {"records": [dict(record)]}]
    assert run.evaluate([case], same)["check_failures"] == {}
    other = [{"records": [record]},
             {"records": [dict(record, sha256="0" * 64)]}]
    assert run.evaluate([case], other)["check_failures"] == {
        0: ["output bytes differ across passes"]}


def test_missing_wrap_point_reports_metrics_absent(monkeypatch):
    # only the renamed wrap point, so nothing in this process gets patched
    monkeypatch.setattr(tracer, "WRAP_POINTS", (
        ("qsieve.sieve", "_no_longer_here", "sieve.lambda_and_grad",
         tracer.COUNT),))
    monkeypatch.syspath_prepend(SRC)
    t = tracer.Tracer()
    t.install()
    metrics, absent, _ = t.metrics()
    for name in ("sieve.lambda_grad_evals", "sieve.evals_per_start",
                 "sieve.lambda_grad_us"):
        assert name in absent and name not in metrics
    assert "sieve.starts" in metrics


def test_traced_worker_reports_every_layer(tmp_path):
    cases = [_case("small_configs", "sieve", "toy"),
             _case("small_configs", "decompose", "pointer")]
    (tmp_path / "cases.json").write_text(json.dumps(cases))
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"),
                    str(tmp_path / "cases.json"), str(tmp_path / "out"),
                    str(tmp_path / "result.json"), "1"],
                   env=env, timeout=120, check=True)
    result = json.loads((tmp_path / "result.json").read_text())
    layer = {k: v["value"] for k, v in result["per_layer"].items()}
    assert result["absent"] == {}
    assert layer["sieve.starts"] == 8
    assert layer["sieve.lambda_grad_evals"] > 0
    assert layer["kernel.schur_s"] > 0
    assert layer["cli.run_config_s.decompose"] > 0
    assert 0 < layer["cli.run_config_self_s"] < sum(
        layer[f"cli.run_config_s.{c}"] for c in tracer.COMMANDS)


def test_benchmark_json_matches_the_metrics_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layer_units = {k: u for k, (_, u) in tracer.Tracer().metrics()[0].items()}
    layer_units.update(run.DERIVED_LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units
