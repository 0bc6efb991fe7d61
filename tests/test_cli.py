"""Command-line interface: config validation, run outputs, determinism, and
exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

import qsieve.liouville as liouville
from qsieve.cli import MODEL_SCHEMAS, ConfigError, main, parse_config


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(tmp_path, payload, extra_args=()):
    cfg = write_config(tmp_path, "config.json", payload)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out), *extra_args])
    return code, out


# ---------------------------------------------------------------------------
# config parsing

def test_parse_config_fills_defaults():
    cfg = parse_config(json.dumps(
        {"command": "sieve", "model": {"type": "toy"}}))
    assert cfg["output_format"] == "json"
    assert cfg["seed"] == 0
    assert cfg["n_starts"] == 16


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({"command": "sieve",
                                 "model": {"type": "toy"}, "bogus": 1}))
    assert exc.value.path == "bogus"
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({"command": "lambda",
                                 "model": {"type": "toy", "extra": 2}}))
    assert exc.value.path == "model.extra"


def test_parse_config_rejects_bad_values():
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(
            {"command": "lambda",
             "model": {"type": "davies", "kappa": -1.0}}))
    assert exc.value.path == "model.kappa"
    with pytest.raises(ConfigError):
        parse_config(json.dumps(
            {"command": "classify", "model": {"type": "toy"},
             "output_format": "csv"}))
    with pytest.raises(ConfigError):
        parse_config("{not json")


# ---------------------------------------------------------------------------
# subcommands

def test_models_subcommand(capsys):
    assert main(["models"]) == 0
    schemas = json.loads(capsys.readouterr().out)
    assert set(schemas) == {"toy", "pointer", "qbm", "grw", "davies",
                            "custom"}


def test_validate_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json",
                       {"command": "lambda",
                        "model": {"type": "pointer",
                                  "energies": [0.0, 1.0]}})
    assert main(["validate", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "error" in err


def test_invalid_config_exits_one(tmp_path, capsys):
    code, _ = run_cli(tmp_path, {"command": "lambda",
                                 "model": {"type": "qbm", "n_levels": 10,
                                           "D": -3.0}})
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["path"] == "model.D"


def test_negative_seed_flag_exits_one(tmp_path, capsys):
    code, _ = run_cli(tmp_path, {"command": "lambda", "model": {"type": "toy"},
                                 "states": "random:2"},
                      extra_args=["--seed", "-3"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["path"] == "seed"


@pytest.mark.parametrize("jump_ops", [{}, "I", 3])
def test_custom_jump_ops_must_be_an_array(jump_ops):
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(
            {"command": "lambda",
             "model": {"type": "custom",
                       "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]],
                                       [[0.0, 0.0], [1.0, 0.0]]],
                       "jump_ops": jump_ops}}))
    assert exc.value.path == "model.jump_ops"


# every key of every model schema, with valid values
FULL_MODELS = {
    "toy": {"type": "toy",
            "hamiltonian": [[[0.0, 0.0], [0.5, 0.0]],
                            [[0.5, 0.0], [1.0, 0.0]]]},
    "pointer": {"type": "pointer", "energies": [0.0, 1.0]},
    "qbm": {"type": "qbm", "n_levels": 4, "D": 0.5, "omega": 1.5},
    "grw": {"type": "grw", "grid": [0.0, 1.0, 2.0], "kappa": 1.0,
            "alpha": 0.5},
    "davies": {"type": "davies", "kappa": 1.0, "n_levels": 3,
               "energies": [0.0, 1.0, 2.0],
               "quadrature": {"r_max": 0.999, "n_r": 16, "n_theta": 32}},
    "custom": {"type": "custom",
               "hamiltonian": [[[0.0, 0.0], [0.0, -1.0]],
                               [[0.0, 1.0], [1.0, 0.0]]],
               "jump_ops": [[[[1.0, 0.0], [0.0, 0.0]],
                             [[0.0, 0.0], [-1.0, 0.0]]]]},
}


def _parse_model(model):
    return parse_config(json.dumps({"command": "lambda", "model": model}))


@pytest.mark.parametrize("mtype", sorted(MODEL_SCHEMAS))
def test_model_keys_follow_the_schema(mtype):
    schema = MODEL_SCHEMAS[mtype]
    full = FULL_MODELS[mtype]
    assert set(full) == {"type"} | {key.rstrip("?") for key in schema}
    assert _parse_model(full)["model"]["type"] == mtype
    for key in schema:
        if key.endswith("?"):
            continue
        model = {k: v for k, v in full.items() if k != key}
        with pytest.raises(ConfigError) as exc:
            _parse_model(model)
        assert exc.value.path == f"model.{key}"
        assert str(exc.value) == f"model.{key}: missing required key"
    with pytest.raises(ConfigError) as exc:
        _parse_model(dict(full, bogus=1))
    assert exc.value.path == "model.bogus"


NON_HERMITIAN = [[[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]


@pytest.mark.parametrize("mtype", ["toy", "custom"])
def test_non_hermitian_hamiltonian_is_a_config_error(tmp_path, capsys,
                                                     mtype):
    # validate once accepted it and run then failed without a path
    payload = {"command": "lambda", "states": "random:2",
               "model": {"type": mtype, "hamiltonian": NON_HERMITIAN}}
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["validate", "--config", cfg]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["path"] == "model.hamiltonian"
    code, _ = run_cli(tmp_path, payload)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["path"] == "model.hamiltonian"


# ---------------------------------------------------------------------------
# run outputs

def test_run_lambda_csv(tmp_path, capsys):
    code, out = run_cli(tmp_path,
                        {"command": "lambda", "seed": 4,
                         "model": {"type": "pointer",
                                   "energies": [0.0, 1.0, 2.5]},
                         "states": "random:10"})
    assert code == 0
    status = json.loads(capsys.readouterr().err)
    path = out / "lambda.csv"
    assert status["written"] == str(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0].removeprefix("# "))
    assert header["config"]["command"] == "lambda"
    columns = lines[1].split(",")
    assert "lambda" in columns
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 10
    lams = [float(r[columns.index("lambda")]) for r in rows]
    assert all(lam >= -1e-9 for lam in lams)


def test_run_evolve_csv_format(tmp_path):
    code, out = run_cli(tmp_path,
                        {"command": "evolve",
                         "model": {"type": "toy"},
                         "times": [0.0, 0.5, 1.0, 2.0],
                         "state": [[1.0, 0.0], [0.0, 0.0]]})
    assert code == 0
    text = (out / "evolve.csv").read_text(encoding="utf-8")
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0].startswith("# {")
    cols = lines[1].split(",")
    assert cols[0] == "t"
    t, s_lin = [], []
    for line in lines[2:]:
        vals = line.split(",")
        t.append(float(vals[0]))
        s_lin.append(float(vals[cols.index("S_lin")]))
    assert t == [0.0, 0.5, 1.0, 2.0]
    # depolarizing closed form: S_lin(t) = (1 - e^{-4t}) / 2
    for ti, si in zip(t, s_lin):
        assert si == pytest.approx(0.5 * (1 - np.exp(-4 * ti)), abs=1e-9)


def test_run_sieve_json(tmp_path):
    code, out = run_cli(tmp_path,
                        {"command": "sieve", "model": {"type": "toy"},
                         "n_starts": 6, "seed": 1})
    assert code == 0
    doc = json.loads((out / "sieve.json").read_text(encoding="utf-8"))
    assert doc["result"]["a0"] == pytest.approx(1.0, abs=1e-9)
    assert doc["result"]["flat_landscape"] is True
    assert doc["result"]["quasi_classical"] == []


def test_run_classify_json(tmp_path):
    code, out = run_cli(tmp_path,
                        {"command": "classify",
                         "model": {"type": "pointer",
                                   "energies": [0.0, 1.0, 2.5]}})
    assert code == 0
    doc = json.loads((out / "classify.json").read_text(encoding="utf-8"))
    res = doc["result"]
    assert res["n_classical"] == 3
    assert res["max_pairwise_overlap"] <= 1e-8
    assert max(res["fixed_point_residuals"]) <= 1e-8


@pytest.mark.parametrize("command", ["classify", "decompose", "evolve"])
def test_run_assembles_the_superoperator_once(tmp_path, monkeypatch,
                                              command):
    # classify once built M in the command and again in classical_states;
    # evolve once rebuilt it for the steady state and for every new dt
    calls = []
    real = liouville._JumpList.matrix

    def counting(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(liouville._JumpList, "matrix", counting)
    payload = {"command": command,
               "model": {"type": "pointer", "energies": [0.0, 1.0, 2.5]}}
    if command == "evolve":
        payload["times"] = [0.0, 0.5, 1.5, 2.0]
    code, _ = run_cli(tmp_path, payload)
    assert code == 0
    assert len(calls) == 1


def test_run_decompose_json(tmp_path):
    code, out = run_cli(tmp_path,
                        {"command": "decompose",
                         "model": {"type": "pointer",
                                   "energies": [0.0, 1.0]}})
    assert code == 0
    doc = json.loads((out / "decompose.json").read_text(encoding="utf-8"))
    res = doc["result"]
    assert res["iso_dim"] == 2
    assert res["sweep_dim"] == 2
    assert res["residuals"]["c_basis_conditioning"] >= 1e-3
    for key, val in res["residuals"].items():
        if val is not None and key != "c_basis_conditioning":
            assert val <= 1e-7, key


def test_run_custom_model_reports_semigroup_check(tmp_path):
    code, out = run_cli(tmp_path,
                        {"command": "decompose",
                         "model": {"type": "custom",
                                   "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]],
                                                   [[0.0, 0.0], [1.0, 0.0]]],
                                   "jump_ops": [[[[1.0, 0.0], [0.0, 0.0]],
                                                 [[0.0, 0.0], [-1.0, 0.0]]]]}})
    assert code == 0
    doc = json.loads((out / "decompose.json").read_text(encoding="utf-8"))
    assert "eis_check" in doc["header"]


def test_run_custom_model_csv_header_carries_semigroup_check(tmp_path):
    code, out = run_cli(tmp_path,
                        {"command": "lambda", "states": "random:3",
                         "model": {"type": "custom",
                                   "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]],
                                                   [[0.0, 0.0], [1.0, 0.0]]],
                                   "jump_ops": [[[[1.0, 0.0], [0.0, 0.0]],
                                                 [[0.0, 0.0], [-1.0, 0.0]]]]}})
    assert code == 0
    first = (out / "lambda.csv").read_text(encoding="utf-8").splitlines()[0]
    header = json.loads(first[2:])
    assert header["eis_check"]["passed"] is True


def test_run_outputs_are_deterministic(tmp_path):
    payload = {"command": "sieve", "seed": 7, "n_starts": 6,
               "model": {"type": "pointer", "energies": [0.0, 0.8, 2.0]}}
    code1, out1 = run_cli(tmp_path, payload)
    first = (out1 / "sieve.json").read_bytes()
    code2, out2 = run_cli(tmp_path, payload)
    second = (out2 / "sieve.json").read_bytes()
    assert code1 == code2 == 0
    assert first == second


def test_seed_flag_overrides_config(tmp_path):
    payload = {"command": "lambda", "seed": 1,
               "model": {"type": "toy"}, "states": "random:5",
               "output_format": "json"}
    _, out = run_cli(tmp_path, payload, extra_args=["--seed", "9"])
    doc = json.loads((out / "lambda.json").read_text(encoding="utf-8"))
    assert doc["header"]["config"]["seed"] == 9
