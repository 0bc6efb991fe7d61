"""Command-line interface: config validation, run outputs, determinism, and
exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import qsieve
import qsieve.cli as cli
import qsieve.liouville as liouville
import qsieve.operators as operators
from qsieve import davies_model
from qsieve.cli import MODEL_SCHEMAS, ConfigError, main, parse_config
from qsieve.operators import random_pure_state

from conftest import loop_lambda, unstructured_model


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


@pytest.mark.parametrize("target", ["file", "below_a_file"])
def test_bad_out_path_is_an_error_before_the_model_is_built(
        tmp_path, capsys, monkeypatch, target):
    # the output directory was once made after the whole computation, and
    # FileExistsError escaped main as a traceback
    (tmp_path / "taken").write_text("", encoding="utf-8")
    out = tmp_path / "taken"
    if target == "below_a_file":
        out = out / "sub"
    built = []
    real = cli.build_model

    def counting(config):
        built.append(1)
        return real(config)

    monkeypatch.setattr(cli, "build_model", counting)
    cfg = write_config(tmp_path, "config.json",
                       {"command": "classify",
                        "model": {"type": "pointer", "energies": [0.0, 1.0]}})
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] in ("FileExistsError", "NotADirectoryError")
    assert built == []


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


def _rejected_in_validate_and_run(tmp_path, capsys, payload, path):
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["validate", "--config", cfg]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert (err["type"], err["path"]) == ("ConfigError", path)
    code, _ = run_cli(tmp_path, payload)
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert (err["type"], err["path"]) == ("ConfigError", path)


@pytest.mark.parametrize("count", ["\u00b2", "\u0663", "1\u0660"])
def test_random_state_count_takes_ascii_digits_only(tmp_path, capsys, count):
    # all pass str.isdigit: int() raised on the superscript two, and read
    # the Arabic-Indic digits as 3 and 10
    _rejected_in_validate_and_run(
        tmp_path, capsys, {"command": "lambda", "model": {"type": "toy"},
                           "states": f"random:{count}"}, "states")


ZERO = [[0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("command, key, value, path", [
    ("lambda", "states", [[[1.0, 0.0], [0.0, 1.0]], ZERO], "states[1]"),
    ("lambda", "states", [[[float("nan"), 0.0], [1.0, 0.0]]], "states[0]"),
    ("evolve", "state", ZERO, "state"),
])
def test_state_vectors_that_cannot_be_normalized_are_config_errors(
        tmp_path, capsys, command, key, value, path):
    # validate once accepted them and run then failed without a path
    _rejected_in_validate_and_run(
        tmp_path, capsys, {"command": command, "model": {"type": "toy"},
                           key: value}, path)


H_NEG_INF = [[[0.0, 0.0], [float("-inf"), 0.0]],
             [[float("-inf"), 0.0], [1.0, 0.0]]]


@pytest.mark.parametrize("model, path", [
    ({"type": "davies", "kappa": float("nan"), "n_levels": 6},
     "model.kappa"),
    ({"type": "grw", "grid": [0.0, float("inf"), 2.0], "kappa": 1.0,
      "alpha": 1.0}, "model.grid[1]"),
    ({"type": "custom", "hamiltonian": H_NEG_INF},
     "model.hamiltonian[0][1][0]"),
    # an integer literal beyond the float range
    ({"type": "qbm", "n_levels": 4, "D": 10 ** 400}, "model.D"),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, model, path):
    # json.loads reads NaN, Infinity and -Infinity; validate once accepted
    # them, and run then failed on the generator or its spectrum
    _rejected_in_validate_and_run(
        tmp_path, capsys, {"command": "decompose", "model": model}, path)


# ---------------------------------------------------------------------------
# run outputs

def test_random_states_are_drawn_in_chunks_from_the_seed_stream():
    dim = 40
    size = cli._CHUNK_AMPLITUDES // dim
    for count in (1, size - 1, size, size + 1, 2 * size + 3):
        chunks = list(cli._random_state_chunks(dim, count, 11))
        assert all(1 <= len(chunk) <= size for chunk in chunks)
        rng = np.random.default_rng(11)
        ref = np.array([random_pure_state(dim, rng) for _ in range(count)])
        drawn = np.concatenate(chunks)
        assert drawn.shape == ref.shape
        assert np.abs(drawn - ref).max() <= 1e-15


def test_lambda_command_peaks_below_the_per_state_path():
    # the chunked command holds one chunk of states at a time; the
    # per-state path drew every state before scoring them one by one
    gen = davies_model(40, 1.0)
    config = {"states": "random:4000", "seed": 5}

    def per_state():
        rng = np.random.default_rng(5)
        states = [random_pure_state(40, rng) for _ in range(4000)]
        return [(i, loop_lambda(gen, psi)) for i, psi in enumerate(states)]

    def traced_peak(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def streamed():
        return [row for columns in cli._cmd_lambda(gen, config)["chunks"]
                for row in zip(*columns)]

    ref, ref_peak = traced_peak(per_state)
    rows, peak = traced_peak(streamed)
    assert peak <= ref_peak
    assert [i for i, _ in rows] == list(range(4000))
    lams, ref_lams = np.array(rows)[:, 1], np.array(ref)[:, 1]
    assert np.all(np.abs(lams - ref_lams)
                  <= 1e-12 * np.maximum(1.0, np.abs(ref_lams)))


def test_lambda_command_memory_does_not_grow_with_the_count(tmp_path):
    # the table is drawn, scored and written one chunk at a time; a table
    # held whole grew the peak with the count (4.4 MB at 20,000 toy states,
    # 44 MB at 200,000)
    def peak(count):
        config = parse_config(json.dumps(
            {"command": "lambda", "seed": 3, "model": {"type": "toy"},
             "states": f"random:{count}"}))
        tracemalloc.start()
        try:
            cli.run_config(config, str(tmp_path / str(count)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(20_000), peak(200_000)
    assert large <= small + 2 ** 20, (small, large)
    lines = (tmp_path / "200000" / "lambda.csv").read_text(
        encoding="utf-8").splitlines()
    assert len(lines) == 2 + 200_000
    assert lines[-1].startswith("199999,")


def test_lambda_states_are_validated_before_the_output_is_opened(
        tmp_path, monkeypatch):
    config = parse_config(json.dumps(
        {"command": "lambda", "model": {"type": "toy"},
         "states": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]}))
    opened = []
    monkeypatch.setattr(cli, "_atomic_write",
                        lambda path, pieces: opened.append(path))
    with pytest.raises(ConfigError) as exc:
        cli.run_config(config, str(tmp_path))
    assert exc.value.path == "states[1]"
    assert opened == []


def test_davies_quadratures_in_one_process_are_checked_each(tmp_path,
                                                            capsys):
    # the quadrature and its figures are shared within a process; the
    # eight-angle rule must still fail its compatibility check at N=10
    def davies(n_theta):
        return {"command": "lambda", "states": "random:2",
                "model": {"type": "davies", "kappa": 1.0, "n_levels": 10,
                          "quadrature": {"n_theta": n_theta}}}

    assert run_cli(tmp_path, davies(180))[0] == 0
    capsys.readouterr()
    for _ in range(2):
        assert run_cli(tmp_path, davies(8))[0] == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValidationError"
        assert "compatibility" in err["message"]


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


def _per_cell_csv(header: dict, table: dict) -> str:
    """The CSV renderer before rows took one format each: every float cell
    through format(float(x), ".17g"), every other cell through str."""
    lines = ["# " + json.dumps(header, sort_keys=True,
                               default=cli._json_default)]
    lines.append(",".join(table["columns"]))
    for row in _rows(table):
        lines.append(",".join(format(float(x), ".17g")
                              if isinstance(x, float) else str(x)
                              for x in row))
    return "\n".join(lines) + "\n"


def _rows(table: dict) -> list:
    return [row for columns in table["chunks"] for row in zip(*columns)]


def _chunked(columns: list, rows: list, size: int) -> dict:
    """A table of rows, in chunks of columns of at most size rows."""
    return {"columns": columns,
            "chunks": [tuple(zip(*rows[i:i + size]))
                       for i in range(0, len(rows), size)]}


def test_csv_rows_are_the_bytes_of_the_per_cell_formatter():
    header = {"seed": np.int64(3), "flag": np.bool_(True)}
    edge = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 2.2250738585072014e-308,
            0.1, 1.0 / 3.0, 123456789.0, 1e16, 1e17, float("inf"),
            -float("inf"), float("nan"), np.float64(0.1), np.float64(-0.0),
            np.float64(5e-324)]
    tables = [
        # lambda: an integer index and a float
        (["state_index", "lambda"], list(enumerate(edge))),
        # evolve: times that are integers in some rows and floats in others
        (["t", "S_lin", "dist"],
         [(k, x, -x) if k % 2 else (0.5 * k, x, np.float64(x))
          for k, x in enumerate(edge)]),
        # cells of other types, and rows given as lists
        (["a", "b", "c"],
         [[np.int64(-7), True, "x"], [np.float32(0.1), None, 2 ** 70],
          [1.5, np.int32(4), -0.0]]),
    ]
    # every chunking, so that a column is all floats in some chunks and
    # mixed in others
    for columns, rows in tables:
        for size in range(1, len(rows) + 1):
            table = _chunked(columns, rows, size)
            assert "".join(cli._render_csv(header, table)) \
                == _per_cell_csv(header, table)
    rng = np.random.default_rng(0)
    rows = list(enumerate(rng.standard_normal(500)
                          * 10.0 ** rng.integers(-300, 300, 500)))
    table = _chunked(["state_index", "lambda"], rows, 409)
    assert "".join(cli._render_csv(header, table)) \
        == _per_cell_csv(header, table)
    assert "".join(cli._render_csv(header, _chunked(["x"], [], 1))) \
        == _per_cell_csv(header, _chunked(["x"], [], 1))


@pytest.mark.parametrize("payload", [
    {"command": "lambda", "seed": 5, "states": "random:50",
     "model": {"type": "qbm", "n_levels": 6, "D": 0.5}},
    {"command": "evolve", "seed": 5, "times": [0, 0.25, 1, 2.5],
     "model": {"type": "pointer", "energies": [0.0, 1.0, 2.5]}},
], ids=["lambda", "evolve"])
def test_run_csv_is_the_bytes_of_the_per_cell_formatter(tmp_path, payload,
                                                         monkeypatch):
    # the tables passed to _render_csv, each with its chunks as they stream
    rendered = []
    render = cli._render_csv

    def recording(header, table):
        chunks = []
        rendered.append((header, {"columns": table["columns"],
                                  "chunks": chunks}))

        def passing():
            for columns in table["chunks"]:
                chunks.append(columns)
                yield columns

        return render(header, {**table, "chunks": passing()})

    monkeypatch.setattr(cli, "_render_csv", recording)
    code, out = run_cli(tmp_path, {**payload, "output_format": "csv"})
    assert code == 0
    (header, table), = rendered
    text = (out / f"{payload['command']}.csv").read_text(encoding="utf-8")
    assert text == _per_cell_csv(header, table)


def _whole_lambda_table(payload) -> dict:
    """The lambda table as it was built whole: every chunk's values in one
    list, then one (index, lambda) tuple per row."""
    config = parse_config(json.dumps(payload))
    gen = cli.build_model(config)
    spec = config["states"]
    if isinstance(spec, str):
        lams = []
        for chunk in cli._random_state_chunks(
                gen.dim, int(spec.partition(":")[2]), config["seed"]):
            lams.extend(cli.lambda_pure(gen, chunk).tolist())
    else:
        lams = cli.lambda_pure(
            gen, cli._config_states(spec, gen.dim)).tolist()
    return {"columns": ["state_index", "lambda"],
            "chunks": [tuple(zip(*enumerate(lams)))]}


@pytest.mark.parametrize("payload", [
    # 1000 states of d=40 stream as chunks of 409, 409 and 182
    {"command": "lambda", "seed": 9, "states": "random:1000",
     "model": {"type": "davies", "kappa": 1.0, "n_levels": 40}},
    {"command": "lambda", "states": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                                     [[0.5, 0.0], [0.0, -0.5], [1.0, 0.0]],
                                     [[0.0, 0.0], [1e-3, 0.0], [0.0, 2.0]]],
     "model": {"type": "pointer", "energies": [0.0, 1.0, 2.5]}},
], ids=["davies40_three_chunks", "explicit_states"])
def test_streamed_lambda_table_is_the_whole_table(tmp_path, payload):
    table = _whole_lambda_table(payload)
    header = cli._header(parse_config(json.dumps(payload)))
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    assert (out / "lambda.csv").read_text(encoding="utf-8") \
        == _per_cell_csv(header, table)
    payload = {**payload, "output_format": "json"}
    header = cli._header(parse_config(json.dumps(payload)))
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    rows = [list(row) for row in _rows(table)]
    assert (out / "lambda.json").read_text(encoding="utf-8") \
        == cli._render_json(header, {"columns": table["columns"],
                                     "rows": rows})


def test_a_failure_mid_stream_leaves_no_file(tmp_path, capsys, monkeypatch):
    # the second chunk's lambda fails after the first chunk is written
    calls = []
    real = cli.lambda_pure

    def failing(gen, psi):
        calls.append(len(psi))
        if len(calls) == 2:
            raise FloatingPointError("second chunk")
        return real(gen, psi)

    monkeypatch.setattr(cli, "lambda_pure", failing)
    payload = {"command": "lambda", "model": {"type": "toy"},
               "states": "random:20000"}
    out = tmp_path / "direct"
    with pytest.raises(FloatingPointError):
        cli.run_config(parse_config(json.dumps(payload)), str(out))
    assert calls == [cli._CHUNK_AMPLITUDES // 2] * 2
    assert os.listdir(out) == []

    calls.clear()
    code, out = run_cli(tmp_path, payload)
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] \
        == "FloatingPointError"
    assert os.listdir(out) == []


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
    real = liouville._JumpList.fill

    def counting(self, M):
        calls.append(1)
        return real(self, M)

    monkeypatch.setattr(liouville._JumpList, "fill", counting)
    payload = {"command": command,
               "model": {"type": "pointer", "energies": [0.0, 1.0, 2.5]}}
    if command == "evolve":
        payload["times"] = [0.0, 0.5, 1.5, 2.0]
    code, _ = run_cli(tmp_path, payload)
    assert code == 0
    assert len(calls) == 1


def test_evolve_validates_each_state_once(tmp_path, monkeypatch):
    # S_lin is read off the state its step validated: linear_entropy once
    # validated it again, one more eigh per step.  The initial state, which
    # no step validated, is validated for its row
    calls = []
    real = operators.validate_density_matrix

    def counting(rho, *args, **kwargs):
        calls.append(1)
        return real(rho, *args, **kwargs)

    monkeypatch.setattr(operators, "validate_density_matrix", counting)
    monkeypatch.setattr(cli, "validate_density_matrix", counting)
    code, out = run_cli(tmp_path, {
        "command": "evolve", "times": [0.0, 0.5, 1.5, 2.0],
        "output_format": "json",
        "model": {"type": "pointer", "energies": [0.0, 1.0, 2.5]}})
    assert code == 0
    assert len(calls) == 4
    rows = json.loads((out / "evolve.json").read_text(
        encoding="utf-8"))["result"]["rows"]
    assert [row[0] for row in rows] == [0.0, 0.5, 1.5, 2.0]
    assert rows[0][1] == pytest.approx(0.0, abs=1e-12)
    assert all(0.0 <= row[1] <= 1.0 - 1.0 / 3 + 1e-12 for row in rows)


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


def _custom(gen) -> dict:
    pairs = lambda A: [[[z.real, z.imag] for z in row]
                       for row in np.asarray(A, dtype=complex).tolist()]
    return {"type": "custom", "hamiltonian": pairs(gen.hamiltonian),
            "jump_ops": [pairs(V) for V in gen.jump_ops]}


def test_decompose_reports_the_unital_residual(tmp_path):
    # the HS norm of L(I), next to the split residuals, which assume it is
    # 0: amplitude damping has L(I) = diag(1, -1); the benchmark's custom
    # model (the unstructured one) is unital
    damping = {"type": "custom",
               "hamiltonian": [[[0.0, 0.0]] * 2] * 2,
               "jump_ops": [[[[0.0, 0.0], [1.0, 0.0]],
                             [[0.0, 0.0], [0.0, 0.0]]]]}

    def unital_residual(model):
        code, out = run_cli(tmp_path, {"command": "decompose",
                                       "model": model})
        assert code == 0
        res = json.loads((out / "decompose.json").read_text(
            encoding="utf-8"))["result"]
        assert "unital_residual" not in res["residuals"]
        return res["unital_residual"]

    assert unital_residual(damping) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert unital_residual(_custom(unstructured_model())) <= 1e-12


def test_a_numerical_failure_of_classify_exits_two(tmp_path, capsys,
                                                 monkeypatch):
    # a LinAlgError on a valid config is a numerical failure, not exit 1
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("classical candidates are not pairwise "
                                    "orthogonal")

    monkeypatch.setattr(cli, "classical_states", failing)
    code, out = run_cli(tmp_path, {"command": "classify",
                                   "model": FULL_MODELS["pointer"]})
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "LinAlgError"
    assert "orthogonal" in err["message"]
    assert not (out / "classify.json").exists()


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


@pytest.mark.parametrize("payload", [
    {"command": "evolve", "seed": 7, "times": [0.0, 0.5, 1.0, 2.0],
     "model": FULL_MODELS["qbm"]},
    {"command": "lambda", "seed": 7, "states": "random:50",
     "model": {"type": "davies", "n_levels": 6, "kappa": 1.0}},
    {"command": "sieve", "seed": 7, "n_starts": 6,
     "model": {"type": "pointer", "energies": [0.0, 0.8, 2.0]}},
    {"command": "decompose", "seed": 7, "model": FULL_MODELS["custom"]},
    {"command": "classify", "seed": 7, "model": FULL_MODELS["grw"]},
], ids=lambda payload: payload["command"])
def test_run_outputs_are_deterministic(tmp_path, payload):
    runs = []
    for _ in range(2):
        code, out = run_cli(tmp_path, payload)
        assert code == 0
        [path] = out.glob(f"{payload['command']}.*")
        runs.append(path.read_bytes())
    assert runs[0] == runs[1]


def test_seed_flag_overrides_config(tmp_path):
    payload = {"command": "lambda", "seed": 1,
               "model": {"type": "toy"}, "states": "random:5",
               "output_format": "json"}
    _, out = run_cli(tmp_path, payload, extra_args=["--seed", "9"])
    doc = json.loads((out / "lambda.json").read_text(encoding="utf-8"))
    assert doc["header"]["config"]["seed"] == 9


# ---------------------------------------------------------------------------
# start-up

_IMPORT_GUARD = """
import json, os, sys, tempfile
import numpy as np
import qsieve.cli as cli

configs = [
    {"command": "evolve", "model": {"type": "toy"}, "times": [0.0, 1.0],
     "state": [[1.0, 0.0], [0.0, 0.0]]},
    {"command": "lambda", "model": {"type": "pointer",
                                    "energies": [0.0, 1.0, 2.5]},
     "states": "random:4"},
    {"command": "sieve", "model": {"type": "toy"}, "n_starts": 3},
    {"command": "decompose", "model": {"type": "pointer",
                                       "energies": [0.0, 1.0]}},
    {"command": "classify", "model": {"type": "pointer",
                                      "energies": [0.0, 1.0, 2.5]}},
]
with tempfile.TemporaryDirectory() as out:
    for i, config in enumerate(configs):
        cli.run_config(cli.parse_config(json.dumps(config)),
                       os.path.join(out, str(i)))
heavy = ("scipy.optimize", "scipy.sparse", "scipy.special", "scipy.fft")
after_run = [name for name in heavy if name in sys.modules]

from qsieve.models import nearest_su11_coherent, su11_coherent_state
psi = (su11_coherent_state(24, 0.35 - 0.2j)
       + 0.1 * su11_coherent_state(24, -0.1 + 0.25j))
zeta, fid = nearest_su11_coherent(psi / np.linalg.norm(psi))
print(json.dumps({"after_run": after_run,
                  "optimize_loaded": "scipy.optimize" in sys.modules,
                  "zeta": [zeta.real, zeta.imag], "fidelity": fid}))
"""


def test_a_run_loads_no_scipy_module_beyond_linalg():
    # scipy.optimize pulls in scipy.special, fft, sparse and spatial, and
    # was once about 40% of a run's start-up; only nearest_su11_coherent
    # needs it
    src = os.path.dirname(os.path.dirname(qsieve.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["after_run"] == []
    assert report["optimize_loaded"] is True
    # the label and fidelity the module-level import gave
    assert report["zeta"] == pytest.approx(
        [0.3232683664743599, -0.18108965050626208], abs=1e-9)
    assert report["fidelity"] == pytest.approx(0.9977902228565111, abs=1e-12)
