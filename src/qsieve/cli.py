"""Command-line front door.

Subcommands:

* ``qsieve run --config cfg.json [--out DIR] [--seed N]``
* ``qsieve models``    -- list built-in model types with parameter schemas
* ``qsieve validate --config cfg.json``  -- parse and validate without running

The config is a single JSON object selecting a model and a command
(evolve | lambda | sieve | decompose | classify) plus command parameters.
Unknown keys are rejected with field-path-annotated errors.  Every output
file begins with a header object (config echo with defaults filled, artifact
version, seed, tolerance set) so a run is reproducible from its artifact
alone; for a fixed seed the output bytes are identical across runs, which is
why wall-clock goes to stderr rather than into the file.

Exit codes: 0 success, 1 config/validation error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .decomposition import (
    DefectivePeripheralSpectrumError,
    classical_states,
    spectral_split,
    verify_split_properties,
)
from .liouville import (
    CHOI_TOL,
    CONTRACTION_TOL,
    TRACE_TOL,
    LindbladGenerator,
    apply_generator,
    build_superoperator,
    channel_applier,
    eis_check,
    steady_state,
)
from .models import (
    davies_model,
    disc_quadrature,
    grw_model,
    pointer_model,
    qbm_model,
    toy_model,
)
from .operators import (
    HERMITICITY_TOL,
    DegenerateInputError,
    ValidationError,
    hs_norm,
    is_hermitian,
    linear_entropy,
    normalize_state,
    random_pure_state,
    trace_norm,
    validate_density_matrix,
)
from .sieve import lambda_pure, minimize_lambda

__all__ = ["main", "parse_config", "build_model", "run_config", "ConfigError"]


class ConfigError(ValidationError):
    """Config validation failure, annotated with the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# ---------------------------------------------------------------------------
# schema helpers

def _check_keys(obj: dict, path: str, required, optional) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected a JSON object")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}",
                              f"unknown key (allowed: {sorted(allowed)})")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}", "missing required key")


def _real(value, path: str, finite: bool = True) -> float:
    """A JSON number as a float.  json.loads reads the literals NaN, Infinity
    and -Infinity, and an integer literal can exceed the float range; unless
    finite is False, such a number is a ConfigError at its path."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "expected a number")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf if value > 0 else -math.inf
    if finite and not math.isfinite(x):
        raise ConfigError(path, "expected a finite number")
    return x


def _number(value, path: str, positive: bool = False) -> float:
    x = _real(value, path)
    if positive and x <= 0:
        raise ConfigError(path, "must be > 0")
    return x


def _integer(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return value


def _real_list(value, path: str):
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a non-empty array of numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _complex_entry(value, path: str, finite: bool = True) -> list:
    if (not isinstance(value, list) or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   for v in value)):
        raise ConfigError(path, "expected a [re, im] pair")
    return [_real(v, f"{path}[{i}]", finite) for i, v in enumerate(value)]


def _complex_matrix(value, path: str) -> list:
    """Validated nested arrays of [re, im] pairs (kept JSON-serializable)."""
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a non-empty array of rows")
    rows = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise ConfigError(f"{path}[{i}]", "expected a non-empty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ConfigError(f"{path}[{i}]", "ragged matrix rows")
        rows.append([_complex_entry(c, f"{path}[{i}][{j}]")
                     for j, c in enumerate(row)])
    return rows


def _complex_vector(value, path: str) -> list:
    """Amplitudes, not checked finite: a non-finite one leaves the vector
    with no norm, which _state_vector reports at the vector's path."""
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a non-empty array of [re, im] pairs")
    return [_complex_entry(c, f"{path}[{i}]", finite=False)
            for i, c in enumerate(value)]


def _hermitian(H: list, path: str) -> list:
    """H, checked Hermitian at the tolerance LindbladGenerator applies."""
    if not is_hermitian(_to_complex(H), tol=1e-12):
        raise ConfigError(path, "must be Hermitian")
    return H


def _to_complex(pairs) -> np.ndarray:
    """[re, im]-pair nesting (vector or matrix) -> complex ndarray."""
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


# ---------------------------------------------------------------------------
# model schemas

def _validate_model(model, path: str = "model") -> dict:
    if not isinstance(model, dict):
        raise ConfigError(path, "expected a JSON object")
    mtype = model.get("type")
    if mtype not in MODEL_SCHEMAS:
        raise ConfigError(f"{path}.type",
                          f"unknown model type {mtype!r} "
                          f"(options: {sorted(MODEL_SCHEMAS)})")
    # a trailing "?" marks an optional key of the schema
    schema = MODEL_SCHEMAS[mtype]
    _check_keys(model, path,
                ["type"] + [key for key in schema if not key.endswith("?")],
                [key[:-1] for key in schema if key.endswith("?")])
    out = {"type": mtype}
    if mtype == "toy":
        if "hamiltonian" in model:
            H = _complex_matrix(model["hamiltonian"], f"{path}.hamiltonian")
            if len(H) != 2 or len(H[0]) != 2:
                raise ConfigError(f"{path}.hamiltonian", "must be 2x2")
            out["hamiltonian"] = _hermitian(H, f"{path}.hamiltonian")
    elif mtype == "pointer":
        energies = _real_list(model["energies"], f"{path}.energies")
        if len(energies) < 2:
            raise ConfigError(f"{path}.energies", "need at least two levels")
        out["energies"] = energies
    elif mtype == "qbm":
        out["n_levels"] = _integer(model["n_levels"], f"{path}.n_levels", 2)
        out["D"] = _number(model["D"], f"{path}.D", positive=True)
        out["omega"] = _number(model.get("omega", 1.0), f"{path}.omega",
                               positive=True)
    elif mtype == "grw":
        grid = _real_list(model["grid"], f"{path}.grid")
        if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"{path}.grid",
                              "must be strictly increasing with >= 2 points")
        out["grid"] = grid
        out["kappa"] = _number(model["kappa"], f"{path}.kappa", positive=True)
        out["alpha"] = _number(model["alpha"], f"{path}.alpha", positive=True)
    elif mtype == "davies":
        out["kappa"] = _number(model["kappa"], f"{path}.kappa", positive=True)
        out["n_levels"] = _integer(model.get("n_levels", 40),
                                   f"{path}.n_levels", 2)
        if "energies" in model:
            energies = _real_list(model["energies"], f"{path}.energies")
            if len(energies) != out["n_levels"]:
                raise ConfigError(f"{path}.energies",
                                  "length must equal n_levels")
            out["energies"] = energies
        quad = model.get("quadrature", {})
        _check_keys(quad, f"{path}.quadrature", (),
                    ("r_max", "n_r", "n_theta"))
        q = {"r_max": _number(quad.get("r_max", 1.0 - 1e-9),
                              f"{path}.quadrature.r_max", positive=True),
             "n_r": _integer(quad.get("n_r", 64),
                             f"{path}.quadrature.n_r", 2),
             "n_theta": _integer(quad.get("n_theta", 180),
                                 f"{path}.quadrature.n_theta", 4)}
        if q["r_max"] >= 1.0:
            raise ConfigError(f"{path}.quadrature.r_max", "must be < 1")
        out["quadrature"] = q
    elif mtype == "custom":
        H = _complex_matrix(model["hamiltonian"], f"{path}.hamiltonian")
        if len(H) != len(H[0]):
            raise ConfigError(f"{path}.hamiltonian", "must be square")
        out["hamiltonian"] = _hermitian(H, f"{path}.hamiltonian")
        jump_ops = model.get("jump_ops", [])
        if not isinstance(jump_ops, list):
            raise ConfigError(f"{path}.jump_ops",
                              "expected an array of matrices")
        jumps = []
        for i, Jm in enumerate(jump_ops):
            J = _complex_matrix(Jm, f"{path}.jump_ops[{i}]")
            if len(J) != len(H) or len(J[0]) != len(H):
                raise ConfigError(f"{path}.jump_ops[{i}]",
                                  "shape must match the Hamiltonian")
            jumps.append(J)
        out["jump_ops"] = jumps
    return out


MODEL_SCHEMAS = {
    "toy": {"hamiltonian?": "2x2 matrix of [re, im] (default 0)"},
    "pointer": {"energies": "array of >= 2 level energies"},
    "qbm": {"n_levels": "Fock cutoff >= 2", "D": "decoherence rate > 0",
            "omega?": "oscillator frequency > 0 (default 1.0)"},
    "grw": {"grid": "strictly increasing positions, >= 2 points",
            "kappa": "localization rate > 0",
            "alpha": "inverse localization length^2 > 0"},
    "davies": {"kappa": "process rate > 0",
               "n_levels?": "Fock cutoff >= 2 (default 40)",
               "energies?": "diagonal Hamiltonian (default 0..N-1)",
               "quadrature?": "disc rule {r_max, n_r, n_theta}"},
    "custom": {"hamiltonian": "square matrix of [re, im]",
               "jump_ops?": "array of same-shape matrices of [re, im]"},
}

COMMANDS = ("evolve", "lambda", "sieve", "decompose", "classify")


def _state_vector(value, path: str) -> list:
    """An amplitude vector of nonzero finite norm, checked as run's
    normalize_state checks it, so that validate rejects what run would."""
    amps = _complex_vector(value, path)
    try:
        normalize_state(_to_complex(amps))
    except ValidationError as exc:
        raise ConfigError(path, str(exc)) from exc
    return amps


def _validate_states(value, path: str):
    """'random:<k>', k in ASCII digits, or an array of amplitude vectors."""
    if isinstance(value, str):
        head, sep, count = value.partition(":")
        if head != "random" or not sep or not count.isascii() \
                or not count.isdigit() or int(count) < 1:
            raise ConfigError(path, "expected 'random:<count>' or an array "
                                    "of amplitude vectors")
        return value
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected 'random:<count>' or an array "
                                "of amplitude vectors")
    return [_state_vector(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _validate_command_params(config: dict, command: str) -> dict:
    params = {}
    if command == "evolve":
        times = config.get("times", [0.25 * k for k in range(41)])
        times = _real_list(times, "times")
        if any(t < 0 for t in times):
            raise ConfigError("times", "times must be >= 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("times", "times must be sorted ascending")
        params["times"] = times
        state = config.get("state", "random")
        if state != "random":
            state = _state_vector(state, "state")
        params["state"] = state
    elif command == "lambda":
        params["states"] = _validate_states(config.get("states", "random:100"),
                                            "states")
    elif command == "sieve":
        params["n_starts"] = _integer(config.get("n_starts", 16),
                                      "n_starts", 1)
        params["tol"] = _number(config.get("tol", 1e-8), "tol", positive=True)
        params["max_iter"] = _integer(config.get("max_iter", 2000),
                                      "max_iter", 1)
        if "epsilon" in config:
            params["epsilon"] = _number(config["epsilon"], "epsilon",
                                        positive=True)
    elif command == "decompose":
        if "tol" in config:
            params["tol"] = _number(config["tol"], "tol", positive=True)
        else:
            params["tol"] = None
    elif command == "classify":
        params["residual_tol"] = _number(config.get("residual_tol", 1e-8),
                                         "residual_tol", positive=True)
    return params


_COMMON_KEYS = ("model", "command", "output_format", "seed")
_COMMAND_KEYS = {
    "evolve": ("times", "state"),
    "lambda": ("states",),
    "sieve": ("n_starts", "tol", "max_iter", "epsilon"),
    "decompose": ("tol",),
    "classify": ("residual_tol",),
}


def parse_config(text: str) -> dict:
    """Parse and fully validate a JSON run config; fill defaults.

    Returns the normalized config dict that is echoed into output headers.
    """
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"<json:line {exc.lineno}:col {exc.colno}>",
                          exc.msg) from exc
    if not isinstance(config, dict):
        raise ConfigError("<root>", "config must be a JSON object")

    command = config.get("command")
    if command not in COMMANDS:
        raise ConfigError("command",
                          f"unknown command {command!r} "
                          f"(options: {sorted(COMMANDS)})")
    allowed = set(_COMMON_KEYS) | set(_COMMAND_KEYS[command])
    for key in config:
        if key not in allowed:
            raise ConfigError(key, "unknown key for command "
                                   f"{command!r} (allowed: {sorted(allowed)})")
    if "model" not in config:
        raise ConfigError("model", "missing required key")

    fmt = config.get("output_format", "csv" if command in ("evolve", "lambda")
                     else "json")
    if fmt not in ("csv", "json"):
        raise ConfigError("output_format", "must be 'csv' or 'json'")
    if fmt == "csv" and command in ("sieve", "decompose", "classify"):
        raise ConfigError("output_format",
                          f"command {command!r} emits structured output; "
                          "use 'json'")

    normalized = {
        "model": _validate_model(config["model"]),
        "command": command,
        "output_format": fmt,
        "seed": _integer(config.get("seed", 0), "seed", 0),
    }
    normalized.update(_validate_command_params(config, command))
    return normalized


def build_model(config: dict) -> LindbladGenerator:
    model = config["model"]
    mtype = model["type"]
    if mtype == "toy":
        H = _to_complex(model["hamiltonian"]) if "hamiltonian" in model \
            else None
        return toy_model(H)
    if mtype == "pointer":
        return pointer_model(model["energies"])
    if mtype == "qbm":
        return qbm_model(model["n_levels"], model["D"], model["omega"])
    if mtype == "grw":
        return grw_model(model["grid"], model["kappa"], model["alpha"])
    if mtype == "davies":
        q = model["quadrature"]
        quad = disc_quadrature(q["r_max"], q["n_r"], q["n_theta"])
        return davies_model(model["n_levels"], model["kappa"],
                            energies=model.get("energies"), quadrature=quad)
    H = _to_complex(model["hamiltonian"])
    jumps = tuple(_to_complex(J) for J in model["jump_ops"])
    return LindbladGenerator(H.shape[0], H, jump_ops=jumps, label="custom")


# ---------------------------------------------------------------------------
# command implementations

TOLERANCES = {
    "choi_psd": CHOI_TOL,
    "trace_preservation": TRACE_TOL,
    "norm_contraction": CONTRACTION_TOL,
    "fixed_point_residual": 1e-8,
    "hermiticity": HERMITICITY_TOL,
}


def _header(config: dict) -> dict:
    return {
        "artifact": "qsieve",
        "version": __version__,
        "config": config,
        "seed": config["seed"],
        "tolerances": TOLERANCES,
    }


#: amplitudes the lambda command draws and scores at once: 'random:<count>'
#: states go in chunks of _CHUNK_AMPLITUDES // dim, so that memory stays
#: bounded whatever the count
_CHUNK_AMPLITUDES = 2 ** 14


def _random_state_chunks(dim: int, count: int, seed: int):
    """The states of 'random:<count>' as (m, dim) stacks of at most
    _CHUNK_AMPLITUDES // dim states, drawn from the seed's generator: the
    stream of count sequential random_pure_state calls."""
    rng = np.random.default_rng(seed)
    size = max(1, _CHUNK_AMPLITUDES // dim)
    for start in range(0, count, size):
        yield random_pure_state(dim, rng, min(size, count - start))


def _config_states(spec: list, dim: int) -> np.ndarray:
    """The states of an amplitude-vector list, normalized, as one stack."""
    for i, amps in enumerate(spec):
        if len(amps) != dim:
            raise ConfigError(f"states[{i}]",
                              f"length {len(amps)} does not match model "
                              f"dimension {dim}")
    return normalize_state(_to_complex(spec))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _cmd_evolve(gen: LindbladGenerator, config: dict):
    if config["state"] == "random":
        psi = random_pure_state(gen.dim, np.random.default_rng(config["seed"]))
        rho = np.outer(psi, psi.conj())
    else:
        amps = config["state"]
        if len(amps) != gen.dim:
            raise ConfigError("state", f"length {len(amps)} does not match "
                                       f"model dimension {gen.dim}")
        psi = normalize_state(_to_complex(amps))
        rho = np.outer(psi, psi.conj())
    times = config["times"]
    steady = steady_state(gen, rho, t_ref=max(times[-1], 1.0))

    rows = []
    current = rho
    prev_t = 0.0
    applier = None
    prev_dt = None
    for t in times:
        dt = t - prev_t
        if dt > 0:
            if applier is None or dt != prev_dt:
                applier = channel_applier(gen, dt)
                prev_dt = dt
            current = validate_density_matrix(applier(current))
        prev_t = t
        rows.append((t, linear_entropy(current),
                     0.5 * trace_norm(current - steady)))
    return {"columns": ["t", "S_lin", "dist"], "rows": rows}


def _cmd_lambda(gen: LindbladGenerator, config: dict):
    spec = config["states"]
    if isinstance(spec, str):
        count = int(spec.partition(":")[2])
        lams = []
        for chunk in _random_state_chunks(gen.dim, count, config["seed"]):
            lams.extend(lambda_pure(gen, chunk).tolist())
    else:
        lams = lambda_pure(gen, _config_states(spec, gen.dim)).tolist()
    return {"columns": ["state_index", "lambda"],
            "rows": list(enumerate(lams))}


def _cmd_sieve(gen: LindbladGenerator, config: dict):
    report = minimize_lambda(gen, n_starts=config["n_starts"],
                             seed=config["seed"], tol=config["tol"],
                             max_iter=config["max_iter"],
                             epsilon=config.get("epsilon"))
    out = report.as_dict()
    out["quasi_classical"] = [i for i, flag
                              in enumerate(out["quasi_classical_flags"])
                              if flag]
    return out


def _cmd_decompose(gen: LindbladGenerator, config: dict):
    M = build_superoperator(gen)
    split = spectral_split(M, tol=config["tol"])
    verification = verify_split_properties(M, split)
    return {
        "iso_dim": split.iso_dim,
        "sweep_dim": split.sweep_dim,
        "spectral_gap": float(split.spectral_gap),
        "tol": float(split.tol),
        "peripheral_eigenvalues": [[float(z.real), float(z.imag)]
                                   for z in split.peripheral_eigenvalues],
        "residuals": {k: (None if v is None else float(v))
                      for k, v in verification.residuals.items()},
        # the split's properties assume L(I) = 0 (a unital semigroup)
        "unital_residual": hs_norm(apply_generator(gen, np.eye(gen.dim))),
    }


def _cmd_classify(gen: LindbladGenerator, config: dict):
    M = build_superoperator(gen)
    split = spectral_split(M)
    result = classical_states(gen, split, seed=config["seed"],
                              residual_tol=config["residual_tol"])
    projs = result.projectors
    overlaps = result.pairwise_overlaps[np.triu_indices(len(projs), 1)]
    return {
        "n_classical": len(projs),
        "projectors": [[[[c.real, c.imag] for c in row] for row in p]
                       for p in projs],
        "max_pairwise_overlap": float(overlaps.max(initial=0.0)),
        "fixed_point_residuals": [float(r)
                                  for r in result.fixed_point_residuals],
    }


# ---------------------------------------------------------------------------
# output plumbing

def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qsieve-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _render_csv(header: dict, table: dict) -> str:
    lines = ["# " + json.dumps(header, sort_keys=True,
                               default=_json_default)]
    lines.append(",".join(table["columns"]))
    for row in table["rows"]:
        lines.append(",".join(_fmt(x) if isinstance(x, float) else str(x)
                              for x in row))
    return "\n".join(lines) + "\n"


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _render_json(header: dict, body: dict) -> str:
    return json.dumps({"header": header, "result": body}, sort_keys=True,
                      indent=2, default=_json_default) + "\n"


def run_config(config: dict, out_dir: str) -> str:
    """Execute a validated config; returns the output file path."""
    os.makedirs(out_dir, exist_ok=True)  # a bad path fails before the run
    gen = build_model(config)
    header = _header(config)
    if config["model"]["type"] == "custom":
        header["eis_check"] = eis_check(gen).as_dict()

    command = config["command"]
    impl = {"evolve": _cmd_evolve, "lambda": _cmd_lambda, "sieve": _cmd_sieve,
            "decompose": _cmd_decompose, "classify": _cmd_classify}[command]
    body = impl(gen, config)

    ext = config["output_format"]
    path = os.path.join(out_dir, f"{command}.{ext}")
    if ext == "csv":
        _atomic_write(path, _render_csv(header, body))
    else:
        if "columns" in body:  # tables requested as json
            body = {"columns": body["columns"],
                    "rows": [list(r) for r in body["rows"]]}
        _atomic_write(path, _render_json(header, body))
    return path


# ---------------------------------------------------------------------------
# entry point

def _error_json(exc: Exception) -> str:
    payload = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ConfigError):
        payload["path"] = exc.path
    return json.dumps({"error": payload}, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qsieve",
        description="Classify pure open-system states by predictability.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="execute a JSON run config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=".")
    p_run.add_argument("--seed", type=int, default=None)

    sub.add_parser("models", help="list built-in model types")

    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)

    if args.subcommand == "models":
        print(json.dumps(MODEL_SCHEMAS, sort_keys=True, indent=2))
        return 0

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(_error_json(exc), file=sys.stderr)
        return 1

    try:
        config = parse_config(text)
        if getattr(args, "seed", None) is not None:  # run --seed N
            config["seed"] = _integer(args.seed, "seed", 0)
    except ValidationError as exc:
        print(_error_json(exc), file=sys.stderr)
        return 1

    if args.subcommand == "validate":
        print(json.dumps({"valid": True, "config": config},
                         sort_keys=True, indent=2))
        return 0

    started = time.monotonic()
    try:
        path = run_config(config, args.out)
    except (DegenerateInputError, DefectivePeripheralSpectrumError,
            RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        # numerical failures; DegenerateInputError is checked before its
        # ValidationError parent
        print(_error_json(exc), file=sys.stderr)
        return 2
    except (ValidationError, OSError) as exc:  # OSError: a bad --out path
        print(_error_json(exc), file=sys.stderr)
        return 1
    elapsed = time.monotonic() - started
    print(json.dumps({"written": path, "wall_clock_s": round(elapsed, 3)}),
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
