"""Workload generator: a seed in, a list of qsieve run configs out.

Each workload is a list of *cases*.  A case is one run config, exactly as
``qsieve run --config`` would read it, plus the reference expectations the
checks in ``checks.py`` hold its output to.  The generator writes the seed
into every config's ``seed``; the program only ever sees the configs.

Why each workload exists (see also ``WHY``):

* ``sieve_mix``: the sieve layer (lambda minimisation, the grid
  superposition-exclusion test and lambda evaluation) does almost all the
  work, on all three lambda code paths: the dense ``cp_superop`` matvec
  (Davies), the Hadamard kernel (GRW) and jump lists (pointer, QBM, toy).
  No Schur, Sylvester or ``expm`` call.  The multi-start descent costs a
  random amount per seed (failed starts run to ``max_iter``; the exclusion
  test costs O(m^2) in the number m of distinct minimisers), so the mix is
  padded with fixed-cost ``lambda`` evaluations on the same three paths to
  keep one pass steady across seeds.
* ``split_mix``: the decomposition, liouville and kernel layers do the work
  (spectral split, verification, classical states, dense ``expm``) and no
  lambda is evaluated.  ``decompose`` on Davies is block-diagonal in
  coherence order; ``decompose`` on QBM is not (its x jump mixes sectors).
* ``small_configs``: every command on every model type at d <= 6, repeated
  in rounds.  Per-config fixed costs dominate (validation, model build with
  the Davies quadrature check, the custom-model ``eis_check``, header,
  render, atomic write), so per-call set-up added for large d shows here.
"""
from __future__ import annotations

import copy

WHY = {
    "sieve_mix": "sieve layer only: descent starts, grid exclusion and "
                 "lambda evaluation on the dense, kernel and jump-list paths",
    "split_mix": "decomposition, liouville and kernel layers only: Schur "
                 "split, verification, classical states and dense expm; "
                 "no lambda evaluations",
    "small_configs": "all five commands on all six model types at d <= 6, "
                     "where fixed per-config costs dominate",
}

#: round k of a workload runs its configs with seed + ROUND_SEED_STRIDE * k
ROUND_SEED_STRIDE = 1_000_000

#: rounds of ``small_configs`` in one pass
SMALL_ROUNDS = 16

#: Davies N=40 at the default tol gives |a0 - 2k/3| ~ 4e-8; a shift of 1e-3
#: must fail
DAVIES_A0_TOL = 1e-6
#: sieve minimum on models whose infimum is 0 (pointer, GRW, QBM)
ZERO_A0_MAX = 1e-9
#: every verification residual except the two health figures
RESIDUAL_MAX = 1e-7
OVERLAP_MAX = 1e-8


def _grid(n: int, half_width: float = 3.0) -> list:
    return [round(-half_width + 2 * half_width * i / (n - 1), 12)
            for i in range(n)]


def _pointer(d: int) -> dict:
    energies = [0.0, 1.0, 2.5, 3.7, 5.2, 6.1, 7.9, 9.4]
    return {"type": "pointer", "energies": energies[:d]}


def _grw(n: int) -> dict:
    return {"type": "grw", "grid": _grid(n), "kappa": 1.0, "alpha": 1.0}


def _qbm(n: int) -> dict:
    return {"type": "qbm", "n_levels": n, "D": 0.5}


def _davies(n: int) -> dict:
    return {"type": "davies", "kappa": 1.0, "n_levels": n}


TOY = {"type": "toy"}


def _custom() -> dict:
    """A unital 4-level model: dephasing plus Hermitian hopping jumps, so the
    semigroup passes ``eis_check`` and its only fixed point is I/4."""
    d = 4
    H = [[[0.0, 0.0] for _ in range(d)] for _ in range(d)]
    for i, e in enumerate((0.0, 1.0, 2.0, 3.0)):
        H[i][i] = [e, 0.0]
    H[0][1] = H[1][0] = [0.5, 0.0]
    H[1][2], H[2][1] = [0.0, 0.3], [0.0, -0.3]
    H[2][3] = H[3][2] = [0.2, 0.0]
    dephase = [[[v if i == j else 0.0, 0.0] for j in range(d)]
               for i, v in enumerate((1.0, 0.5, 0.0, -0.5))]
    hop = [[[0.7 if abs(i - j) == 1 else 0.0, 0.0] for j in range(d)]
           for i in range(d)]
    return {"type": "custom", "hamiltonian": H, "jump_ops": [dephase, hop]}


def _model_dim(model: dict) -> int:
    mtype = model["type"]
    if mtype == "toy":
        return 2
    if mtype == "pointer":
        return len(model["energies"])
    if mtype == "grw":
        return len(model["grid"])
    if mtype in ("qbm", "davies"):
        return model["n_levels"]
    return len(model["hamiltonian"])


def _lambda_floor(model: dict) -> float:
    """Infimum of lambda over pure states that every value must respect."""
    if model["type"] == "toy":
        return 1.0
    if model["type"] == "davies" and model["n_levels"] >= 40:
        return 2.0 * model["kappa"] / 3.0
    # truncated Davies sits below 2k/3 near the cutoff; the rest have
    # infimum 0 (custom: lambda >= 0 for any dissipative generator)
    return 0.0


def _iso_dim(model: dict) -> int:
    """Isometric-subspace dimension known from the model's structure."""
    mtype = model["type"]
    if mtype in ("pointer", "grw"):
        return _model_dim(model)   # the diagonal survives, coherences decay
    # toy, QBM, Davies and the custom model are unital with a trivial
    # commutant, so only the identity is peripheral
    return 1


def _expect(command: str, model: dict, config: dict) -> dict:
    mtype = model["type"]
    d = _model_dim(model)
    if command == "sieve":
        if mtype == "davies":
            return {"a0": 2.0 * model["kappa"] / 3.0, "a0_tol": DAVIES_A0_TOL}
        if mtype in ("pointer", "grw", "qbm"):
            out = {"a0_max": ZERO_A0_MAX}
            if mtype == "pointer":
                out["pointer_states"] = d
            return out
        if mtype == "toy":
            return {"a0": 1.0, "a0_tol": 1e-9, "flat": True}
        return {}
    if command == "lambda":
        count = int(config.get("states", "random:100").partition(":")[2])
        return {"lambda_min": _lambda_floor(model), "rows": count}
    if command == "evolve":
        return {"rows": len(config["times"])}
    if command == "decompose":
        return {"iso_dim": _iso_dim(model), "dim": d,
                "residual_max": RESIDUAL_MAX}
    if command == "classify":
        out = {"overlap_max": OVERLAP_MAX}
        if mtype in ("pointer", "grw"):
            out["n_classical"] = d
        return out
    raise ValueError(f"unknown command {command!r}")


def _case(command: str, model: dict, seed: int, **params) -> dict:
    config = {"command": command, "model": copy.deepcopy(model),
              "seed": seed, **params}
    if command == "evolve":
        config.setdefault("times", [0.25 * k for k in range(41)])
    return {"config": config, "expect": _expect(command, model, config)}


def _sieve_mix(seed: int) -> list:
    # No Davies sieve: at N=40 one costs 0.3-8 s depending on the seed
    # (descent length, and whether a start stops in the lambda ~ 0.733
    # local minimum, which removes the O(m^2) exclusion test), more spread
    # than a pass can average out.  Its dense matvec is measured by the
    # fixed-cost Davies lambda config instead.
    return [
        _case("sieve", _grw(16), seed, n_starts=8),
        _case("sieve", _pointer(5), seed, n_starts=8),
        # two starts: with four, the O(m^2) exclusion test on QBM costs
        # 0.3-2.4 s by seed; two still land on truncated-x eigenvectors
        _case("sieve", _qbm(16), seed, n_starts=2),
        _case("sieve", TOY, seed, n_starts=8),
        _case("lambda", _davies(40), seed, states="random:4000"),
        _case("lambda", _grw(32), seed, states="random:6000"),
        _case("lambda", _qbm(16), seed, states="random:6000"),
    ]


def _split_mix(seed: int) -> list:
    return [
        _case("decompose", _davies(24), seed),
        _case("decompose", _qbm(16), seed),
        _case("classify", _grw(11), seed),
        _case("classify", _pointer(8), seed),
        _case("evolve", _qbm(20), seed),
        _case("decompose", _custom(), seed),
    ]


def _small_round(seed: int) -> list:
    models = [TOY, _pointer(4), _qbm(6), _grw(6), _davies(6), _custom()]
    short = [0.5 * k for k in range(11)]
    cases = []
    for model in models:
        # custom evolve/lambda (CSV output) raise TypeError in qsieve 0.1.0;
        # they stay in and count as failed operations
        cases.append(_case("evolve", model, seed, times=short))
        cases.append(_case("lambda", model, seed, states="random:20"))
        cases.append(_case("decompose", model, seed))
    cases.append(_case("sieve", TOY, seed, n_starts=8))
    cases.append(_case("sieve", _custom(), seed, n_starts=1))
    # pointer and GRW classify run the grid exclusion (>= 0.1 s even at
    # d = 2), and pointer/GRW/QBM/Davies sieve pay for failed starts; those
    # live in split_mix and sieve_mix
    for model in (TOY, _qbm(6), _davies(6), _custom()):
        cases.append(_case("classify", model, seed))
    return cases


def _small_configs(seed: int) -> list:
    cases = []
    for k in range(SMALL_ROUNDS):
        cases.extend(_small_round(seed + ROUND_SEED_STRIDE * k))
    return cases


_GENERATORS = {
    "sieve_mix": _sieve_mix,
    "split_mix": _split_mix,
    "small_configs": _small_configs,
}

WORKLOADS = tuple(_GENERATORS)


def generate(name: str, seed: int) -> list:
    """Cases of workload ``name`` for ``seed``; the same seed gives the same
    cases."""
    if name not in _GENERATORS:
        raise KeyError(f"unknown workload {name!r} (options: {WORKLOADS})")
    if not isinstance(seed, int) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return _GENERATORS[name](seed)
