"""Spans and counters around qsieve's layers, installed from outside the
package by replacing module attributes in one worker process.

Every wrap point is a (module, attribute) pair.  A *span* wrapper records
[name, start, end, parent, request] in memory; a *count* wrapper only bumps
a counter, for helpers called thousands of times per config where a span
would distort the run.  ``operators`` is deliberately not wrapped: its
per-step helpers show up as self time of the spans around them.  When an
attribute no longer exists the wrap point is recorded as absent and every
metric resting on it is reported absent rather than as 0.

All work is sequential in one process, so no layer waits on another and
there is no wait-time metric.
"""
from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter, defaultdict

QSIEVE_MODULES = ("qsieve", "qsieve.cli", "qsieve.sieve", "qsieve.liouville",
                  "qsieve.decomposition", "qsieve.models", "qsieve.operators")
COMMANDS = ("evolve", "lambda", "sieve", "decompose", "classify")
#: complex128; kernel.bytes_computed is computed from shapes, not measured
BYTES_PER_ENTRY = 16

# (module, attribute, span or counter name, kind)
SPAN, COUNT, KERNEL_SPAN, KERNEL_COUNT = "span", "count", "kspan", "kcount"
WRAP_POINTS = (
    ("qsieve.cli", "parse_config", "cli.parse_config", SPAN),
    ("qsieve.cli", "run_config", "cli.run_config", SPAN),
    ("qsieve.cli", "build_model", "models.build_model", SPAN),
    ("qsieve.liouville", "build_superoperator",
     "liouville.build_superoperator", SPAN),
    ("qsieve.liouville", "propagator", "liouville.propagator", SPAN),
    ("qsieve.liouville", "channel_applier", "liouville.channel_applier", SPAN),
    ("qsieve.liouville", "eis_check", "liouville.eis_check", SPAN),
    ("qsieve.sieve", "minimize_lambda", "sieve.minimize_lambda", SPAN),
    ("qsieve.sieve", "_descend", "sieve.descend", SPAN),
    ("qsieve.sieve", "_lambda_and_grad", "sieve.lambda_and_grad", COUNT),
    ("qsieve.sieve", "_excludes", "sieve.excludes", SPAN),
    ("qsieve.sieve", "lambda_pure", "sieve.lambda_pure", SPAN),
    ("qsieve.decomposition", "spectral_split",
     "decomposition.spectral_split", SPAN),
    ("qsieve.decomposition", "verify_split_properties",
     "decomposition.verify_split_properties", SPAN),
    ("qsieve.decomposition", "classical_states",
     "decomposition.classical_states", SPAN),
    ("qsieve.decomposition", "iso_membership",
     "decomposition.iso_membership", COUNT),
    ("numpy.linalg", "eigvals", "kernel.eigvals", KERNEL_SPAN),
    ("numpy.linalg", "eigh", "kernel.eigh", KERNEL_COUNT),
    ("numpy.linalg", "svd", "kernel.svd", KERNEL_COUNT),
    ("scipy.linalg", "schur", "kernel.schur", KERNEL_SPAN),
    ("scipy.linalg", "solve_sylvester", "kernel.solve_sylvester", KERNEL_SPAN),
    ("scipy.linalg", "expm", "kernel.expm", KERNEL_SPAN),
    ("scipy.linalg", "null_space", "kernel.null_space", KERNEL_SPAN),
)
KERNEL_NAMES = tuple(name for _, _, name, kind in WRAP_POINTS
                     if kind in (KERNEL_SPAN, KERNEL_COUNT))


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, request]
        self.counts = Counter()
        self.absent = {}         # wrap-point name -> reason
        self._stack = []
        self._kernel_depth = 0
        self._descend_depth = 0
        self.request = -1
        self.max_matrix_dim = 0
        self.superop_bytes = 0
        self._model = None

    # -- spans --------------------------------------------------------------
    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- layer-specific wrappers ------------------------------------------
    def _kernel(self, name, fn, timed):
        def wrapper(*args, **kwargs):
            if self._kernel_depth:       # one LAPACK routine inside another
                return fn(*args, **kwargs)
            self.counts[name] += 1
            self.counts["kernel.dense_factorisations"] += 1
            operands = args[:2] if name == "kernel.solve_sylvester" \
                else args[:1]
            for a in operands:
                shape = getattr(a, "shape", ())
                if len(shape) == 2:
                    self.max_matrix_dim = max(self.max_matrix_dim, *shape)
                    self.counts["kernel.bytes_computed"] += \
                        BYTES_PER_ENTRY * shape[0] * shape[1]
            span = self._open(name) if timed else None
            self._kernel_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._kernel_depth -= 1
                if span is not None:
                    self._close(span)
        return wrapper

    def _run_config(self, fn):
        def wrapper(config, out_dir):
            self.request += 1
            span = self._open(f"cli.run_config.{config['command']}")
            try:
                path = fn(config, out_dir)
                self.counts["cli.output_bytes"] += os.path.getsize(path)
                return path
            finally:
                self._close(span)
                self._note_superop()
        return wrapper

    def _build_model(self, fn):
        inner = self._span("models.build_model", fn)

        def wrapper(config):
            self._model = inner(config)
            return self._model
        return wrapper

    def _note_superop(self) -> None:
        """Bytes of the dense CP superoperator the last model holds, with the
        cached symmetric copy the sieve builds from it."""
        gen, self._model = self._model, None
        if gen is None or gen.cp_superop is None:
            return
        held = gen.cp_superop.nbytes
        cached = vars(gen).get("_cp_sym")
        if cached is not None:
            held += cached.nbytes
        self.superop_bytes = max(self.superop_bytes, held)

    def _minimize_lambda(self, fn):
        inner = self._span("sieve.minimize_lambda", fn)

        def wrapper(*args, **kwargs):
            report = inner(*args, **kwargs)
            self.counts["sieve.distinct_minimizers"] += len(report.minimizers)
            self.counts["sieve.requested_starts"] += report.n_starts
            return report
        return wrapper

    def _descend(self, fn):
        inner = self._span("sieve.descend", fn)

        def wrapper(*args, **kwargs):
            self._descend_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._descend_depth -= 1
        return wrapper

    def _lambda_and_grad(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self._descend_depth:
                counts["sieve.lambda_grad_evals"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _make(self, name, kind, fn):
        special = {
            "cli.run_config": self._run_config,
            "models.build_model": self._build_model,
            "sieve.minimize_lambda": self._minimize_lambda,
            "sieve.descend": self._descend,
            "sieve.lambda_and_grad": self._lambda_and_grad,
        }
        if name in special:
            return special[name](fn)
        if kind == SPAN:
            return self._span(name, fn)
        if kind == COUNT:
            return self._count(name, fn)
        return self._kernel(name, fn, timed=kind == KERNEL_SPAN)

    def install(self) -> None:
        """Wrap every wrap point in every module that holds the original."""
        for module_name, attr, name, kind in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent[name] = f"{module_name}.{attr} no longer exists"
                continue
            wrapper = self._make(name, kind, original)
            for holder in (module_name,) + QSIEVE_MODULES:
                mod = sys.modules.get(holder)
                if mod is not None and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)

    # -- results --------------------------------------------------------------
    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "absent": self.absent}

    def metrics(self) -> tuple:
        """(per-layer metrics {name: (value, unit)}, absent {name: reason},
        undefined ratios [name])."""
        total = defaultdict(float)
        calls = Counter()
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
        run_self = sum(end - start - child_time[i]
                       for i, (name, start, end, _, _) in enumerate(self.spans)
                       if name.startswith("cli.run_config."))
        c = self.counts
        undefined = []

        def ratio(name, num, den, scale=1.0):
            if den:
                return num / den * scale
            undefined.append(name)
            return 0.0

        descend_s = total["sieve.descend"]
        starts = calls["sieve.descend"]
        evals = c["sieve.lambda_grad_evals"]
        table = {
            "sieve.minimize_lambda_s": (total["sieve.minimize_lambda"], "s",
                                        ["sieve.minimize_lambda"]),
            "sieve.descend_s": (descend_s, "s", ["sieve.descend"]),
            "sieve.starts": (starts, "count", ["sieve.descend"]),
            "sieve.lambda_grad_evals": (evals, "count", [
                "sieve.descend", "sieve.lambda_and_grad"]),
            "sieve.evals_per_start": (
                ratio("sieve.evals_per_start", evals, starts), "evals/start",
                ["sieve.descend", "sieve.lambda_and_grad"]),
            "sieve.lambda_grad_us": (
                ratio("sieve.lambda_grad_us", descend_s, evals, 1e6), "us",
                ["sieve.descend", "sieve.lambda_and_grad"]),
            "sieve.excludes_s": (total["sieve.excludes"], "s",
                                 ["sieve.excludes"]),
            "sieve.excludes_calls": (calls["sieve.excludes"], "count",
                                     ["sieve.excludes"]),
            "sieve.lambda_pure_s": (total["sieve.lambda_pure"], "s",
                                    ["sieve.lambda_pure"]),
            "sieve.lambda_pure_calls": (calls["sieve.lambda_pure"], "count",
                                        ["sieve.lambda_pure"]),
            "sieve.useful_start_frac": (
                ratio("sieve.useful_start_frac",
                      c["sieve.distinct_minimizers"],
                      c["sieve.requested_starts"]),
                "ratio", ["sieve.minimize_lambda"]),
            "decomposition.spectral_split_s": (
                total["decomposition.spectral_split"], "s",
                ["decomposition.spectral_split"]),
            "decomposition.verify_split_properties_s": (
                total["decomposition.verify_split_properties"], "s",
                ["decomposition.verify_split_properties"]),
            "decomposition.classical_states_s": (
                total["decomposition.classical_states"], "s",
                ["decomposition.classical_states"]),
            "decomposition.iso_membership_calls": (
                c["decomposition.iso_membership"], "count",
                ["decomposition.iso_membership"]),
            "kernel.eigh_calls": (c["kernel.eigh"], "count", ["kernel.eigh"]),
            "kernel.dense_factorisations": (
                c["kernel.dense_factorisations"], "count", list(KERNEL_NAMES)),
            "kernel.max_matrix_dim": (self.max_matrix_dim, "count",
                                      list(KERNEL_NAMES)),
            "kernel.bytes_computed": (c["kernel.bytes_computed"], "bytes",
                                      list(KERNEL_NAMES)),
            "liouville.build_superoperator_s": (
                total["liouville.build_superoperator"], "s",
                ["liouville.build_superoperator"]),
            "liouville.build_superoperator_calls": (
                calls["liouville.build_superoperator"], "count",
                ["liouville.build_superoperator"]),
            "liouville.propagator_s": (total["liouville.propagator"], "s",
                                       ["liouville.propagator"]),
            "liouville.propagator_calls": (calls["liouville.propagator"],
                                           "count", ["liouville.propagator"]),
            "liouville.channel_applier_s": (
                total["liouville.channel_applier"], "s",
                ["liouville.channel_applier"]),
            "liouville.eis_check_s": (total["liouville.eis_check"], "s",
                                      ["liouville.eis_check"]),
            "liouville.eis_check_calls": (calls["liouville.eis_check"],
                                          "count", ["liouville.eis_check"]),
            "models.build_model_s": (total["models.build_model"], "s",
                                     ["models.build_model"]),
            "models.superop_bytes": (self.superop_bytes, "bytes",
                                     ["models.build_model"]),
            "cli.run_config_self_s": (run_self, "s", ["cli.run_config"]),
            "cli.output_bytes": (c["cli.output_bytes"], "bytes",
                                 ["cli.run_config"]),
            "cli.parse_config_s": (total["cli.parse_config"], "s",
                                   ["cli.parse_config"]),
        }
        for kname in ("eigvals", "schur", "solve_sylvester", "expm",
                      "null_space"):
            table[f"kernel.{kname}_s"] = (total[f"kernel.{kname}"], "s",
                                          [f"kernel.{kname}"])
        for command in COMMANDS:
            table[f"cli.run_config_s.{command}"] = (
                total[f"cli.run_config.{command}"], "s", ["cli.run_config"])

        metrics, absent = {}, {}
        for name, (value, unit, needs) in table.items():
            missing = [self.absent[n] for n in needs if n in self.absent]
            if missing:
                absent[name] = "; ".join(missing)
            else:
                metrics[name] = (value, unit)
        return metrics, absent, [n for n in undefined if n in metrics]
