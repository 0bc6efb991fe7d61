"""Smoke tests: the example scripts run to completion and print what their
docstrings claim."""

from __future__ import annotations

import pathlib
import re
import runpy
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name: str, *args: str) -> str:
    script = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(script), *args])
    runpy.run_path(str(script), run_name="__main__")
    return capsys.readouterr().out


def test_pointer_basis_script_runs(monkeypatch, capsys):
    # builds the superoperator, splits and verifies it, enumerates the
    # classical states and probes a superposition: every split layer
    out = run_script(monkeypatch, capsys, "pointer_basis.py")
    assert "iso dim 3, sweep dim 6" in out
    assert "classical states found: 3" in out


def test_localization_rate_script_runs(monkeypatch, capsys):
    # a point mass is left untouched; the rate rises monotonically with the
    # packet width and stays below kappa
    out = run_script(monkeypatch, capsys, "localization_rate.py",
                     "--points", "32")
    assert "point mass: lambda = 0.000e+00" in out
    assert "NOT monotone" not in out
    rates = [float(line.split()[1]) for line in out.splitlines()
             if re.fullmatch(r"\s*\d+\.\d+\s+\d+\.\d+", line)]
    assert len(rates) == 15
    assert 0.0 < min(rates) and max(rates) < 1.0


def test_squeezing_scan_script_runs(monkeypatch, capsys):
    # weak coupling: the period-averaged entropy is least at squeezing 0
    out = run_script(monkeypatch, capsys, "squeezing_scan.py",
                     "--n-levels", "10", "--step", "0.5")
    assert "minimum at squeezing +0.00" in out


def test_coherent_state_sieve_script_runs(monkeypatch, capsys):
    # lambda = 2 kappa / 3 on the coherent orbit, the minimizers are close
    # to coherent states, and a superposition of two well-separated coherent
    # states leaves the stability band
    out = run_script(monkeypatch, capsys, "coherent_state_sieve.py",
                     "--n-levels", "20", "--n-starts", "2")
    errors = [float(e) for e in re.findall(r"\(error ([-+]\S+)\)", out)]
    assert len(errors) == 4 and max(map(abs, errors)) <= 1e-10
    fidelities = [float(f) for f in re.findall(r"fidelity = (\S+)", out)]
    assert fidelities and min(fidelities) >= 0.9999
    margins = [float(m) for m in re.findall(r"a0 \+ eps = (\S+)", out)]
    assert margins and min(margins) > 0.0
