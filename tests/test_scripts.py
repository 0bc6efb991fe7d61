"""Smoke tests: the example scripts run to completion."""

from __future__ import annotations

import pathlib
import runpy
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_pointer_basis_script_runs(monkeypatch, capsys):
    # builds the superoperator, splits and verifies it, enumerates the
    # classical states and probes a superposition: every split layer
    script = SCRIPTS / "pointer_basis.py"
    monkeypatch.setattr(sys, "argv", [str(script)])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert "iso dim 3, sweep dim 6" in out
    assert "classical states found: 3" in out
