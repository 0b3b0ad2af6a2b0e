"""Smoke tests for the command-line scripts under ``scripts/``."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("field", ["gf(2)", "gf(3)"])
def test_certify_sweep_passes(field, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    certify_sweep = importlib.import_module("certify_sweep")
    assert certify_sweep.main(["--trials", "40", "--field", field]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith("40 ok, 0 failed, 0 skipped over ")
