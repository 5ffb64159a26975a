"""The benchmark's invocations still write the tables its references record.

``perfbench/workloads.py`` lists the invocations and ``perfbench/check.py``
compares an output with its fingerprint in ``perfbench/refs.json``; both are
loaded from their files as they stand.  Each invocation runs in process from
the root of the checkout, as the benchmark runner does, so that a change
which moves a benchmarked table fails here first.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from mqisim.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECK = _load("check")
INVOCATIONS = [inv for invs in _load("workloads").WORKLOADS.values() for inv in invs]
REFS = json.loads((BENCH / "refs.json").read_text())["invocations"]


@pytest.mark.parametrize("inv", INVOCATIONS, ids=[inv.key for inv in INVOCATIONS])
def test_invocation_matches_its_reference(inv, tmp_path, monkeypatch):
    monkeypatch.chdir(BENCH.parent)
    path = tmp_path / "out"
    assert main([*inv.argv, "--output", str(path), "--quiet"]) == 0
    assert CHECK.check_output(path, inv.fmt, REFS[inv.key]) == []
