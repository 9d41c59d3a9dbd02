"""The benchmark's traced names exist in the package, and its checks
still run against it.

``perfbench/spans.py`` patches rmrll functions and methods by name; a
name that no longer resolves would only surface as an AttributeError
in a traced benchmark run.  ``perfbench/negative_control.py`` drives
every workload's checks through the package API (plan fields, the
column permutation, packed generator rows), so a deleted or renamed
member it reads fails here rather than in a benchmark run.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rmrll

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()
importlib.import_module("rmrll.cli")  # not imported by the package itself


@pytest.mark.parametrize(
    "module_name, attr",
    [(module_name, attr) for module_name, attr, _ in spans.SPANS + spans.COUNTERS],
)
def test_traced_name_resolves(module_name, attr):
    # spans.install patches a method on its own class, so it must be
    # defined there, not inherited
    module = getattr(rmrll, module_name)
    owner_name, _, fn_name = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(owner.__dict__[fn_name])


def test_negative_control_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "perfbench/negative_control.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "negative control: pass" in done.stdout
