"""The benchmark's traced names exist in the package.

``perfbench/spans.py`` patches rmrll functions and methods by name; a
name that no longer resolves would only surface as an AttributeError
in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import rmrll

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
