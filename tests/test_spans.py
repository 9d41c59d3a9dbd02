"""The benchmark's traced names exist in the package, and its checks
still run against it.

``perfbench/spans.py`` patches rmrll functions and methods by name; a
name that no longer resolves would only surface as an AttributeError
in a traced benchmark run.  ``perfbench/negative_control.py`` drives
every workload's checks through the package API (plan fields, the
column permutation, packed generator rows), so a deleted or renamed
member it reads fails here rather than in a benchmark run.  The
package surface that the workloads and the README example read is
pinned too.
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


# the package's public names when its __all__ was last written by hand
PUBLIC_NAMES = (
    "BEC BSC ERASED BinaryMatrix BitWord BlockErrorEstimate CosetPlan"
    " CosetTransmission DecodeResult Ordering PermutationExperiment"
    " PermutationSample RllSpec RllSubcode RmCode RunProfile Solution"
    " asymptotic_linear_bound binary_entropy bsc_threshold build_plan"
    " build_subcode complement_basis coset_rate_lower_bound count_constrained"
    " crossover_capacity decode encode enumerative_decode enumerative_encode"
    " estimate_bit_error estimate_block_error eval_monomial gray_ordering"
    " is_constrained largest_linear_rll_subcode lex_run_count"
    " lexicographic_ordering noiseless_capacity payload_bits"
    " permutation_bound_experiment point_of_index run_profile"
    " sample_permutation select_order subcode_dimension_bound subcode_rate"
    " trial_stream"
).split()


def test_package_surface():
    assert len(PUBLIC_NAMES) == 48
    assert set(PUBLIC_NAMES) <= set(rmrll.__all__)
    assert len(set(rmrll.__all__)) == len(rmrll.__all__)
    for name in [*rmrll.__all__, "cli"]:
        assert hasattr(rmrll, name), name
    # each name is the one its module defines
    assert rmrll.decode is rmrll.coset.decode and rmrll.BitWord is rmrll.gf2.BitWord


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
