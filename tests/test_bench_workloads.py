"""Every benchmark call runs once and passes its own output check.

bench/workloads.py reads report fields and estimator results by name, so
a library edit that breaks one of its checks would otherwise show up only
when the benchmark runs.  The workloads are built at a fixed seed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
SEED = 1


def _load_workloads():
    name = "specbounds_bench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks the module up in sys.modules while the class is built.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", ["mc_small_d", "mc_large_d", "verify_corpus"])
def test_every_call_passes_its_check(name):
    calls = workloads.WORKLOADS[name](SEED)
    assert calls
    for call in calls:
        _, problems = call.check(call.run())
        assert problems == [], call.label
