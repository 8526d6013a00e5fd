"""The benchmark's span tracer must still find every function it wraps.

bench/tracer.py names its targets by module and attribute, so renaming or
deleting one of them in the library breaks `bench/run.py --trace 1`.  This
installs the tracer on the imported modules and removes it again.
"""

import importlib
import importlib.util
from pathlib import Path

import specbounds.cli  # noqa: F401  (imports every traced module)
from specbounds import checks, cli, montecarlo, profile

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("specbounds_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_callable(module_name: str, attr: str):
    # The function a target names, or the constructor of a class.
    obj = importlib.import_module(f"specbounds.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj.__init__ if isinstance(obj, type) else obj


def test_every_target_resolves_and_uninstall_restores():
    tracer_module = _load_tracer()
    targets = tracer_module.TARGETS
    assert len(targets) == 29
    originals = [_traced_callable(*target) for target in targets]
    spectral_norm = montecarlo.spectral_norm
    init = profile.StdDevProfile.__init__
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for target, original in zip(targets, originals):
            assert _traced_callable(*target).__wrapped__ is original, target
        assert montecarlo.spectral_norm.__wrapped__ is spectral_norm
    finally:
        tracer.uninstall()
    assert montecarlo.spectral_norm is spectral_norm
    assert profile.StdDevProfile.__init__ is init
    assert [_traced_callable(*target) for target in targets] == originals


def test_corpus_is_traced_per_item():
    # cli re-exports checks.basic_corpus, and the tracer rebinds it in every
    # module, with one cli.basic_corpus span per trial drawn.
    tracer_module = _load_tracer()
    original = checks.basic_corpus
    assert cli.basic_corpus is original
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert checks.basic_corpus.__wrapped__ is original
        assert len(list(cli.basic_corpus(5, 0))) == 5
    finally:
        tracer.uninstall()
    assert checks.basic_corpus is original
    assert tracer.summarize()["cli.basic_corpus"]["calls"] == 5
