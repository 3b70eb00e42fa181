"""The benchmark's span recorder must find every function it traces.

``bench/spans.py`` wraps package functions by name; a renamed or deleted
function would only surface when ``bench/run.py --trace 1`` runs.  The file
is loaded here read-only, without running the benchmark.
"""

import importlib
import importlib.util
import pathlib

import pytest

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(home, attr):
    obj = importlib.import_module(home)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_span_target_resolves(spans):
    for name, home, attr in spans.TARGETS:
        assert callable(resolve(home, attr)), (name, home, attr)
    assert set(spans.NOTES) <= {name for name, _, _ in spans.TARGETS}


def test_tracer_install_restores_every_binding(spans):
    for _, home, _ in spans.TARGETS:
        importlib.import_module(home)
    before = {(home, attr): resolve(home, attr)
              for _, home, attr in spans.TARGETS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for key, original in before.items():
            assert resolve(*key) is not original, key
    finally:
        tracer.uninstall()
    for key, original in before.items():
        assert resolve(*key) is original, key
