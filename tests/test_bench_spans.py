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


def test_spans_reach_commands_and_solvers_through_the_cached_parser(
        spans, tmp_path):
    # main looks cmd_* and the solvers' si_* up when it runs, so a parser
    # built before the tracer installs still dispatches to its wrappers
    from riskcent import cli

    graph = tmp_path / "k4.txt"
    graph.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    assert cli.main(["centrality", str(graph), "--out",
                     str(tmp_path / "first")]) == 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        assert cli.main(["centrality", str(graph), "--out",
                         str(tmp_path / "c")]) == 0
        assert cli.main(["epidemics", str(graph), "--beta", "0.1", "--gamma",
                         "0.5", "--tmax", "1", "--solvers", "lee", "--out",
                         str(tmp_path / "e")]) == 0
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    assert {"cli.centrality", "cli.epidemics",
            "epidemics.si_lee"} <= recorded
