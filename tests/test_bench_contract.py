"""The names the benchmark tracer (bench/spans.py) wraps must exist.

The tracer replaces these functions and methods by name when a traced
benchmark run starts; a rename here would crash that run, so it fails this
test first.  bench/spans.py is only read, never imported as a package.
The caller bindings that bench/test_harness.py asserts, and the argument
lists that bench/child.py passes to the CLI, are checked here too, since
those files lie outside the tier-1 test paths.
"""

import importlib
import runpy
from pathlib import Path

import pytest

from specgap import census, cli, graphs, multipartite

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    if not SPANS.exists():
        pytest.skip("bench/spans.py is not in this checkout")
    return runpy.run_path(str(SPANS))


def test_traced_functions_exist(spans):
    for layer, names in spans["FUNCTIONS"].items():
        module = importlib.import_module(f"specgap.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_traced_methods_exist(spans):
    for layer, cls_name, meth in spans["METHODS"]:
        cls = getattr(importlib.import_module(f"specgap.{layer}"), cls_name)
        assert callable(cls.__dict__.get(meth)), f"{layer}.{cls_name}.{meth}"


def test_traced_source_iterator_exists():
    assert callable(census.Graph6Source.__dict__.get("__iter__"))


def test_traced_caller_bindings_exist():
    # the tracer patches these module globals, not only the defining ones
    assert census.is_connected is graphs.is_connected
    assert (multipartite.detect_complete_multipartite
            is graphs.detect_complete_multipartite)


@pytest.mark.parametrize("argv", [
    ["census", "--file", "F", "--out", "D", "--threads", "1",
     "--chunk-size", "2048"],
    *(["verify", "--check", check, "--order", "8", "--file", "F"]
      for check in ("prop2a", "bipartite-bound", "vertex-add", "classical")),
])
def test_bench_child_argv_parses(argv):
    args = cli._build_parser().parse_args(argv)
    assert args.command == argv[0]
    assert args.file == "F"
