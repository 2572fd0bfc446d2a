"""Every hook point of the benchmark's tracer exists in the library.

`perfbench/tracer.py` wraps library functions by the names their calling
modules bind.  A renamed or unbound name leaves the metrics it feeds
unmeasured, and `perfbench/run.py --trace 1` still exits 0; this test reads
the tracer's table and fails instead.
"""

import importlib
import importlib.util
import inspect

import pytest

from conftest import REPO


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


@pytest.mark.parametrize("hook", sorted({f"{hook[0]}:{hook[1]}" for hook in TRACER.HOOKS}))
def test_every_hook_point_resolves(hook):
    module, attr = hook.split(":")
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("name", TRACER.REQUIRED_CLI_IMPORTS)
def test_the_cli_binds_the_traced_functions(name):
    assert inspect.isfunction(getattr(importlib.import_module("abmodes.cli"), name, None))
