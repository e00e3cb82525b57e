"""Every library name that the benchmark traces must exist, or its metrics read 0.

The tracer in perfbench/ wraps `layer.name` (and the methods `layer.Class.attr`) of
each module entmaj.<layer> that defines it.  A name that is renamed or deleted
is silently not wrapped, so its per-layer metrics fall to 0 with no error.
"""

import importlib
import importlib.util
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names():
    run, tracer = _load("run"), _load("tracer")
    names = {*run.FUNCTION_CALLS, *run.FUNCTION_SELF_MS, *tracer.HOOKS,
             "qchan.KrausChannel.completeness_defect_of"}
    return sorted(names)


KNOWN_DEAD = {
    "serial.load_json": "deleted with the guessing loader; the benchmark change that "
                        "traces serial.read_json in its place mends this",
}

NAMES = [pytest.param(n, marks=pytest.mark.xfail(strict=True, reason=KNOWN_DEAD[n]))
         if n in KNOWN_DEAD else n for n in _traced_names()]


@pytest.mark.parametrize("name", NAMES)
def test_traced_name_resolves_in_its_layer(name):
    layer, top, *attrs = name.split(".")
    module = importlib.import_module(f"entmaj.{layer}")
    obj = getattr(module, top)
    assert obj.__module__ == module.__name__  # the tracer wraps only a module's own names
    for attr in attrs:
        obj = getattr(obj, attr)
