"""The names bench/tracer.py looks up in the package must keep existing:
a missing one makes `bench/run.py --trace 1` die with AttributeError."""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import pathlib

from dkblite.engine import GroundProgram
from dkblite.program import Rule

TRACER = pathlib.Path(__file__).parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    layers = _load_tracer().LAYERS
    assert layers
    for modname, names in layers.values():
        module = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(module, name)), f"{modname}.{name}"


def test_traced_records_keep_the_fields_the_tracer_reads():
    assert {"rules", "atoms", "ovr_universe"} <= {
        f.name for f in dataclasses.fields(GroundProgram)}
    assert {"head", "body", "naf", "name"} <= {
        f.name for f in dataclasses.fields(Rule)}
