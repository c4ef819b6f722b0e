"""The benchmark's tracer wraps library functions by name, so installing
it in-process shows that every name it wraps still exists, and
uninstalling it must put every original back."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
LAYERS = ("words", "coset", "classify", "stargraph", "weights", "pictures",
          "cli")


def _bindings(coset) -> dict:
    """Every attribute of every loaded relasph module, and of GroupContext."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "relasph"
                                or name.startswith("relasph.")):
            for attr, value in vars(mod).items():
                found[name, attr] = value
    for attr, value in vars(coset.GroupContext).items():
        found["GroupContext", attr] = value
    return found


def test_benchmark_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {name: importlib.import_module(f"relasph.{name}")
               for name in LAYERS}
    coset = modules["coset"]
    before = _bindings(coset)
    tracer = tracing.Tracer()
    try:
        tracer.install(modules)
        installed = _bindings(coset)
    finally:
        tracer.uninstall()
    wrapped = {attr for key, attr in installed
               if installed[key, attr] is not before[key, attr]}
    traced = {f for names in tracing.FUNCTIONS.values() for f in names}
    assert wrapped >= traced | {tracing.ORACLE_LOOKUP} \
        | set(tracing.ORACLE_METHODS), sorted(wrapped)
    after = _bindings(coset)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
