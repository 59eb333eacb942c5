"""The benchmark's tracer patches package functions by name from outside the
package; renaming a traced function breaks its traced run. This checks that
every hook still resolves and that uninstalling restores every original."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_tracer_install_and_uninstall_restore_every_hook():
    tracer = load_tracer().Tracer("t").install()
    # an attribute patched twice is saved twice; its first save is the original
    originals = {}
    for owner, attr, original in tracer._saved:
        originals.setdefault((id(owner), attr), (owner, attr, original))
    try:
        assert originals
        assert all(current(owner, attr) is not original
                   for owner, attr, original in originals.values())
    finally:
        tracer.uninstall()
    assert all(current(owner, attr) is original for owner, attr, original in originals.values())
