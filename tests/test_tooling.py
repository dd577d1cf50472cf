"""The benchmark's tracer wraps trigint names; every one of them must resolve.

A public name the tracer lists can only be removed together with its entry
in ``perfbench/tracer.py``, or ``perfbench/run.py --trace`` breaks.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("op, module, attr", tracer.TARGETS)
def test_target_resolves(op, module, attr):
    owner = importlib.import_module(f"trigint.{module}")
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        # the tracer patches methods in the class's own namespace
        owner = getattr(owner, owner_name)
        assert name in vars(owner), (op, attr)
    assert callable(getattr(owner, name)), (op, attr)


def test_install_and_uninstall_restore_every_name():
    recurrence = importlib.import_module("trigint.recurrence")
    before = recurrence.cos_moment
    t = tracer.Tracer()
    t.install()
    try:
        assert recurrence.cos_moment is not before
    finally:
        t.uninstall()
    assert recurrence.cos_moment is before
