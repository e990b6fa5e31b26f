"""The benchmark tracer's patch points exist where it looks for them.

`certbench/tracer.py` wraps each boundary by reading `owner.__dict__[attr]`,
so a method that moves into a base class, or a renamed global, breaks traced
benchmark runs.  The tracer module is read and executed, never imported, so
nothing is written next to it.
"""

import types
from pathlib import Path

import tcbounds
import tcbounds.cli  # noqa: F401  (the tracer resolves tcbounds.cli)

TRACER = Path(__file__).resolve().parents[1] / "certbench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("certbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_boundary_is_defined_on_its_owner():
    tracer = load_tracer()
    assert tracer.BOUNDARIES
    for name, owner_path, attr in tracer.BOUNDARIES:
        owner = tracer._resolve(tcbounds, owner_path)
        assert attr in owner.__dict__, f"{name}: {owner_path} does not define {attr}"
        assert callable(owner.__dict__[attr]), name
