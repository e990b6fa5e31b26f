"""The benchmark's patch points and command lines exist where it looks for them.

`certbench/tracer.py` wraps each boundary by reading `owner.__dict__[attr]`,
so a method that moves into a base class, or a renamed global, breaks traced
benchmark runs.  `certbench/run.py` passes each workload's argv to
`tcbounds.cli`, so a retired option breaks every run of that workload.  Both
modules are read and executed, never imported, so nothing is written next to
them.
"""

import sys
import types
from pathlib import Path

import tcbounds
import tcbounds.cli  # noqa: F401  (the tracer resolves tcbounds.cli)

CERTBENCH = Path(__file__).resolve().parents[1] / "certbench"
TRACER = CERTBENCH / "tracer.py"
RUN = CERTBENCH / "run.py"


def load(path, name):
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def load_tracer():
    return load(TRACER, "certbench_tracer")


def test_every_boundary_is_defined_on_its_owner():
    tracer = load_tracer()
    assert tracer.BOUNDARIES
    for name, owner_path, attr in tracer.BOUNDARIES:
        owner = tracer._resolve(tcbounds, owner_path)
        assert attr in owner.__dict__, f"{name}: {owner_path} does not define {attr}"
        assert callable(owner.__dict__[attr]), name


def test_every_workload_argv_parses(monkeypatch, tmp_path):
    # run.py imports its sibling as `tracer`; every seed picks among the same
    # options, so seed 0 stands for all
    monkeypatch.setitem(sys.modules, "tracer", load_tracer())
    run = load(RUN, "certbench_run")
    assert sorted(run.WORKLOADS) == ["grid_q", "span_n5_zp", "structure_n6"]
    for name, workload in run.WORKLOADS.items():
        args = workload(run.FULL_SPECS[name], 0, str(tmp_path)).args
        parsed = tcbounds.cli.build_parser().parse_args(args)
        assert parsed.command == args[0], name
    assert list(tmp_path.iterdir()) == []
