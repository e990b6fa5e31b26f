"""The benchmark's patch points and command lines exist where it looks for them.

`certbench/tracer.py` wraps each boundary by reading `owner.__dict__[attr]`,
so a method that moves into a base class, or a renamed global, breaks traced
benchmark runs.  `certbench/run.py` passes each workload's argv to
`tcbounds.cli`, so a retired option breaks every run of that workload.  Both
modules are read and executed, never imported, so nothing is written next to
them.  The package loads its tensor layer on first use, so the boundaries are
also resolved in fresh processes that, as `run.py` does, import only
`tcbounds` and `tcbounds.cli` first.
"""

import ast
import subprocess
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


# resolves the boundaries whose owner path starts with argv[3] first, then the
# rest; prints whether the tensor layer was loaded before, and each boundary
# whose owner does not resolve or does not define its attribute
_FRESH_BOUNDARIES = """
import sys, types
src, tracer_path, first = sys.argv[1:]
sys.path.insert(0, src)
import tcbounds
import tcbounds.cli
tracer = types.ModuleType("certbench_tracer")
with open(tracer_path) as fh:
    exec(compile(fh.read(), tracer_path, "exec"), tracer.__dict__)
loaded = [name for name in ("tcbounds.tensor", "tcbounds.linalg") if name in sys.modules]
broken = []
for name, owner_path, attr in sorted(tracer.BOUNDARIES, key=lambda b: b[1].split(".")[0] != first):
    try:
        owner = tracer._resolve(tcbounds, owner_path)
    except AttributeError:
        broken.append(name)
        continue
    if not callable(owner.__dict__.get(attr)):
        broken.append(name)
print(repr((loaded, broken)))
"""


def test_every_boundary_resolves_in_a_fresh_process():
    # -I -S -B: no environment, no site-packages, no bytecode written; each
    # owner module is resolved first in its own process, so one that resolves
    # only after another has loaded (linalg after tensor) shows here
    src = str(CERTBENCH.parent / "src")
    firsts = sorted({owner_path.split(".")[0] for _, owner_path, _ in load_tracer().BOUNDARIES})
    assert firsts == ["algebra", "cli", "linalg", "tensor"]
    for first in firsts:
        proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", _FRESH_BOUNDARIES,
                               src, str(TRACER), first], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert ast.literal_eval(proc.stdout.splitlines()[-1]) == ([], []), first
