"""Span tracing for the certification benchmark, applied from outside the package.

`Tracer.install` replaces public functions and methods of `tcbounds` with
timing wrappers and `Tracer.uninstall` puts the originals back; nothing under
`src/` is edited.  Every wrapped call is one span (name, start, end, parent).
The run is single-threaded, so spans nest properly and a span's self time is
its duration minus the durations of its direct children.

Hot boundaries (`Presentation.product` alone sees millions of calls) are not
stored one span at a time, which would cost gigabytes: they are reduced at the
boundary into calls, total time, self time and per-parent call counts.  The
coarse boundaries listed in `SPAN_LOG` are also kept as individual spans in
memory and written out by `write` when the run ends.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Tuple

# (span name, owner attribute path, attribute) for each wrapped boundary.
# Methods are patched on their classes; functions are patched as the module
# global that the caller looks up at call time.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("cli.main", "cli", "main"),
    ("bounds.assemble_report", "cli", "assemble_report"),
    ("tensor.zero_divisor_power_profile", "tensor.TensorSquare", "zero_divisor_power_profile"),
    ("tensor.bar_span_profile", "tensor.TensorSquare", "bar_span_profile"),
    ("tensor.diagonal_kernel", "tensor.TensorSquare", "diagonal_kernel"),
    ("tensor.multiply_coords", "tensor.TensorSquare", "multiply_coords"),
    ("linalg.kernel_basis", "tensor", "kernel_basis"),
    ("linalg.insert", "linalg.EchelonBasis", "insert"),
    ("linalg.reduce", "linalg.EchelonBasis", "reduce"),
    ("algebra.product", "algebra.Presentation", "product"),
    ("algebra.straighten_word", "algebra", "straighten_word"),
    ("algebra.structure_document", "algebra", "structure_document"),
    ("algebra.load_structure_document", "algebra", "load_structure_document"),
)

# boundaries with few calls per run, logged span by span
SPAN_LOG = frozenset({
    "cli.main",
    "bounds.assemble_report",
    "tensor.zero_divisor_power_profile",
    "tensor.bar_span_profile",
    "tensor.diagonal_kernel",
    "linalg.kernel_basis",
    "algebra.structure_document",
    "algebra.load_structure_document",
})


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        self.stats: Dict[str, list] = {}  # name -> [calls, total s, self s, truthy results]
        self.parent_calls: Dict[Tuple[str, str], int] = {}  # (parent, child) -> calls
        self.spans: List[Tuple[str, float, float, int]] = []  # parent = span index or -1
        self._frames: List[list] = []  # [child time, name] of each open call
        self._log_stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        frames, log_stack, spans = self._frames, self._log_stack, self.spans
        parent_calls = self.parent_calls
        stat = self.stats[name] = [0, 0.0, 0.0, 0]
        logged = name in SPAN_LOG
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, name]
            if logged:
                log_stack.append(len(spans))
                spans.append(None)
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if frames:
                    parent = frames[-1]
                    parent[0] += duration
                    key = (parent[1], name)
                    parent_calls[key] = parent_calls.get(key, 0) + 1
                if logged:
                    index = log_stack.pop()
                    spans[index] = (name, start, end, log_stack[-1] if log_stack else -1)
            if result:
                stat[3] += 1
            return result

        return traced

    def install(self, package) -> None:
        for name, owner_path, attr in BOUNDARIES:
            owner = _resolve(package, owner_path)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Dump the logged spans and the per-boundary reductions as JSON."""
        doc = {
            "spans": [list(s) for s in self.spans if s is not None],
            "boundaries": {
                name: {"calls": calls, "total_s": total, "self_s": self_s}
                for name, (calls, total, self_s, _) in self.stats.items()
            },
            "parent_calls": [[p, c, k] for (p, c), k in sorted(self.parent_calls.items())],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        """The per-layer metrics as {name: (value, unit)}."""
        calls = {name: stat[0] for name, stat in self.stats.items()}
        total = {name: stat[1] for name, stat in self.stats.items()}
        self_time = {name: stat[2] for name, stat in self.stats.items()}
        insert_calls = calls["linalg.insert"]
        accepted = self.stats["linalg.insert"][3]
        product_calls = calls["algebra.product"]
        misses = self.parent_calls.get(("algebra.product", "algebra.straighten_word"), 0)
        return {
            "cli.main_s": (total["cli.main"], "s"),
            "cli.self_s": (self_time["cli.main"], "s"),
            "bounds.assemble_report_s": (total["bounds.assemble_report"], "s"),
            "bounds.assemble_report.calls": (calls["bounds.assemble_report"], "count"),
            "bounds.self_s": (self_time["bounds.assemble_report"], "s"),
            "tensor.zero_divisor_power_profile_s": (total["tensor.zero_divisor_power_profile"], "s"),
            "tensor.diagonal_kernel_s": (total["tensor.diagonal_kernel"], "s"),
            "tensor.bar_span_profile_s": (total["tensor.bar_span_profile"], "s"),
            "tensor.multiply_coords.calls": (calls["tensor.multiply_coords"], "count"),
            "tensor.multiply_coords_self_s": (self_time["tensor.multiply_coords"], "s"),
            "linalg.insert.calls": (insert_calls, "count"),
            "linalg.insert.accepted": (accepted, "count"),
            "linalg.insert.accept_ratio": (accepted / insert_calls if insert_calls else 0.0, "ratio"),
            "linalg.insert_self_s": (self_time["linalg.insert"], "s"),
            "linalg.reduce.calls": (calls["linalg.reduce"], "count"),
            "linalg.reduce_self_s": (self_time["linalg.reduce"], "s"),
            "linalg.kernel_basis_s": (total["linalg.kernel_basis"], "s"),
            "algebra.straighten_word.calls": (calls["algebra.straighten_word"], "count"),
            "algebra.straighten_word_self_s": (self_time["algebra.straighten_word"], "s"),
            "algebra.structure_document_s": (total["algebra.structure_document"], "s"),
            "algebra.product.calls": (product_calls, "count"),
            "algebra.product.miss_ratio": (misses / product_calls if product_calls else 0.0, "ratio"),
            "algebra.load_structure_document_s": (total["algebra.load_structure_document"], "s"),
        }
