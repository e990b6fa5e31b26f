"""The library's parameter surface is pinned.

Every parameter of the entry points that reports, exports and the benchmark
call: a new or retired knob shows here as a reviewed change, as a command-line
option does in `test_cli.py`.
"""

import inspect

from tcbounds import algebra, bounds
from tcbounds.tensor import TensorSquare

PARAMETERS = {
    "assemble_report": ["m", "n", "field"],
    "certify_ring": ["m", "n", "field"],
    "TensorSquare.bar_span_profile": ["self"],
    "TensorSquare.zero_divisor_power_profile": ["self"],
    "TensorSquare.bar_span_length_certified": ["self"],
    "verify_structure_document": ["doc", "pres", "samples"],
    "load_structure_document": ["path", "pres", "samples"],
    "Presentation.product": ["self", "u", "v"],
    "Presentation.right_operator_row": ["self", "g", "iu"],
    "Presentation.decone_splits": ["self"],
}


def test_parameter_surface_is_pinned():
    functions = [
        bounds.assemble_report,
        bounds.certify_ring,
        TensorSquare.bar_span_profile,
        TensorSquare.zero_divisor_power_profile,
        TensorSquare.bar_span_length_certified,
        algebra.verify_structure_document,
        algebra.load_structure_document,
        algebra.Presentation.product,
        algebra.Presentation.right_operator_row,
        algebra.Presentation.decone_splits,
    ]
    got = {f.__qualname__: list(inspect.signature(f).parameters) for f in functions}
    assert got == PARAMETERS
