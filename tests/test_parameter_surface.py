"""The library's parameter surface is pinned.

Every parameter of the entry points that reports, exports, `selftest` and the
benchmark call: a new or retired knob shows here as a reviewed change, as a
command-line option does in `test_cli.py`.
"""

import inspect

from tcbounds import algebra, bounds, selftest
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
    "AlgebraElement.from_word": ["pres", "field", "word"],
    "run_all": ["seed", "samples", "shuffles"],
    "suite_associativity": ["samples", "seed"],
    "suite_graded_commutativity": ["samples", "seed"],
    "suite_confluence": ["shuffles", "seed"],
    "suite_rank_consistency": [],
    "suite_nilpotence": [],
    "suite_diagonal_homomorphism": ["seed"],
    "suite_bar_properties": ["seed"],
    "suite_koszul_involution": ["seed"],
    "suite_stability": [],
    "suite_span_consistency": [],
    "suite_cache": ["doc"],
    "random_homogeneous": ["pres", "weight", "rng"],
    "random_tensor": ["pres", "rng"],
    "random_word": ["pres", "rng"],
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
        algebra.AlgebraElement.from_word,
        selftest.run_all,
        selftest.suite_associativity,
        selftest.suite_graded_commutativity,
        selftest.suite_confluence,
        selftest.suite_rank_consistency,
        selftest.suite_nilpotence,
        selftest.suite_diagonal_homomorphism,
        selftest.suite_bar_properties,
        selftest.suite_koszul_involution,
        selftest.suite_stability,
        selftest.suite_span_consistency,
        selftest.suite_cache,
        selftest.random_homogeneous,
        selftest.random_tensor,
        selftest.random_word,
    ]
    got = {f.__qualname__: list(inspect.signature(f).parameters) for f in functions}
    assert got == PARAMETERS
