"""Exact certified bounds for the topological complexity of configuration spaces.

The library builds the cohomology ring of F(R^m, n) (n labelled points in
R^m) from its Arnold-relation presentation, models the tensor square with
Koszul signs, and measures zero-divisor cup-lengths as bar-span lengths (the
longest nonzero product of barred generators) by exact linear algebra over Q
or a prime field.  `assemble_report` turns those measurements into a
certificate that pins TC(F(R^m, n)) to its closed form at desk scale.
"""

from .algebra import (
    AlgebraElement,
    CacheError,
    Presentation,
    load_structure_document,
    poincare_table,
    stability_check,
    straighten_word,
    structure_document,
    write_structure_document,
)
from .bounds import (
    BoundsReport,
    ClosedFormContradiction,
    assemble_report,
    closed_form_tc,
    connectivity_upper,
    dimension_upper,
    lower_from_zcl,
    product_upper_m2,
    sharpness_upper,
)
from .coeffs import PrimeField, QQ, Rationals, parse_field

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "BoundsReport",
    "CacheError",
    "Presentation",
    "PrimeField",
    "QQ",
    "Rationals",
    "TensorElement",
    "TensorSquare",
    "ClosedFormContradiction",
    "assemble_report",
    "bar",
    "closed_form_tc",
    "connectivity_upper",
    "diagonal_restriction",
    "dimension_upper",
    "koszul_swap",
    "load_structure_document",
    "lower_from_zcl",
    "parse_field",
    "poincare_table",
    "product_upper_m2",
    "sharpness_upper",
    "stability_check",
    "straighten_word",
    "structure_document",
    "write_structure_document",
]


def __getattr__(name):
    """The tensor layer, loaded on first use: no report builds a tensor square."""
    from importlib import import_module  # `from . import` would recurse into here
    if name in ("tensor", "linalg"):
        return import_module(f"{__name__}.{name}")
    if name in __all__:  # the five tensor names, the only ones not bound above
        return getattr(import_module(f"{__name__}.tensor"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, "tensor", "linalg"})
