"""Certified topological-complexity bounds for configuration spaces F(R^m, n).

TC conventions are unreduced throughout: TC(point) = 1, TC(circle) = 2.

Lower bounds come from zero-divisor cup-lengths (a nonzero product of k
zero-divisors forces TC > k).  The zero-divisor ideal is generated by the
barred generators, so the cup-length is the bar-span length of
`TensorSquare`, certified as in the paper (`zero_divisor_cuplength`): the
witness product survives in the field, by its closed-form integer
coefficient, and below the top weight the ring splits at the decone, which
kills every product of 2n - 2 barred generators.  That is the one route: a
fact it rests on that fails is a `ClosedFormContradiction`, never a cue to
build the span.  Upper bounds come from four sources:

* dimension: TC <= 2*dim + 1 for a complex of dimension dim;
* connectivity: for an (s-1)-connected complex, TC < (2*dim + 1)/s + 1,
  and TC <= r + 1 when 2*dim = r*s;
* sharpness: with 2*dim = r*s and free degree-s homology, TC = r + 1 exactly
  when some product of r barred degree-s classes survives, so a bar-span
  length below r improves the bound to r;
* the m = 2 product trick: F(R^2, n) splits off a circle factor, giving
  TC <= (2(n-2) + 1) + 2 - 1 = 2n - 2.

`assemble_report` combines these for F(R^m, n) and compares the pinched value
against the known closed form (2n - 1 for m odd, 2n - 2 for m even).  It
composes `certify_ring`, the ring work, which reads m only through its
parity, and `report_from_ring`, the bounds of one cell, so a grid can
certify each ring once.  Every report has both bounds.

Homotopy-dimension inputs are taken as facts, recorded in the diagnostics:
dim = (m-1)(n-1) for m >= 3, dim = n-1 for m = 2.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .algebra import Presentation, check_configuration
from .coeffs import QQ

LOWER_TAG = "zero-divisor cup-length + 1"
UPPER_TAGS = {
    "dimension": "dimension bound 2*dim + 1",
    "connectivity": "connectivity bound",
    "sharpness": "bar-product sharpness",
    "product": "circle-factor product bound (m = 2)",
}


class ClosedFormContradiction(AssertionError):
    """The engine is broken: a fact the certificate rests on failed, or a report left the closed form.

    Raised by `zero_divisor_cuplength` and `report_from_ring`.
    """


def closed_form_tc(m: int, n: int) -> int:
    """The known value of TC(F(R^m, n)): 1 for n = 1, else 2n-1 (m odd) or 2n-2 (m even)."""
    check_configuration(n, m)
    if n == 1:
        return 1
    return 2 * n - 1 if m % 2 else 2 * n - 2


def dimension_upper(dim: int) -> int:
    if dim < 0:
        raise ValueError("dimension must be >= 0")
    return 2 * dim + 1


def connectivity_upper(dim: int, s: int) -> int:
    """Upper bound for an (s-1)-connected complex of dimension dim, s >= 2.

    The largest integer strictly below (2*dim + 1)/s + 1, which is
    floor((2*dim + s)/s): r + 1 in the divisible case 2*dim = r*s.
    """
    if s <= 1:
        raise ValueError("connectivity bound needs s >= 2")
    if dim < 1:
        raise ValueError("connectivity bound needs dim >= 1")
    return (2 * dim + s) // s


def sharpness_upper(dim: int, s: int, bar_len: int) -> int:
    """r + 1 when a length-r bar product survives, else r (with 2*dim = r*s)."""
    if s <= 1:
        raise ValueError("sharpness bound needs s >= 2")
    if (2 * dim) % s:
        raise ValueError(f"sharpness bound needs s | 2*dim, got dim={dim}, s={s}")
    r = 2 * dim // s
    return r + 1 if bar_len >= r else r


def product_upper_m2(n: int) -> int:
    """TC(F(R^2, n)) <= 2n - 2 via the circle factor: (2(n-2)+1) + 2 - 1."""
    if n < 2:
        raise ValueError("product bound needs n >= 2")
    return (2 * (n - 2) + 1) + 2 - 1


def lower_from_zcl(zcl: int) -> int:
    if zcl < 0:
        raise ValueError("cup-length must be >= 0")
    return zcl + 1


class BoundsReport:
    """The certificate for F(R^m, n): its bounds, how they were found, and why.

    Fields, with their keys in `to_json_dict`:

    * ``m``, ``n`` (``"m"``, ``"n"``): the configuration space F(R^m, n);
    * ``closed_form`` (``"closed_form"``): the known value of TC;
    * ``field_used`` (``"field"``): the coefficient field, as `describe()` names it;
    * ``lower``, ``lower_source`` (``"lower"``, ``"lower_source"``): the lower
      bound and its tag, None until `report_from_ring` sets them;
    * ``upper``, ``upper_source`` (``"upper"``, ``"upper_source"``): the upper
      bound and its tag, None until `report_from_ring` sets them;
    * ``pinched`` (``"pinched"``): lower == upper;
    * ``diagnostics`` (``"diagnostics"``): (tag, value) pairs, written as
      two-element lists;
    * ``warnings`` (``"warnings"``): free-text warnings.

    Reports compare equal when every field does.  A plain class, not a
    dataclass, so that no report loads `dataclasses` and what it imports.
    """

    _FIELDS = ("m", "n", "closed_form", "field_used", "lower", "lower_source",
               "upper", "upper_source", "pinched", "diagnostics", "warnings")

    def __init__(
        self,
        m: int,
        n: int,
        closed_form: int,
        field_used: str,
        lower: Optional[int] = None,
        lower_source: Optional[str] = None,
        upper: Optional[int] = None,
        upper_source: Optional[str] = None,
        pinched: bool = False,
        diagnostics: Optional[List[Tuple[str, int]]] = None,
        warnings: Optional[List[str]] = None,
    ) -> None:
        self.m = m
        self.n = n
        self.closed_form = closed_form
        self.field_used = field_used
        self.lower = lower
        self.lower_source = lower_source
        self.upper = upper
        self.upper_source = upper_source
        self.pinched = pinched
        # a fresh list per report when none is given, never one shared default
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.warnings = [] if warnings is None else warnings

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._FIELDS)

    __hash__ = None  # mutable, so unhashable, as an eq dataclass is

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{self.__class__.__qualname__}({fields})"

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "closed_form": self.closed_form,
            "field": self.field_used,
            "lower": self.lower,
            "lower_source": self.lower_source,
            "upper": self.upper,
            "upper_source": self.upper_source,
            "pinched": self.pinched,
            "diagnostics": [[tag, value] for tag, value in self.diagnostics],
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BoundsReport":
        return cls(
            m=data["m"],
            n=data["n"],
            closed_form=data["closed_form"],
            field_used=data["field"],
            lower=data["lower"],
            lower_source=data["lower_source"],
            upper=data["upper"],
            upper_source=data["upper_source"],
            pinched=data["pinched"],
            diagnostics=[(tag, value) for tag, value in data["diagnostics"]],
            warnings=list(data["warnings"]),
        )

    def text_lines(self) -> List[str]:
        lines = [
            f"F(R^{self.m}, {self.n})  over {self.field_used}",
            f"  closed form : TC = {self.closed_form}",
            f"  lower bound : {self.lower}  [{self.lower_source}]",
            f"  upper bound : {self.upper}  [{self.upper_source}]",
            f"  pinched     : {'yes' if self.pinched else 'no'}",
        ]
        for tag, value in self.diagnostics:
            lines.append(f"  diag        : {tag} = {value}")
        for w in self.warnings:
            lines.append(f"  warning     : {w}")
        return lines


def zero_divisor_cuplength(pres: Presentation, field) -> int:
    """The zero-divisor cup-length of the ring over field, from its witness coefficients.

    `Presentation.witness_terms` checks the facts behind the paper's two
    witnesses at a basis pair: the one of length 2n - 2, the top weight,
    with coefficient a = (-2)^(n-1) or 0, and the one of length 2n - 3,
    with coefficient b = +-1, a unit in every field.  A witness whose
    coefficient is nonzero in the field bounds the length from below.  At
    the top weight that closes it: a is a unit exactly when n = 1, or m is
    odd and the characteristic is not 2, which is read off directly, so a
    is never formed.  Elsewhere the decone check applies
    (`Presentation.decone_splits`): it kills every product of 2n - 2
    barred generators, which closes the length one below.  Both checks read
    the 13 two-letter pattern forms at most, whatever n, straightened once
    per parity and min(n, 4) in a process, so no tensor element is formed
    and no span is built.  Raises
    ClosedFormContradiction, naming the ring and the field, where a fact of
    `witness_terms` or the decone check fails: `straighten_word` is then
    broken.
    """
    where = f"for (m={pres.m}, n={pres.n}) over {field.describe()}"
    if pres.witness_terms() is None:
        raise ClosedFormContradiction(f"a witness fact failed {where}")
    if pres.n == 1 or (not pres.parity and field.characteristic != 2):
        return 2 * pres.top_weight
    if not pres.decone_splits():
        raise ClosedFormContradiction(f"the decone check failed {where}")
    return 2 * pres.top_weight - 1


def certify_ring(m: int, n: int, field=QQ) -> Tuple[int, int]:
    """The ring work of a report: (zero-divisor cup-length over field, bar-span length over Q).

    The cup-length is the bar-span length over the requested field (the
    zero-divisor lemma makes the two lengths equal).  The second length is
    the one the sharpness bound consumes: the ring and its tensor square
    are free Z-modules, so rational nonvanishing of a bar product is the
    same as integral nonvanishing, which is what the sharpness criterion
    needs.  Both come from one presentation, so they share its witness
    coefficients and its decone check.

    The ring H*(F(R^m, n)) reads m only through its parity, so every m of
    one parity gives the same pair: `grid` certifies each (n, m mod 2) once.
    Raises ValueError for a configuration the ring does not model, and
    ClosedFormContradiction where a fact of `zero_divisor_cuplength` fails.
    """
    pres = Presentation(n, m)
    zcl = zero_divisor_cuplength(pres, field)
    bar_len = zcl if field == QQ else zero_divisor_cuplength(pres, QQ)
    return zcl, bar_len


def report_from_ring(m: int, n: int, field, zcl: int, bar_len: int) -> BoundsReport:
    """The report for F(R^m, n) from its ring's `certify_ring` pair; no ring work.

    Adds the upper-bound candidates, which read m in O(1) integer
    arithmetic, pinches and checks the closed form.  A modular field can only
    weaken the lower bound (recorded as a warning for characteristic 2),
    never the upper one, which consumes the rational length.  Raises
    ValueError for a configuration the ring does not model, and
    ClosedFormContradiction if the lower bound exceeds the upper or a pinched
    value disagrees with the closed form.
    """
    report = BoundsReport(
        m=m, n=n, closed_form=closed_form_tc(m, n), field_used=field.describe()
    )
    if field.characteristic == 2:
        report.warnings.append(
            "characteristic 2 kills the doubled square of barred even-degree classes; "
            "lower bounds for odd m can degrade below the rational value"
        )

    report.lower = lower_from_zcl(zcl)
    report.lower_source = LOWER_TAG
    report.diagnostics.append(("zero_divisor_cuplength", zcl))
    report.diagnostics.append(("bar_span_length_over_Q", bar_len))

    candidates: List[Tuple[int, str]] = []
    if m >= 3:
        dim = (m - 1) * (n - 1)
        s = m - 1
        candidates.append((dimension_upper(dim), "dimension"))
        if dim >= 1:  # s >= 2 divides 2 * dim = 2s(n - 1); dim = 0 at n = 1
            candidates.append((connectivity_upper(dim, s), "connectivity"))
        candidates.append((sharpness_upper(dim, s, bar_len), "sharpness"))
    else:
        dim = n - 1
        candidates.append((dimension_upper(dim), "dimension"))
        if n >= 2:
            candidates.append((product_upper_m2(n), "product"))
    report.diagnostics.append(("homotopy_dimension", dim))
    for value, tag in candidates:
        report.diagnostics.append((f"upper_{tag}", value))

    best, best_tag = min(candidates)
    report.upper = best
    report.upper_source = UPPER_TAGS[best_tag]

    if report.lower > report.upper:
        raise ClosedFormContradiction(
            f"lower bound {report.lower} exceeds upper bound {report.upper} "
            f"for (m={m}, n={n}) over {field.describe()}"
        )
    report.pinched = report.lower == report.upper
    if report.pinched and report.lower != report.closed_form:
        raise ClosedFormContradiction(
            f"pinched at {report.lower} but the closed form is {report.closed_form} "
            f"for (m={m}, n={n})"
        )
    return report


def assemble_report(m: int, n: int, field=QQ) -> BoundsReport:
    """Compute and cross-check TC bounds for F(R^m, n).

    `certify_ring` does the ring work and `report_from_ring` the bounds, so
    this is the one report `report` prints and each `grid` cell matches.
    Every input reads m only through its parity, and n and m in a few
    integer operations, so the ring work does not grow with them: at most
    13 straightenings of two-letter words, once per parity and min(n, 4) in
    a process.  No size cap is set.  Raises ValueError for a configuration
    the ring does not model, and ClosedFormContradiction where a fact of the
    certificate fails or a pinched value disagrees with the closed form.
    """
    return report_from_ring(m, n, field, *certify_ring(m, n, field))
