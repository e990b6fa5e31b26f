"""Bound formulas and report assembly."""

import json
import math
from fractions import Fraction

import pytest

from tcbounds.bounds import (
    BoundsReport,
    assemble_report,
    closed_form_tc,
    connectivity_upper,
    dimension_upper,
    lower_from_zcl,
    product_upper_m2,
    sharpness_upper,
)
from tcbounds.cli import EXIT_PINCHED, main
from tcbounds.coeffs import QQ, PrimeField
from tcbounds.tensor import TensorElement


# -- closed form ---------------------------------------------------------------

@pytest.mark.parametrize("m,n,expected", [
    (3, 2, 3),   # the 2-sphere
    (4, 3, 4),
    (2, 4, 6),
    (5, 4, 7),
    (2, 1, 1),
    (9, 1, 1),
])
def test_closed_form_values(m, n, expected):
    assert closed_form_tc(m, n) == expected


def test_closed_form_rejects_small_m():
    with pytest.raises(ValueError):
        closed_form_tc(1, 3)


def test_closed_form_monotone_in_n():
    for m in range(2, 8):
        values = [closed_form_tc(m, n) for n in range(1, 8)]
        assert values == sorted(values)


# -- individual bounds ------------------------------------------------------------

def test_dimension_upper():
    assert dimension_upper(0) == 1
    assert dimension_upper(1) == 3
    assert dimension_upper((3 - 1) * (3 - 1)) == 9


@pytest.mark.parametrize("dim,s,expected", [
    ((4 - 1) * (3 - 1), 3, 5),   # divisible: r = 4
    (2, 2, 3),                   # the 2-sphere
    (3, 2, 4),                   # strict bound: below 4.5
    (3, 7, 1),                   # integral bound value 2: strictly below it
])
def test_connectivity_upper(dim, s, expected):
    assert connectivity_upper(dim, s) == expected


def test_connectivity_upper_is_the_definition():
    # the largest integer strictly below (2*dim + 1)/s + 1, formed in Fraction
    for dim in range(1, 200):
        for s in range(2, 60):
            bound = Fraction(2 * dim + 1, s) + 1
            assert connectivity_upper(dim, s) == math.ceil(bound) - 1, (dim, s)


def test_connectivity_upper_rejects_bad_input():
    with pytest.raises(ValueError):
        connectivity_upper(3, 1)
    with pytest.raises(ValueError):
        connectivity_upper(0, 2)


@pytest.mark.parametrize("dim,s,bar_len,expected", [
    (6, 3, 3, 4),   # m=4, n=3: r=4, short bar span
    (4, 2, 4, 5),   # m=3, n=3: r=4, full bar span
    (5, 5, 1, 2),   # m=6, n=2: r=2
])
def test_sharpness_upper(dim, s, bar_len, expected):
    assert sharpness_upper(dim, s, bar_len) == expected


def test_sharpness_requires_divisibility():
    with pytest.raises(ValueError):
        sharpness_upper(3, 4, 1)
    with pytest.raises(ValueError):
        sharpness_upper(3, 1, 1)


@pytest.mark.parametrize("n,expected", [(2, 2), (3, 4), (4, 6)])
def test_product_upper(n, expected):
    assert product_upper_m2(n) == expected


def test_product_beats_dimension_for_plane():
    for n in range(2, 7):
        assert product_upper_m2(n) < dimension_upper(n - 1)


def test_lower_from_zcl():
    assert lower_from_zcl(0) == 1
    assert lower_from_zcl(2) == 3
    assert lower_from_zcl(3) == 4


# -- report assembly ----------------------------------------------------------------

def test_report_even_case():
    r = assemble_report(4, 3)
    assert (r.lower, r.upper, r.closed_form, r.pinched) == (4, 4, 4, True)


def test_report_odd_sphere():
    r = assemble_report(5, 2)
    assert (r.lower, r.upper, r.pinched) == (3, 3, True)


def test_report_plane_uses_product_bound():
    r = assemble_report(2, 3)
    assert (r.lower, r.upper, r.pinched) == (4, 4, True)
    assert "product" in r.upper_source


def test_report_single_point():
    r = assemble_report(4, 1)
    assert (r.lower, r.upper, r.closed_form, r.pinched) == (1, 1, 1, True)


def test_report_interval_contains_closed_form():
    for m in (2, 3, 4, 5):
        for n in (1, 2, 3):
            r = assemble_report(m, n)
            assert r.lower <= r.closed_form <= r.upper


def test_report_mod2_degrades_without_false_pinch():
    r = assemble_report(3, 2, field=PrimeField(2))
    assert r.lower == 2          # bar(e)^2 = -2 e x e dies mod 2
    assert r.upper == 3
    assert not r.pinched
    assert r.warnings            # characteristic-2 warning recorded
    assert dict(r.diagnostics)["zero_divisor_cuplength"] == 1


def test_report_mod2_n4_odd_m_keeps_fields_apart():
    # the lower bound comes from the cup-length over Z_2, the sharpness bound from Q
    r = assemble_report(3, 4, field=PrimeField(2))
    assert (r.lower, r.upper, r.pinched) == (6, 7, False)
    diagnostics = dict(r.diagnostics)
    assert diagnostics["zero_divisor_cuplength"] == 5
    assert diagnostics["bar_span_length_over_Q"] == 6


def test_report_mod2_even_m_still_pinches():
    r = assemble_report(4, 3, field=PrimeField(2))
    assert r.pinched and r.lower == 4
    assert r.warnings


def test_report_mod3_sphere_pinches():
    r = assemble_report(3, 2, field=PrimeField(3))
    assert r.pinched and r.lower == 3
    assert not r.warnings


def test_report_n6_certifies_past_the_default_cap(unlisted_basis):
    # the report never builds the n = 6 span, which would take minutes
    r = assemble_report(3, 6)
    assert (r.lower, r.upper, r.closed_form, r.pinched) == (11, 11, 11, True)


def test_caps_give_unknown_report(capsys):
    # neither the library nor `report` sets a cap: a report costs the same at
    # any n, so every report has both bounds, never null ones
    r = assemble_report(4, 7)
    assert (r.lower, r.upper, r.pinched) == (12, 12, True)
    assert main(["report", "--m", "4", "--n", "1000000000000", "--output", "json"]) == EXIT_PINCHED
    doc = json.loads(capsys.readouterr().out)
    assert doc["lower"] == doc["upper"] == doc["closed_form"] == 1999999999998


def test_report_json_roundtrip():
    r = assemble_report(4, 3)
    data = json.loads(json.dumps(r.to_json_dict()))
    assert BoundsReport.from_json_dict(data) == r


def test_default_reports_share_no_lists():
    a, b = BoundsReport(3, 2, 3, "Q"), BoundsReport(3, 2, 3, "Q")
    assert a == b
    a.diagnostics.append(("homotopy_dimension", 2))
    a.warnings.append("w")
    assert b.diagnostics == [] and b.warnings == []
    assert a.diagnostics is not b.diagnostics and a.warnings is not b.warnings


def test_reports_differing_only_in_warnings_are_unequal():
    r = assemble_report(4, 3)
    other = BoundsReport.from_json_dict(r.to_json_dict())
    assert other == r
    other.warnings.append("not computed")
    assert other != r and r != other
    assert r != r.to_json_dict()


def test_report_repr_lists_every_field():
    assert repr(BoundsReport(3, 2, 3, "Q", warnings=["w"])) == (
        "BoundsReport(m=3, n=2, closed_form=3, field_used='Q', lower=None, "
        "lower_source=None, upper=None, upper_source=None, pinched=False, "
        "diagnostics=[], warnings=['w'])"
    )


def test_sharpness_never_exceeds_connectivity():
    for m in (3, 4, 5, 6, 7):
        for n in (2, 3):
            dim = (m - 1) * (n - 1)
            s = m - 1
            for bar_len in range(0, 2 * n):
                assert sharpness_upper(dim, s, bar_len) <= connectivity_upper(dim, s)


def test_report_straightens_only_its_witness_products(unlisted_basis, straightened_words,
                                                      witness_fact_words, monkeypatch):
    # over Z_p the report reads the witness, each bar(e_1j) squared, off its
    # closed-form coefficient for Z_p and for Q alike: the ring straightens the
    # 13 two-letter patterns once, checking the facts of `witness_terms`, never
    # E and F, which are admissible, and multiplies no tensor out
    def multiplied(self, other):
        raise AssertionError("a tensor product was multiplied out")

    monkeypatch.setattr(TensorElement, "_product", multiplied)
    n = 6
    report = assemble_report(3, n, field=PrimeField(3))
    assert report.pinched
    assert straightened_words == witness_fact_words(n)
    assert len(straightened_words) == 13
