"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (or -s to see the lines).
All assertions are exact; there are no tolerances anywhere.
"""

import math
import random

import pytest

from tcbounds.algebra import (
    Presentation,
    poincare_table,
    rank_polynomial,
    stability_check,
    straighten_word,
)
from tcbounds.bounds import assemble_report
from tcbounds.coeffs import QQ, PrimeField
from tcbounds.tensor import TensorSquare

from oracles import random_homogeneous, random_word, straighten_word_shuffled

GRID = [(m, n) for m in (2, 3, 4, 5, 6, 7) for n in (2, 3)] + \
       [(m, 4) for m in (2, 3, 4, 5)]


def _announce(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_closed_form_grid_certification():
    """Every grid cell pinches exactly at the closed form."""
    for m, n in GRID:
        r = assemble_report(m, n)
        expected = 2 * n - 1 if m % 2 else 2 * n - 2
        assert r.pinched, f"(m={m}, n={n}) did not pinch: {r.lower}..{r.upper}"
        assert r.lower == r.upper == r.closed_form == expected, \
            f"(m={m}, n={n}): got {r.lower}, expected {expected}"
    _announce(1, f"{len(GRID)} cells pinched at the closed form")


def test_criterion_2_parity_dichotomy_at_n3():
    """Bar spans at n=3: length 3 with V_4 = 0 for even m, at least 4 for odd m."""
    for m in (2, 4, 6):
        sq = TensorSquare(Presentation(3, m), QQ)
        dims = sq.bar_span_profile()
        assert len(dims) == 3, f"m={m}: bar span {len(dims)} != 3"
        # length 3 means V_4 was computed and found zero (top weight is 4)
    for m in (3, 5):
        sq = TensorSquare(Presentation(3, m), QQ)
        assert sq.bar_span_length() >= 4, f"m={m}: bar span < 4"
    _announce(2, "even m: length 3 and V_4 = 0; odd m: length >= 4")


def test_criterion_3_sphere_sanity():
    """n=2 gives the spheres S^{m-1}: cup-length 2 (m odd) / 1 (m even)."""
    for m in (3, 5, 7):
        sq = TensorSquare(Presentation(2, m), QQ)
        assert len(sq.zero_divisor_power_profile()) == 2
        r = assemble_report(m, 2)
        assert r.lower == r.upper == 3
        assert ("zero_divisor_cuplength", 2) in r.diagnostics
    for m in (4, 6):
        sq = TensorSquare(Presentation(2, m), QQ)
        assert len(sq.zero_divisor_power_profile()) == 1
        r = assemble_report(m, 2)
        assert r.lower == r.upper == 2
        assert ("zero_divisor_cuplength", 1) in r.diagnostics
    _announce(3, "TC(S^{m-1}) certified as 3 (m odd) and 2 (m even)")


def test_criterion_4_ring_oracle_suite():
    """Associativity/commutativity on >= 1000 samples per (n, m); confluence
    under >= 100 shuffles per word; ranks match the generating polynomial."""
    cases = 0
    for n in (2, 3, 4):
        for m in (2, 3):
            pres = Presentation(n, m)
            rng = random.Random(1000 * n + m)
            top = max(1, min(2, pres.top_weight))
            for _ in range(1000):
                a = random_homogeneous(pres, rng.randint(1, top), rng)
                b = random_homogeneous(pres, rng.randint(1, top), rng)
                c = random_homogeneous(pres, rng.randint(1, top), rng)
                assert (a * b) * c == a * (b * c)
                wa, wb = a.weight, b.weight
                sign = -1 if (wa * pres.degree) % 2 and (wb * pres.degree) % 2 else 1
                assert a * b == sign * (b * a)
                cases += 1
    words = 0
    for n in (3, 4):
        for parity in (0, 1):
            pres = Presentation(n, 2 if parity else 3)
            rng = random.Random(77 + n + parity)
            for _ in range(20):
                word = random_word(pres, rng)
                expected = straighten_word(word, parity)
                for _ in range(100):
                    assert straighten_word_shuffled(word, parity, rng) == expected
                words += 1
    for n in range(1, 6):
        table = poincare_table(n)
        assert table == rank_polynomial(n)
        assert sum(table) == math.factorial(n)
    _announce(4, f"{cases} ring samples, {words} words x 100 shuffles, ranks to n=5")


def test_criterion_5_stability_isomorphism():
    """Structure constants for m = 4, 6 match m = 2 under degree scaling, n <= 4."""
    for n in (2, 3, 4):
        for m in (4, 6):
            assert stability_check(n, m), f"n={n}, m={m}"
    _announce(5, "tables for m=4,6 equal the m=2 table for n <= 4")


def test_criterion_6_characteristic_sensitivity():
    """Over Z_2 the (m=3, n=2) lower bound degrades to 2 and the report says so."""
    sq = TensorSquare(Presentation(2, 3), PrimeField(2))
    assert len(sq.zero_divisor_power_profile()) == 1
    r = assemble_report(3, 2, field=PrimeField(2))
    assert r.lower == 2, "lower bound should degrade over Z_2"
    assert not r.pinched, "must not pinch falsely at the degraded value"
    assert r.upper == 3
    assert r.field_used == "Z_2"
    assert any("characteristic 2" in w for w in r.warnings)
    assert ("zero_divisor_cuplength", 1) in r.diagnostics
    # control: the rational run still pinches
    assert assemble_report(3, 2, field=QQ).pinched
    _announce(6, "Z_2 report records TC >= 2 without pinching; Q control pinches at 3")
