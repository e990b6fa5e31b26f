"""Ring construction, straightening and rank bookkeeping."""

import math
import random

import pytest

from tcbounds.algebra import (
    AlgebraElement,
    Presentation,
    poincare_table,
    rank_polynomial,
    stability_check,
    straighten_word,
    straighten_word_shuffled,
)
from tcbounds.coeffs import QQ, PrimeField


def gens(pres, field=QQ):
    return {
        (i, j): AlgebraElement.generator(pres, field, i, j)
        for i, j in pres.generators()
    }


# -- presentation construction ----------------------------------------------

def test_single_generator_case():
    p = Presentation(2, 3)
    assert p.generators() == [(1, 2)]
    assert p.degree == 2 and p.parity == 0


def test_three_point_plane_case():
    p = Presentation(3, 2)
    assert p.generators() == [(1, 2), (1, 3), (2, 3)]
    assert p.degree == 1 and p.parity == 1


def test_one_point_is_ground_ring():
    p = Presentation(1, 4)
    assert p.generators() == []
    assert p.basis(0) == ((),)
    assert p.basis(1) == ()


@pytest.mark.parametrize("n,m", [(0, 3), (-1, 2), (2, 1), (2, 0)])
def test_rejected_parameters(n, m):
    with pytest.raises(ValueError):
        Presentation(n, m)


def test_malformed_edges_rejected():
    with pytest.raises(ValueError):
        straighten_word([(2, 2)], 0)
    with pytest.raises(ValueError):
        straighten_word([(3, 1)], 1)
    with pytest.raises(ValueError):
        Presentation(3, 2).straighten([(1, 4)])


# -- straightening -----------------------------------------------------------

@pytest.mark.parametrize("parity", [0, 1])
def test_square_of_generator_vanishes(parity):
    assert straighten_word([(1, 2), (1, 2)], parity) == {}


@pytest.mark.parametrize("parity", [0, 1])
def test_shared_upper_index_rewrite(parity):
    # e13*e23 = e12*e23 - e12*e13 in both parities
    got = straighten_word([(1, 3), (2, 3)], parity)
    assert got == {((1, 2), (2, 3)): 1, ((1, 2), (1, 3)): -1}


@pytest.mark.parametrize("parity", [0, 1])
def test_triple_relation_holds(parity):
    # e12*e13 - e12*e23 + e13*e23 = 0: the defining relation in normal form
    relation = {}
    for coeff, word in [(1, [(1, 2), (1, 3)]), (-1, [(1, 2), (2, 3)]),
                        (1, [(1, 3), (2, 3)])]:
        for w, c in straighten_word(word, parity).items():
            relation[w] = relation.get(w, 0) + coeff * c
    assert all(v == 0 for v in relation.values())


def test_admissible_word_is_fixed():
    assert straighten_word([(1, 2), (1, 3)], 1) == {((1, 2), (1, 3)): 1}


def test_sorting_sign_depends_on_parity():
    assert straighten_word([(1, 3), (1, 2)], 1) == {((1, 2), (1, 3)): -1}
    assert straighten_word([(1, 3), (1, 2)], 0) == {((1, 2), (1, 3)): 1}


def test_empty_word_is_unit():
    assert straighten_word([], 0) == {(): 1}


@pytest.mark.parametrize("parity", [0, 1])
def test_shuffled_rewriting_agrees(parity):
    rng = random.Random(7)
    p = Presentation(4, 2 if parity else 3)
    generators = p.generators()
    for _ in range(40):
        word = [generators[rng.randrange(len(generators))]
                for _ in range(rng.randint(1, 5))]
        expected = straighten_word(word, parity)
        for _ in range(25):
            assert straighten_word_shuffled(word, parity, rng) == expected


# -- multiplication ----------------------------------------------------------

def test_bilinear_product_example():
    p = Presentation(3, 2)
    g = gens(p)
    out = (g[1, 2] + g[1, 3]) * g[2, 3]
    assert out.terms == {
        ((1, 2), (2, 3)): QQ.coerce(2),
        ((1, 2), (1, 3)): QQ.coerce(-1),
    }


def test_unit_law():
    p = Presentation(3, 3)
    one = AlgebraElement.one(p, QQ)
    for g in gens(p).values():
        assert one * g == g and g * one == g


@pytest.mark.parametrize("m", [2, 3])
def test_products_of_n_generators_vanish(m):
    from itertools import product as iproduct

    p = Presentation(3, m)
    g = list(gens(p).values())
    for combo in iproduct(g, repeat=3):
        out = combo[0] * combo[1] * combo[2]
        assert out.is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [2, 3])
def test_over_weight_products_are_zero(n, m):
    # the grading cutoff in `product` answers these without straightening
    p = Presentation(n, m)
    mons = p.full_basis()
    over = [(u, v) for u in mons for v in mons if len(u) + len(v) > p.top_weight]
    assert over or n == 1
    for u, v in over:
        assert p.product(u, v) == straighten_word(u + v, p.parity) == {}
    assert not any(key in p._products for key in over)


def test_mismatched_presentations_rejected():
    a = AlgebraElement.one(Presentation(3, 2), QQ)
    b = AlgebraElement.one(Presentation(3, 3), QQ)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        AlgebraElement.one(Presentation(3, 2), PrimeField(5)) * a


def test_degree_bookkeeping():
    p = Presentation(3, 4)
    g = gens(p)
    e = g[1, 2]
    assert e.degree == 3 and e.is_homogeneous()
    prod = e * g[2, 3]
    assert prod.degree == 6
    mixed = e + prod
    assert mixed.degree is None and not mixed.is_homogeneous()
    assert AlgebraElement.zero(p, QQ).degree == 0


def test_prime_field_coefficients():
    p = Presentation(3, 2)
    f2 = PrimeField(2)
    g = gens(p, f2)
    out = (g[1, 2] + g[1, 3]) * g[2, 3]
    # the coefficient 2 dies mod 2
    assert out.terms == {((1, 2), (1, 3)): 1}


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_associativity_fuzz(n, m):
    from tcbounds.selftest import random_homogeneous

    rng = random.Random(n * 100 + m)
    p = Presentation(n, m)
    for _ in range(150):
        a = random_homogeneous(p, QQ, rng.randint(1, max(1, min(2, p.top_weight))), rng)
        b = random_homogeneous(p, QQ, rng.randint(1, max(1, min(2, p.top_weight))), rng)
        c = random_homogeneous(p, QQ, rng.randint(1, max(1, min(2, p.top_weight))), rng)
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("n,m", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_graded_commutativity_fuzz(n, m):
    from tcbounds.selftest import random_homogeneous

    rng = random.Random(n * 10 + m)
    p = Presentation(n, m)
    for _ in range(150):
        wa = rng.randint(1, min(2, p.top_weight))
        wb = rng.randint(1, min(2, p.top_weight))
        a = random_homogeneous(p, QQ, wa, rng)
        b = random_homogeneous(p, QQ, wb, rng)
        sign = -1 if (wa * p.degree) % 2 and (wb * p.degree) % 2 else 1
        assert a * b == sign * (b * a)


# -- ranks --------------------------------------------------------------------

def test_basis_examples():
    p = Presentation(3, 2)
    assert p.basis(1) == (((1, 2),), ((1, 3),), ((2, 3),))
    assert p.basis(2) == (((1, 2), (1, 3)), ((1, 2), (2, 3)))
    assert p.basis(3) == ()


def test_poincare_tables():
    assert poincare_table(2) == [1, 1]
    assert poincare_table(3) == [1, 3, 2]
    assert poincare_table(4) == [1, 6, 11, 6]
    assert sum(poincare_table(4)) == 24


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rank_consistency(n):
    p = Presentation(n, 2)
    poly = rank_polynomial(n)
    assert [len(p.basis(k)) for k in range(n)] == poly
    assert sum(poly) == math.factorial(n)


def test_straightening_stays_in_basis():
    rng = random.Random(3)
    p = Presentation(4, 2)
    basis = set(p.full_basis())
    generators = p.generators()
    for _ in range(200):
        word = [generators[rng.randrange(len(generators))]
                for _ in range(rng.randint(1, 4))]
        for w in p.straighten(word):
            assert w in basis


# -- stability -----------------------------------------------------------------

@pytest.mark.parametrize("n,m", [(3, 4), (2, 6), (4, 4), (4, 6)])
def test_stability_holds(n, m):
    assert stability_check(n, m)


def test_stability_rejects_odd_m():
    with pytest.raises(ValueError):
        stability_check(3, 5)
