"""Exact sparse row reduction and kernel extraction."""

import math
import random
from fractions import Fraction

import pytest

from tcbounds.coeffs import QQ, PrimeField
from tcbounds.linalg import EchelonBasis, kernel_basis


def test_insert_and_dimension():
    eb = EchelonBasis(QQ, 4)
    assert eb.insert({0: Fraction(2), 1: Fraction(4)})
    assert eb.insert({1: Fraction(1), 2: Fraction(1)})
    # (1,3,1,0) = 1/2*(2,4,0,0) + (0,1,1,0): dependent
    assert not eb.insert({0: Fraction(1), 1: Fraction(3), 2: Fraction(1)})
    assert eb.dim == 2
    assert eb.pivots() == [0, 1]


def test_rows_are_reduced():
    eb = EchelonBasis(QQ, 3)
    eb.insert({0: Fraction(1), 1: Fraction(1)})
    eb.insert({1: Fraction(2)})
    rows = eb.dense()
    assert rows == [[1, 0, 0], [0, 1, 0]]


def test_membership():
    eb = EchelonBasis(QQ, 3)
    eb.insert({0: Fraction(1), 2: Fraction(3)})
    assert eb.contains({0: Fraction(2), 2: Fraction(6)})
    assert not eb.contains({0: Fraction(1)})
    assert eb.contains({})


def test_insertion_order_irrelevant():
    rng = random.Random(11)
    vectors = [
        {0: Fraction(1), 1: Fraction(2), 3: Fraction(-1)},
        {1: Fraction(1), 2: Fraction(1)},
        {0: Fraction(2), 1: Fraction(5), 2: Fraction(1), 3: Fraction(-2)},
        {2: Fraction(4), 3: Fraction(4)},
    ]
    reference = None
    for _ in range(20):
        order = vectors[:]
        rng.shuffle(order)
        eb = EchelonBasis(QQ, 4)
        for v in order:
            eb.insert(v)
        dense = eb.dense()
        if reference is None:
            reference = dense
        assert dense == reference  # RREF is canonical


def test_prime_field_reduction():
    f3 = PrimeField(3)
    eb = EchelonBasis(f3, 3)
    eb.insert({0: 2, 1: 1})
    eb.insert({0: 1, 1: 2})   # = 2 * (2,1) mod 3: dependent
    assert eb.dim == 1
    eb.insert({2: 2})
    assert eb.dim == 2
    assert eb.dense() == [[1, 2, 0], [0, 0, 1]]


def test_kernel_of_explicit_map():
    # map R^3 -> R^2: e0 -> (1,0), e1 -> (0,1), e2 -> (1,1); kernel = span(e0+e1-e2)
    images = [{0: Fraction(1)}, {1: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]
    ker = kernel_basis(QQ, images, 3)
    assert ker.dim == 1
    assert ker.contains({0: Fraction(1), 1: Fraction(1), 2: Fraction(-1)})
    assert not ker.contains({0: Fraction(1)})


def test_kernel_of_zero_map_is_everything():
    ker = kernel_basis(QQ, [{}, {}], 2)
    assert ker.dim == 2 and ker.is_full()


def test_kernel_of_injective_map_is_zero():
    images = [{0: Fraction(1)}, {1: Fraction(1)}]
    ker = kernel_basis(QQ, images, 2)
    assert ker.dim == 0


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_kernel_vectors_do_map_to_zero(field):
    rng = random.Random(5)
    width_src, width_dst = 8, 5
    images = []
    for _ in range(width_src):
        images.append({
            c: field.coerce(rng.randint(-2, 2))
            for c in range(width_dst) if rng.random() < 0.5
        })
    images = [{c: v for c, v in img.items() if v} for img in images]
    ker = kernel_basis(field, images, width_src)
    for vec in ker.vectors():
        out = {}
        for i, c in vec.items():
            for col, val in images[i].items():
                out[col] = field.add(out.get(col, field.zero), field.mul(c, val))
        assert all(not v for v in out.values())
    # rank-nullity
    span = EchelonBasis(field, width_dst)
    for img in images:
        span.insert(img)
    assert ker.dim + span.dim == width_src


# -- property test against a plain Gauss-Jordan reference --------------------

PROPERTY_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(2**31 - 1)]


def reference_rref(field, vectors, width):
    """Dense Gauss-Jordan in the field's own arithmetic (`Fraction` over Q).

    Returns the nonzero RREF rows, each with a leading 1, in pivot order.
    """
    rows = []  # (pivot, dense row)
    for vec in vectors:
        r = reference_residual(field, rows, vec, width)
        if not any(r):
            continue
        piv = next(c for c, x in enumerate(r) if x)
        inv = field.inv(r[piv])
        r = [field.mul(inv, x) for x in r]
        rows = [(q, [field.sub(x, field.mul(row[piv], y)) for x, y in zip(row, r)])
                for q, row in rows]
        rows.append((piv, r))
    return [row for _, row in sorted(rows, key=lambda pr: pr[0])]


def reference_residual(field, rows, vec, width):
    r = [field.zero] * width
    for c, v in vec.items():
        r[c] = field.coerce(v)
    for piv, row in rows:
        if r[piv]:
            r = [field.sub(x, field.mul(r[piv], y)) for x, y in zip(r, row)]
    return r


def random_entry(rng, field):
    """A small int, or a Fraction whose denominator is invertible in the field."""
    num = rng.choice([-3, -2, -1, 1, 2, 3, 4, 6])
    if rng.random() < 0.5:
        return num
    dens = [d for d in (1, 2, 3, 4, 5, 6, 7) if not field.characteristic or d % field.characteristic]
    return Fraction(num, rng.choice(dens))


def random_combination(rng, field, vectors):
    out = {}
    for vec in rng.sample(vectors, min(len(vectors), 3)):
        k = random_entry(rng, field)
        for c, v in vec.items():
            out[c] = field.add(out.get(c, field.zero), field.mul(field.coerce(k), field.coerce(v)))
    return {c: v for c, v in out.items() if v}


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=str)
def test_echelon_matches_reference_gauss_jordan(field):
    rng = random.Random(field.characteristic)
    for _ in range(40):
        width = rng.randint(1, 10)
        vectors = []
        for _ in range(rng.randint(1, 12)):
            if vectors and rng.random() < 0.3:
                vec = random_combination(rng, field, vectors)  # often dependent
            else:
                vec = {c: random_entry(rng, field) for c in range(width) if rng.random() < 0.4}
            vectors.append(vec)
        eb = EchelonBasis(field, width)
        for vec in vectors:
            eb.insert(vec)
        ref = reference_rref(field, vectors, width)
        ref_rows = [(next(c for c, x in enumerate(row) if x), row) for row in ref]

        assert eb.dim == len(ref)
        assert eb.pivots() == [piv for piv, _ in ref_rows]
        assert eb.dense() == ref
        for _ in range(5):
            combo = random_combination(rng, field, vectors)
            assert eb.contains(combo)
            perturbed = dict(combo)
            c = rng.randrange(width)
            perturbed[c] = field.add(perturbed.get(c, field.zero), field.one)
            perturbed = {c: v for c, v in perturbed.items() if v}
            residual = reference_residual(field, ref_rows, perturbed, width)
            assert eb.contains(perturbed) == (not any(residual))
            # reduce returns the residual over Z_p, a nonzero multiple of it over Q
            got = eb.reduce(perturbed)
            if any(residual):
                lead = next(c for c, x in enumerate(residual) if x)
                scale = Fraction(got[lead]) / residual[lead]
                assert scale and all(got.get(c, 0) == scale * x for c, x in enumerate(residual))

        # stored rows: residues in range(1, p), or primitive integers with a positive pivot
        for piv, row in eb._rows.items():
            assert piv == min(row) and all(type(v) is int and v for v in row.values())
            if field.characteristic:
                assert all(0 < v < field.characteristic for v in row.values())
            else:
                assert row[piv] > 0 and math.gcd(*row.values()) == 1
        # integer_rows: the stored rows in pivot order, leading at the pivots;
        # as many rows as the RREF, each in its span, so they span it
        rows = eb.integer_rows()
        assert [min(row) for row in rows] == eb.pivots()
        assert len(rows) == len(ref)
        for row in rows:
            assert not any(reference_residual(field, ref_rows, row, width))


# -- the forward echelon --------------------------------------------------------

@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=str)
def test_fill_in_pivot_columns_are_cleared(field):
    # the row of pivot 0 is not back-substituted, so it keeps column 2, which
    # became a pivot after it: clearing column 0 of v brings column 2 in, and
    # reduce must clear that column too
    eb = EchelonBasis(field, 4)
    eb.insert({0: 1, 2: 1})
    eb.insert({2: 1, 3: 1})
    assert eb.integer_rows() == [{0: 1, 2: 1}, {2: 1, 3: 1}]
    vec = {0: 1, 1: 1}
    got = eb.reduce(vec)
    residual = reference_residual(field, list(zip(eb.pivots(), eb.dense())), vec, 4)
    assert got == {c: x for c, x in enumerate(residual) if x} == {1: 1, 3: 1}
    assert eb.insert(vec) and eb.pivots() == [0, 1, 2]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=str)
def test_insert_stops_at_the_first_free_pivot(field):
    # a rank test: the lead of {1: 1, 2: 1} is free, so it is stored as it
    # is, keeping column 2 although column 2 is a pivot
    eb = EchelonBasis(field, 3)
    eb.insert({0: 1})
    eb.insert({2: 1})
    assert eb.insert({1: 1, 2: 1})
    assert eb._rows[1] == {1: 1, 2: 1}
    assert eb.dense() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=str)
def test_insert_never_rewrites_a_stored_row(field):
    # a new pivot is not cleared from the rows already stored
    rng = random.Random(17)
    eb = EchelonBasis(field, 8)
    eb.insert({0: 1, 1: 1})
    eb.insert({1: 1})
    assert eb.integer_rows()[0] == {0: 1, 1: 1}
    for _ in range(30):
        stored = {piv: (row, dict(row)) for piv, row in eb._rows.items()}
        eb.insert({c: random_entry(rng, field) for c in range(8) if rng.random() < 0.4})
        for piv, (row, copy) in stored.items():
            assert eb._rows[piv] is row and row == copy
