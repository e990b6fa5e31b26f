"""Tensor square, diagonal restriction, zero-divisor machinery."""

import operator
import random

import pytest

from tcbounds.algebra import AlgebraElement, Presentation
from tcbounds.coeffs import QQ, PrimeField
from tcbounds.linalg import EchelonBasis
from tcbounds.selftest import random_tensor
from tcbounds.tensor import TensorElement, TensorSquare, bar, diagonal_restriction, koszul_swap


def generator(pres, i, j, field=QQ):
    return AlgebraElement.generator(pres, field, i, j)


def one_tensor(x):
    return TensorElement.of(AlgebraElement.one(x.pres, x.field), x)


def tensor_one(x):
    return TensorElement.of(x, AlgebraElement.one(x.pres, x.field))


# -- Koszul signs --------------------------------------------------------------

def test_koszul_sign_odd_degree():
    p = Presentation(2, 2)  # |e| = 1
    e = generator(p, 1, 2)
    prod = one_tensor(e) * tensor_one(e)
    assert prod == -TensorElement.of(e, e)


def test_koszul_sign_even_degree():
    p = Presentation(2, 3)  # |e| = 2
    e = generator(p, 1, 2)
    prod = one_tensor(e) * tensor_one(e)
    assert prod == TensorElement.of(e, e)


def test_bar_square_even_degree_is_doubled():
    # for |e| even: (e x 1 - 1 x e)^2 = -2 e x e
    p = Presentation(2, 3)
    e = generator(p, 1, 2)
    b = bar(e)
    assert b * b == (-2) * TensorElement.of(e, e)


def test_bar_square_odd_degree_dies():
    p = Presentation(2, 4)
    e = generator(p, 1, 2)
    b = bar(e)
    assert (b * b).is_zero()


def test_bar_square_mod2_always_dies():
    f2 = PrimeField(2)
    p = Presentation(2, 3)
    b = bar(generator(p, 1, 2, field=f2))
    assert (b * b).is_zero()


# -- diagonal restriction --------------------------------------------------------

def test_diagonal_restriction_examples():
    p = Presentation(2, 3)
    e = generator(p, 1, 2)
    assert diagonal_restriction(TensorElement.of(e, e)).is_zero()  # e^2 = 0

    p3 = Presentation(3, 2)
    a, b = generator(p3, 1, 2), generator(p3, 1, 3)
    restricted = diagonal_restriction(TensorElement.of(a, b))
    assert restricted == a * b  # matches straightening


def test_bar_classes_are_zero_divisors():
    rng = random.Random(0)
    for n, m in [(2, 3), (3, 2), (3, 4)]:
        p = Presentation(n, m)
        basis1 = p.basis(1)
        for w in basis1:
            v = AlgebraElement(p, QQ, {w: QQ.coerce(rng.choice([1, 2, -1]))})
            assert diagonal_restriction(bar(v)).is_zero()


def test_bar_rejects_mixed_input():
    p = Presentation(3, 2)
    mixed = generator(p, 1, 2) + generator(p, 1, 2) * generator(p, 2, 3)
    with pytest.raises(ValueError):
        bar(mixed)
    with pytest.raises(ValueError):
        bar(AlgebraElement.one(p, QQ))


def test_bar_of_zero():
    p = Presentation(3, 2)
    assert bar(AlgebraElement.zero(p, QQ)).is_zero()


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 3)])
def test_diagonal_is_algebra_map_fuzz(n, m):
    rng = random.Random(n + m)
    p = Presentation(n, m)
    for _ in range(100):
        x = random_tensor(p, QQ, rng)
        y = random_tensor(p, QQ, rng)
        assert diagonal_restriction(x * y) == diagonal_restriction(x) * diagonal_restriction(y)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (3, 3)])
def test_koszul_swap_is_algebra_involution(n, m):
    rng = random.Random(n * m)
    p = Presentation(n, m)
    for _ in range(100):
        x = random_tensor(p, QQ, rng)
        y = random_tensor(p, QQ, rng)
        assert koszul_swap(x * y) == koszul_swap(x) * koszul_swap(y)
        assert koszul_swap(koszul_swap(x)) == x


def test_swap_of_product_reverses_factors_with_sign():
    p = Presentation(3, 2)
    sq = TensorSquare(p, QQ)
    rng = random.Random(4)
    for _ in range(60):
        x = random_tensor(p, QQ, rng)
        y = random_tensor(p, QQ, rng)
        wx, wy = x.weight, y.weight
        if wx is None or wy is None:
            continue
        sign = -1 if (wx * p.degree) % 2 and (wy * p.degree) % 2 else 1
        assert koszul_swap(x * y) == sign * (koszul_swap(y) * koszul_swap(x))


# -- diagonal kernels (the zero-divisors of one weight) ---------------------------

def test_sphere_degree_two_kernel():
    p = Presentation(2, 3)
    sq = TensorSquare(p, QQ)
    ker = sq.diagonal_kernel(1)  # degree 2 = one generator
    assert ker.dim == 1
    assert ker.contains(sq.coords(bar(generator(p, 1, 2))))


def test_sphere_top_kernel():
    p = Presentation(2, 3)
    sq = TensorSquare(p, QQ)
    ker = sq.diagonal_kernel(2)  # degree 4
    e = generator(p, 1, 2)
    assert ker.dim == 1
    assert ker.contains(sq.coords(TensorElement.of(e, e)))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_generator_degree_kernel_is_one_dimensional(m):
    sq = TensorSquare(Presentation(2, m), QQ)
    assert sq.diagonal_kernel(1).dim == 1


# -- cup-length (full ideal iteration) and bar spans ------------------------------

def cuplength(pres, field):
    return len(TensorSquare(pres, field).zero_divisor_power_profile())


def bar_span_length(pres, field):
    return TensorSquare(pres, field).bar_span_length()


def test_cuplength_sphere_even():
    assert cuplength(Presentation(2, 3), QQ) == 2


def test_cuplength_sphere_odd():
    assert cuplength(Presentation(2, 4), QQ) == 1


def test_cuplength_three_points_in_plane():
    assert cuplength(Presentation(3, 2), QQ) == 3


def test_cuplength_one_point():
    assert cuplength(Presentation(1, 3), QQ) == 0


def test_cuplength_mod2_sphere_degrades():
    assert cuplength(Presentation(2, 3), PrimeField(2)) == 1


def test_barspan_examples():
    assert bar_span_length(Presentation(2, 3), QQ) == 2
    assert bar_span_length(Presentation(3, 4), QQ) == 3
    assert bar_span_length(Presentation(3, 3), QQ) == 4


def test_barspan_v4_dies_for_even_m():
    sq = TensorSquare(Presentation(3, 4), QQ)
    dims = sq.bar_span_profile()
    assert len(dims) == 3  # V_4 = 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_barspan_parity_law(n):
    # even m: longest surviving product of barred generators is 2n-3;
    # odd m: the top weight 2n-2 is reached
    for m in (2, 4):
        assert bar_span_length(Presentation(n, m), QQ) == 2 * n - 3
    assert bar_span_length(Presentation(n, 3), QQ) == 2 * n - 2


def reference_bar_span_profile(pres, field):
    """V_k the direct way: every echelon row of V_k times every barred generator."""
    sq = TensorSquare(pres, field)
    v1 = [bar(generator(pres, i, j, field=field)) for i, j in pres.generators()]
    eb = EchelonBasis(field, sq.dim(1))
    for b in v1:
        eb.insert(sq.coords(b, weight=1))
    dims = []
    k = 1
    while eb.dim:
        dims.append(eb.dim)
        if k == sq.top_weight:
            break
        rows = [sq.element(k, vec) for vec in eb.vectors()]
        k += 1
        eb = EchelonBasis(field, sq.dim(k))
        for a in rows:
            for b in v1:
                p = a * b
                if not p.is_zero():
                    eb.insert(sq.coords(p, weight=k))
    return dims


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=["Q", "Z2", "Z3"])
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_barspan_matches_reference(n, m, field):
    pres = Presentation(n, m)
    ref = reference_bar_span_profile(pres, field)
    sq = TensorSquare(pres, field)
    assert sq.bar_span_profile() == ref
    for cap in range(1, len(ref) + 1):
        assert TensorSquare(pres, field).bar_span_profile(max_power=cap) == ref[:cap]
        assert sq.bar_span_profile(max_power=cap) == ref[:cap]  # from the cached levels


def test_barspan_mod2_odd_m_degrades():
    # bar(g)^2 = -2 g (x) g dies mod 2: V_2 .. V_5 are thinner than over Q
    # ([6, 21, 46, 66, 57, 21]) and V_6 vanishes
    sq = TensorSquare(Presentation(4, 3), PrimeField(2))
    assert sq.bar_span_profile() == [6, 15, 20, 15, 5]
    assert TensorSquare(Presentation(4, 3), QQ).bar_span_length() == 6


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=["Q", "Z2", "Z3"])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_barspan_witness_replays(n, m, field):
    pres = Presentation(n, m)
    sq = TensorSquare(pres, field)
    witness = sq.bar_span_witness()
    assert len(witness) == sq.bar_span_length()
    prod = TensorElement.one(pres, field)
    for i, j in witness:
        prod = prod * bar(generator(pres, i, j, field=field))
    assert not prod.is_zero()


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)])
def test_barspan_never_exceeds_cuplength(n, m):
    # The zero-divisor lemma makes the two lengths equal over every field, and
    # reports read the cup-length off the bar span; the full ideal iteration
    # is the oracle that backs that route.
    pres = Presentation(n, m)
    for field in (QQ, PrimeField(2), PrimeField(3)):
        assert bar_span_length(pres, field) == cuplength(pres, field), field.describe()


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 5)])
def test_power_weights_stay_in_range(n, m):
    sq = TensorSquare(Presentation(n, m), QQ)
    profile = sq.zero_divisor_power_profile()
    top = 2 * (n - 1)
    for k, piece in enumerate(profile, start=1):
        for w in piece:
            assert k <= w <= top


def test_powers_are_nested():
    # every vector of Z^(k+1) lies in Z^(k)
    p = Presentation(3, 2)
    sq = TensorSquare(p, QQ)
    z1 = {w: sq.diagonal_kernel(w) for w in range(1, sq.top_weight + 1)}
    z1_vecs = {w: eb.vectors() for w, eb in z1.items() if eb.dim}
    z2 = sq._span_product(z1_vecs, z1_vecs)
    for w, eb in z2.items():
        for vec in eb.vectors():
            assert z1[w].contains(vec)


def test_mismatched_tensor_factors_rejected():
    x = TensorElement.one(Presentation(3, 2), QQ)
    y = TensorElement.one(Presentation(3, 3), QQ)
    with pytest.raises(ValueError):
        x * y


def test_ring_and_tensor_elements_never_equal():
    # the shared element base compares the element kind, not only the terms
    p = Presentation(3, 2)
    assert not AlgebraElement.zero(p, QQ) == TensorElement.zero(p, QQ)
    assert not TensorElement.zero(p, QQ) == AlgebraElement.zero(p, QQ)
    assert AlgebraElement.zero(p, QQ) != TensorElement.zero(p, QQ)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=["+", "-", "*"])
def test_ring_and_tensor_elements_do_not_combine(op):
    p = Presentation(3, 2)
    a = generator(p, 1, 2)
    t = bar(a)
    for x, y in ((a, t), (t, a)):
        with pytest.raises(TypeError):
            op(x, y)
