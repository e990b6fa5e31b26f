"""Tensor square, diagonal restriction, zero-divisor machinery."""

import inspect
import operator
import random
import textwrap

import pytest

import tcbounds.algebra as algebra
from tcbounds.algebra import AlgebraElement, Presentation
from tcbounds.bounds import assemble_report, report_from_ring, zero_divisor_cuplength
from tcbounds.cli import EXIT_CONTRADICTION, main
from tcbounds.coeffs import QQ, PrimeField
from tcbounds.linalg import EchelonBasis
from tcbounds.tensor import TensorElement, TensorSquare, bar, diagonal_restriction, koszul_swap

from oracles import random_homogeneous, random_tensor


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
    # each generator, then random classes of weight 1..top: bar lands in the
    # diagonal kernel and is additive
    rng = random.Random(0)
    for n in (2, 3):
        for m in (2, 3, 4):
            p = Presentation(n, m)
            for w in p.basis(1):
                v = AlgebraElement(p, QQ, {w: QQ.coerce(rng.choice([1, 2, -1]))})
                assert diagonal_restriction(bar(v)).is_zero()
            for _ in range(60):
                weight = rng.randint(1, p.top_weight)
                v = random_homogeneous(p, weight, rng)
                u = random_homogeneous(p, weight, rng)
                assert diagonal_restriction(bar(v)).is_zero()
                assert bar(v + u) == bar(v) + bar(u), (v, u)


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


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_diagonal_is_algebra_map_fuzz(n, m):
    rng = random.Random(n + m)
    p = Presentation(n, m)
    for _ in range(100):
        x = random_tensor(p, rng)
        y = random_tensor(p, rng)
        assert diagonal_restriction(x * y) == diagonal_restriction(x) * diagonal_restriction(y)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_koszul_swap_is_algebra_involution(n, m):
    rng = random.Random(n * m)
    p = Presentation(n, m)
    for _ in range(100):
        x = random_tensor(p, rng)
        y = random_tensor(p, rng)
        assert koszul_swap(x * y) == koszul_swap(x) * koszul_swap(y)
        assert koszul_swap(koszul_swap(x)) == x


def test_swap_of_product_reverses_factors_with_sign():
    p = Presentation(3, 2)
    sq = TensorSquare(p, QQ)
    rng = random.Random(4)
    for _ in range(60):
        x = random_tensor(p, rng)
        y = random_tensor(p, rng)
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


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_bar_products_are_swap_eigenvectors(n, m):
    # tau(bar S) = (-1)^|S| bar S for the Koszul product of barred generators,
    # the premise that lets every bar(S) be held by its coordinates iu <= iv;
    # times_bar must return exactly that half, in the keys N^2 - 1 - f of the
    # flat coordinates f = iu * N + iv
    pres = Presentation(n, m)
    one, gens, times_bar, _ = TensorSquare(pres, QQ)._operators(False)
    bars = [bar(generator(pres, i, j)) for i, j in pres.generators()]
    index = {w: i for i, w in enumerate(pres.full_basis())}
    n_mons = len(index)
    top = 2 * n - 2  # longer products vanish by grading
    checked = 0

    def half(x):
        flat = ((index[u], index[v], c) for (u, v), c in x.terms.items())
        return {n_mons * n_mons - 1 - (iu * n_mons + iv): c for iu, iv, c in flat if iu <= iv}

    def walk(x, vec, start, length):
        # every multiset S of at most top generators, as sorted indices
        nonlocal checked
        assert koszul_swap(x) == (x if length % 2 == 0 else -x)
        assert vec == half(x)
        checked += len(vec)
        if length < top:
            for gi in range(start, len(gens)):
                prod = x * bars[gi]
                if not prod.is_zero():
                    walk(prod, times_bar(vec, gi), gi, length + 1)
                else:
                    assert not times_bar(vec, gi)

    walk(TensorElement.one(pres, QQ), one, 0, 0)
    assert checked > 1


@pytest.mark.parametrize("n,m", [(3, 2), (3, 3), (5, 2), (5, 3)])
def test_times_bar_returns_only_the_half(n, m):
    # every key N^2 - 1 - f of a product has iu <= iv, f = iu * N + iv, on the
    # witness words and beyond
    pres = Presentation(n, m)
    one, gens, times_bar, _ = TensorSquare(pres, QQ)._operators(False)
    n_mons = len(pres.full_basis())
    vec, seen = one, 0
    for gi in list(gens) + list(gens):
        prod = times_bar(vec, gi)
        if not prod:
            continue
        flat = [n_mons * n_mons - 1 - r for r in prod]
        assert all(f // n_mons <= f % n_mons for f in flat)
        seen += len(prod)
        vec = prod
    assert seen > len(gens)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dim_counts_the_pairs(n):
    sq = TensorSquare(Presentation(n, 2), QQ)
    for w in range(-1, sq.top_weight + 2):
        assert sq.dim(w) == len(sq.basis(w))


def test_bar_span_never_lists_the_pairs(monkeypatch):
    # the span sizes its echelons by dim, not by the N^2 pairs (u, v)
    def listing(self, w):
        raise AssertionError("the bar span listed the basis pairs")

    monkeypatch.setattr(TensorSquare, "basis", listing)
    dims = TensorSquare(Presentation(5, 2), PrimeField(3)).bar_span_profile()
    assert dims == [10, 45, 120, 210, 246, 180, 60]


@pytest.mark.parametrize("n,m,dims", [(2, 3, [1, 1]), (3, 3, [3, 6, 6, 3])])
def test_barspan_keeps_the_diagonal(n, m, dims):
    # V_2 = (H (x) H)_2 = span(e (x) e) at n = 2: a projection onto iu > iv
    # alone would lose it and give [1], and [3, 3, 6, 1] at n = 3
    assert TensorSquare(Presentation(n, m), QQ).bar_span_profile() == dims


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


def test_barspan_mod2_odd_m_degrades():
    # bar(g)^2 = -2 g (x) g dies mod 2: V_2 .. V_5 are thinner than over Q
    # ([6, 21, 46, 66, 57, 21]) and V_6 vanishes
    sq = TensorSquare(Presentation(4, 3), PrimeField(2))
    assert sq.bar_span_profile() == [6, 15, 20, 15, 5]
    assert TensorSquare(Presentation(4, 3), QQ).bar_span_length() == 6


def witness_cases():
    # n = 5 only where the decone splits (even m, odd m over Z_2): odd m over
    # Q or Z_3 builds the full span there, about 0.8 s each
    for n in (2, 3, 4, 5):
        for m in (2, 3, 4, 5):
            for field, name in ((QQ, "Q"), (PrimeField(2), "Z2"), (PrimeField(3), "Z3")):
                if n < 5 or m % 2 == 0 or field.characteristic == 2:
                    yield pytest.param(n, m, field, id=f"{n}-{m}-{name}")


@pytest.mark.parametrize("n,m,field", witness_cases())
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


# -- the report route: the paper's witness and the decone check -----------------

def square_free_products_vanish(sq, k):
    """Whether bar(S) vanishes in the square's field for each square-free k-subset S.

    The oracle for the decone check's upper bound: a depth-first search over
    sorted S, multiplied out over Z with the square's own operators; a partial
    product that is 0 over Z stays 0.
    """
    one, gens, times_bar, _ = sq._operators(False)
    coerce = sq.field.coerce

    def vanish(vec, start, depth):
        if depth == k:
            return not any(coerce(c) for c in vec.values())
        for gi in range(start, len(gens) - (k - depth) + 1):
            prod = times_bar(vec, gi)
            if prod and not vanish(prod, gi + 1, depth + 1):
                return False
        return True

    return vanish(one, 0, 0)


def break_koszul_sign(monkeypatch):
    """Straighten e_13 e_12 to +e_12 e_13, the swap's sign dropped.

    The R_g rows never straighten a word, so only the decone check sees it:
    d of the two sides differs.
    """
    straighten = algebra.straighten_word

    def unsigned(word, parity):
        got = straighten(word, parity)
        if tuple(word) == ((1, 3), (1, 2)):
            got = {w: -c for w, c in got.items()}
        return got

    monkeypatch.setattr(algebra, "straighten_word", unsigned)
    algebra._RING_FACTS.clear()  # the facts of the sound straightening are gone


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=["Q", "Z2", "Z3"])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_route_matches_span(n, m, field, monkeypatch):
    # the whole report, from the field's cup-length and the rational one that
    # the sharpness bound reads, is the report the two bar spans give
    pres = Presentation(n, m)
    expected = report_from_ring(m, n, field, bar_span_length(pres, field),
                                bar_span_length(pres, QQ))
    assert without_tensor_work(monkeypatch, assemble_report, m, n, field) == expected


@pytest.mark.parametrize("n", [4, 5])
def test_top_check_sees_surviving_products(n):
    # odd m: bar(all six generators) survives over Q at n = 4, and 45 square-free
    # products of length 8 at n = 5; all of them vanish mod 2
    top = 2 * n - 2
    assert not square_free_products_vanish(TensorSquare(Presentation(n, 3), QQ), top)
    assert square_free_products_vanish(TensorSquare(Presentation(n, 3), PrimeField(2)), top)
    # even m: the witness length 2n - 3 survives, the top weight does not
    sq = TensorSquare(Presentation(n, 2), QQ)
    assert not square_free_products_vanish(sq, top - 1)
    assert square_free_products_vanish(sq, top)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_decone_check_kills_the_top_weight(n):
    # wherever the check holds, every square-free product of 2n - 2 barred
    # generators vanishes in the field, as its proof (c) says
    split = 0
    for m in (2, 3, 4, 5):
        for field in (QQ, PrimeField(2), PrimeField(3)):
            sq = TensorSquare(Presentation(n, m), field)
            if sq._decone_splits():
                split += 1
                assert square_free_products_vanish(sq, 2 * n - 2), (m, field)
    assert split == 8  # even m over every field, odd m over Z_2


# -- the witness coefficients in closed form -------------------------------------

def multiplied_out(pres, word, key):
    """The coefficient at key of the product of bar(g), g in word, multiplied out over Z."""
    x = TensorElement(pres, QQ, {TensorElement.UNIT: 1})
    for g in word:
        x = x * bar(AlgebraElement(pres, QQ, {(g,): 1}))
    return x.terms.get(key, 0)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_witness_terms_equal_the_multiplied_out_witnesses(n, m):
    # the oracle: both witnesses multiplied out as tensor elements, read at
    # E (x) E and E (x) F, against `witness_terms` and the closed-form signs
    pres = Presentation(n, m)
    gens = pres.generators()
    e, f = tuple((1, j) for j in range(2, n + 1)), tuple((2, j) for j in range(3, n + 1))
    squared = [g for g in gens if g[0] == 1 for _ in range(2)]
    split = [g for g in gens if g[0] == 1 or (g[0] == 2 and g[1] >= 3)]
    got = (multiplied_out(pres, squared, (e, e)), multiplied_out(pres, split, (e, f)))
    if n == 1:
        expected = (1, 1)  # both words are empty
    elif m % 2:
        expected = ((-2) ** (n - 1), (-1) ** n)
    else:
        expected = (0, (-1) ** ((n - 1) // 2))  # bar(g)^2 = 0 for odd |g|
    assert got == expected and pres.witness_terms() == expected[1]
    # a itself is never formed: a report takes the top length exactly where
    # the multiplied-out a is nonzero in the field
    for field in (QQ, PrimeField(2), PrimeField(3)):
        assert (zero_divisor_cuplength(pres, field) == 2 * n - 2) == bool(field.coerce(got[0]))
    # the squared word reaches the top weight 2n - 2 of the square, the split
    # one stops a letter short
    assert (len(squared), len(split)) == (2 * n - 2, max(2 * n - 3, 0))


def without_tensor_work(monkeypatch, compute, *args):
    """compute(*args), failing if it forms a tensor square or multiplies a tensor out."""
    def refuse(self, *args):
        raise AssertionError("the closed form left its route")

    with monkeypatch.context() as patch:
        patch.setattr(TensorSquare, "__init__", refuse)
        patch.setattr(TensorElement, "_product", refuse)
        return compute(*args)


ROUTE_FIELDS = {"Q": QQ, "Z2": PrimeField(2), "Z3": PrimeField(3)}
# every cell up to n = 4, and at n = 5 every cell whose span splits at the
# decone (10-20 ms each); the unsplit odd-m span at n = 5 takes about 1 s
CLOSED_FORM_CASES = [(n, m, f) for n in (1, 2, 3, 4) for m in (2, 3, 4, 5) for f in ROUTE_FIELDS]
CLOSED_FORM_CASES += [(5, m, f) for m in (2, 4) for f in ROUTE_FIELDS] + [(5, 3, "Z2"), (5, 5, "Z2")]


@pytest.mark.parametrize("n,m,field", CLOSED_FORM_CASES,
                         ids=["-".join(map(str, case)) for case in CLOSED_FORM_CASES])
def test_closed_form_matches_span(n, m, field, monkeypatch):
    pres, field = Presentation(n, m), ROUTE_FIELDS[field]
    assert without_tensor_work(monkeypatch, zero_divisor_cuplength, pres, field) == \
        bar_span_length(pres, field)


def mutated_straighten(old, new):
    """`straighten_word` with one statement of its source replaced."""
    source = textwrap.dedent(inspect.getsource(algebra.straighten_word))
    assert source.count(old) == 1
    namespace = dict(vars(algebra))
    exec(compile(source.replace(old, new), algebra.__file__, "exec"), namespace)
    return namespace["straighten_word"]


def rewritten(word, form):
    """`straighten_word` with the normal form of one word replaced by form."""
    def mutant(w, parity):
        return dict(form) if tuple(w) == word else straighten(w, parity)

    return mutant


straighten = algebra.straighten_word
SHARED_TERM = "stack.append((-coeff, tuple(head + [(a, b), (a, c)] + tail)))"


@pytest.mark.parametrize("mutant,m,field,failed", [
    (mutated_straighten(SHARED_TERM, "pass"), 2, "q", "decone"),
    (mutated_straighten(SHARED_TERM, "pass"), 3, "zp:2", "decone"),
    (mutated_straighten(SHARED_TERM, SHARED_TERM.replace("-coeff", "coeff")), 2, "q", "decone"),
    (rewritten(((1, 3), (1, 2)), {((1, 2), (1, 3)): -1}), 3, "q", "witness"),
    (rewritten(((1, 3), (2, 3)), {((1, 3), (2, 3)): 1}), 2, "q", "witness"),
    (rewritten(((1, 2), (1, 2)), {((1, 2), (1, 2)): 1}), 3, "q", "witness"),
], ids=["drop-shared-term", "drop-shared-term-mod-2", "flip-shared-term",
        "signed-even-swap", "e13-e23-without-e12", "e12-squared-survives"])
def test_a_broken_fact_is_a_contradiction(capsys, monkeypatch, mutant, m, field, failed):
    # each mutant of `straighten_word` breaks a fact the closed form rests on:
    # the decone check (the first three), or one of the facts (1)-(3) of
    # `witness_terms`, each leaving the decone check intact (fact (4), that E
    # and F are admissible, holds by construction; its mutants moved to
    # `test_admissible_word_check_kills_the_witness_mutants`).
    # Every command that certifies the ring then stops with exit 4, no output
    # and one line naming the failed fact, no traceback, also where the ring
    # failed in a grid worker (forked after the patch)
    monkeypatch.setattr(algebra, "straighten_word", mutant)
    algebra._RING_FACTS.clear()
    pres = Presentation(4, m)
    assert (pres.witness_terms() is None, pres.decone_splits()) == {
        "witness": (True, True), "decone": (False, False)}[failed]
    named = {"witness": "a witness fact failed", "decone": "the decone check failed"}[failed]
    ring = ["--m", str(m), "--field", field]
    for argv in (["report", "--n", "4", *ring], ["zcl", "--n", "4", *ring],
                 ["grid", "--n", "3..4", "--jobs", "1", *ring],
                 ["grid", "--n", "3..4", "--jobs", "2", *ring]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_CONTRADICTION, ""), argv
        assert err.startswith(f"CONTRADICTION: {named} for (m={m}, n="), argv
        assert err.count("\n") == 1 and "Traceback" not in err, argv


# -- the span split at the decone ---------------------------------------------

FIELDS = [QQ, PrimeField(2), PrimeField(3)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_decone_check_truth_table(n, straightened_words):
    # the contraction d is defined over Z for even m and mod 2 for odd m;
    # odd m outside characteristic 2, and n = 1, are refused unchecked; the
    # check straightens the two-letter patterns, 13 from n = 4 on, once per
    # parity of m (this test's n fixes min(n, 4)), whatever m and field ask
    patterns = {2: 1, 3: 7}.get(n, 13)
    checked = set()
    for m in (2, 3, 4, 5):
        for field in FIELDS:
            straightened_words.clear()
            splits = n >= 2 and (m % 2 == 0 or field.characteristic == 2)
            assert TensorSquare(Presentation(n, m), field)._decone_splits() is splits, (m, field)
            first = splits and m % 2 not in checked
            assert len(straightened_words) == (patterns if first else 0), (m, field)
            if splits:
                checked.add(m % 2)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_decone_check_runs_once_per_ring(m, straightened_words):
    # every square over one ring reads the ring's one answer: over Z for even
    # m, mod 2 for odd m, where Q and Z_3 refuse without asking
    pres = Presentation(4, m)
    splits = [TensorSquare(pres, field)._decone_splits() for field in FIELDS * 2]
    assert splits == [m % 2 == 0 or field.characteristic == 2 for field in FIELDS * 2]
    assert len(straightened_words) == 13


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Z2", "Z3"])
def test_barspan_is_empty_at_one_point(field, m):
    # no generators: V_1 = 0, so the profile is [] and not the sum rule's [1]
    sq = TensorSquare(Presentation(1, m), field)
    assert sq.bar_span_profile() == []
    assert sq.bar_span_witness() == ()


def full_span_levels(sq):
    """Labels of V_1, V_2, ..., built in all of H (x) H whether or not the decone splits."""
    return sq._span_levels(False)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_split_route_matches_full_route(n):
    # wherever the check holds, the sum rule dim W_k + dim W_{k-1} and the
    # witness e_12 * (first label of W's last level) equal the profile and the
    # first label of the last level of the span built in all of H (x) H
    split = 0
    for m in (2, 3, 4, 5):
        for field in FIELDS:
            sq = TensorSquare(Presentation(n, m), field)
            if not sq._decone_splits():
                continue
            split += 1
            full = full_span_levels(sq)
            gens = sq.pres.generators()
            assert sq.bar_span_profile() == [len(level) for level in full]
            assert sq.bar_span_witness() == tuple(gens[gi] for gi in full[-1][0])
    assert split == 8  # even m over every field, odd m over Z_2


@pytest.mark.parametrize("field,split,dims", [
    (QQ, False, [6, 21, 46, 66, 57, 21]),
    (PrimeField(2), True, [6, 15, 20, 15, 5]),
], ids=["Q", "Z2"])
def test_span_route_selects_the_insert(field, split, dims, monkeypatch):
    # the split route, where nearly every product is independent, offers it
    # straight to the rank-test insert and never reduces; the unsplit route,
    # where most are dependent, stores only fully reduced rows, each zero at
    # every pivot column that existed when it was inserted
    insert, reduce = EchelonBasis.insert, EchelonBasis.reduce
    reduced, rows = [], []

    def spy_reduce(self, vec):
        reduced.append(vec)
        return reduce(self, vec)

    def spy_insert(self, vec):
        before = set(self._rows)
        if not insert(self, vec):
            return False
        (piv,) = set(self._rows) - before
        rows.append(not before & set(self._rows[piv]))
        return True

    monkeypatch.setattr(EchelonBasis, "reduce", spy_reduce)
    monkeypatch.setattr(EchelonBasis, "insert", spy_insert)
    sq = TensorSquare(Presentation(4, 3), field)
    assert sq._decone_splits() is split
    assert sq.bar_span_profile() == dims
    assert bool(reduced) is not split
    # on the split route some stored row keeps an earlier pivot column
    assert all(rows) is not split


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_quotient_ranks_count_the_words_without_e12(n):
    # the echelon widths of the split route are dims of the quotient's square
    pres = Presentation(n, 2)
    ranks = TensorSquare(pres, QQ)._operators(True)[3]
    assert ranks == [sum((1, 2) not in w for w in pres.basis(k)) for k in range(n - 1)]


@pytest.mark.parametrize("n", [3, 4])
def test_broken_koszul_sign_takes_the_full_route(n, monkeypatch):
    # with the swap's sign dropped the check fails, and the span is built in full
    routes = []
    operators = TensorSquare._operators

    def spy(self, split):
        routes.append(split)
        return operators(self, split)

    expected = TensorSquare(Presentation(n, 2), QQ).bar_span_profile()
    break_koszul_sign(monkeypatch)
    monkeypatch.setattr(TensorSquare, "_operators", spy)
    # `break_koszul_sign` cleared the facts the sound square above left
    sq = TensorSquare(Presentation(n, 2), QQ)
    assert not sq._decone_splits()
    assert sq.bar_span_profile() == expected
    assert routes == [False]


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
